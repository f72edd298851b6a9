#include "apl/ckpt.hpp"

#include <algorithm>
#include <limits>

#include "apl/error.hpp"

namespace apl::ckpt {

void ChainAnalysis::record(const std::string& name,
                           std::vector<ArgAccess> args) {
  for (const ArgAccess& a : args) {
    if (!a.is_gbl && a.dat_id >= 0 && writes(a.acc)) {
      if (static_cast<std::size_t>(a.dat_id) >= dat_modified_.size()) {
        dat_modified_.resize(static_cast<std::size_t>(a.dat_id) + 1, 0);
      }
      dat_modified_[a.dat_id] = 1;
    }
  }
  chain_.push_back(ChainEntry{name, std::move(args)});
}

ChainAnalysis::Step ChainAnalysis::step(const std::string& name,
                                        std::vector<ArgAccess> args,
                                        const Options& opts) {
  record(name, std::move(args));
  Step out;
  if (mode_ == Mode::kPending) {
    const bool due = target_phase_ < 0 ||
                     (period_ > 0 && seq_ % period_ == target_phase_);
    if (due) enter_saving(static_cast<index_t>(dat_modified_.size()));
  }
  if (mode_ == Mode::kSaving) {
    saving_step(chain_.back().args, opts, out);
  }
  return out;
}

void ChainAnalysis::request(const Options& opts) {
  require(mode_ == Mode::kMonitor,
          "request_checkpoint: a checkpoint is already in progress");
  if (opts.speculative) {
    period_ = detect_period();
    if (period_ > 0) {
      // Evaluate every phase of the period at a historical position with
      // maximal lookahead and target the cheapest one.
      index_t best_units = std::numeric_limits<index_t>::max();
      target_phase_ = seq_ % period_;  // fall back to "enter now"
      for (index_t phase = 0; phase < period_; ++phase) {
        // Latest position with this phase that still has a full period of
        // lookahead, evaluated against the *current* modification state —
        // that is what a deferred entry at this phase will actually see.
        const index_t last = static_cast<index_t>(chain_.size()) - period_;
        if (last < phase) continue;
        const index_t pos = phase + (last - phase) / period_ * period_;
        const Replay r = replay_from(pos, /*assume_current_modified=*/true,
                                     "request_checkpoint");
        if (r.decided && r.units < best_units) {
          best_units = r.units;
          target_phase_ = phase;
        }
      }
      mode_ = Mode::kPending;
      return;
    }
  }
  mode_ = Mode::kPending;
  target_phase_ = -1;  // no periodicity: enter at the very next loop
}

void ChainAnalysis::enter_saving(index_t num_dats) {
  mode_ = Mode::kSaving;
  entry_seq_ = seq_;
  dat_state_.assign(static_cast<std::size_t>(num_dats), DatState::kUnknown);
  saving_steps_ = 0;
  // Datasets never modified since application start keep their initial
  // values; restart regenerates them, so they are dropped up front
  // (Fig. 8: "bounds and x were never modified, they are not saved").
  for (index_t d = 0; d < num_dats; ++d) {
    if (!dat_modified_[d]) dat_state_[d] = DatState::kDropped;
  }
}

void ChainAnalysis::saving_step(const std::vector<ArgAccess>& args,
                                const Options& opts, Step& out) {
  // Classify this loop's datasets; the owner packs the ones first-touched
  // by a read *now*, before the loop runs — their current value is the
  // loop-entry value the restart needs.
  for (const ArgAccess& a : args) {
    if (a.is_gbl || a.dat_id < 0) continue;
    DatState& st = dat_state_[a.dat_id];
    if (st != DatState::kUnknown) continue;
    if (reads(a.acc)) {
      st = DatState::kSaved;
      out.save_now.push_back(a.dat_id);
    } else {  // whole write before any read: the value is dead
      st = DatState::kDropped;
    }
  }
  ++saving_steps_;
  const bool all_decided =
      std::none_of(dat_state_.begin(), dat_state_.end(),
                   [](DatState s) { return s == DatState::kUnknown; });
  if (all_decided || saving_steps_ >= opts.horizon) {
    // Conservatively save modified-but-untouched datasets. Untouched since
    // entry, so packing now still captures their entry value.
    for (std::size_t d = 0; d < dat_state_.size(); ++d) {
      if (dat_state_[d] == DatState::kUnknown) {
        dat_state_[d] = DatState::kSaved;
        out.save_now.push_back(static_cast<index_t>(d));
      }
    }
    out.completed = true;
    mode_ = Mode::kMonitor;
  }
}

std::optional<index_t> ChainAnalysis::units_if_entering_at(index_t pos) const {
  const Replay r = replay_from(pos, false, "units_if_entering_at");
  if (!r.decided) return std::nullopt;  // "unknown yet": lookahead exhausted
  return r.units;
}

std::vector<index_t> ChainAnalysis::datasets_saved_at(index_t pos) const {
  return replay_from(pos, false, "datasets_saved_at").saved;
}

ChainAnalysis::Replay ChainAnalysis::replay_from(index_t pos,
                                                 bool assume_current_modified,
                                                 const char* what) const {
  require(pos >= 0 && pos < static_cast<index_t>(chain_.size()), what,
          ": position out of recorded range");
  // Replay the classification against the recorded chain. "Modified before
  // pos" is recomputed from the chain prefix, or taken from the live run.
  std::vector<char> modified(dat_modified_.size(), 0);
  if (assume_current_modified) {
    modified.assign(dat_modified_.begin(), dat_modified_.end());
  } else {
    for (index_t i = 0; i < pos; ++i) {
      for (const ArgAccess& a : chain_[i].args) {
        if (!a.is_gbl && a.dat_id >= 0 && writes(a.acc)) modified[a.dat_id] = 1;
      }
    }
  }
  std::vector<DatState> state(dat_modified_.size(), DatState::kUnknown);
  std::vector<char> relevant(dat_modified_.size(), 0);
  for (const auto& entry : chain_) {
    for (const ArgAccess& a : entry.args) {
      if (!a.is_gbl && a.dat_id >= 0) relevant[a.dat_id] = 1;
    }
  }
  for (std::size_t d = 0; d < state.size(); ++d) {
    if (!modified[d]) state[d] = DatState::kDropped;
  }
  Replay out;
  for (index_t i = pos; i < static_cast<index_t>(chain_.size()); ++i) {
    for (const ArgAccess& a : chain_[i].args) {
      if (a.is_gbl || a.dat_id < 0) continue;
      DatState& st = state[a.dat_id];
      if (st != DatState::kUnknown) continue;
      if (reads(a.acc)) {
        st = DatState::kSaved;
        out.units += a.dim;
        out.saved.push_back(a.dat_id);
      } else {
        st = DatState::kDropped;
      }
    }
    out.decided = true;
    for (std::size_t d = 0; d < state.size(); ++d) {
      if (relevant[d] && state[d] == DatState::kUnknown) out.decided = false;
    }
    // Datasets outside `relevant` never appear in the chain, so nothing
    // after this point can change the outcome.
    if (out.decided) break;
  }
  return out;
}

index_t ChainAnalysis::detect_period() const {
  const index_t n = static_cast<index_t>(chain_.size());
  for (index_t p = 1; p <= n / 2; ++p) {
    bool periodic = true;
    for (index_t i = 0; i + p < n; ++i) {
      if (!(chain_[i] == chain_[i + p])) {
        periodic = false;
        break;
      }
    }
    if (periodic) return p;
  }
  return 0;
}

// ---- SaveReplay ------------------------------------------------------------

SaveReplay::SaveReplay(std::string path, Options opts, index_t num_dats,
                       bool replay)
    : store_(std::move(path)), opts_(opts), analysis_(num_dats) {
  if (!replay) return;
  replay_file_ = store_.load();
  replaying_ = true;
  const io::File& file = replay_file_;
  const auto entry = file.get<std::int64_t>("meta/entry_loop");
  require(entry.size() == 1, "checkpoint: malformed meta/entry_loop");
  replay_entry_seq_ = static_cast<index_t>(entry[0]);
  // Global-output log: flat bytes + offsets + newline-joined loop names.
  // A file can pass its CRC and still carry inconsistent metadata, so
  // every offset is checked before it becomes an iterator.
  const auto offsets = file.get<std::int64_t>("meta/gbl_offsets");
  const auto flat = file.get<std::uint8_t>("meta/gbl_log");
  require(!offsets.empty() && offsets[0] == 0,
          "checkpoint: malformed meta/gbl_offsets (must start at 0)");
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    require(offsets[i] <= offsets[i + 1] &&
                offsets[i + 1] <= static_cast<std::int64_t>(flat.size()),
            "checkpoint: malformed meta/gbl_offsets (entry ", i + 1, " = ",
            offsets[i + 1], " is decreasing or past the ", flat.size(),
            "-byte meta/gbl_log)");
    replay_gbl_.emplace_back(flat.begin() + offsets[i],
                             flat.begin() + offsets[i + 1]);
  }
  const auto names_bytes = file.get<std::uint8_t>("meta/loop_names");
  std::string names(names_bytes.begin(), names_bytes.end());
  for (std::size_t pos = 0; pos < names.size();) {
    const std::size_t nl = names.find('\n', pos);
    replay_names_.push_back(names.substr(pos, nl - pos));
    pos = (nl == std::string::npos) ? names.size() : nl + 1;
  }
  require(static_cast<index_t>(replay_gbl_.size()) == replay_entry_seq_,
          "checkpoint: meta/gbl_offsets does not cover the fast-forward "
          "range");
  require(static_cast<index_t>(replay_names_.size()) >= replay_entry_seq_,
          "checkpoint: meta/loop_names holds ", replay_names_.size(),
          " names for ", replay_entry_seq_, " replayed loops");
}

void SaveReplay::request_checkpoint() {
  require(!replaying_,
          "request_checkpoint: still fast-forwarding a restarted run");
  analysis_.request(opts_);
}

void SaveReplay::finalize_checkpoint() {
  io::File file;
  for (std::size_t i = 0; i < saved_dats_.size(); ++i) {
    const auto& bytes = saved_payloads_[i];
    file.put<std::uint8_t>("dat/" + dat_name(saved_dats_[i]), bytes,
                           {static_cast<std::uint64_t>(bytes.size())});
  }
  const index_t entry_seq = analysis_.entry_seq();
  file.put<std::int64_t>(
      "meta/entry_loop",
      std::vector<std::int64_t>{static_cast<std::int64_t>(entry_seq)}, {1});
  // Flatten the global-output log of loops [0, entry_seq).
  const auto& chain = analysis_.chain();
  std::vector<std::uint8_t> flat;
  std::vector<std::int64_t> offsets{0};
  std::string names;
  for (index_t i = 0; i < entry_seq; ++i) {
    flat.insert(flat.end(), gbl_log_[i].begin(), gbl_log_[i].end());
    offsets.push_back(static_cast<std::int64_t>(flat.size()));
    names += chain[i].name;
    names += '\n';
  }
  if (flat.empty()) flat.push_back(0);  // h5lite rejects rank-0 payloads only
  file.put<std::uint8_t>("meta/gbl_log", flat,
                         {static_cast<std::uint64_t>(flat.size())});
  file.put<std::int64_t>("meta/gbl_offsets", offsets,
                         {static_cast<std::uint64_t>(offsets.size())});
  std::vector<std::uint8_t> names_bytes(names.begin(), names.end());
  if (names_bytes.empty()) names_bytes.push_back('\n');
  file.put<std::uint8_t>("meta/loop_names", names_bytes,
                         {static_cast<std::uint64_t>(names_bytes.size())});
  store_.save(file);
  saved_dats_.clear();
  saved_payloads_.clear();
  checkpoint_complete_ = true;
}

SaveReplay::LoopAction SaveReplay::step_loop(const std::string& name,
                                             std::vector<ArgAccess> args) {
  if (replaying_) {
    // Replayed loops are logically part of the restarted run's history, so
    // they are recorded too — a later checkpoint after a restart sees a
    // consistent chain — but the save state machine stays out of it.
    analysis_.record(name, std::move(args));
    const index_t seq = analysis_.position();
    if (seq < replay_entry_seq_) {
      require(name == replay_names_[seq], "checkpoint replay: expected loop '",
              replay_names_[seq], "' at position ", seq,
              " but application issued '", name,
              "' — the restarted run diverged");
      return LoopAction::kSkipReplay;
    }
    // Reached the checkpoint entry: restore datasets, resume execution.
    for (const auto& [key, ds] : replay_file_.all()) {
      if (key.rfind("dat/", 0) == 0) restore_dat(key.substr(4), ds.bytes);
    }
    replaying_ = false;
    return LoopAction::kExecute;
  }

  const ChainAnalysis::Step step =
      analysis_.step(name, std::move(args), opts_);
  for (index_t d : step.save_now) {
    // Pack *now*, before this loop executes: the dataset was untouched
    // since the checkpoint entry, so its current bytes are the entry
    // value the restart needs; the upcoming loop may modify it.
    saved_dats_.push_back(d);
    saved_payloads_.push_back(pack(d));
  }
  if (step.completed) finalize_checkpoint();
  return LoopAction::kExecute;
}

void SaveReplay::after_loop(std::span<const std::uint8_t> gbl_payload) {
  gbl_log_.emplace_back(gbl_payload.begin(), gbl_payload.end());
  analysis_.advance();
}

std::span<const std::uint8_t> SaveReplay::replay_gbl_payload() const {
  return replay_gbl_[analysis_.position()];
}

void SaveReplay::finish_replayed_loop() {
  gbl_log_.push_back(replay_gbl_[analysis_.position()]);
  analysis_.advance();
}

}  // namespace apl::ckpt
