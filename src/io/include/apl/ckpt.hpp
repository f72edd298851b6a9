// Shared loop-chain checkpointing (paper Sec. VI, Fig. 8).
//
// The chain-classification algorithm is library-agnostic: it only needs,
// per executed loop, the list of (dataset id, access mode) pairs. Both
// op2::Checkpointer (unstructured) and ops::Checkpointer (structured) are
// a SaveReplay: this component owns the classification, the checkpoint
// file and the fast-forward replay; each front end keeps only what is
// library-specific — projecting its loop descriptors, packing and
// unpacking dataset payloads, and (ops) its lazy-queue flush points.
//
// Classification, when a checkpoint is requested ("entering checkpointing
// mode" at loop i):
//   * first access is a read (R/RW/Inc)  -> SAVE the dataset now, before
//     that loop runs (its bytes still equal the entry value);
//   * first access is a whole write (W)  -> DROP (the value is dead);
//   * never modified since app start     -> DROP (restart re-creates it);
//   * undecided after `horizon` loops    -> conservatively SAVE.
// Fig. 8's "units of data saved if entering here" column is the sum of
// saved dataset dimensions, computable for any candidate entry point from
// the recorded chain. In speculative mode the request is deferred to the
// cheapest phase of the detected periodic kernel sequence (that column,
// minimised over the period).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apl/error.hpp"
#include "apl/exec.hpp"
#include "apl/io/ckpt.hpp"

namespace apl::ckpt {

using index_t = std::int32_t;
using exec::Access;
using exec::reads;
using exec::writes;

/// Library-agnostic projection of one loop argument. `aux` carries the
/// front end's extra identity (op2: map id and component; ops: stencil id)
/// so chain equality — and with it period detection — stays exactly as
/// strict as comparing the native descriptors.
struct ArgAccess {
  index_t dat_id = -1;  ///< -1 for globals
  Access acc = Access::kRead;
  index_t dim = 0;
  bool is_gbl = false;
  index_t aux = -1;

  bool operator==(const ArgAccess&) const = default;
};

struct ChainEntry {
  std::string name;
  std::vector<ArgAccess> args;

  bool operator==(const ChainEntry&) const = default;
};

struct Options {
  /// Defer entry to the cheapest phase of a detected periodic loop
  /// sequence instead of entering at the trigger point.
  bool speculative = true;
  /// Max loops to wait for all datasets to be classified before
  /// conservatively saving the undecided ones.
  index_t horizon = 64;
};

class ChainAnalysis {
 public:
  enum class Mode { kMonitor, kPending, kSaving };

  /// What the owner must do for the loop just presented to step().
  struct Step {
    /// Dataset ids to pack *now*, before the loop executes (in save order).
    std::vector<index_t> save_now;
    /// True when this step completed the classification: the owner
    /// finalizes the checkpoint (entry point is entry_seq()).
    bool completed = false;
  };

  explicit ChainAnalysis(index_t num_dats) {
    dat_modified_.assign(static_cast<std::size_t>(num_dats), 0);
  }

  /// Records the loop in the chain and updates modification facts without
  /// running the save state machine — used while a restarted run is
  /// fast-forwarding (replayed loops are part of the logical history).
  void record(const std::string& name, std::vector<ArgAccess> args);

  /// Records the loop and advances the checkpoint state machine. Call
  /// before the loop body runs, so save_now payloads capture entry values.
  Step step(const std::string& name, std::vector<ArgAccess> args,
            const Options& opts);

  /// The loop finished (executed or replayed): advances the position.
  void advance() { ++seq_; }

  /// Arms the state machine; with opts.speculative the entry is deferred
  /// to the cheapest phase of the detected period. Requires kMonitor mode.
  void request(const Options& opts);

  Mode mode() const { return mode_; }
  index_t position() const { return seq_; }
  /// Entry loop of the checkpoint being saved / just saved (-1 if none).
  index_t entry_seq() const { return entry_seq_; }

  const std::vector<ChainEntry>& chain() const { return chain_; }

  /// The Fig. 8 "units of data saved if entering checkpointing mode here"
  /// value for chain position `pos`. Returns nullopt when the recorded
  /// lookahead is insufficient to decide every dataset ("unknown yet").
  std::optional<index_t> units_if_entering_at(index_t pos) const;

  /// Smallest period p with chain[i] == chain[i+p] for all recorded i
  /// (0 if the chain is not periodic over the recorded window).
  index_t detect_period() const;

  /// Datasets a checkpoint entered at `pos` would save, in save order.
  std::vector<index_t> datasets_saved_at(index_t pos) const;

 private:
  enum class DatState : std::uint8_t { kUnknown, kSaved, kDropped };

  void enter_saving(index_t num_dats);
  void saving_step(const std::vector<ArgAccess>& args, const Options& opts,
                   Step& out);
  /// The classification replayed over the recorded chain from `pos`.
  struct Replay {
    std::vector<index_t> saved;  ///< datasets saved, in save order
    index_t units = 0;           ///< their summed dimensions
    bool decided = false;        ///< every dataset the chain touches decided
  };
  Replay replay_from(index_t pos, bool assume_current_modified,
                     const char* what) const;

  Mode mode_ = Mode::kMonitor;
  index_t seq_ = 0;  ///< loops seen (executed or replayed)

  std::vector<ChainEntry> chain_;
  std::vector<char> dat_modified_;  ///< per dat: written by any loop so far

  // saving state
  index_t entry_seq_ = -1;
  std::vector<DatState> dat_state_;
  index_t saving_steps_ = 0;

  // pending (speculative) state
  index_t target_phase_ = -1;
  index_t period_ = 0;
};

/// The save/replay state machine behind op2::Checkpointer and
/// ops::Checkpointer. A fresh run records the loop chain and, once a
/// requested checkpoint's classification completes, writes one file
/// through the crash-safe store: the saved `dat/<name>` payloads, the
/// entry loop, and the global-output log of every loop before it. A
/// restart fast-forwards: loops before the entry are skipped with their
/// logged global outputs replayed, and the saved datasets are restored
/// when the entry loop is reached. The front end projects each loop onto
/// ArgAccess and supplies the three dataset hooks; they run only while
/// saving or restoring.
class SaveReplay {
 public:
  enum class LoopAction { kExecute, kSkipReplay };
  using Options = ckpt::Options;

  /// Requests a checkpoint; with speculative mode it may be deferred by up
  /// to one period of the loop chain.
  void request_checkpoint();
  bool checkpoint_complete() const { return checkpoint_complete_; }
  /// Loop-sequence position (number of par_loop calls seen so far).
  index_t position() const { return analysis_.position(); }
  bool replaying() const { return replaying_; }
  /// True while a checkpoint needs loop-entry data values (pending or
  /// saving); a lazy front end drains its queue before each loop then.
  bool wants_eager() const {
    return analysis_.mode() != ChainAnalysis::Mode::kMonitor;
  }

  /// The crash-safe store backing this checkpointer.
  const io::CheckpointStore& store() const { return store_; }

  // ---- par_loop hooks
  void after_loop(std::span<const std::uint8_t> gbl_payload);
  std::span<const std::uint8_t> replay_gbl_payload() const;
  void finish_replayed_loop();

  // ---- introspection (Fig. 8 bench and tests; see ChainAnalysis)
  const std::vector<ChainEntry>& chain() const { return analysis_.chain(); }
  std::optional<index_t> units_if_entering_at(index_t pos) const {
    return analysis_.units_if_entering_at(pos);
  }
  index_t detect_period() const { return analysis_.detect_period(); }
  std::vector<index_t> datasets_saved_at(index_t pos) const {
    return analysis_.datasets_saved_at(pos);
  }

 protected:
  /// With `replay`, loads the newest checkpoint generation that validates
  /// and decodes its replay log; a malformed log throws a named error.
  SaveReplay(std::string path, Options opts, index_t num_dats, bool replay);

  /// Presents one loop before its body runs: during fast-forward it says
  /// whether to skip the loop; otherwise it advances the save machine.
  LoopAction step_loop(const std::string& name, std::vector<ArgAccess> args);

 private:
  /// Bytes of dataset `dat` as the checkpoint stores them.
  virtual std::vector<std::uint8_t> pack(index_t dat) = 0;
  virtual std::string dat_name(index_t dat) const = 0;
  /// Restores the dataset called `name` (unknown names are an error).
  virtual void restore_dat(const std::string& name,
                           std::span<const std::uint8_t> bytes) = 0;

  void finalize_checkpoint();

  io::CheckpointStore store_;
  Options opts_;
  ChainAnalysis analysis_;

  std::vector<std::vector<std::uint8_t>> gbl_log_;  ///< per executed loop

  // saving state (payloads packed at classification time)
  std::vector<index_t> saved_dats_;
  std::vector<std::vector<std::uint8_t>> saved_payloads_;
  bool checkpoint_complete_ = false;

  // replay state
  bool replaying_ = false;
  index_t replay_entry_seq_ = -1;
  std::vector<std::vector<std::uint8_t>> replay_gbl_;
  std::vector<std::string> replay_names_;
  io::File replay_file_;  ///< the loaded checkpoint, kept for entry
};

/// SaveReplay bound to a front end's context: `restore` and the dataset
/// hooks every front-end Checkpointer shares. `Ctx` provides num_dats(),
/// dat(id) and find_dat(name); the front end's pack_dat/unpack_dat pair is
/// found by argument-dependent lookup. `Self` derives from this class,
/// befriends it, provides
/// `static std::vector<ArgAccess> project(const std::vector<ArgInfo>&)`
/// and a (ctx, path, opts, replay) constructor that attaches the finished
/// object to its context (only `Self` can: the base runs before it exists).
template <class Self, class Ctx>
class Checkpointer : public SaveReplay {
 public:
  /// The context holds this object's address, so it never moves.
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Restart: fast-forward (replaying logged global outputs) to the saved
  /// entry loop, then restore datasets and resume normal execution. Loads
  /// the newest checkpoint generation that validates.
  static Self restore(Ctx& ctx, std::string path, Options opts = {}) {
    return Self(ctx, std::move(path), opts, /*replay=*/true);
  }

  /// par_loop hook: presents one loop, in the front end's descriptors.
  template <class ArgInfo>
  LoopAction on_loop(const std::string& name,
                     const std::vector<ArgInfo>& args) {
    return step_loop(name, Self::project(args));
  }

 protected:
  Checkpointer(Ctx& ctx, std::string path, Options opts, bool replay)
      : SaveReplay(std::move(path), opts, ctx.num_dats(), replay),
        ctx_(&ctx) {}

  Ctx* ctx_;

 private:
  std::vector<std::uint8_t> pack(index_t dat) override {
    return pack_dat(ctx_->dat(dat));
  }
  std::string dat_name(index_t dat) const override {
    return ctx_->dat(dat).name();
  }
  void restore_dat(const std::string& name,
                   std::span<const std::uint8_t> bytes) override {
    auto* dat = ctx_->find_dat(name);
    require(dat != nullptr, "checkpoint restore: unknown dat '", name, "'");
    unpack_dat(*dat, bytes);
  }
};

/// Replays one argument's recorded global output during fast-forward;
/// datasets and index pseudo-arguments carry none.
template <class Arg>
void replay_gbl(std::span<const std::uint8_t> payload, Arg& a,
                std::size_t& offset) {
  if constexpr (requires { a.data; }) {
    if (!writes(a.acc)) return;
    const std::size_t bytes = static_cast<std::size_t>(a.dim) * sizeof(*a.data);
    require(offset + bytes <= payload.size(),
            "checkpoint replay: global-output log too short (nondeterministic"
            " loop sequence?)");
    std::memcpy(a.data, payload.data() + offset, bytes);
    offset += bytes;
  }
}

/// Appends one argument's global output to the per-loop log.
template <class Arg>
void log_gbl(const Arg& a, std::vector<std::uint8_t>& out) {
  if constexpr (requires { a.data; }) {
    if (!writes(a.acc)) return;
    const std::size_t bytes = static_cast<std::size_t>(a.dim) * sizeof(*a.data);
    const std::size_t pos = out.size();
    out.resize(pos + bytes);
    std::memcpy(out.data() + pos, a.data, bytes);
  }
}

}  // namespace apl::ckpt
