#include "apl/mpisim/ladder.hpp"

#include <string>
#include <vector>

#include "apl/trace.hpp"

namespace apl::mpisim {

void Ladder::checkpoint(io::CheckpointStore& store, std::int64_t step) {
  trace::Span span(trace::kCkpt, "dist_checkpoint");
  io::File file;
  dump_global(file);
  const std::vector<std::int64_t> stepv{step};
  file.put<std::int64_t>("meta/step", stepv, {1});
  // Restoring onto a different rank count is legal (that is what shrink
  // recovery does); the count only makes layout diagnostics identifiable.
  const std::vector<std::int64_t> ranksv{comm().size()};
  file.put<std::int64_t>("meta/nranks", ranksv, {1});
  store.save(file);
}

std::int64_t Ladder::restore(io::CheckpointStore& store, bool shrink) {
  Comm& c = comm();
  if (shrink) {
    require(!c.failed_ranks().empty(), family_,
            ": shrink_recover: no failed ranks to shrink away");
  }
  trace::Span span(trace::kRecover, shrink ? "dist_shrink" : "dist_recover");
  const double t0 = now_seconds();
  const io::File file = store.load();
  std::string origin;
  if (file.contains("meta/nranks")) {
    const auto written = file.get<std::int64_t>("meta/nranks");
    const int survivors =
        c.size() - static_cast<int>(c.failed_ranks().size());
    if (!written.empty()) {
      origin = " (checkpoint written at " + std::to_string(written[0]) +
               " ranks; restoring at " +
               std::to_string(shrink ? survivors : c.size()) + ")";
    }
  }
  validate_layout(file, origin);
  if (shrink) {
    c.shrink();
  } else {
    c.revive_all();
  }
  restore_global(file);
  rebuild_ranks(shrink);
  const std::uint64_t bytes = replica_bytes();
  if (shrink) {
    ++shrinks_done_;
    c.traffic().record_shrink();
  }
  c.traffic().record_recovery(bytes, now_seconds() - t0);
  // Surface the recovery traffic into the profile (and its JSON export)
  // as a pseudo-loop, alongside the per-loop halo_bytes.
  LoopStats& rec = profile_->stats("<recover>");
  ++rec.calls;
  rec.halo_bytes += bytes;
  span.set_bytes(bytes);
  const auto step = file.get<std::int64_t>("meta/step");
  return step.empty() ? 0 : step[0];
}

std::int64_t Ladder::recover(io::CheckpointStore& store) {
  return restore(store, /*shrink=*/false);
}

std::int64_t Ladder::shrink_recover(io::CheckpointStore& store) {
  return restore(store, /*shrink=*/true);
}

std::int64_t Ladder::recover_auto(io::CheckpointStore& store) {
  const resilience::Policy& p = resilience::policy();
  using resilience::LadderExhausted;
  using resilience::OnRankFailure;
  const std::string family(family_);
  if (p.rank_failure == OnRankFailure::kRevive) return recover(store);
  if (p.rank_failure == OnRankFailure::kFail) {
    throw LadderExhausted(family +
                          ": rank failure and the resilience policy forbids "
                          "recovery (rank_failure=fail)");
  }
  Comm& c = comm();
  const int survivors = c.size() - static_cast<int>(c.failed_ranks().size());
  if (survivors <= 0) {
    throw LadderExhausted(family + ": no surviving ranks to shrink onto");
  }
  if (shrinks_done_ < p.max_shrinks) return shrink_recover(store);
  if (p.single_rank_fallback && c.size() > 1) {
    // Shrink budget spent: the last rung collapses onto one survivor,
    // where the run degenerates to (slow, safe) replicated execution.
    trace::Span span(trace::kRecover, "fallback:single_rank");
    bool kept = false;  // the first survivor stays
    for (int r = 0; r < c.size(); ++r) {
      if (c.rank_failed(r)) continue;
      if (kept) c.fail_rank(r);
      kept = true;
    }
    return shrink_recover(store);
  }
  throw LadderExhausted(
      family + ": degradation ladder exhausted — shrink budget (" +
      std::to_string(p.max_shrinks) + ") spent and single-rank fallback " +
      (p.single_rank_fallback ? "already reached" : "disabled"));
}

resilience::Outcome Ladder::recover_outcome(io::CheckpointStore& store) {
  using resilience::Rung;
  const resilience::Policy& p = resilience::policy();
  const Traffic& tr = comm().traffic();
  const std::uint64_t retries0 = tr.retries();
  const std::uint64_t shrinks0 = tr.shrinks();
  const double backoff0 = tr.retry_backoff_seconds();
  const double recsec0 = tr.recovery_seconds();
  // recover_auto takes the fallback rung only once the shrink budget is
  // spent; snapshot the condition now so the outcome can name its rung.
  const bool fallback_next = shrinks_done_ >= p.max_shrinks;
  resilience::Outcome out;
  try {
    out.resume_step = recover_auto(store);
    out.ok = true;
    if (p.rank_failure == resilience::OnRankFailure::kRevive) {
      out.rung = Rung::kRevive;
    } else {
      out.rung = fallback_next ? Rung::kFallback : Rung::kShrink;
    }
  } catch (const resilience::LadderExhausted& e) {
    out.rung = Rung::kExhausted;
    out.error = e.what();
    out.error_kind = "LadderExhausted";
  } catch (const fault::Kill&) {
    throw;  // a fresh injected crash is not a recovery verdict
  } catch (const Error& e) {
    out.rung = fallback_next ? Rung::kFallback : Rung::kShrink;
    out.error = e.what();
    out.error_kind = "Error";
  }
  out.retries = static_cast<int>(tr.retries() - retries0);
  out.shrinks = static_cast<int>(tr.shrinks() - shrinks0);
  out.backoff_seconds = tr.retry_backoff_seconds() - backoff0;
  out.recovery_seconds = tr.recovery_seconds() - recsec0;
  out.mttr = tr.mttr();
  return out;
}

}  // namespace apl::mpisim
