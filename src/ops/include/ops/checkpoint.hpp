// Checkpointing for structured-mesh loop chains (paper Sec. VI, Fig. 8,
// extended to OPS as in the loop-tiling follow-up paper: the same run-time
// chain analysis that drives tiling drives checkpoint placement).
//
// Semantics match op2::Checkpointer exactly — both are an
// apl::ckpt::SaveReplay — plus what the lazy loop-chain engine needs:
//   * request_checkpoint() is a *flush point*: the queued chain executes
//     first, so the analysis sees data values at a well-defined program
//     position;
//   * while a checkpoint is pending/saving, par_loop flushes before each
//     loop (wants_eager()), so payloads packed at classification time
//     capture true loop-entry values;
//   * during fast-forward, skipped loops are never enqueued.
//
// Files go through apl::io::CheckpointStore: `path` is a base name for
// the crash-safe slot pair `<path>.a` / `<path>.b` plus `<path>.mf`.
#pragma once

#include <array>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apl/ckpt.hpp"
#include "ops/arg.hpp"
#include "ops/context.hpp"

namespace ops {

/// A dat's full allocation (halos included) as bytes: the payload both
/// ops::Checkpointer and ops::Distributed's checkpoints store.
std::vector<std::uint8_t> pack_dat(DatBase& dat);

/// Inverse of pack_dat; a size mismatch throws naming the dat.
void unpack_dat(DatBase& dat, std::span<const std::uint8_t> bytes);

class Checkpointer final
    : public apl::ckpt::Checkpointer<Checkpointer, Context> {
  using Base = apl::ckpt::Checkpointer<Checkpointer, Context>;

public:
  /// Fresh run: record the chain, save to the `path` slot files when
  /// requested.
  Checkpointer(Context& ctx, std::string path, Options opts = {})
      : Checkpointer(ctx, std::move(path), opts, /*replay=*/false) {}

  /// Requests a checkpoint (a flush point for the lazy engine); with
  /// speculative mode entry may be deferred by up to one period.
  void request_checkpoint();

  // ---- par_loop hooks
  /// Classifier view of one write access. A kWrite only means "replay
  /// rebuilds this dat" when its range covers every point written since
  /// this checkpointer attached: replay re-executes exactly those writes,
  /// and state established *before* attach (mesh loading, initial
  /// conditions) is the application's responsibility to re-create on
  /// restart. A kWrite whose range misses part of the post-attach dirty
  /// region is a read-modify-write — the uncovered points would be lost
  /// (found by the testkit fuzzer, seed 13: an init loop over a sub-range
  /// classified a dat dirtied outside that sub-range as recompute). The
  /// dirty region is tracked as a per-dat bounding box, a safe
  /// over-approximation. Call once per written dat arg, in program order,
  /// before on_loop.
  Access classify_write(index_t dat_id, Access acc, const Range& range,
                        int ndim);

private:
  friend Base;

  /// Attaches to `ctx` once this object is fully constructed.
  Checkpointer(Context& ctx, std::string path, Options opts, bool replay)
      : Base(ctx, std::move(path), opts, replay) {
    ctx.attach_checkpointer(this);
  }

  /// Projects the OPS descriptors onto the library-agnostic form. ArgIdx
  /// pseudo-arguments carry no data access and are skipped; the stencil id
  /// goes into `aux` so chain equality stays exact.
  static std::vector<apl::ckpt::ArgAccess> project(
      const std::vector<ArgInfo>& args);

  /// Per-dat bounding box of every range written since attach (see
  /// classify_write). Indexed by dat id; `valid` false until first write.
  struct DirtyBox {
    bool valid = false;
    std::array<index_t, kMaxDim> lo{};
    std::array<index_t, kMaxDim> hi{};
  };
  std::vector<DirtyBox> dirty_;
};

}  // namespace ops
