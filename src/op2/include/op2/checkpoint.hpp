// Loop-chain-analysis checkpointing (paper Sec. VI, Fig. 8).
//
// Because every dataset is owned by the library and every loop declares how
// it accesses each dataset, the library can reason about the state of all
// data at any point of execution. The classification, the checkpoint file
// and the fast-forward replay live in apl::ckpt (shared with
// ops::Checkpointer); for Airfoil, speculative entry lands right before
// save_soln or update and saves 8 units instead of 13. This class supplies
// only the OP2 projection of loop descriptors, and op2's
// pack_dat/unpack_dat pair supplies the dat payloads. Files are written
// through apl::io::CheckpointStore, so `path` is a base name for the
// crash-safe slot pair `<path>.a` / `<path>.b` plus `<path>.mf`.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apl/ckpt.hpp"
#include "op2/arg.hpp"
#include "op2/context.hpp"

namespace op2 {

/// A dat's logical content in AoS order (set size x entry bytes), the
/// payload both op2::Checkpointer and dump_dats store.
std::vector<std::uint8_t> pack_dat(const DatBase& dat);

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

private:
  friend Base;

  /// Attaches to `ctx` once this object is fully constructed.
  Checkpointer(Context& ctx, std::string path, Options opts, bool replay)
      : Base(ctx, std::move(path), opts, replay) {
    ctx.attach_checkpointer(this);
  }

  /// Projects the OP2 descriptors onto the library-agnostic form; map id
  /// and component are folded into `aux` so chain equality stays exact.
  static std::vector<apl::ckpt::ArgAccess> project(
      const std::vector<ArgInfo>& args);
};

}  // namespace op2
