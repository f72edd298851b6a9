// Machine descriptions used to project measured/counted workload
// characteristics onto the paper's 2015 hardware.
//
// The reproduction host has one CPU core and no GPU or interconnect, so
// absolute times for Figs. 2-6 and Table I are *projected*: the real
// backends execute the real algorithms and count useful bytes (split by
// access pattern), flops, elements, messages and halo volumes; the models
// here convert those counts to time on a named machine. Every constant is
// in this header/its .cpp — nothing per-figure is hard-coded.
//
// Bandwidth constants are calibrated once against the paper's Table I
// (Airfoil loop classes on E5-2697v2 / Xeon Phi 5110P / K40) and then used
// unchanged for every other experiment, including CloverLeaf and MiniHydra.
#pragma once

#include <cstdint>
#include <string>

namespace apl::perf {

/// One processor (node-level) description.
struct Machine {
  std::string name;
  double bw_direct_gbs;   ///< achieved GB/s on streaming loops
  double bw_gather_gbs;   ///< achieved GB/s on indirect reads
  double bw_scatter_gbs;  ///< achieved GB/s on colored indirect updates
  double flops_gf;        ///< sustained double-precision GF/s
  double loop_overhead_s; ///< per-parallel-loop launch/fork overhead
  /// Elements in flight at which throughput efficiency is 50%. Models the
  /// GPU's sensitivity to workload size that makes strong scaling tail off
  /// (Figs. 4a, 6a); effectively infinite (tiny n_half) for CPUs.
  double n_half_elements;

  /// Throughput efficiency for a loop over n elements: n / (n + n_half).
  double efficiency(double n_elements) const {
    return n_elements / (n_elements + n_half_elements);
  }
};

/// Interconnect description (alpha-beta model + log-tree reductions).
struct Network {
  std::string name;
  double alpha_s;          ///< per-message latency
  double beta_s_per_byte;  ///< inverse link bandwidth
  double allreduce_term_s; ///< per-tree-level cost of a small allreduce

  /// Time for one rank to exchange with `neighbours` peers, `bytes` total.
  double exchange_time(int neighbours, std::uint64_t bytes) const {
    return alpha_s * neighbours + beta_s_per_byte * static_cast<double>(bytes);
  }
  /// Small (few-doubles) allreduce across `ranks`.
  double allreduce_time(int ranks) const;
};

/// The machines the paper evaluates on. Registry keyed by short name:
///   "e5-2697v2"  dual-socket Ivy Bridge node (Fig. 2, Table I)
///   "e5-2640"    the Hydra single-node system (Fig. 3)
///   "xeon-phi"   Xeon Phi 5110P (Fig. 2, Table I)
///   "k40"        NVIDIA K40 (Fig. 2, Table I, Fig. 3)
///   "k20x"       Titan's K20X (Fig. 6)
///   "k20m"       Jade's K20m (Fig. 4 Hydra GPU)
///   "m2090"      Emerald's M2090 (Fig. 4 Airfoil GPU)
///   "xe6-node"   HECToR Cray XE6 node, 32 cores (Fig. 4)
///   "xk7-cpu"    Titan XK7 CPU side, 16 cores (Fig. 6)
const Machine& machine(const std::string& name);

/// Networks: "gemini" (Cray XE6/XK7 3D torus), "infiniband" (Emerald/Jade).
const Network& network(const std::string& name);

}  // namespace apl::perf
