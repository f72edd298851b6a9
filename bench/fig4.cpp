// Fig. 4: OP2 distributed-memory strong and weak scaling of Airfoil and
// Hydra (MiniHydra). CPU curves on HECToR (Cray XE6 + Gemini), GPU curves
// on the M2090/K20m InfiniBand clusters, 1..256 nodes.
//
// Method: the real k-way partitioner decomposes the real mesh at every
// node count and the resulting halo volumes feed the alpha-beta network
// model; per-node compute comes from the instrumented per-loop profile
// scaled to the per-node share and priced on the named machines. Nothing
// about the curves is fitted to the figure — who flattens when falls out
// of halo surface-to-volume and the GPUs' small-workload efficiency.
#include <array>
#include <cmath>
#include <cstdio>

#include "airfoil/airfoil.hpp"
#include "apl/graph/csr.hpp"
#include "apl/graph/partition.hpp"
#include "common.hpp"
#include "minihydra/minihydra.hpp"

namespace bench {
namespace {

struct AppModel {
  apl::Profile profile;        ///< one-iteration instrumented profile
  op2::index_t cells = 0;      ///< host-run mesh size (profile basis)
  double halo_bytes_per_cell;  ///< exchange bytes per boundary cell per iter
  apl::graph::Csr adjacency;   ///< cell adjacency for partitioning
};

/// Halo cells when the mesh is cut into `parts` (measured via the real
/// partitioner on the host mesh; the surface-to-volume ratio transfers to
/// the paper-scale mesh by sqrt scaling in 2D).
std::int64_t halo_cells(const AppModel& m, int parts) {
  if (parts <= 1) return 0;
  const auto p = apl::graph::partition_kway(m.adjacency, parts);
  return apl::graph::evaluate_partition(m.adjacency, p).halo_volume;
}

double scaled_time(const apl::perf::Machine& mach,
                   const apl::perf::Network& net, const AppModel& m,
                   double total_cells, int nodes, int iters) {
  const double share = total_cells / nodes / m.cells;  // per-node mesh scale
  const double comp = projected_run_time(mach, m.profile, iters, share);
  // Halo: measured halo fraction at `nodes` parts on the host mesh,
  // rescaled to the paper mesh (2D: boundary scales with sqrt of area).
  const double host_halo = static_cast<double>(halo_cells(m, nodes));
  const double paper_halo =
      host_halo * std::sqrt(total_cells / m.cells);
  const double bytes_per_rank =
      paper_halo / nodes * m.halo_bytes_per_cell;
  const double comm =
      iters * (net.exchange_time(4, static_cast<std::uint64_t>(bytes_per_rank)) +
               net.allreduce_time(nodes));
  return comp + comm;
}

/// One instrumented iteration of `App` on a host-sized mesh; `cells` and
/// `edge2cell` pick the app's cell set and edge->cell map.
template <class App>
AppModel instrument(const typename App::Options& o, auto cells,
                    auto edge2cell) {
  App app(o);
  app.run(1);
  AppModel m{app.ctx().profile(), app.mesh().ncell, 0.0,
             apl::graph::node_adjacency(edge2cell(app).table(), 2,
                                        app.mesh().nedge, app.mesh().ncell)};
  // Per-iteration exchanged bytes per halo cell, measured at 4 ranks.
  App dapp(o);
  dapp.enable_distributed(4, apl::graph::PartitionMethod::kKway);
  dapp.run(1);
  dapp.distributed()->comm().traffic().reset();
  dapp.run(1);
  m.halo_bytes_per_cell =
      static_cast<double>(dapp.distributed()->comm().traffic().total_bytes()) /
      dapp.distributed()->total_ghosts(cells(dapp));
  return m;
}

}  // namespace

void fig4(Checks& c) {
  print_header("Fig. 4 — Airfoil & Hydra strong/weak scaling",
               "Reguly et al., CLUSTER'15, Fig. 4a/4b");

  // ---- instrument both apps for one iteration on host-sized meshes.
  airfoil::Airfoil::Options airfoil_opts;
  airfoil_opts.nx = 120;
  airfoil_opts.ny = 60;
  const AppModel airfoil_m = instrument<airfoil::Airfoil>(
      airfoil_opts, [](auto& a) -> auto& { return a.cells(); },
      [](auto& a) -> auto& { return a.edge2cell_map(); });
  minihydra::MiniHydra::Options hydra_opts;
  hydra_opts.nx = 100;
  hydra_opts.ny = 50;
  const AppModel hydra_m = instrument<minihydra::MiniHydra>(
      hydra_opts, [](auto& a) -> auto& { return a.ctx().set(0); },
      [](auto& a) -> auto& { return a.ctx().map(2); });

  const apl::perf::Machine cpu = apl::perf::machine("xe6-node");
  const apl::perf::Machine gpu_air = apl::perf::machine("m2090");
  const apl::perf::Machine gpu_hyd = apl::perf::machine("k20m");
  const apl::perf::Network gem = apl::perf::network("gemini");
  const apl::perf::Network ib = apl::perf::network("infiniband");
  const int iters = 100;

  // One row of a panel: Airfoil CPU/GPU and Hydra CPU/GPU times with
  // `air` and `hyd` cells in total over `nodes` nodes.
  const auto row = [&](int nodes, double air, double hyd) {
    return std::array<double, 4>{
        scaled_time(cpu, gem, airfoil_m, air, nodes, iters),
        scaled_time(gpu_air, ib, airfoil_m, air, nodes, iters),
        scaled_time(cpu, gem, hydra_m, hyd, nodes, iters),
        scaled_time(gpu_hyd, ib, hydra_m, hyd, nodes, iters)};
  };
  // Paper-scale global meshes (strong) and per-node meshes (weak).
  const auto strong = [&](int nodes) { return row(nodes, 2.8e6, 8.0e6); };
  const auto weak = [&](int nodes) {
    return row(nodes, 1.5e6 * nodes, 2.0e6 * nodes);
  };
  const auto print_panel = [&](const char* title, auto panel) {
    std::printf("\n--- %s, %d iters) ---\n", title, iters);
    std::printf("%6s | %12s %12s | %12s %12s\n", "nodes", "airfoil CPU",
                "airfoil GPU", "hydra CPU", "hydra GPU");
    for (int nodes : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
      const auto t = panel(nodes);
      std::printf("%6d | %12.3f %12.3f | %12.3f %12.3f\n", nodes, t[0], t[1],
                  t[2], t[3]);
    }
  };
  print_panel("Fig. 4a strong scaling (fixed global mesh", strong);
  print_panel("Fig. 4b weak scaling (fixed per-node mesh", weak);
  const double cpu_speedup = strong(1)[0] / strong(256)[0];
  const double gpu_speedup = strong(1)[1] / strong(256)[1];
  const double weak_loss = weak(256)[0] / weak(1)[0] - 1;

  std::printf("\n");
  c.expect(weak_loss < 0.05,
           "airfoil CPU weak-scaling loss 1->256 nodes %.1f%% < 5%%",
           100.0 * weak_loss);
  c.expect(gpu_speedup < cpu_speedup,
           "airfoil GPU strong-scaling efficiency 1->256 nodes %.0f%% < "
           "CPU's %.0f%%",
           100.0 * gpu_speedup / 256, 100.0 * cpu_speedup / 256);
  c.paper_speedup("airfoil CPU strong scaling 1->256 nodes", cpu_speedup,
                  256);
}

}  // namespace bench
