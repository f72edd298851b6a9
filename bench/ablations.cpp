// Ablations over the design choices DESIGN.md calls out:
//   1. execution-plan block size vs number of block colors (Sec. II-B),
//   2. partitioner choice vs edge cut / halo volume (Sec. IV),
//   3. RCM renumbering vs DRAM-transaction efficiency (Sec. IV).
#include <cstdio>

#include "airfoil/airfoil.hpp"
#include "apl/graph/csr.hpp"
#include "apl/graph/partition.hpp"
#include "common.hpp"

namespace bench {

void ablations(Checks& c) {
  print_header("Ablations — coloring, partitioning, renumbering",
               "design choices of Secs. II-B and IV");

  airfoil::Airfoil::Options opts;
  opts.nx = 80;
  opts.ny = 40;

  // ---- 1. block size vs colors of the res_calc plan.
  std::printf("\n[1] two-level coloring: block size vs block colors"
              " (res_calc plan)\n");
  for (op2::index_t bs : {32, 64, 128, 256, 512, 1024, 4096}) {
    airfoil::Airfoil app(opts);
    app.ctx().set_block_size(bs);
    app.ctx().set_backend(apl::exec::Backend::kThreads);
    app.run(1);
    const auto& s = app.ctx().profile().all().at("res_calc");
    std::printf("  block %4d: %4llu colors over the run (%.1f per launch)\n",
                bs, static_cast<unsigned long long>(s.colors),
                static_cast<double>(s.colors) / s.calls);
  }

  // ---- 2. partitioner quality at 16 parts.
  std::printf("\n[2] partitioners at 16 ranks (cell adjacency, %d cells)\n",
              opts.nx * opts.ny);
  {
    airfoil::Airfoil app(opts);
    const auto adj = apl::graph::node_adjacency(
        app.edge2cell_map().table(), 2, app.mesh().nedge, app.mesh().ncell);
    const auto report = [&](const char* name,
                            const apl::graph::Partition& p) {
      const auto q = apl::graph::evaluate_partition(adj, p);
      std::printf("  %-28s cut %6lld  halo %6lld  imbalance %.3f\n", name,
                  static_cast<long long>(q.edge_cut),
                  static_cast<long long>(q.halo_volume), q.imbalance);
      return q.halo_volume;
    };
    const auto block = report(
        "naive block", apl::graph::partition_block(app.mesh().ncell, 16));
    std::vector<double> centers;
    for (op2::index_t cell = 0; cell < app.mesh().ncell; ++cell) {
      double x = 0, y = 0;
      for (int k = 0; k < 4; ++k) {
        const op2::index_t n = app.mesh().cell2node[4 * cell + k];
        x += 0.25 * app.mesh().x[2 * n];
        y += 0.25 * app.mesh().x[2 * n + 1];
      }
      centers.push_back(x);
      centers.push_back(y);
    }
    const auto rcb =
        report("RCB (coordinates)",
               apl::graph::partition_rcb(centers, 2, app.mesh().ncell, 16));
    const auto kway = report("k-way (PT-Scotch stand-in)",
                             apl::graph::partition_kway(adj, 16));
    c.expect(rcb < block && kway < block,
             "RCB halo %lld and k-way halo %lld < naive block halo %lld",
             static_cast<long long>(rcb), static_cast<long long>(kway),
             static_cast<long long>(block));
  }

  // ---- 3. renumbering vs transaction efficiency (cudasim).
  std::printf("\n[3] RCM renumbering vs DRAM-transaction efficiency"
              " (res_calc, cudasim)\n");
  {
    const auto efficiency = [&](bool shuffled, bool renumbered) {
      airfoil::Airfoil app(opts);
      if (shuffled) {
        app.ctx().apply_permutation(app.cells(),
                                    random_perm(app.mesh().ncell, 5));
        app.ctx().apply_permutation(app.nodes(),
                                    random_perm(app.mesh().nnode, 7));
      }
      if (renumbered) op2::renumber_mesh(app.ctx(), app.edge2cell_map());
      app.ctx().set_backend(apl::exec::Backend::kCudaSim);
      app.run(1);
      return app.ctx().device_reports().at("res_calc").efficiency;
    };
    const double natural = efficiency(false, false);
    const double shuffled = efficiency(true, false);
    const double rcm = efficiency(true, true);
    std::printf("  natural numbering:    %.1f%%\n", 100 * natural);
    std::printf("  shuffled (as loaded): %.1f%%\n", 100 * shuffled);
    std::printf("  shuffled + RCM:       %.1f%%\n\n", 100 * rcm);
    c.expect(rcm > shuffled,
             "shuffled+RCM efficiency %.1f%% > shuffled %.1f%%", 100 * rcm,
             100 * shuffled);
  }
}

}  // namespace bench
