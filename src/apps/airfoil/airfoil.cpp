#include "airfoil/airfoil.hpp"

#include <cmath>

namespace airfoil {

using apl::exec::Access;

Airfoil::Airfoil(const Options& opts)
    : Airfoil(make_bump_channel(opts.nx, opts.ny, opts.bump), opts) {}

Airfoil::Airfoil(Mesh mesh, const Options& opts) : mesh_(std::move(mesh)) {
  constants_.init();

  cells_ = &ctx_.decl_set(mesh_.ncell, "cells");
  nodes_ = &ctx_.decl_set(mesh_.nnode, "nodes");
  edges_ = &ctx_.decl_set(mesh_.nedge, "edges");
  bedges_ = &ctx_.decl_set(mesh_.nbedge, "bedges");

  cell2node_ = &ctx_.decl_map(*cells_, *nodes_, 4, mesh_.cell2node, "pcell");
  edge2node_ = &ctx_.decl_map(*edges_, *nodes_, 2, mesh_.edge2node, "pedge");
  edge2cell_ = &ctx_.decl_map(*edges_, *cells_, 2, mesh_.edge2cell, "pecell");
  bedge2node_ =
      &ctx_.decl_map(*bedges_, *nodes_, 2, mesh_.bedge2node, "pbedge");
  bedge2cell_ =
      &ctx_.decl_map(*bedges_, *cells_, 1, mesh_.bedge2cell, "pbecell");

  x_ = &ctx_.decl_dat<double>(*nodes_, 2, mesh_.x, "x");
  std::vector<double> qinit(static_cast<std::size_t>(mesh_.ncell) * 4);
  for (index_t c = 0; c < mesh_.ncell; ++c) {
    for (int n = 0; n < 4; ++n) qinit[4 * c + n] = constants_.qinf[n];
  }
  q_ = &ctx_.decl_dat<double>(*cells_, 4, qinit, "q");
  qold_ = &ctx_.decl_dat<double>(*cells_, 4, std::span<const double>{},
                                 "q_old");
  adt_ = &ctx_.decl_dat<double>(*cells_, 1, std::span<const double>{}, "adt");
  res_ = &ctx_.decl_dat<double>(*cells_, 4, std::span<const double>{}, "res");
  bound_ = &ctx_.decl_dat<index_t>(*bedges_, 1, mesh_.bound, "bound");

  // Flop hints for the machine models: adt_calc is the sqrt-heavy loop
  // (4 sqrts + ~30 flops per cell, counting sqrt as ~8 flops as in the
  // paper's era of hardware); the flux kernels are ~80 flops per edge.
  ctx_.hint_flops("adt_calc", 70.0);
  ctx_.hint_flops("res_calc", 80.0);
  ctx_.hint_flops("bres_calc", 60.0);
  ctx_.hint_flops("update", 12.0);
  ctx_.hint_flops("save_soln", 0.0);
  rk_stages_ = opts.rk_stages;
}

void Airfoil::enable_distributed(int nranks,
                                 apl::graph::PartitionMethod method,
                                 apl::exec::Backend node_backend) {
  // Coordinate partitioners (RCB) need a point per cell: the centroid of
  // its four nodes. Declared only here, so single-node runs carry no
  // extra dat.
  const op2::DatBase* coords = nullptr;
  if (method == apl::graph::PartitionMethod::kRcb) {
    const std::vector<double> xs = x_->to_vector();
    std::vector<double> centroid(static_cast<std::size_t>(cells_->size()) * 2);
    for (index_t c = 0; c < cells_->size(); ++c) {
      for (index_t k = 0; k < 4; ++k) {
        const auto n = static_cast<std::size_t>(cell2node_->at(c, k));
        centroid[2 * c] += 0.25 * xs[2 * n];
        centroid[2 * c + 1] += 0.25 * xs[2 * n + 1];
      }
    }
    coords = &ctx_.decl_dat<double>(*cells_, 2, centroid, "centroid");
  }
  dist_ = std::make_unique<op2::Distributed>(ctx_, nranks, method, *cells_,
                                             coords);
  dist_->set_node_backend(node_backend);
}

double Airfoil::iteration() {
  const Constants c = constants_;
  double rms = 0.0;

  loop("save_soln", *cells_,
       [](op2::Acc<double> q, op2::Acc<double> qold) {
         save_soln(q, qold);
       },
       op2::arg(*q_, Access::kRead), op2::arg(*qold_, Access::kWrite));

  for (int stage = 0; stage < rk_stages_; ++stage) {
    loop("adt_calc", *cells_,
         [c](op2::Acc<double> x1, op2::Acc<double> x2, op2::Acc<double> x3,
             op2::Acc<double> x4, op2::Acc<double> q, op2::Acc<double> adt) {
           adt_calc(c, x1, x2, x3, x4, q, adt);
         },
         op2::arg(*x_, *cell2node_, 0, Access::kRead),
         op2::arg(*x_, *cell2node_, 1, Access::kRead),
         op2::arg(*x_, *cell2node_, 2, Access::kRead),
         op2::arg(*x_, *cell2node_, 3, Access::kRead),
         op2::arg(*q_, Access::kRead), op2::arg(*adt_, Access::kWrite));

    loop("res_calc", *edges_,
         [c](op2::Acc<double> x1, op2::Acc<double> x2, op2::Acc<double> q1,
             op2::Acc<double> q2, op2::Acc<double> adt1,
             op2::Acc<double> adt2, op2::Acc<double> res1,
             op2::Acc<double> res2) {
           res_calc(c, x1, x2, q1, q2, adt1, adt2, res1, res2);
         },
         op2::arg(*x_, *edge2node_, 0, Access::kRead),
         op2::arg(*x_, *edge2node_, 1, Access::kRead),
         op2::arg(*q_, *edge2cell_, 0, Access::kRead),
         op2::arg(*q_, *edge2cell_, 1, Access::kRead),
         op2::arg(*adt_, *edge2cell_, 0, Access::kRead),
         op2::arg(*adt_, *edge2cell_, 1, Access::kRead),
         op2::arg(*res_, *edge2cell_, 0, Access::kInc),
         op2::arg(*res_, *edge2cell_, 1, Access::kInc));

    loop("bres_calc", *bedges_,
         [c](op2::Acc<double> x1, op2::Acc<double> x2, op2::Acc<double> q1,
             op2::Acc<double> adt1, op2::Acc<double> res1,
             op2::Acc<index_t> bound) {
           bres_calc(c, x1, x2, q1, adt1, res1, bound);
         },
         op2::arg(*x_, *bedge2node_, 0, Access::kRead),
         op2::arg(*x_, *bedge2node_, 1, Access::kRead),
         op2::arg(*q_, *bedge2cell_, 0, Access::kRead),
         op2::arg(*adt_, *bedge2cell_, 0, Access::kRead),
         op2::arg(*res_, *bedge2cell_, 0, Access::kInc),
         op2::arg(*bound_, Access::kRead));

    loop("update", *cells_,
         [](op2::Acc<double> qold, op2::Acc<double> q, op2::Acc<double> res,
            op2::Acc<double> adt, op2::Acc<double> rms) {
           update(qold, q, res, adt, rms);
         },
         op2::arg(*qold_, Access::kRead), op2::arg(*q_, Access::kWrite),
         op2::arg(*res_, Access::kRW), op2::arg(*adt_, Access::kRead),
         op2::arg_gbl(&rms, 1, Access::kInc));
  }
  return rms;
}

double Airfoil::run(int iters) {
  double rms = 0.0;
  for (int i = 0; i < iters; ++i) {
    rms = std::sqrt(iteration() / mesh_.ncell);
  }
  return rms;
}

std::vector<double> Airfoil::solution() {
  if (dist_) dist_->fetch(*q_);
  return q_->to_vector();
}

}  // namespace airfoil
