// Airfoil: the 2D inviscid CFD proxy application (paper Sec. IV).
//
// "Airfoil was written directly using the OP2 API as an experimentation
// forerunner representative of the Rolls-Royce Hydra CFD code" — four sets
// (cells, nodes, interior edges, boundary edges), three mappings, five
// kernels per Runge-Kutta stage, a global residual reduction. The driver
// runs identically on every node-level backend and, when enabled, on the
// distributed layer (optionally hybrid with a node backend underneath).
#pragma once

#include <memory>
#include <optional>

#include "apl/exec.hpp"
#include "airfoil/kernels.hpp"
#include "airfoil/mesh.hpp"
#include "op2/op2.hpp"

namespace airfoil {

class Airfoil {
public:
  struct Options {
    index_t nx = 60;       ///< cells along the channel
    index_t ny = 30;       ///< cells across the channel
    double bump = 0.08;    ///< bump height (0 = straight channel)
    int rk_stages = 2;     ///< Runge-Kutta stages per iteration
  };

  explicit Airfoil(const Options& opts);
  Airfoil() : Airfoil(Options{}) {}
  /// Declares the application from a pre-built mesh (e.g. load_mesh()).
  Airfoil(Mesh mesh, const Options& opts);

  /// Switches execution to the distributed layer (must be called before
  /// the first loop). `node_backend` runs inside each rank (hybrid).
  void enable_distributed(int nranks, apl::graph::PartitionMethod method,
                          apl::exec::Backend node_backend = apl::exec::Backend::kSeq);

  /// One time-marching iteration: save_soln + rk_stages x (adt_calc,
  /// res_calc, bres_calc, update). Returns the RMS residual accumulated
  /// over the iteration's update loops.
  double iteration();

  /// Runs `iters` iterations; returns the final normalized RMS residual,
  /// matching the original Airfoil's progress output.
  double run(int iters);

  op2::Context& ctx() { return ctx_; }
  const Mesh& mesh() const { return mesh_; }
  op2::Dat<double>& q() { return *q_; }
  op2::Map& edge2cell_map() { return *edge2cell_; }
  op2::Set& cells() { return *cells_; }
  op2::Set& edges() { return *edges_; }
  op2::Set& nodes() { return *nodes_; }
  op2::Distributed* distributed() { return dist_ ? dist_.get() : nullptr; }
  const Constants& constants() const { return constants_; }

  /// Authoritative q (fetches from ranks when distributed).
  std::vector<double> solution();

private:
  template <class Kernel, class... Args>
  void loop(const char* name, op2::Set& set, Kernel&& kernel, Args... args) {
    if (dist_) {
      dist_->par_loop(name, set, kernel, args...);
    } else {
      op2::par_loop(ctx_, name, set, kernel, args...);
    }
  }

  Mesh mesh_;
  Constants constants_;
  int rk_stages_ = 2;
  op2::Context ctx_;
  std::unique_ptr<op2::Distributed> dist_;
  op2::Set* cells_;
  op2::Set* nodes_;
  op2::Set* edges_;
  op2::Set* bedges_;
  op2::Map* cell2node_;
  op2::Map* edge2node_;
  op2::Map* edge2cell_;
  op2::Map* bedge2node_;
  op2::Map* bedge2cell_;
  op2::Dat<double>* x_;
  op2::Dat<double>* q_;
  op2::Dat<double>* qold_;
  op2::Dat<double>* adt_;
  op2::Dat<double>* res_;
  op2::Dat<index_t>* bound_;
};

}  // namespace airfoil
