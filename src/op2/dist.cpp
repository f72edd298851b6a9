#include "op2/dist.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "apl/cancel.hpp"
#include "apl/graph/csr.hpp"
#include "apl/io/ckpt.hpp"
#include "apl/io/plan_cache.hpp"
#include "apl/mpisim/retry.hpp"
#include "apl/signature.hpp"
#include "op2/io.hpp"

namespace op2 {

using apl::exec::Access;
using apl::exec::Backend;

namespace {

/// Partition-cache IR: one section holding the base set's owner vector.
constexpr std::uint32_t kPartVersion = 1;
constexpr std::uint32_t kTagOwner = 0x4F574E52;  // "OWNR"

}  // namespace

std::optional<std::vector<index_t>> decode_partition(
    std::span<const std::uint8_t> payload, index_t n, int nranks,
    std::string* diag) {
  std::vector<index_t> owner;
  const apl::plan_cache::SectionHandler handlers[] = {
      {kTagOwner, [&owner](std::span<const std::uint8_t> b) {
         apl::plan_cache::SectionReader r(b);
         return r.rest<index_t>(&owner) && r.done();
       }}};
  *diag = apl::plan_cache::decode_sections(payload, handlers);
  if (!diag->empty()) return std::nullopt;
  // Container-valid but not a partition of this (mesh, ranks).
  bool ok = owner.size() == static_cast<std::size_t>(n);
  for (index_t o : owner) ok = ok && o >= 0 && o < nranks;
  if (!ok) {
    *diag = "partition blob fails owner validation";
    return std::nullopt;
  }
  return owner;
}

Distributed::Distributed(Context& ctx, int nranks,
                         apl::graph::PartitionMethod method,
                         const Set& base_set, const DatBase* coords)
    : Ladder("op2", ctx.profile()), global_(&ctx), comm_(nranks),
      method_(method),
      base_set_id_(base_set.id()),
      coords_id_(coords != nullptr ? coords->id() : -1) {
  apl::require(nranks >= 1, "Distributed: need at least one rank");
  apl::require(&ctx.set(base_set.id()) == &base_set,
               "Distributed: base set does not belong to this context");
  set_dist_.resize(ctx.num_sets());
  halo_dirty_.assign(ctx.num_dats(), 0);
  partition_sets(method, base_set, coords);
  build_rank_contexts();
}

void Distributed::partition_sets(apl::graph::PartitionMethod method,
                                 const Set& base, const DatBase* coords) {
  const int nranks = comm_.size();
  // ---- base set. RCB coordinates are gathered up front (AoS order
  // regardless of layout): the partitioner needs them, and for RCB the
  // cache key must cover their *contents* — topology_hash covers layout
  // and sizes only.
  std::vector<double> xy;
  if (method == apl::graph::PartitionMethod::kRcb) {
    apl::require(coords != nullptr && &coords->set() == &base,
                 "Distributed: RCB needs a coordinates dat on the base set");
    apl::require(coords->elem_bytes() == sizeof(double),
                 "Distributed: RCB coordinates must be double");
    xy.resize(static_cast<std::size_t>(base.size()) * coords->dim());
    for (index_t e = 0; e < base.size(); ++e) {
      coords->pack_entry(e, xy.data() +
                                static_cast<std::size_t>(e) * coords->dim());
    }
  }

  // The partition depends only on (mesh topology, method, rank count), so
  // it persists in the plan cache like any other analysis result — which
  // makes post-shrink repartitioning of a previously seen (mesh, R-1)
  // pair a warm hit instead of a fresh partitioner run. An empty base set
  // has nothing to partition and stays out of the store.
  auto& pstore = apl::plan_cache::Store::current();
  apl::plan_cache::Key ck;
  if (pstore.enabled()) {
    ck.kind = "part";
    ck.topology = global_->topology_hash();
    apl::signature::Hasher prog;
    prog.pod(static_cast<std::uint32_t>(method));
    prog.pod(base.id());
    if (!xy.empty()) prog.bulk<double>(xy);
    ck.program = prog.value();
    apl::signature::Hasher cfg;
    cfg.pod(static_cast<std::int32_t>(nranks));
    ck.config = cfg.value();
    ck.version = kPartVersion;
    ck.label = base.name();
  }

  std::vector<index_t> owner;
  if (base.size() > 0) {
    owner = std::move(*apl::plan_cache::load_or_build<std::vector<index_t>>(
        pstore, ck, "part_hit:", static_cast<std::uint64_t>(base.size()),
        [&](const std::vector<std::uint8_t>& payload, std::string* diag) {
          return decode_partition(payload, base.size(), nranks, diag);
        },
        [&] {
          apl::trace::Span span(apl::trace::kPlan, "part:" + base.name());
          span.set_elements(static_cast<std::uint64_t>(base.size()));
          apl::graph::Partition p;
          switch (method) {
            case apl::graph::PartitionMethod::kBlock:
              p = apl::graph::partition_block(base.size(), nranks);
              break;
            case apl::graph::PartitionMethod::kRcb:
              p = apl::graph::partition_rcb(xy, coords->dim(), base.size(),
                                            nranks);
              break;
            case apl::graph::PartitionMethod::kKway: {
              // Adjacency of the base set through any map targeting it.
              const Map* via = nullptr;
              for (index_t m = 0; m < global_->num_maps(); ++m) {
                if (&global_->map(m).to() == &base) {
                  via = &global_->map(m);
                  break;
                }
              }
              apl::require(via != nullptr,
                           "Distributed: k-way partitioning needs a map onto "
                           "the base set");
              const apl::graph::Csr adj = apl::graph::node_adjacency(
                  via->table(), via->arity(), via->from().size(),
                  base.size());
              p = apl::graph::partition_kway(adj, nranks);
              break;
            }
          }
          return std::move(p.part);
        },
        [](const std::vector<index_t>& o) {
          apl::plan_cache::BlobWriter w;
          w.section_of<index_t>(kTagOwner, o);
          return w.take();
        }));
  }
  set_dist_[base.id()].owner = std::move(owner);

  // ---- derive the other sets through maps, iterating to a fixpoint;
  // a source set inherits the rank of its first map target, a target set
  // the rank of the first source element touching it. Unreachable sets
  // fall back to block partitioning.
  bool progress = true;
  while (progress) {
    progress = false;
    for (index_t m = 0; m < global_->num_maps(); ++m) {
      const Map& map = global_->map(m);
      // Empty sets have nothing to derive: resizing their owner vector to
      // zero would leave it "unassigned" and spin this fixpoint forever
      // (found by the testkit fuzzer, seed 6: a map out of an empty set).
      if (map.from().size() == 0 || map.to().size() == 0) continue;
      auto& from_owner = set_dist_[map.from().id()].owner;
      auto& to_owner = set_dist_[map.to().id()].owner;
      if (from_owner.empty() && !to_owner.empty()) {
        from_owner.resize(map.from().size());
        for (index_t e = 0; e < map.from().size(); ++e) {
          from_owner[e] = to_owner[map.at(e, 0)];
        }
        progress = true;
      } else if (!from_owner.empty() && to_owner.empty()) {
        to_owner.assign(map.to().size(), -1);
        for (index_t e = 0; e < map.from().size(); ++e) {
          for (index_t k = 0; k < map.arity(); ++k) {
            index_t& o = to_owner[map.at(e, k)];
            if (o < 0) o = from_owner[e];
          }
        }
        // Targets referenced by no source: spread in blocks.
        for (index_t t = 0; t < map.to().size(); ++t) {
          if (to_owner[t] < 0) to_owner[t] = t % nranks;
        }
        progress = true;
      }
    }
  }
  for (index_t s = 0; s < global_->num_sets(); ++s) {
    auto& owner = set_dist_[s].owner;
    if (owner.empty() && global_->set(s).size() > 0) {
      owner = apl::graph::partition_block(global_->set(s).size(), nranks).part;
    } else if (owner.empty()) {
      owner = {};
    }
  }

  // ---- owned lists
  for (index_t s = 0; s < global_->num_sets(); ++s) {
    SetDist& sd = set_dist_[s];
    sd.owned.resize(nranks);
    sd.ghosts.resize(nranks);
    sd.local_of.assign(nranks,
                       std::vector<index_t>(global_->set(s).size(), -1));
    for (index_t e = 0; e < global_->set(s).size(); ++e) {
      sd.owned[sd.owner[e]].push_back(e);
      sd.local_of[sd.owner[e]][e] = 0;  // presence marker, renumbered below
    }
  }

  // ---- ghost discovery to a fixpoint: every locally held source element
  // (owned or ghost) must resolve all its map targets locally. Owned rows
  // need this so loop bodies can read through the map; ghost rows need it
  // so the localized map tables carry valid indices even when a rank owns
  // nothing of the target set (found by the testkit fuzzer, seed 480: a
  // two-map chain left a rank with only ghost sources and an empty local
  // target set, so the dummy row index 0 failed map validation).
  bool grew = true;
  while (grew) {
    grew = false;
    for (index_t m = 0; m < global_->num_maps(); ++m) {
      const Map& map = global_->map(m);
      const SetDist& from = set_dist_[map.from().id()];
      SetDist& to = set_dist_[map.to().id()];
      for (int r = 0; r < nranks; ++r) {
        const auto resolve = [&](index_t ge) {
          for (index_t k = 0; k < map.arity(); ++k) {
            const index_t t = map.at(ge, k);
            if (to.local_of[r][t] >= 0) continue;
            to.local_of[r][t] = 0;
            to.ghosts[r].push_back(t);
            grew = true;
          }
        };
        for (std::size_t i = 0; i < from.owned[r].size(); ++i) {
          resolve(from.owned[r][i]);
        }
        // Index loop: for self-maps the ghost list grows while scanning.
        for (std::size_t i = 0; i < from.ghosts[r].size(); ++i) {
          resolve(from.ghosts[r][i]);
        }
      }
    }
  }
  for (index_t s = 0; s < global_->num_sets(); ++s) {
    SetDist& sd = set_dist_[s];
    for (int r = 0; r < nranks; ++r) {
      index_t local = 0;
      for (index_t g : sd.owned[r]) sd.local_of[r][g] = local++;
      for (index_t g : sd.ghosts[r]) sd.local_of[r][g] = local++;
    }
  }
}

void Distributed::build_rank_contexts() {
  for (int r = 0; r < comm_.size(); ++r) {
    auto rc = std::make_unique<Context>();
    // Sets: owned first, ghosts stored but not executed.
    for (index_t s = 0; s < global_->num_sets(); ++s) {
      const SetDist& sd = set_dist_[s];
      const index_t n_own = static_cast<index_t>(sd.owned[r].size());
      const index_t n_all = n_own + static_cast<index_t>(sd.ghosts[r].size());
      rc->decl_set(n_all, n_own, global_->set(s).name());
    }
    // Maps: localized tables. Ghost source rows are never executed, but the
    // fixpoint ghost discovery imports their targets too, so every row gets
    // real localized indices and passes map validation.
    for (index_t m = 0; m < global_->num_maps(); ++m) {
      const Map& map = global_->map(m);
      const SetDist& from = set_dist_[map.from().id()];
      const SetDist& to = set_dist_[map.to().id()];
      const Set& rfrom = rc->set(map.from().id());
      std::vector<index_t> table(
          static_cast<std::size_t>(rfrom.size()) * map.arity(), 0);
      const std::size_t n_own = from.owned[r].size();
      for (std::size_t le = 0; le < static_cast<std::size_t>(rfrom.size());
           ++le) {
        const index_t ge = le < n_own ? from.owned[r][le]
                                      : from.ghosts[r][le - n_own];
        for (index_t k = 0; k < map.arity(); ++k) {
          const index_t lt = to.local_of[r][map.at(ge, k)];
          APL_ASSERT(lt >= 0, "ghost discovery missed a map target");
          table[le * map.arity() + k] = lt;
        }
      }
      rc->decl_map(rfrom, rc->set(map.to().id()), map.arity(), table,
                   map.name());
    }
    // Dats: typed replicas, then scatter owned + ghost values.
    for (index_t d = 0; d < global_->num_dats(); ++d) {
      global_->dat(d).declare_like(*rc, rc->set(global_->dat(d).set().id()));
    }
    rank_ctx_.push_back(std::move(rc));
  }
  for (index_t d = 0; d < global_->num_dats(); ++d) {
    scatter(global_->dat(d));
  }
}

void Distributed::set_node_backend(Backend b) {
  node_backend_ = b;  // remembered: shrink_recover rebuilds the contexts
  for (auto& rc : rank_ctx_) rc->set_backend(b);
}

void Distributed::set_lazy(bool on) {
  rank_lazy_ = on;
  for (auto& rc : rank_ctx_) rc->set_lazy(on);
}

void Distributed::set_tiling(bool on) {
  rank_tiling_ = on;
  for (auto& rc : rank_ctx_) rc->set_tiling(on);
}

void Distributed::set_tile_size(index_t elems) {
  rank_tile_size_ = elems;
  for (auto& rc : rank_ctx_) rc->set_tile_size(elems);
}

index_t Distributed::owned_count(const Set& s, int rank) const {
  return static_cast<index_t>(set_dist_[s.id()].owned[rank].size());
}
index_t Distributed::ghost_count(const Set& s, int rank) const {
  return static_cast<index_t>(set_dist_[s.id()].ghosts[rank].size());
}
index_t Distributed::total_ghosts(const Set& s) const {
  index_t total = 0;
  for (int r = 0; r < comm_.size(); ++r) total += ghost_count(s, r);
  return total;
}

void Distributed::validate_args(const std::string& name,
                                const std::vector<ArgInfo>& infos) const {
  for (const ArgInfo& a : infos) {
    if (a.is_gbl || !a.indirect()) continue;
    apl::require(a.acc == Access::kRead || a.acc == Access::kInc,
                 "distributed loop '", name,
                 "': indirect arguments must be read or increment");
  }
  for (const ArgInfo& a : infos) {
    if (a.is_gbl || !a.indirect() || a.acc != Access::kInc) continue;
    for (const ArgInfo& b : infos) {
      if (!b.is_gbl && b.indirect() && b.acc == Access::kRead &&
          b.dat_id == a.dat_id) {
        apl::fail("distributed loop '", name, "': dat '",
                  global_->dat(a.dat_id).name(),
                  "' is both indirectly read and incremented in one loop");
      }
    }
  }
}

void Distributed::exchange_halo(index_t dat_id, apl::LoopStats* stats) {
  // Exchange boundaries are cancellation points: every rank's data is
  // consistent here (the previous loop completed on all ranks).
  apl::cancel::point("exchange_halo");
  comm_.begin_exchange();
  const DatBase& gdat = global_->dat(dat_id);
  apl::trace::Span span(apl::trace::kHalo, "exchange:" + gdat.name());
  const SetDist& sd = set_dist_[gdat.set().id()];
  const std::size_t entry = gdat.entry_bytes();
  const int tag = dat_id;
  // The whole exchange runs under the transient-retry rung: ghost unpacks
  // are overwrite-idempotent, so a retried attempt simply redoes them.
  std::uint64_t bytes = 0;
  apl::mpisim::retry_exchange(comm_, "exchange:" + gdat.name(), [&] {
    bytes = 0;
    // Owners pack current values for every rank holding ghosts of theirs.
    for (int dest = 0; dest < comm_.size(); ++dest) {
      // Group dest's ghost list by owner; each owner sends one message.
      for (int owner = 0; owner < comm_.size(); ++owner) {
        std::vector<std::uint8_t> payload;
        const DatBase& odat = rank_ctx_[owner]->dat(dat_id);
        for (index_t g : sd.ghosts[dest]) {
          if (sd.owner[g] != owner) continue;
          const std::size_t pos = payload.size();
          payload.resize(pos + entry);
          odat.pack_entry(sd.local_of[owner][g], payload.data() + pos);
        }
        if (!payload.empty()) comm_.send(owner, dest, tag, payload);
      }
    }
    // Receivers unpack into their ghost slots (same grouping order).
    for (int dest = 0; dest < comm_.size(); ++dest) {
      DatBase& ddat = rank_ctx_[dest]->dat(dat_id);
      for (int owner = 0; owner < comm_.size(); ++owner) {
        if (!comm_.has_message(dest, owner, tag)) continue;
        const auto payload = comm_.recv(dest, owner, tag);
        bytes += payload.size();
        std::size_t pos = 0;
        for (index_t g : sd.ghosts[dest]) {
          if (sd.owner[g] != owner) continue;
          ddat.unpack_entry(sd.local_of[dest][g], payload.data() + pos);
          pos += entry;
        }
      }
    }
    // A dropped message is invisible to the has_message scan above; the
    // ledger check is what turns silent loss into a retryable fault.
    comm_.finish_exchange();
  });
  span.set_bytes(bytes);
  if (stats) stats->halo_bytes += bytes;
}

void Distributed::verify_halo_coherence(const std::string& loop,
                                        index_t dat_id) {
  const DatBase& gdat = global_->dat(dat_id);
  const SetDist& sd = set_dist_[gdat.set().id()];
  const std::size_t entry = gdat.entry_bytes();
  std::vector<std::uint8_t> owned(entry), ghost(entry);
  for (int r = 0; r < comm_.size(); ++r) {
    const DatBase& rdat = rank_ctx_[r]->dat(dat_id);
    for (index_t g : sd.ghosts[r]) {
      const int owner = sd.owner[g];
      rank_ctx_[owner]->dat(dat_id).pack_entry(sd.local_of[owner][g],
                                               owned.data());
      rdat.pack_entry(sd.local_of[r][g], ghost.data());
      if (std::memcmp(owned.data(), ghost.data(), entry) != 0) {
        global_->verify_report().fail(
            loop, apl::verify::kHalo,
            "dat '" + gdat.name() + "': rank " + std::to_string(r) +
                " reads a stale halo copy of global element " +
                std::to_string(g) + " (owner rank " + std::to_string(owner) +
                " wrote it after the last exchange)");
      }
    }
  }
}

void Distributed::zero_ghosts(index_t dat_id) {
  const DatBase& gdat = global_->dat(dat_id);
  const SetDist& sd = set_dist_[gdat.set().id()];
  std::vector<std::uint8_t> zeros(gdat.entry_bytes(), 0);
  for (int r = 0; r < comm_.size(); ++r) {
    DatBase& rdat = rank_ctx_[r]->dat(dat_id);
    const index_t n_own = static_cast<index_t>(sd.owned[r].size());
    for (std::size_t g = 0; g < sd.ghosts[r].size(); ++g) {
      rdat.unpack_entry(n_own + static_cast<index_t>(g), zeros.data());
    }
  }
}

void Distributed::flush_increments(index_t dat_id, apl::LoopStats* stats) {
  apl::cancel::point("flush_increments");
  comm_.begin_exchange();
  const DatBase& gdat = global_->dat(dat_id);
  apl::trace::Span span(apl::trace::kHalo, "flush:" + gdat.name());
  const SetDist& sd = set_dist_[gdat.set().id()];
  const std::size_t entry = gdat.entry_bytes();
  const int tag = 0x10000 + dat_id;
  // Unlike the halo exchange, applying increments is NOT idempotent — an
  // add re-applied on retry would double-count. Received payloads are
  // staged and only added once the ledger proves the exchange complete.
  std::uint64_t bytes = 0;
  std::vector<std::tuple<int, int, std::vector<std::uint8_t>>> staged;
  apl::mpisim::retry_exchange(comm_, "flush:" + gdat.name(), [&] {
    bytes = 0;
    staged.clear();
    // Ghost holders send their accumulated contributions to the owners.
    for (int holder = 0; holder < comm_.size(); ++holder) {
      const DatBase& hdat = rank_ctx_[holder]->dat(dat_id);
      for (int owner = 0; owner < comm_.size(); ++owner) {
        std::vector<std::uint8_t> payload;
        for (index_t g : sd.ghosts[holder]) {
          if (sd.owner[g] != owner) continue;
          const std::size_t pos = payload.size();
          payload.resize(pos + entry);
          hdat.pack_entry(sd.local_of[holder][g], payload.data() + pos);
        }
        if (!payload.empty()) comm_.send(holder, owner, tag, payload);
      }
    }
    for (int owner = 0; owner < comm_.size(); ++owner) {
      for (int holder = 0; holder < comm_.size(); ++holder) {
        if (!comm_.has_message(owner, holder, tag)) continue;
        auto payload = comm_.recv(owner, holder, tag);
        bytes += payload.size();
        staged.emplace_back(owner, holder, std::move(payload));
      }
    }
    comm_.finish_exchange();
  });
  for (const auto& [owner, holder, payload] : staged) {
    DatBase& odat = rank_ctx_[owner]->dat(dat_id);
    std::size_t pos = 0;
    for (index_t g : sd.ghosts[holder]) {
      if (sd.owner[g] != owner) continue;
      odat.add_entry(sd.local_of[owner][g], payload.data() + pos);
      pos += entry;
    }
  }
  span.set_bytes(bytes);
  if (stats) stats->halo_bytes += bytes;
}

void Distributed::fetch(DatBase& global_dat) {
  const SetDist& sd = set_dist_[global_dat.set().id()];
  std::vector<std::uint8_t> buf(global_dat.entry_bytes());
  for (int r = 0; r < comm_.size(); ++r) {
    const DatBase& rdat = rank_ctx_[r]->dat(global_dat.id());
    for (std::size_t le = 0; le < sd.owned[r].size(); ++le) {
      rdat.pack_entry(static_cast<index_t>(le), buf.data());
      global_dat.unpack_entry(sd.owned[r][le], buf.data());
    }
  }
}

void Distributed::scatter(DatBase& global_dat) {
  const SetDist& sd = set_dist_[global_dat.set().id()];
  std::vector<std::uint8_t> buf(global_dat.entry_bytes());
  for (int r = 0; r < comm_.size(); ++r) {
    DatBase& rdat = rank_ctx_[r]->dat(global_dat.id());
    index_t local = 0;
    for (index_t g : sd.owned[r]) {
      global_dat.pack_entry(g, buf.data());
      rdat.unpack_entry(local++, buf.data());
    }
    for (index_t g : sd.ghosts[r]) {
      global_dat.pack_entry(g, buf.data());
      rdat.unpack_entry(local++, buf.data());
    }
  }
  halo_dirty_[global_dat.id()] = 0;
}

void Distributed::dump_global(apl::io::File& file) {
  dump_dats(*this, file);  // fetch owner values, then dump the global dats
}

void Distributed::validate_layout(const apl::io::File& file,
                                  const std::string& origin) const {
  for (index_t d = 0; d < global_->num_dats(); ++d) {
    const DatBase& dat = global_->dat(d);
    const std::string key = "dat/" + dat.name();
    if (!file.contains(key)) continue;
    const auto& ds = file.raw(key);
    const std::uint64_t expect_n = static_cast<std::uint64_t>(dat.set().size());
    const std::uint64_t expect_entry = dat.entry_bytes();
    const std::uint64_t found_n = ds.dims.empty() ? 0 : ds.dims[0];
    const std::uint64_t found_entry = ds.dims.size() > 1 ? ds.dims[1] : 0;
    if (found_n != expect_n || found_entry != expect_entry) {
      apl::fail("checkpoint layout mismatch for dat '", dat.name(),
                "': expected ", expect_n, " entries x ", expect_entry,
                " bytes, found ", found_n, " x ", found_entry, origin);
    }
  }
}

void Distributed::restore_global(const apl::io::File& file) {
  load_dats(*global_, file);
}

void Distributed::rebuild_ranks(bool shrunk) {
  if (!shrunk) {
    for (index_t d = 0; d < global_->num_dats(); ++d) scatter(global_->dat(d));
    return;
  }
  // Every piece of distribution state is re-derived at the survivor
  // count from the global mesh description alone — the active-library
  // property that makes shrinking recovery possible without application
  // help. The repartition may be a warm plan-cache hit.
  set_dist_.assign(global_->num_sets(), SetDist{});
  rank_ctx_.clear();
  halo_dirty_.assign(global_->num_dats(), 0);
  const DatBase* coords =
      coords_id_ >= 0 ? &global_->dat(coords_id_) : nullptr;
  partition_sets(method_, global_->set(base_set_id_), coords);
  build_rank_contexts();  // scatters the restored global dats
  if (node_backend_) {
    for (auto& rc : rank_ctx_) rc->set_backend(*node_backend_);
  }
  // Re-apply the remembered lazy-engine settings to the fresh contexts.
  for (auto& rc : rank_ctx_) {
    rc->set_tiling(rank_tiling_);
    rc->set_tile_size(rank_tile_size_);
    rc->set_lazy(rank_lazy_);
  }
}

std::uint64_t Distributed::replica_bytes() const {
  std::uint64_t bytes = 0;
  for (index_t d = 0; d < global_->num_dats(); ++d) {
    const DatBase& dat = global_->dat(d);
    const SetDist& sd = set_dist_[dat.set().id()];
    for (int r = 0; r < comm_.size(); ++r) {
      bytes += static_cast<std::uint64_t>(sd.owned[r].size() +
                                          sd.ghosts[r].size()) *
               dat.entry_bytes();
    }
  }
  return bytes;
}

}  // namespace op2
