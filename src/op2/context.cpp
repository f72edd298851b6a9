#include "op2/context.hpp"

#include <algorithm>

#include "apl/error.hpp"
#include "apl/fault.hpp"
#include "apl/io/plan_cache.hpp"
#include "apl/signature.hpp"
#include "apl/trace.hpp"

namespace op2 {

const char* to_string(Layout l) {
  return l == Layout::kAoS ? "aos" : "soa";
}

Map::Map(index_t id, const Set& from, const Set& to, index_t arity,
         std::vector<index_t> table, std::string name)
    : id_(id), from_(&from), to_(&to), arity_(arity),
      table_(std::move(table)), name_(std::move(name)) {
  apl::require(arity_ > 0, "Map '", name_, "': arity must be positive");
  apl::require(table_.size() ==
                   static_cast<std::size_t>(from.size()) * arity_,
               "Map '", name_, "': table has ", table_.size(),
               " entries, expected ", from.size(), " * ", arity_);
  for (index_t t : table_) {
    apl::require(t >= 0 && t < to.size(), "Map '", name_, "': index ", t,
                 " outside target set '", to.name(), "' of size ", to.size());
  }
}

Set& Context::decl_set(index_t size, const std::string& name) {
  return decl_set(size, size, name);
}

Set& Context::decl_set(index_t size, index_t core_size,
                       const std::string& name) {
  apl::require(size >= 0, "decl_set '", name, "': negative size");
  apl::require(core_size >= 0 && core_size <= size, "decl_set '", name,
               "': core_size must be in [0, size]");
  sets_.push_back(std::make_unique<Set>(
      static_cast<index_t>(sets_.size()), size, name, core_size));
  topology_hash_.reset();
  return *sets_.back();
}

Map& Context::decl_map(const Set& from, const Set& to, index_t arity,
                       std::span<const index_t> table,
                       const std::string& name) {
  maps_.push_back(std::make_unique<Map>(
      static_cast<index_t>(maps_.size()), from, to, arity,
      std::vector<index_t>(table.begin(), table.end()), name));
  verify_map_bounds(*maps_.back(), "decl_map");
  topology_hash_.reset();
  return *maps_.back();
}

void Context::verify_map_bounds(const Map& m, const std::string& when) {
  if (!verifying(apl::verify::kBounds)) return;
  const index_t limit = m.to().size();
  for (index_t e = 0; e < m.from().size(); ++e) {
    for (index_t j = 0; j < m.arity(); ++j) {
      const index_t t = m.at(e, j);
      if (t < 0 || t >= limit) {
        verify_report().fail(
            when, apl::verify::kBounds,
            "map '" + m.name() + "' entry [" + std::to_string(e) + "," +
                std::to_string(j) + "] = " + std::to_string(t) +
                " is outside target set '" + m.to().name() + "' of size " +
                std::to_string(limit));
      }
    }
  }
}

DatBase* Context::find_dat(const std::string& name) {
  for (auto& d : dats_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

Map* Context::find_map(const std::string& name) {
  for (auto& m : maps_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

void Context::apply_injected_faults() {
  auto& inj = apl::fault::Injector::current();
  const auto target = inj.corrupt_map_target();
  if (!target) return;
  Map* m = find_map(target->first);
  if (m == nullptr) return;  // the map lives in another context
  const auto idx = static_cast<std::size_t>(target->second);
  apl::require(idx < m->table_.size(), "fault: corrupt_map index ",
               target->second, " outside map '", m->name(), "' table of size ",
               m->table_.size());
  // An out-of-range index is the canonical corruption: guarded bounds
  // checking reports it naming the map, entry and target set.
  m->table_[idx] = m->to().size() + 1;
  topology_hash_.reset();
  inj.consume_corrupt_map();
}

void Context::set_block_size(index_t b) {
  apl::require(b > 0, "block size must be positive");
  block_size_ = b;
  invalidate_plans();
}

std::uint64_t Context::topology_hash() const {
  if (topology_hash_) return *topology_hash_;
  apl::signature::Hasher h;
  h.pod(static_cast<std::uint64_t>(sets_.size()));
  for (const auto& s : sets_) {
    h.str(s->name());
    h.pod(s->size());
    h.pod(s->core_size());
  }
  h.pod(static_cast<std::uint64_t>(maps_.size()));
  for (const auto& m : maps_) {
    h.str(m->name());
    h.pod(m->from().id());
    h.pod(m->to().id());
    h.pod(m->arity());
    // Map tables are the bulk of the mesh (O(edges)); the word-wide hash
    // keeps warm-start key derivation out of the plan-analysis budget.
    h.bulk<index_t>(m->table());
  }
  h.pod(static_cast<std::uint64_t>(dats_.size()));
  for (const auto& d : dats_) {
    h.str(d->name());
    h.pod(d->set().id());
    h.pod(d->dim());
    h.pod(static_cast<std::uint64_t>(d->elem_bytes()));
    h.pod(static_cast<std::uint32_t>(d->layout()));
  }
  topology_hash_ = h.value();
  return *topology_hash_;
}

namespace {

/// Loop-program signature: the analysis inputs beyond topology — which
/// set is iterated (and how it is split), each argument's shape, and the
/// blocking parameter. The loop *name* stays out: structurally identical
/// loops share one cache entry, the name is a label.
std::uint64_t program_hash(const Set& set, const std::vector<ArgInfo>& args,
                           index_t block_size) {
  apl::signature::Hasher h;
  h.pod(set.id());
  h.pod(set.size());
  h.pod(set.core_size());
  h.pod(block_size);
  h.pod(static_cast<std::uint64_t>(args.size()));
  for (const ArgInfo& a : args) {
    h.pod(a.dat_id);
    h.pod(a.map_id);
    h.pod(a.idx);
    h.pod(static_cast<std::uint32_t>(a.acc));
    h.pod(a.dim);
    h.pod(static_cast<std::uint64_t>(a.elem_bytes));
    h.pod(static_cast<std::uint8_t>(a.is_gbl ? 1 : 0));
  }
  return h.value();
}

}  // namespace

const Plan& Context::plan_for(const PlanRequest& req) {
  apl::require(req.set != nullptr, "plan_for: request names no set");
  const Set& set = *req.set;
  const index_t block_size = req.block_size > 0 ? req.block_size : block_size_;
  PlanKey key{req.loop, set.id(), req.args, block_size};
  for (auto& [k, plan] : plans_) {
    if (k == key) return *plan;
  }

  const double t0 = apl::now_seconds();
  auto& store = apl::plan_cache::Store::current();
  apl::plan_cache::Key ck;
  if (store.enabled()) {
    ck.kind = "op2";
    ck.topology = topology_hash();
    ck.program = program_hash(set, req.args, block_size);
    // The plan's structure does not depend on the backend, but the
    // execution strategy a process runs decides which plans it touches;
    // keying on it keeps a warm run's hit count exactly its plan count.
    apl::signature::Hasher cfg;
    cfg.pod(static_cast<std::uint32_t>(backend()));
    ck.config = cfg.value();
    ck.version = kPlanIrVersion;
    ck.label = req.loop;
  }
  std::unique_ptr<Plan> plan = apl::plan_cache::load_or_build<Plan>(
      store, ck, "plan_hit:", static_cast<std::uint64_t>(set.size()),
      [&](const std::vector<std::uint8_t>& payload, std::string* diag) {
        return decode_plan(payload, set.core_size(), diag);
      },
      [&] {
        // Plan construction is a cache miss: span it so first-call cost is
        // distinguishable from steady-state color rounds in the trace.
        apl::trace::Span span(apl::trace::kLoop, "plan:" + req.loop);
        span.set_elements(static_cast<std::uint64_t>(set.size()));
        return detail::build_plan(*this, set, req.args, block_size);
      },
      encode_plan);
  add_plan_seconds(apl::now_seconds() - t0);

  // Audit both paths in guarded mode: a deserialized plan is input from
  // disk, and kPlan is exactly the proof that it is still race-free.
  if (verifying(apl::verify::kPlan)) {
    const std::string diag = audit_plan(*this, set, req.args, *plan);
    if (!diag.empty()) {
      verify_report().fail(req.loop, apl::verify::kPlan, diag);
    }
  }
  plans_.emplace_back(std::move(key), std::move(plan));
  return *plans_.back().second;
}

index_t Context::unique_targets(const Map& m) const {
  const auto it = unique_targets_cache_.find(m.id());
  if (it != unique_targets_cache_.end()) return it->second;
  std::vector<char> seen(m.to().size(), 0);
  index_t count = 0;
  for (index_t t : m.table()) {
    if (!seen[t]) {
      seen[t] = 1;
      ++count;
    }
  }
  unique_targets_cache_.emplace(m.id(), count);
  return count;
}

void Context::invalidate_plans() {
  plans_.clear();
  forget_plans();
  // Every caller of this (renumbering, layout conversion, fault
  // injection into map tables) changed what the topology hash covers.
  topology_hash_.reset();
}

}  // namespace op2
