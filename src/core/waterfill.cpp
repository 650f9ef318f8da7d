#include "core/waterfill.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/audit.hpp"
#include "sim/thread_pool.hpp"

namespace remos::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Freeze tolerance, identical to the historical solvers: a flow freezes
/// when its demand or a crossed resource's saturation level is within
/// 1e-9 of the water level.
constexpr double kFreezeEps = 1e-9;
/// Relative headroom a resource must keep over its worst-case load before
/// the cut rule may drop it. Swamps every float-accumulation error in the
/// load-bound sum (≤ nnz·2⁻⁵² relative ≈ 1e-10 even at a million
/// crossings); a borderline resource is merely kept, which costs a little
/// work (and parallelism), never correctness.
constexpr double kCutRelMargin = 1.0 + 1e-6;

}  // namespace

WaterfillStats WaterfillSolver::solve(std::span<const double> capacity,
                                      std::span<const std::size_t> flow_offsets,
                                      std::span<const std::uint32_t> flow_resources,
                                      std::span<const double> demand,
                                      std::span<double> rates_out,
                                      const WaterfillOptions& options) {
  const std::size_t nf = demand.size();
  REMOS_CHECK(flow_offsets.size() == nf + 1, "waterfill: CSR offsets must have F+1 entries");
  REMOS_CHECK(nf == 0 || flow_offsets.front() == 0, "waterfill: CSR offsets must start at 0");
  REMOS_CHECK(nf == 0 || flow_offsets.back() == flow_resources.size(),
              "waterfill: CSR offsets must end at the resource-list size");
  REMOS_CHECK(rates_out.size() == nf, "waterfill: rates_out must have one slot per flow");

  compact(capacity, flow_resources);
  if (nf >= options.partition_min_flows && nf > 1 && build_partitions(flow_offsets, demand)) {
    return solve_partitioned(flow_offsets, demand, rates_out, options);
  }
  return solve_monolithic(flow_offsets, demand, rates_out, options);
}

void WaterfillSolver::compact(std::span<const double> capacity,
                              std::span<const std::uint32_t> flow_resources) {
  const std::size_t nr = capacity.size();
  // A fresh stamp invalidates every earlier mapping at once; only when the
  // stamp wraps (after 2^32 solves) is the stamp arena actually cleared.
  if (++stamp_ == 0) {
    for (LocalSlot& slot : res_slot_) slot.stamp = 0;
    stamp_ = 1;
  }
  loc_capacity_.clear();
  loc_resources_.resize(flow_resources.size());
  for (std::size_t k = 0; k < flow_resources.size(); ++k) {
    const std::uint32_t key = flow_resources[k];
    REMOS_CHECK(key < nr, "waterfill: resource id out of range");
    if (key >= res_slot_.size()) res_slot_.resize(static_cast<std::size_t>(key) + 1);
    LocalSlot& slot = res_slot_[key];
    if (slot.stamp != stamp_) {
      slot.stamp = stamp_;
      slot.local = static_cast<std::uint32_t>(loc_capacity_.size());
      loc_capacity_.push_back(capacity[key]);
    }
    loc_resources_[k] = slot.local;
  }
}

void WaterfillSolver::mark_unsaturable(std::span<const std::size_t> flow_offsets,
                                       std::span<const double> demand) {
  const std::size_t nf = demand.size();
  const std::size_t nl = loc_capacity_.size();

  // Per-flow rate upper bound: a flow can never exceed its demand cap nor
  // any crossed resource's full capacity (level ≤ every active resource's
  // saturation level ≤ its capacity).
  cut_bound_.resize(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    double ub = demand[f];
    for (std::size_t k = flow_offsets[f]; k < flow_offsets[f + 1]; ++k) {
      ub = std::min(ub, loc_capacity_[loc_resources_[k]]);
    }
    cut_bound_[f] = ub;
  }

  // Worst-case load per resource, counting crossing multiplicity (each
  // crossing consumes the flow's rate once). Infinite bounds poison the
  // sum, which correctly marks the resource saturable.
  res_load_bound_.assign(nl, 0.0);
  res_uses_.assign(nl, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::size_t k = flow_offsets[f]; k < flow_offsets[f + 1]; ++k) {
      res_load_bound_[loc_resources_[k]] += cut_bound_[f];
      ++res_uses_[loc_resources_[k]];
    }
  }

  // Cut resources that provably never saturate: even at every crossing
  // flow's upper bound the capacity keeps both a relative margin (float
  // accumulation in the bound sum) and an absolute one (the kernel's
  // freeze tolerance, once per crossing) — so no freezing round, in any
  // partition or in the monolithic solve, can ever select them. Every
  // local resource is crossed at least once, so res_uses_ is never 0.
  keep_id_.resize(nl);
  std::uint32_t kept = 0;
  for (std::size_t r = 0; r < nl; ++r) {
    const bool cut = std::isfinite(res_load_bound_[r]) &&
                     res_load_bound_[r] * kCutRelMargin < loc_capacity_[r] &&
                     loc_capacity_[r] - res_load_bound_[r] >
                         kFreezeEps * static_cast<double>(res_uses_[r] + 1);
    keep_id_[r] = cut ? kCut : kept++;
  }
}

WaterfillStats WaterfillSolver::solve_monolithic(std::span<const std::size_t> flow_offsets,
                                                 std::span<const double> demand,
                                                 std::span<double> rates_out,
                                                 const WaterfillOptions& options) {
  const std::size_t nf = demand.size();
  WaterfillStats stats;

  // ---- the kernel's problem: only resources that can saturate ----
  // A dropped resource never freezes a flow and never sets a round's
  // level, so leaving it out of the heaps and the usage ledgers changes
  // no rate and no stat; each flow keeps its remaining constraints in
  // order (and multiplicity).
  mark_unsaturable(flow_offsets, demand);
  kept_capacity_.clear();
  for (std::size_t r = 0; r < loc_capacity_.size(); ++r) {
    if (keep_id_[r] != kCut) kept_capacity_.push_back(loc_capacity_[r]);
  }
  kept_offsets_.resize(nf + 1);
  kept_offsets_[0] = 0;
  kept_resources_.clear();
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::size_t k = flow_offsets[f]; k < flow_offsets[f + 1]; ++k) {
      const std::uint32_t id = keep_id_[loc_resources_[k]];
      if (id != kCut) kept_resources_.push_back(id);
    }
    kept_offsets_[f + 1] = kept_resources_.size();
  }
  const std::span<const double> capacity = kept_capacity_;
  const std::span<const std::size_t> offsets = kept_offsets_;
  const std::span<const std::uint32_t> resources = kept_resources_;
  const std::size_t nr = capacity.size();

  // ---- per-solve state (arena reuse; no steady-state allocation) ----
  frozen_usage_.assign(nr, 0.0);
  unfrozen_.assign(nr, 0);
  sat_.assign(nr, 0.0);
  gen_.assign(nr, 0);
  touch_round_.assign(nr, 0);
  cand_round_.assign(nf, 0);
  frozen_.assign(nf, 0);
  for (std::size_t f = 0; f < nf; ++f) rates_out[f] = 0.0;
  for (const std::uint32_t key : resources) ++unfrozen_[key];

  // Reverse CSR (resource -> flows), rebuilt per solve by counting sort.
  res_off_.assign(nr + 1, 0);
  for (const std::uint32_t key : resources) ++res_off_[key + 1];
  for (std::size_t r = 0; r < nr; ++r) res_off_[r + 1] += res_off_[r];
  res_flows_.resize(resources.size());
  res_cursor_.assign(res_off_.begin(), res_off_.end() - 1);
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::size_t k = offsets[f]; k < offsets[f + 1]; ++k) {
      res_flows_[res_cursor_[resources[k]]++] = static_cast<std::uint32_t>(f);
    }
  }

  // Saturation min-heap over active resources and demand min-heap over
  // flows. Both use lazy deletion: resource entries are invalidated by a
  // generation bump (or the resource freezing out entirely), demand
  // entries by the flow freezing.
  const auto res_less_at_front = [](const ResEntry& a, const ResEntry& b) {
    return a.sat > b.sat;
  };
  const auto dem_less_at_front = [](const DemEntry& a, const DemEntry& b) {
    return a.demand > b.demand;
  };
  res_heap_.clear();
  for (std::size_t r = 0; r < nr; ++r) {
    sat_[r] = (capacity[r] - frozen_usage_[r]) / static_cast<double>(unfrozen_[r]);
    res_heap_.push_back(ResEntry{sat_[r], static_cast<std::uint32_t>(r), 0});
  }
  std::make_heap(res_heap_.begin(), res_heap_.end(), res_less_at_front);
  dem_heap_.clear();
  for (std::size_t f = 0; f < nf; ++f) {
    dem_heap_.push_back(DemEntry{demand[f], static_cast<std::uint32_t>(f)});
  }
  std::make_heap(dem_heap_.begin(), dem_heap_.end(), dem_less_at_front);

  // ---- freezing rounds ----
  std::size_t remaining = nf;
  double level = 0.0;
  while (remaining > 0) {
    ++stats.rounds;
    const auto round = static_cast<std::uint32_t>(stats.rounds);

    // Next saturation level among resources: discard stale heap entries,
    // then the front is the exact minimum of the current levels (every
    // active resource has a current-generation entry).
    double res_min = kInf;
    while (!res_heap_.empty()) {
      const ResEntry& top = res_heap_.front();
      if (unfrozen_[top.res] == 0 || top.gen != gen_[top.res]) {
        std::pop_heap(res_heap_.begin(), res_heap_.end(), res_less_at_front);
        res_heap_.pop_back();
        continue;
      }
      res_min = top.sat;
      break;
    }
    // Next demand cap among unfrozen flows.
    double dem_min = kInf;
    while (!dem_heap_.empty()) {
      const DemEntry& top = dem_heap_.front();
      if (frozen_[top.flow] != 0) {
        std::pop_heap(dem_heap_.begin(), dem_heap_.end(), dem_less_at_front);
        dem_heap_.pop_back();
        continue;
      }
      dem_min = top.demand;
      break;
    }

    const double next_level = std::min(res_min, dem_min);
    // Only unconstrained greedy flows remain (no finite resource, no finite
    // demand). Freeze at 0 defensively, as both historical solvers did.
    if (!std::isfinite(next_level)) break;
    if (options.monotone_level) {
      level = std::max(level, next_level);
    } else {
      level = next_level;
      if (options.clamp_negative_level && level < 0.0) level = 0.0;
    }
    const double thr = level + kFreezeEps;

    // Collect this round's freezes: demand-capped flows first (they pop
    // off the demand heap for good), then every unfrozen flow crossing a
    // saturated resource. A saturated resource loses all its unfrozen
    // flows this round, so popping it off the heap is final.
    candidates_.clear();
    while (!dem_heap_.empty()) {
      const DemEntry top = dem_heap_.front();
      if (frozen_[top.flow] == 0 && !(top.demand <= thr)) break;
      std::pop_heap(dem_heap_.begin(), dem_heap_.end(), dem_less_at_front);
      dem_heap_.pop_back();
      if (frozen_[top.flow] != 0) continue;
      cand_round_[top.flow] = round;
      candidates_.push_back(top.flow);
      ++stats.demand_frozen;
    }
    while (!res_heap_.empty()) {
      const ResEntry top = res_heap_.front();
      const bool stale = unfrozen_[top.res] == 0 || top.gen != gen_[top.res];
      if (!stale && !(top.sat <= thr)) break;
      std::pop_heap(res_heap_.begin(), res_heap_.end(), res_less_at_front);
      res_heap_.pop_back();
      if (stale) continue;
      for (std::size_t k = res_off_[top.res]; k < res_off_[top.res + 1]; ++k) {
        const std::uint32_t f = res_flows_[k];
        if (frozen_[f] != 0 || cand_round_[f] == round) continue;
        cand_round_[f] = round;
        candidates_.push_back(f);
        ++stats.saturation_frozen;
      }
    }
    if (candidates_.empty()) break;  // numerical guard, as before

    // Apply in ascending flow order — the order the historical single-scan
    // solvers froze in, which fixes the float accumulation sequence of
    // every resource's frozen_usage.
    std::sort(candidates_.begin(), candidates_.end());
    touched_.clear();
    for (const std::uint32_t f : candidates_) {
      const double r = std::min(level, demand[f]);
      rates_out[f] = r;
      frozen_[f] = 1;
      --remaining;
      for (std::size_t k = offsets[f]; k < offsets[f + 1]; ++k) {
        const std::uint32_t key = resources[k];
        frozen_usage_[key] += r;
        --unfrozen_[key];
        if (touch_round_[key] != round) {
          touch_round_[key] = round;
          touched_.push_back(key);
        }
      }
    }
    // Refresh the saturation level of every touched, still-active
    // resource: one generation bump + one heap push each.
    for (const std::uint32_t key : touched_) {
      if (unfrozen_[key] == 0) continue;
      sat_[key] = (capacity[key] - frozen_usage_[key]) / static_cast<double>(unfrozen_[key]);
      ++gen_[key];
      res_heap_.push_back(ResEntry{sat_[key], key, gen_[key]});
      std::push_heap(res_heap_.begin(), res_heap_.end(), res_less_at_front);
    }
  }
  return stats;
}

bool WaterfillSolver::build_partitions(std::span<const std::size_t> flow_offsets,
                                       std::span<const double> demand) {
  const std::size_t nf = demand.size();
  const std::size_t nl = loc_capacity_.size();
  mark_unsaturable(flow_offsets, demand);

  // Union-find over flows, joining through every uncut resource. Roots are
  // kept minimal (attach the larger root under the smaller), so a
  // component's root is its smallest flow index.
  uf_parent_.resize(nf);
  for (std::size_t f = 0; f < nf; ++f) uf_parent_[f] = static_cast<std::uint32_t>(f);
  const auto find = [this](std::uint32_t f) {
    while (uf_parent_[f] != f) {
      uf_parent_[f] = uf_parent_[uf_parent_[f]];  // path halving
      f = uf_parent_[f];
    }
    return f;
  };
  res_first_flow_.assign(nl, std::numeric_limits<std::uint32_t>::max());
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::size_t k = flow_offsets[f]; k < flow_offsets[f + 1]; ++k) {
      const std::uint32_t r = loc_resources_[k];
      if (keep_id_[r] == kCut) continue;
      if (res_first_flow_[r] == std::numeric_limits<std::uint32_t>::max()) {
        res_first_flow_[r] = static_cast<std::uint32_t>(f);
        continue;
      }
      std::uint32_t a = find(res_first_flow_[r]);
      std::uint32_t b = find(static_cast<std::uint32_t>(f));
      if (a != b) uf_parent_[std::max(a, b)] = std::min(a, b);
    }
  }

  // Dense component ids in ascending smallest-member order.
  comp_of_flow_.resize(nf);
  comp_remap_.assign(nf, std::numeric_limits<std::uint32_t>::max());
  std::uint32_t ncomp = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    const std::uint32_t root = find(static_cast<std::uint32_t>(f));
    if (comp_remap_[root] == std::numeric_limits<std::uint32_t>::max()) comp_remap_[root] = ncomp++;
    comp_of_flow_[f] = comp_remap_[root];
  }
  partition_count_ = ncomp;
  return ncomp > 1;
}

WaterfillStats WaterfillSolver::solve_partitioned(std::span<const std::size_t> flow_offsets,
                                                  std::span<const double> demand,
                                                  std::span<double> rates_out,
                                                  const WaterfillOptions& options) {
  const std::size_t nf = demand.size();
  const std::size_t nl = loc_capacity_.size();
  const std::size_t ncomp = partition_count_;

  partitions_.resize(ncomp);
  for (Partition& p : partitions_) {
    p.flow_ids.clear();
    p.offsets.clear();
    p.resources.clear();
    p.capacity.clear();
    p.demand.clear();
  }
  for (std::size_t f = 0; f < nf; ++f) partitions_[comp_of_flow_[f]].flow_ids.push_back(f);

  // Per-partition CSR with dense local resource ids. A cut resource shared
  // by several partitions is replicated with its full capacity into each —
  // it never saturates anywhere, so the replicas cannot disagree. Each
  // flow's constraint list (order and multiplicity) is preserved exactly.
  part_local_.resize(nl);
  part_owner_.assign(nl, std::numeric_limits<std::uint32_t>::max());
  for (std::uint32_t c = 0; c < ncomp; ++c) {
    Partition& p = partitions_[c];
    p.offsets.push_back(0);
    for (const std::size_t f : p.flow_ids) {
      for (std::size_t k = flow_offsets[f]; k < flow_offsets[f + 1]; ++k) {
        const std::uint32_t r = loc_resources_[k];
        if (part_owner_[r] != c) {
          part_owner_[r] = c;
          part_local_[r] = static_cast<std::uint32_t>(p.capacity.size());
          p.capacity.push_back(loc_capacity_[r]);
        }
        p.resources.push_back(part_local_[r]);
      }
      p.offsets.push_back(p.resources.size());
      p.demand.push_back(demand[f]);
    }
    p.rates.assign(p.flow_ids.size(), 0.0);
  }

  // Solve the partitions, batched into contiguous component ranges so a
  // million tiny components do not become a million pool tasks. Each lane
  // owns a private sub-solver (arena reuse without sharing); partitioning
  // is disabled inside so a lane can never re-enter the pool.
  WaterfillOptions sub = options;
  sub.pool = nullptr;
  sub.partition_min_flows = std::numeric_limits<std::size_t>::max();
  const std::size_t nbatch =
      options.pool != nullptr
          ? std::min(ncomp, std::max<std::size_t>(1, 4 * options.pool->worker_count()))
          : 1;
  sub_solvers_.resize(nbatch);
  const auto solve_range = [&](std::size_t batch, std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      Partition& p = partitions_[c];
      p.stats = sub_solvers_[batch].solve(p.capacity, p.offsets, p.resources, p.demand, p.rates,
                                          sub);
    }
  };
  if (options.pool != nullptr && nbatch > 1) {
    // remos-analyze: allow(concurrency): FlowEngine::mu_ (5) is deliberately held across this dispatch; ThreadPool::mu_ is order 10 and lanes take no locks, so the nesting is strictly increasing and lanes cannot block on mu_.
    options.pool->parallel_ranges(ncomp, nbatch, solve_range);  // remos-analyze: allow(hotpath): opt-in parallel dispatch above partition_min_flows — the caller explicitly traded blocking on pool lanes for wall-clock speedup; results stay bit-identical
  } else {
    solve_range(0, 0, ncomp);
  }

  // Deterministic merge: ascending component order, ascending flow ids
  // within each (every flow written exactly once — partitions are a
  // disjoint cover).
  WaterfillStats stats;
  stats.partitions = ncomp;
  std::size_t merged = 0;
  for (const Partition& p : partitions_) {
    stats.rounds += p.stats.rounds;
    stats.demand_frozen += p.stats.demand_frozen;
    stats.saturation_frozen += p.stats.saturation_frozen;
    for (std::size_t i = 0; i < p.flow_ids.size(); ++i) rates_out[p.flow_ids[i]] = p.rates[i];
    merged += p.flow_ids.size();
  }
  REMOS_CHECK(merged == nf, "waterfill: partitions must cover every flow exactly once");
  return stats;
}

}  // namespace remos::core
