// Shared max-min water-filling kernel.
//
// Both max-min solvers in the system — the fluid simulator's ground-truth
// rate assignment (net/flows) and the Modeler's flow-query answers
// (core/maxmin) — solve the same progressive-filling problem: all unfrozen
// flows share one rising water level; a resource saturates when
// frozen_usage + level * unfrozen == capacity, freezing every unfrozen
// flow that crosses it; a flow whose demand cap is reached freezes at its
// demand. This kernel is the single implementation behind both.
//
// Performance contract (the reason this exists — see DESIGN.md
// "Performance"):
//   * The problem arrives as a flat CSR flow→resource index; the solver
//     keeps every per-solve array as a reusable arena, so steady-state
//     solves allocate nothing.
//   * A solve costs O(nnz log nnz) in the crossings it is handed and is
//     independent of capacity.size(): the resources the flows actually
//     cross are renumbered into dense local ids (a stamped map, never
//     cleared), and every resource that provably can never saturate is
//     dropped before the heaps are built — the same cut rule the
//     partitioner uses, so only resources that can become a bottleneck
//     enter the kernel.
//   * Saturation candidates come from a lazy-deletion min-heap over
//     resource saturation levels (entries carry a per-resource generation;
//     stale entries are discarded on pop), and demand caps from a second
//     min-heap, so each freezing round touches only the flows and
//     resources whose residual level actually changed.
//   * Results are bit-identical to the historical rescan solvers: levels
//     are derived from the same expressions over the same operands, and
//     freezes are applied in ascending flow order, so every float is
//     produced by the identical sequence of IEEE operations. A dropped
//     resource is never selected by any freezing round nor sets any
//     round's level, so dropping it changes neither rates nor stats. The
//     golden observability pins cover this.
//   * Above an opt-in flow-count threshold the solver partitions the
//     problem into bottleneck-independent components (union-find over the
//     incidence, cutting at resources that can never saturate) and solves
//     them on a sim::ThreadPool — bit-identically to the partitioned
//     sequential solve regardless of worker count (see DESIGN.md
//     "Parallel partitioned solve").
//
// remos-analyze: public-header(the fluid flow engine in net/ assigns
// ground-truth rates with the same water-filling kernel the Modeler uses,
// so this header is includable from below core; matching `public
// core/waterfill.hpp` grant lives in tools/analyze/layers.txt)
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace remos::sim {
class ThreadPool;  // sim/thread_pool.hpp; only waterfill.cpp needs the def
}  // namespace remos::sim

namespace remos::core {

/// Per-caller semantic switches. The two historical solvers differ in two
/// numeric details; each caller keeps its exact behavior.
struct WaterfillOptions {
  /// Fluid engine: the water level never decreases across rounds
  /// (level = max(level, next_level)).
  bool monotone_level = false;
  /// Modeler: a (numerically) negative fresh level is clamped to zero.
  bool clamp_negative_level = false;
  /// Problems with at least this many flows are split into
  /// bottleneck-independent components before solving (default: never).
  /// Partitioned rates agree with the monolithic kernel within the 1e-9
  /// freeze tolerance (usually bit-identical; the monolithic
  /// monotone-level clamp can couple independent components by an ulp).
  /// WaterfillStats.rounds becomes the sum of per-partition rounds (still
  /// deterministic — a pure function of the problem, pinned by the
  /// scaling bench — though tied cross-component rounds count once
  /// monolithically and once per component here).
  std::size_t partition_min_flows = std::numeric_limits<std::size_t>::max();
  /// Worker pool for partitioned solves. nullptr solves the partitions
  /// sequentially on the calling thread; results are bit-identical with
  /// and without a pool and independent of its worker count (partitions
  /// write disjoint outputs and merge in ascending component order).
  sim::ThreadPool* pool = nullptr;
};

/// Deterministic per-solve work counters (exposed through
/// core.maxmin.* metrics and the waterfill scaling bench).
struct WaterfillStats {
  std::uint64_t rounds = 0;            ///< freezing rounds, incl. a final broken one
  std::uint64_t demand_frozen = 0;     ///< flows frozen at their demand cap
  std::uint64_t saturation_frozen = 0; ///< flows frozen by a saturated resource
  std::uint64_t partitions = 1;        ///< independent components solved (1 = monolithic)
};

/// Reusable water-filling solver. One instance per caller; solve() may be
/// invoked any number of times and reuses all internal arenas. An instance
/// is not safe for concurrent solves — one instance per owning component
/// (the partitioned driver keeps a private sub-solver per parallel lane,
/// so a single instance may still be handed a pool safely).
class WaterfillSolver {
 public:
  /// Solve one max-min allocation.
  ///
  ///   capacity       capacity per resource id (indexed 0..R-1). Entries
  ///                  for resources no flow references are never read, and
  ///                  R itself costs nothing: only crossed ids are touched.
  ///   flow_offsets   CSR offsets into `flow_resources`, size F+1.
  ///   flow_resources resource ids per flow, concatenated. Duplicate ids
  ///                  within one flow count as two constraints (matching
  ///                  the historical solvers).
  ///   demand         per-flow demand cap in bps (infinity = greedy).
  ///   rates_out      per-flow allocated rate, size F (fully overwritten).
  // remos-hot
  WaterfillStats solve(std::span<const double> capacity,
                       std::span<const std::size_t> flow_offsets,
                       std::span<const std::uint32_t> flow_resources,
                       std::span<const double> demand, std::span<double> rates_out,
                       const WaterfillOptions& options);

 private:
  /// Lazy-deletion heap entry: valid iff gen == gen_[res] and the resource
  /// still has unfrozen flows.
  struct ResEntry {
    double sat = 0.0;
    std::uint32_t res = 0;
    std::uint32_t gen = 0;
  };
  struct DemEntry {
    double demand = 0.0;
    std::uint32_t flow = 0;
  };
  /// One bottleneck-independent component's sub-problem (reusable arena).
  /// Local resource ids are dense, assigned in first-encounter order while
  /// walking the component's flows ascending — fully deterministic.
  struct Partition {
    std::vector<std::size_t> flow_ids;      // global flow indices, ascending
    std::vector<std::size_t> offsets;
    std::vector<std::uint32_t> resources;   // local resource ids
    std::vector<double> capacity;
    std::vector<double> demand;
    std::vector<double> rates;
    WaterfillStats stats;
  };

  /// Renumber the resources `flow_resources` crosses into dense local ids
  /// (first-encounter order): fills loc_capacity_ / loc_resources_.
  void compact(std::span<const double> capacity, std::span<const std::uint32_t> flow_resources);
  /// The cut rule shared by both paths: keep_id_[r] = kCut for every local
  /// resource that provably can never saturate — even at every crossing
  /// flow's upper bound min(demand, min crossed capacity) it keeps both a
  /// relative and an absolute margin, so no freezing round (monolithic or
  /// in any partition) can ever select it. Every other resource gets the
  /// next dense kernel id, in local id order.
  void mark_unsaturable(std::span<const std::size_t> flow_offsets, std::span<const double> demand);
  /// The single-component progressive-filling kernel (the historical
  /// bit-exact solver) over the compacted problem, unsaturable resources
  /// dropped.
  WaterfillStats solve_monolithic(std::span<const std::size_t> flow_offsets,
                                  std::span<const double> demand, std::span<double> rates_out,
                                  const WaterfillOptions& options);
  /// Find bottleneck-independent components of the compacted problem:
  /// unsaturable resources are cut from the incidence, union-find joins
  /// flows through the rest. Returns true when there is more than one
  /// component (comp_of_flow_ / partition_count_ are then valid).
  bool build_partitions(std::span<const std::size_t> flow_offsets, std::span<const double> demand);
  /// Assemble per-component sub-problems, solve them (on `options.pool`
  /// when given), and merge rates/stats in ascending component order.
  WaterfillStats solve_partitioned(std::span<const std::size_t> flow_offsets,
                                   std::span<const double> demand, std::span<double> rates_out,
                                   const WaterfillOptions& options);

  // Compaction arenas: global resource id -> local id, valid while the
  // slot's stamp equals stamp_ (grown to the largest id seen, never
  // cleared per solve).
  struct LocalSlot {
    std::uint32_t stamp = 0;
    std::uint32_t local = 0;
  };
  std::vector<LocalSlot> res_slot_;
  std::uint32_t stamp_ = 0;
  std::vector<double> loc_capacity_;       // per local resource
  std::vector<std::uint32_t> loc_resources_;  // flow_resources in local ids

  // Cut-rule arenas (per local resource unless noted).
  std::vector<double> cut_bound_;          // per flow: min(demand, min crossed capacity)
  std::vector<double> res_load_bound_;     // worst-case total load
  std::vector<std::uint32_t> res_uses_;    // crossing count
  static constexpr std::uint32_t kCut = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> keep_id_;     // kernel id, or kCut: never saturates

  // Kernel problem: the resources that can saturate, densely renumbered.
  std::vector<double> kept_capacity_;
  std::vector<std::size_t> kept_offsets_;
  std::vector<std::uint32_t> kept_resources_;

  // Kernel scratch (per kept resource / per flow), reused across solves.
  std::vector<double> frozen_usage_;       // per resource
  std::vector<std::uint32_t> unfrozen_;    // per resource
  std::vector<double> sat_;                // per resource, current level
  std::vector<std::uint32_t> gen_;         // per resource, heap generation
  std::vector<std::uint32_t> touch_round_; // per resource, round stamp
  std::vector<std::uint32_t> cand_round_;  // per flow, round stamp
  std::vector<char> frozen_;               // per flow
  std::vector<std::size_t> res_off_;       // reverse CSR offsets
  std::vector<std::uint32_t> res_flows_;   // reverse CSR values
  std::vector<std::size_t> res_cursor_;    // reverse CSR fill cursors
  std::vector<ResEntry> res_heap_;
  std::vector<DemEntry> dem_heap_;
  std::vector<std::uint32_t> candidates_;  // per-round freeze list
  std::vector<std::uint32_t> touched_;     // per-round dirty resources

  // Partitioner arenas.
  std::vector<std::uint32_t> uf_parent_;   // per flow, union-find
  std::vector<std::uint32_t> res_first_flow_;  // per local resource, union anchor
  std::vector<std::uint32_t> comp_of_flow_;    // per flow, dense component id
  std::vector<std::uint32_t> comp_remap_;      // union-find root -> dense id
  std::size_t partition_count_ = 0;
  std::vector<std::uint32_t> part_local_;  // local resource -> partition-local id
  std::vector<std::uint32_t> part_owner_;  // partition stamp validating part_local_
  // remos-analyze: allow(concurrency): pool lanes index disjoint partition slices — parallel_ranges hands each lane a distinct [begin, end) and components are a disjoint cover.
  std::vector<Partition> partitions_;
  /// One private kernel per parallel lane (vector of incomplete self type
  /// is fine: resized only in waterfill.cpp where the type is complete).
  // remos-analyze: allow(concurrency): one private sub-solver per lane, indexed by the lane's own batch id; no element is shared across lanes.
  std::vector<WaterfillSolver> sub_solvers_;
};

}  // namespace remos::core
