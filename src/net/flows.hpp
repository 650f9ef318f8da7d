// Fluid-flow traffic engine with max-min fair bandwidth sharing.
//
// Flows are fluid streams over resolved forwarding paths. At any instant the
// engine assigns every active flow its max-min fair rate (progressive
// filling, honoring per-flow demand caps and shared-Ethernet segments). As
// simulated time advances, each traversed interface accumulates octets —
// exactly the counters the SNMP Collector samples — and finite transfers
// complete at the precise instant their last byte drains.
//
// The same max-min allocation problem is solved a second time, on measured
// data, by the Remos Modeler (core/maxmin); comparing the two is how the
// reproduction evaluates SNMP Collector accuracy (Figs 4-5). Both solvers
// share one water-filling kernel (core/waterfill); the engine's job here is
// to keep each rate change O(active flows x path length), never O(network):
// per-flow resource keys, distinct directed links and hop interfaces are
// resolved once at start() (interfaces again, in place, whenever
// Network::version() changes), the resource capacity table persists across
// start/stop/completion, every recompute publishes its per-directed-link
// rate sums in one pass over the active flows, and resolved paths are
// cached per (src, dst) until the topology changes.
//
// Threading discipline. The simulation itself is single-threaded, but
// queries (SNMP agents sampling counters, RTT probes, collector fleets on
// the thread pool) may run concurrently with it:
//   * Mutating entry points — start(), stop(), sync(), and the completion
//     event — must stay on the simulation thread (they drive sim::Engine,
//     which is not thread-safe).
//   * Const queries are safe from any thread, concurrently with the
//     mutators. The hot ones — rate(), directed_link_rate(),
//     current_rtt() — are lock-free: every rate recomputation publishes an
//     immutable RatesView through an atomic shared_ptr swap, and readers
//     answer from the view they loaded (RCU-style; a reader keeps its view
//     alive through the shared_ptr even across a concurrent recompute).
//     The remaining const accessors (stats, counters) take `mu_`, and
//     `path_mu_` guards the (src, dst) path cache that const queries
//     populate.
//   * Topology mutation (Network::move_host) requires exclusive access:
//     Network itself is unlocked, and the caches keyed on its version are
//     only revalidated at the next engine call.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/waterfill.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace remos::sim {
class ThreadPool;
}  // namespace remos::sim

namespace remos::net {

using FlowId = std::uint64_t;

struct FlowSpec {
  NodeId src = kNone;
  NodeId dst = kNone;
  /// Application demand cap in bits/second; infinity = greedy (TCP bulk).
  double demand_bps = std::numeric_limits<double>::infinity();
  /// Transfer size in bytes; 0 = unbounded (runs until stop()).
  std::uint64_t bytes = 0;
  /// Invoked (from the simulation event loop) when a finite flow drains.
  std::function<void(FlowId)> on_complete;
};

struct FlowStats {
  sim::Time start_time = 0.0;
  sim::Time end_time = 0.0;  // completion or stop(); 0 while active
  std::uint64_t delivered_bytes = 0;
  bool completed = false;  // true: drained; false: stopped early / active
  /// Average achieved throughput in bits/second over the flow's lifetime.
  [[nodiscard]] double average_bps() const {
    const double dur = end_time - start_time;
    return dur > 0 ? static_cast<double>(delivered_bytes) * 8.0 / dur : 0.0;
  }
};

class FlowEngine {
 public:
  FlowEngine(sim::Engine& engine, Network& net);

  /// Enable partitioned parallel rate recomputation: water-filling
  /// problems with at least `min_flows` active flows are split into
  /// bottleneck-independent components and solved on `pool` (nullptr
  /// restores the sequential kernel). Rates are bit-identical across
  /// worker counts and match the sequential kernel within its 1e-9 freeze
  /// tolerance; the rounds counter then counts per-partition rounds.
  /// Call during setup, before any concurrent use of the engine.
  void set_thread_pool(sim::ThreadPool* pool, std::size_t min_flows = 4096);

  /// Start a flow; resolves the forwarding path immediately.
  FlowId start(FlowSpec spec);
  /// Stop an unbounded (or not-yet-finished) flow. No-op for unknown ids.
  void stop(FlowId id);

  [[nodiscard]] bool active(FlowId id) const {
    std::lock_guard lock(mu_);
    return flows_.contains(id);
  }
  [[nodiscard]] std::size_t active_count() const {
    std::lock_guard lock(mu_);
    return flows_.size();
  }

  /// Current max-min rate of a flow in bits/second (0 for unknown ids).
  /// Lock-free: binary search in the published RatesView.
  // remos-hot
  [[nodiscard]] double rate(FlowId id) const;

  /// Ground-truth aggregate rate currently crossing a directed link.
  /// Lock-free: O(1) lookup in the published RatesView's per-directed-link
  /// sums (accumulated in ascending-FlowId order).
  // remos-hot
  [[nodiscard]] double directed_link_rate(LinkId link, bool forward) const;

  /// Lifetime statistics; available while active and after completion.
  /// Finished records are retained up to a bounded history (oldest flows
  /// age out first), so callers should read stats promptly.
  [[nodiscard]] std::optional<FlowStats> stats(FlowId id) const;

  /// Bring octet counters up to the current simulated time. Called
  /// automatically before any rate change; exposed so SNMP agents can
  /// sample fresh counters at arbitrary instants (simulation thread only —
  /// it reads the virtual clock).
  void sync();

  /// Round-trip time estimate between two endpoints under the current
  /// load: per traversed hop (both directions), propagation latency plus
  /// an M/M/1-style queueing penalty `queue_scale * rho / (1 - rho)` with
  /// rho the directed link's current utilization (capped at 0.95; a
  /// zero-capacity link counts as fully utilized). This is what a small
  /// ping-like probe would observe, and the source of the latency/jitter
  /// metric the paper lists as future work.
  [[nodiscard]] double current_rtt(NodeId src, NodeId dst, double queue_scale_s = 0.002) const;

  /// Total flows ever started.
  [[nodiscard]] std::uint64_t started_count() const {
    std::lock_guard lock(mu_);
    return next_id_ - 1;
  }

  /// Cumulative water-filling freezing rounds across all rate
  /// recomputations — the deterministic work counter the scaling bench
  /// pins (the fluid counterpart of core.maxmin.iterations_total).
  [[nodiscard]] std::uint64_t waterfill_rounds_total() const {
    std::lock_guard lock(mu_);
    return waterfill_rounds_total_;
  }

  /// Path-cache observability (tested by the invalidation tests).
  [[nodiscard]] std::uint64_t path_cache_hits() const {
    std::lock_guard lock(path_mu_);
    return path_cache_hits_;
  }
  [[nodiscard]] std::uint64_t path_cache_misses() const {
    std::lock_guard lock(path_mu_);
    return path_cache_misses_;
  }

 private:
  struct HopInterfaces {
    Interface* egress = nullptr;   // sending end: out_octets
    Interface* ingress = nullptr;  // receiving end: in_octets
  };
  struct Flow {
    FlowSpec spec;
    std::vector<Hop> hops;
    std::vector<SegmentId> shared_segments;  // deduped shared segments crossed
    /// Water-filling resource keys (hop order, then shared segments),
    /// computed once at start(). Duplicates preserved: a resource crossed
    /// twice constrains the flow twice, as in the original solver.
    std::vector<std::uint32_t> resource_keys;
    /// Distinct directed links crossed (2*link + dir, first-encounter
    /// order): the slots this flow's rate adds to in the published view.
    std::vector<std::uint32_t> directed_links;
    /// Per hop: the interfaces whose octet counters it advances. Pointers
    /// into Network's interface vectors, re-resolved in place whenever the
    /// topology version changes (move_host may grow a switch's vector).
    std::vector<HopInterfaces> hop_interfaces;
    double rate_bps = 0.0;
    double remaining_bytes = 0.0;  // only meaningful when spec.bytes > 0
    /// Sub-byte residue of delivered traffic, carried across syncs so
    /// interface octet counters don't systematically undercount. Flushed
    /// (rounded into a final octet) at stop and completion so SNMP-visible
    /// octets reconcile exactly with the flow's delivered_bytes.
    double octet_carry = 0.0;
    FlowStats stats;
  };

  /// Immutable per-recompute rate summary, published via atomic
  /// shared_ptr swap at the end of every recompute_rates() (and once,
  /// empty, at construction). Readers answer rate queries from whichever
  /// view they loaded without taking mu_; exactness holds because every
  /// mutation that can change a rate ends in recompute_rates() before mu_
  /// is released.
  // remos-published
  struct RatesView {
    /// Active flows' current rates, ascending FlowId (binary-searchable).
    std::vector<std::pair<FlowId, double>> flow_rates;
    /// Aggregate rate per directed link (2*link + dir), summed in
    /// ascending-FlowId order per link, each flow once per distinct
    /// directed link it crosses.
    std::vector<double> directed_rate_bps;
  };

  // ---- all helpers below assume mu_ is held by the caller ----
  // remos-hot
  void sync_locked();
  // remos-hot
  void recompute_rates();
  void publish_rates_view();
  void schedule_next_completion();
  void handle_completion_event();
  /// Credit octets to the flow's stats and every traversed interface in
  /// one step — the single place flow-visible and SNMP-visible counters
  /// advance, so they cannot drift apart.
  void credit_octets(Flow& flow, std::uint64_t octets);

  // ---- incremental state helpers ----
  /// Water-filling resource key layout: shared segments first (their count
  /// is fixed at finalize), then both directions of each link (links can
  /// be added by move_host without invalidating existing keys).
  [[nodiscard]] std::uint32_t segment_resource_key(SegmentId sid) const {
    return static_cast<std::uint32_t>(sid);
  }
  [[nodiscard]] std::uint32_t link_resource_key(LinkId link, bool forward) const {
    return static_cast<std::uint32_t>(net_.segment_count() + 2 * static_cast<std::size_t>(link) +
                                      (forward ? 0 : 1));
  }
  /// Rebuild the persistent resource capacity table and re-resolve every
  /// active flow's hop interfaces when the topology version changed, so
  /// neither a capacity nor an interface pointer outlives a reconfiguration.
  /// Runs before any octet crediting or rate recompute.
  void ensure_resource_tables();
  /// Point each of the flow's hops at its current egress/ingress interface.
  void resolve_interfaces(Flow& flow);
  /// Cached resolve_path (invalidated when the topology version changes).
  /// Takes path_mu_ itself; safe to call with or without mu_ held (mu_ is
  /// strictly outer). The returned reference stays valid until the next
  /// topology-version change: the cache is node-based, so inserts from
  /// concurrent queries never move existing entries.
  [[nodiscard]] const PathResult& resolved_path(NodeId src, NodeId dst) const;

  /// Bound on retained finished-flow records (FIFO eviction by FlowId).
  static constexpr std::size_t kFinishedCap = 1 << 16;

  void record_finished(FlowId id, const FlowStats& stats);

  sim::Engine& engine_;
  Network& net_;
  /// Partitioned-parallel recompute knobs (setup-time, not hot state).
  sim::ThreadPool* pool_ = nullptr;               // remos-guarded-by(mu_)
  std::size_t parallel_min_flows_ = 4096;         // remos-guarded-by(mu_)
  // Ordered by FlowId: max-min problem assembly and rate copy-back iterate
  // this, so hash order would leak into float sums and event ordering.
  std::map<FlowId, Flow> flows_;                  // remos-guarded-by(mu_)
  // Ordered: begin() is the oldest.
  std::map<FlowId, FlowStats> finished_;          // remos-guarded-by(mu_)
  FlowId next_id_ = 1;                            // remos-guarded-by(mu_)
  sim::Time last_sync_ = 0.0;                     // remos-guarded-by(mu_)
  sim::EventId completion_event_ = 0;             // remos-guarded-by(mu_)

  // ---- incremental solver state ----
  core::WaterfillSolver solver_;                  // remos-guarded-by(mu_)
  /// Capacity per resource key; rebuilt when net_.version() changes.
  std::vector<double> resource_capacity_;         // remos-guarded-by(mu_)
  std::uint64_t tables_net_version_ = 0;          // remos-guarded-by(mu_)
  bool tables_valid_ = false;                     // remos-guarded-by(mu_)
  /// CSR assembly arenas, reused across recomputes.
  std::vector<std::size_t> wf_offsets_;           // remos-guarded-by(mu_)
  std::vector<std::uint32_t> wf_resources_;       // remos-guarded-by(mu_)
  std::vector<double> wf_demand_;                 // remos-guarded-by(mu_)
  std::vector<double> wf_rates_;                  // remos-guarded-by(mu_)
  /// Earliest completion delta among finite flows, refreshed by every
  /// recompute (rates and remaining bytes are both current there), so
  /// schedule_next_completion is O(1).
  // remos-guarded-by(mu_)
  double earliest_completion_dt_ = std::numeric_limits<double>::infinity();
  std::uint64_t waterfill_rounds_total_ = 0;      // remos-guarded-by(mu_)
  /// Published rate summary (see RatesView). Written only by
  /// publish_rates_view() with mu_ held; read lock-free from any thread.
  std::atomic<std::shared_ptr<const RatesView>> rates_view_;

  /// Orders const queries against flow mutation/recompute. Everything
  /// above (except the engine/net references) carries an explicit
  /// remos-guarded-by(mu_); private helpers that rely on the caller's
  /// lock carry remos-requires(mu_) so the analyzer can check their
  /// bodies and call sites too. Held while dispatching partitioned
  /// solves, hence ordered before ThreadPool::mu_ (10).
  mutable std::mutex mu_;  // remos-lock-order(5)

  // ---- path cache, guarded by path_mu_ (declared first so the analyzer's
  // lock pass enforces the guard on every member after it; this is the
  // cache that was historically mutated from const queries with no
  // synchronization at all) ----
  mutable std::mutex path_mu_;  // remos-lock-order(6)
  mutable std::unordered_map<std::uint64_t, PathResult> path_cache_;
  mutable std::uint64_t path_cache_net_version_ = 0;
  mutable bool path_cache_valid_ = false;
  mutable std::uint64_t path_cache_hits_ = 0;
  mutable std::uint64_t path_cache_misses_ = 0;
};

}  // namespace remos::net
