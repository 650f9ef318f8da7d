#include "net/flows.hpp"

#include <algorithm>
#include <cmath>

#include "core/audit.hpp"
#include "sim/thread_pool.hpp"

namespace remos::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Residual bytes below this are considered drained. Sub-byte residues are
/// physically meaningless, and chasing them risks scheduling ever-smaller
/// completion deltas that underflow the simulated clock's resolution.
constexpr double kByteEpsilon = 0.5;
/// Completion events are never scheduled closer than this, so the event
/// loop always advances the clock (guards an FP livelock at large t).
constexpr double kMinCompletionDt = 1e-9;

}  // namespace

FlowEngine::FlowEngine(sim::Engine& engine, Network& net) : engine_(engine), net_(net) {
  last_sync_ = engine_.now();
  // Publish the empty view so lock-free readers never observe a null one.
  rates_view_.store(std::make_shared<const RatesView>(), std::memory_order_release);
}

void FlowEngine::set_thread_pool(sim::ThreadPool* pool, std::size_t min_flows) {
  std::lock_guard lock(mu_);
  pool_ = pool;
  parallel_min_flows_ = min_flows;
}

const PathResult& FlowEngine::resolved_path(NodeId src, NodeId dst) const {
  std::lock_guard lock(path_mu_);
  if (!path_cache_valid_ || path_cache_net_version_ != net_.version()) {
    path_cache_.clear();
    path_cache_net_version_ = net_.version();
    path_cache_valid_ = true;
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  if (auto it = path_cache_.find(key); it != path_cache_.end()) {
    ++path_cache_hits_;
    return it->second;
  }
  ++path_cache_misses_;
  // resolve_path throws for unroutable pairs, so only successes are cached.
  auto [it, inserted] = path_cache_.emplace(key, net_.resolve_path(src, dst));
  return it->second;
}

// remos-requires(mu_)
void FlowEngine::ensure_resource_tables() {
  if (tables_valid_ && tables_net_version_ == net_.version()) return;
  const std::size_t segs = net_.segment_count();
  resource_capacity_.assign(segs + 2 * net_.link_count(), 0.0);
  for (const Segment& s : net_.segments()) {
    resource_capacity_[segment_resource_key(s.id)] = s.shared_capacity_bps;
  }
  for (const Link& l : net_.links()) {
    resource_capacity_[link_resource_key(l.id, true)] = l.capacity_bps;
    resource_capacity_[link_resource_key(l.id, false)] = l.capacity_bps;
  }
  // A reconfiguration may rewire a link onto another node (move_host) and
  // grow that node's interface vector, so every cached interface pointer
  // is resolved afresh against the new topology.
  for (auto& [id, f] : flows_) {
    (void)id;
    for (const Hop& h : f.hops) {
      REMOS_CHECK(h.link < net_.link_count(),
                  "FlowEngine: active flow crosses a link the topology no longer has");
    }
    resolve_interfaces(f);
  }
  tables_net_version_ = net_.version();
  tables_valid_ = true;
}

// remos-requires(mu_)
void FlowEngine::resolve_interfaces(Flow& flow) {
  flow.hop_interfaces.resize(flow.hops.size());
  for (std::size_t i = 0; i < flow.hops.size(); ++i) {
    flow.hop_interfaces[i] = {&net_.egress_interface(flow.hops[i]),
                              &net_.ingress_interface(flow.hops[i])};
  }
}

FlowId FlowEngine::start(FlowSpec spec) {
  std::lock_guard lock(mu_);
  sync_locked();
  Flow f;
  const PathResult& path = resolved_path(spec.src, spec.dst);
  f.hops = path.hops;
  // A flow crossing a shared (hub) segment loads the collision domain once,
  // however many hops it takes inside it.
  for (const Hop& h : f.hops) {
    SegmentId sid = net_.link(h.link).segment;
    const Segment& s = net_.segment(sid);
    if (s.shared && s.shared_capacity_bps > 0 &&
        std::find(f.shared_segments.begin(), f.shared_segments.end(), sid) ==
            f.shared_segments.end()) {
      f.shared_segments.push_back(sid);
    }
  }
  // Water-filling resource keys, fixed for the flow's lifetime: one per
  // hop (duplicates preserved — each crossing is a constraint), then one
  // per crossed shared segment. Order matches the historical solver's
  // per-recompute `uses` list so float accumulation sequences are
  // unchanged.
  f.resource_keys.reserve(f.hops.size() + f.shared_segments.size());
  for (const Hop& h : f.hops) f.resource_keys.push_back(link_resource_key(h.link, h.forward));
  for (SegmentId sid : f.shared_segments) f.resource_keys.push_back(segment_resource_key(sid));
  // The rate counts once per directed link however many hops cross it.
  for (const Hop& h : f.hops) {
    const auto k = static_cast<std::uint32_t>(2 * static_cast<std::size_t>(h.link) +
                                              (h.forward ? 0 : 1));
    if (std::find(f.directed_links.begin(), f.directed_links.end(), k) ==
        f.directed_links.end()) {
      f.directed_links.push_back(k);
    }
  }
  resolve_interfaces(f);
  f.remaining_bytes = static_cast<double>(spec.bytes);
  f.stats.start_time = engine_.now();
  f.spec = std::move(spec);

  FlowId id = next_id_++;
  const bool inserted = flows_.emplace(id, std::move(f)).second;
  REMOS_CHECK(inserted, "FlowEngine: duplicate flow id");
  recompute_rates();
  // remos-analyze: allow(lock): only *schedules* handle_completion_event; the lambda runs later from the event loop, after mu_ is released.
  schedule_next_completion();
  return id;
}

void FlowEngine::stop(FlowId id) {
  std::lock_guard lock(mu_);
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  sync_locked();
  Flow& f = it->second;
  // Flush the sub-octet carry (rounded to nearest) so the interface
  // counters an SNMP agent reads reconcile with the flow's delivered
  // bytes; silently dropping it made early-stopped flows undercount.
  credit_octets(f, static_cast<std::uint64_t>(f.octet_carry + 0.5));
  f.octet_carry = 0.0;
  f.stats.end_time = engine_.now();
  f.stats.completed = false;
  record_finished(id, f.stats);
  flows_.erase(it);
  recompute_rates();
  // remos-analyze: allow(lock): only *schedules* handle_completion_event; the lambda runs later from the event loop, after mu_ is released.
  schedule_next_completion();
}

double FlowEngine::rate(FlowId id) const {
  const std::shared_ptr<const RatesView> view = rates_view_.load(std::memory_order_acquire);
  const auto it = std::lower_bound(
      view->flow_rates.begin(), view->flow_rates.end(), id,
      [](const std::pair<FlowId, double>& entry, FlowId key) { return entry.first < key; });
  return it != view->flow_rates.end() && it->first == id ? it->second : 0.0;
}

double FlowEngine::directed_link_rate(LinkId link, bool forward) const {
  const std::shared_ptr<const RatesView> view = rates_view_.load(std::memory_order_acquire);
  const std::size_t k = 2 * static_cast<std::size_t>(link) + (forward ? 0 : 1);
  return k < view->directed_rate_bps.size() ? view->directed_rate_bps[k] : 0.0;
}

std::optional<FlowStats> FlowEngine::stats(FlowId id) const {
  std::lock_guard lock(mu_);
  if (auto it = flows_.find(id); it != flows_.end()) return it->second.stats;
  if (auto it = finished_.find(id); it != finished_.end()) return it->second;
  return std::nullopt;
}

// remos-requires(mu_)
void FlowEngine::record_finished(FlowId id, const FlowStats& stats) {
  finished_.insert_or_assign(id, stats);
  while (finished_.size() > kFinishedCap) finished_.erase(finished_.begin());
}

// remos-requires(mu_)
void FlowEngine::credit_octets(Flow& flow, std::uint64_t octets) {
  if (octets == 0) return;
  flow.stats.delivered_bytes += octets;
  for (const HopInterfaces& hop : flow.hop_interfaces) {
    hop.egress->out_octets += octets;
    hop.ingress->in_octets += octets;
  }
}

void FlowEngine::sync() {
  std::lock_guard lock(mu_);
  sync_locked();
}

// remos-requires(mu_)
void FlowEngine::sync_locked() {
  // Crediting goes through the flows' cached interface pointers, which a
  // topology change since the last call may have left stale.
  ensure_resource_tables();
  const sim::Time now = engine_.now();
  const double dt = now - last_sync_;
  if (dt <= 0) {
    last_sync_ = now;
    return;
  }
  for (auto& [id, f] : flows_) {
    (void)id;
    if (f.rate_bps <= 0) continue;
    double bytes = f.rate_bps / 8.0 * dt;
    if (f.spec.bytes > 0) {
      bytes = std::min(bytes, f.remaining_bytes);
      f.remaining_bytes -= bytes;
    }
    // Octet counters are integral; carry the sub-octet residue to the next
    // sync instead of truncating it away, so many small syncs deliver the
    // same octet totals as one large one (bounded drift < 1 octet, and the
    // residue is flushed when the flow completes or stops).
    f.octet_carry += bytes;
    const auto whole = static_cast<std::uint64_t>(f.octet_carry);
    f.octet_carry -= static_cast<double>(whole);
    credit_octets(f, whole);
  }
  last_sync_ = now;
}

double FlowEngine::current_rtt(NodeId src, NodeId dst, double queue_scale_s) const {
  const PathResult& path = resolved_path(src, dst);
  // Per-link loads come from the published view, so an RTT probe never
  // contends with rate recomputation (the view holds exactly the loads the
  // locked scan would have summed).
  const std::shared_ptr<const RatesView> view = rates_view_.load(std::memory_order_acquire);
  double rtt = 0.0;
  for (const Hop& h : path.hops) {
    const Link& l = net_.link(h.link);
    rtt += 2.0 * l.latency_s;
    for (const bool dir : {h.forward, !h.forward}) {
      const std::size_t k = 2 * static_cast<std::size_t>(l.id) + (dir ? 0 : 1);
      const double load = k < view->directed_rate_bps.size() ? view->directed_rate_bps[k] : 0.0;
      // A zero-capacity link has no headroom at all: treat it as fully
      // utilized (the cap) rather than dividing by zero, which fed NaN/inf
      // into every RTT downstream of this hop.
      const double rho =
          l.capacity_bps > 0.0 ? std::min(load / l.capacity_bps, 0.95) : 0.95;
      rtt += queue_scale_s * rho / (1.0 - rho);
    }
  }
  REMOS_CHECK(std::isfinite(rtt), "FlowEngine: RTT estimate must be finite");
  return rtt;
}

// remos-requires(mu_)
void FlowEngine::recompute_rates() {
  // Assemble the water-filling problem from persistent per-flow resource
  // lists and the persistent capacity table — the historical implementation
  // rebuilt per-solve hash maps from the hop lists on every call. The CSR
  // arenas keep their capacity across recomputes, so the steady state
  // allocates nothing.
  ensure_resource_tables();
  const std::size_t nf = flows_.size();
  wf_offsets_.clear();
  wf_resources_.clear();
  wf_demand_.clear();
  wf_offsets_.push_back(0);
  for (const auto& [id, f] : flows_) {
    (void)id;
    wf_resources_.insert(wf_resources_.end(), f.resource_keys.begin(), f.resource_keys.end());
    wf_offsets_.push_back(wf_resources_.size());
    wf_demand_.push_back(f.spec.demand_bps);
  }
  wf_rates_.assign(nf, 0.0);
  core::WaterfillOptions options;
  options.monotone_level = true;
  if (pool_ != nullptr) {
    // Opt-in partitioned parallel solve (set_thread_pool). mu_ (5) is held
    // across the dispatch; ThreadPool::mu_ is order 10, so the nesting is
    // strictly increasing.
    options.partition_min_flows = parallel_min_flows_;
    options.pool = pool_;
  }
  const core::WaterfillStats stats =
      solver_.solve(resource_capacity_, wf_offsets_, wf_resources_, wf_demand_, wf_rates_, options);
  waterfill_rounds_total_ += stats.rounds;

  // Copy rates back (same FlowId order the problem was assembled in) and
  // refresh the earliest-completion delta so scheduling stays O(1).
  double earliest = kInf;
  std::size_t dense = 0;
  for (auto& [id, f] : flows_) {
    (void)id;
    f.rate_bps = wf_rates_[dense++];
    if (f.spec.bytes == 0 || f.rate_bps <= 0) continue;
    earliest = std::min(earliest, f.remaining_bytes / (f.rate_bps / 8.0));
  }
  earliest_completion_dt_ = earliest;
  publish_rates_view();
}

// remos-requires(mu_)
void FlowEngine::publish_rates_view() {
  // remos-analyze: allow(hotpath): RCU publication — every recompute builds a fresh immutable view for readers still holding the old one; the allocation IS the publication protocol
  auto view = std::make_shared<RatesView>();
  view->flow_rates.reserve(flows_.size());
  view->directed_rate_bps.assign(2 * net_.link_count(), 0.0);
  // One pass in ascending FlowId: each directed link's sum sees its flows'
  // rates in id order, each flow once per distinct link it crosses.
  for (const auto& [id, f] : flows_) {
    view->flow_rates.emplace_back(id, f.rate_bps);
    for (const std::uint32_t k : f.directed_links) view->directed_rate_bps[k] += f.rate_bps;
  }
  rates_view_.store(std::move(view), std::memory_order_release);
}

// remos-requires(mu_)
void FlowEngine::schedule_next_completion() {
  if (completion_event_ != 0) {
    engine_.cancel(completion_event_);
    completion_event_ = 0;
  }
  // recompute_rates (which every call site runs first) left the earliest
  // completion delta among finite flows here.
  double earliest = earliest_completion_dt_;
  if (!std::isfinite(earliest)) return;
  earliest = std::max(earliest, kMinCompletionDt);
  // remos-analyze: allow(lock): only *schedules* handle_completion_event; the lambda runs later from the event loop, after mu_ is released.
  completion_event_ = engine_.after(earliest, [this] { handle_completion_event(); });
}

void FlowEngine::handle_completion_event() {
  std::vector<std::pair<FlowId, std::function<void(FlowId)>>> callbacks;
  {
    std::lock_guard lock(mu_);
    completion_event_ = 0;
    sync_locked();
    for (auto it = flows_.begin(); it != flows_.end();) {
      Flow& f = it->second;
      if (f.spec.bytes > 0 && f.remaining_bytes <= kByteEpsilon) {
        f.stats.end_time = engine_.now();
        f.stats.completed = true;
        // Deliver the fractional tail as real octets: the flow drained all
        // spec.bytes, so the interfaces it crossed must show them too.
        // (Historically delivered_bytes was forced to spec.bytes while the
        // interface counters kept only the truncated sync total, so SNMP
        // octets never reconciled with completed transfers.)
        REMOS_CHECK(f.stats.delivered_bytes <= f.spec.bytes,
                    "FlowEngine: completed flow overdelivered");
        credit_octets(f, f.spec.bytes - f.stats.delivered_bytes);
        f.octet_carry = 0.0;
        record_finished(it->first, f.stats);
        if (f.spec.on_complete) callbacks.emplace_back(it->first, std::move(f.spec.on_complete));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    recompute_rates();
    // remos-analyze: allow(lock): only *schedules* handle_completion_event; the lambda runs later from the event loop, after mu_ is released.
    schedule_next_completion();
  }
  // Run callbacks after unlocking: they may start/stop flows reentrantly.
  for (auto& [id, cb] : callbacks) cb(id);
}

}  // namespace remos::net
