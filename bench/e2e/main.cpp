// End-to-end Remos answer benchmark: SNMP poll -> collectors -> Master merge
// -> snapshot refresh -> topology/flow/predict query -> RPS fit, over
// apps::WanTestbed + core::QueryServer, timed only from outside the
// libraries (calls into public functions and metrics-registry deltas).
//
//   remos_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Prints every metric by name with its unit and sample count, then one JSON
// line: {"correct", "attempted", "failed", "metrics"} holding all of them.
// The measured time is cut into kSlices equal slices; --trace 1 traces
// every second slice, adds the per-layer metrics of the traced slices and
// the cost ledger, and writes trace_<workload>.json. run.py keeps the
// metrics BENCHMARK.json lists for the mode. Exits 1 on any wrong answer.
// bench/e2e/README.md describes the workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/testbed.hpp"
#include "core/audit.hpp"
#include "core/query_server.hpp"
#include "oracle.hpp"
#include "record.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"

namespace remos::e2e {
namespace {

// Why each workload exists: bench/e2e/README.md.
struct Workload {
  const char* name;
  std::size_t sites;
  std::size_t hosts_per_site;
  int clients;             // closed-loop client threads (API callers block on replies)
  double epoch_period_s;   // wall time between epoch starts; 0 = back to back
  std::size_t catalog;     // Zipf(1) query catalog size; 0 = every query unique
};

constexpr Workload kWorkloads[] = {
    {"serve_repeat", 8, 16, 3, 0.100, 4096},
    {"serve_distinct", 8, 16, 3, 0.100, 0},
    {"collect", 12, 32, 0, 0.0, 0},
    {"live_mixed", 12, 32, 3, 0.025, 4096},
};

constexpr double kPollIntervalS = 5.0;  // virtual seconds per epoch: one SNMP poll
// Past 4096 samples of the 5 s SNMP polls (20,480 s), where every poll
// history is at its MeasurementHistory capacity, and past 1024 samples of
// the 15 s benchmark probes, so every snapshot window is full. Before that
// epoch cost keeps growing: from a 16,000 s warm-up, collect's answer rate
// fell by 12-41% within one 10 s run.
constexpr double kWarmupS = 21000.0;
constexpr double kSmokeWarmupS = 2000.0;
constexpr double kSmokeSeconds = 2.0;
constexpr int kSetups = 3;                    // setup_s is their median
// Measured epochs are cut into this many equal slices. query_qps is the
// median slice rate, so a burst of load from elsewhere on the host moves
// one slice, not the result. Traced runs alternate untraced and traced
// slices, so host drift reaches both sides of trace.overhead_frac alike.
constexpr std::size_t kSlices = 10;
constexpr double kCollectEpochsPerSecond = 200.0;
constexpr std::size_t kCollectRampEpochs = 10;
constexpr double kMaxRampS = 1.0;
// Replay one call in ~1024 (one in ~64 while tracing). Prime periods, so
// sampling never aliases with the generator's 4-query kind cycle.
constexpr std::uint64_t kSampleEveryUntraced = 1021;
constexpr std::uint64_t kSampleEveryTraced = 61;
constexpr std::size_t kSpanCapacity = 16384;         // raw spans kept per thread
constexpr std::size_t kOverheadCapacity = 1 << 16;
constexpr double kDemandsBps[] = {std::numeric_limits<double>::infinity(), 1e6, 2e6, 5e6,
                                  10e6, 20e6};

enum Phase : int { kRamp = 0, kUntraced = 1, kTraced = 2, kStop = 3 };
constexpr std::size_t kPhases = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "remos_e2e: %s\nusage: remos_e2e --workload <serve_repeat|serve_distinct|"
               "collect|live_mixed> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.smoke) o.seconds = kSmokeSeconds;
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// ---- inputs ----------------------------------------------------------------

/// Makes query number `index` of a stream or catalog. The index alone fixes
/// the query's shape, so every seed gives the same mix at every popularity
/// rank and the seed moves no cost distribution: kinds cycle topology,
/// flow, predict, flow (25/50/25); a topology query spans 2-6 distinct
/// sites; a flow query carries 1-4 flows; one host pair in eight stays
/// inside its site. The seed picks the sites, the hosts and the demands.
class QueryGen {
 public:
  QueryGen(const std::vector<std::vector<net::Ipv4Address>>& site_hosts, sim::Rng rng,
           bool continuous_demand)
      : site_hosts_(site_hosts), rng_(rng), continuous_(continuous_demand) {
    for (std::size_t s = 0; s < site_hosts.size(); ++s) sites_.push_back(s);
  }

  /// Refill `q` in place (its vectors keep their capacity).
  void make(std::uint64_t index, Query& q) {
    constexpr Kind kCycle[] = {Kind::kTopology, Kind::kFlow, Kind::kPredict, Kind::kFlow};
    q.kind = kCycle[index % 4];
    const std::uint64_t shape = index / 4;
    switch (q.kind) {
      case Kind::kTopology: {
        const std::size_t spanned = 2 + shape % 5;
        // Partial Fisher-Yates: the first `spanned` sites are a random subset.
        for (std::size_t i = 0; i < spanned; ++i) {
          std::swap(sites_[i], sites_[pick(i, sites_.size() - 1)]);
        }
        q.nodes.clear();
        for (std::size_t i = 0; i < spanned; ++i) q.nodes.push_back(host_in(sites_[i]));
        break;
      }
      case Kind::kFlow:
        q.flows.flows.resize(1 + shape % 4);
        for (std::size_t f = 0; f < q.flows.flows.size(); ++f) {
          q.flows.flows[f] = request((shape + f) % 8 == 7);
        }
        break;
      case Kind::kPredict: q.request = request(shape % 8 == 7); break;
    }
  }

 private:
  std::size_t pick(std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(
        rng_.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  }
  net::Ipv4Address host_in(std::size_t site) {
    const auto& hosts = site_hosts_[site];
    return hosts[pick(0, hosts.size() - 1)];
  }
  core::FlowRequest request(bool same_site) {
    const std::size_t src_site = pick(0, site_hosts_.size() - 1);
    std::size_t dst_site = src_site;
    if (!same_site) {
      dst_site = pick(0, site_hosts_.size() - 2);
      if (dst_site >= src_site) ++dst_site;
    }
    core::FlowRequest r;
    r.src = host_in(src_site);
    do {
      r.dst = host_in(dst_site);
    } while (r.dst == r.src);
    r.demand_bps = continuous_ ? rng_.uniform(0.5e6, 20e6)
                               : kDemandsBps[pick(0, std::size(kDemandsBps) - 1)];
    return r;
  }

  const std::vector<std::vector<net::Ipv4Address>>& site_hosts_;
  std::vector<std::size_t> sites_;
  sim::Rng rng_;
  bool continuous_;
};

/// Zipf(1) over catalog ranks 0..n-1.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) cdf_[k] = sum += 1.0 / static_cast<double>(k + 1);
    for (double& c : cdf_) c /= sum;
  }
  [[nodiscard]] std::size_t draw(sim::Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---- the system under test -------------------------------------------------

/// What the sim-thread spans attach to: the traced phase's recorder (null
/// otherwise) and the current epoch as trace id.
struct SimTrace {
  SpanRecorder* rec = nullptr;
  std::uint64_t epoch = 0;
};

/// Forwarding Collector handed to the QueryServer in traced runs: times the
/// Master query and every history lookup refresh() makes. In untraced
/// slices its recorder is null and it only forwards.
class TimedCollector final : public core::Collector {
 public:
  TimedCollector(core::Collector& inner, const SimTrace& trace) : inner_(inner), trace_(trace) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<net::Ipv4Prefix> responsibility() const override {
    return inner_.responsibility();
  }
  core::CollectorResponse query(const std::vector<net::Ipv4Address>& nodes) override {
    Scope s(trace_.rec, Span::kMasterQuery, trace_.epoch);
    return inner_.query(nodes);
  }
  [[nodiscard]] const sim::MeasurementHistory* history(const std::string& id) const override {
    Scope s(trace_.rec, Span::kHistoryLookup, trace_.epoch);
    return inner_.history(id);
  }

 private:
  core::Collector& inner_;
  const SimTrace& trace_;
};

struct Deployment {
  std::unique_ptr<apps::WanTestbed> wan;
  std::vector<std::vector<net::Ipv4Address>> site_hosts;
  std::vector<net::Ipv4Address> universe;  // every host, site by site
  std::unique_ptr<TimedCollector> timed;  // traced runs only
  std::unique_ptr<core::QueryServer> server;
};

apps::WanTestbed::Params wan_params(const Workload& wl, std::uint64_t seed) {
  apps::WanTestbed::Params p;
  for (std::size_t i = 0; i < wl.sites; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "site%02zu", i);
    p.sites.push_back({name, wl.hosts_per_site, 100e6, (4.0 + static_cast<double>(i % 5)) * 1e6});
  }
  p.cross_traffic_load = 0.3;
  p.seed = seed;
  return p;
}

/// Build the testbed and the QueryServer over every host, then warm up so
/// every snapshot window is full. This whole function is what setup_s times.
std::unique_ptr<Deployment> deploy(const Workload& wl, const Options& opt,
                                   const core::QueryServerConfig& config, const SimTrace& trace) {
  auto d = std::make_unique<Deployment>();
  d->wan = std::make_unique<apps::WanTestbed>(wan_params(wl, opt.seed));
  for (const auto& site : d->wan->sites) {
    auto& hosts = d->site_hosts.emplace_back();
    for (net::NodeId h : site.hosts) hosts.push_back(d->wan->addr(h));
    d->universe.insert(d->universe.end(), hosts.begin(), hosts.end());
  }
  core::Collector* collector = d->wan->master.get();
  if (opt.trace) {
    d->timed = std::make_unique<TimedCollector>(*d->wan->master, trace);
    collector = d->timed.get();
  }
  // The server's first refresh discovers every path, which is what starts
  // the SNMP monitoring that the warm-up then fills histories from.
  d->server = std::make_unique<core::QueryServer>(*collector, d->universe, config);
  d->wan->warm_up(opt.smoke ? kSmokeWarmupS : kWarmupS);
  d->server->refresh();
  return d;
}

// ---- per-thread recording ----------------------------------------------------

struct QueryStats {
  std::array<LatencyHistogram, kKinds> latency;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t replays = 0;
  std::uint64_t replay_solves = 0;  // max-min solves the replays ran
  std::uint64_t stale_samples = 0;  // a refresh landed mid-call: not replayed
  std::vector<double> overhead_ns;  // paired call - replay of sampled queries
};

struct Worker {
  Worker(const core::QueryServerConfig& config, bool traced) : oracle(config) {
    if (traced) {
      rec = std::make_unique<SpanRecorder>(kSpanCapacity);
      stats[kTraced].overhead_ns.reserve(kOverheadCapacity);
    }
  }
  /// Per slice ([0] is the ramp): answers, and time spent checking them.
  struct SliceCount {
    std::uint64_t queries = 0;
    std::int64_t check_ns = 0;
  };
  std::array<QueryStats, kPhases> stats;
  std::array<SliceCount, kSlices + 1> slices{};
  std::unique_ptr<SpanRecorder> rec;
  Oracle oracle;
  Answer answer;
  std::string first_error;
  std::uint64_t serial = 0;

  void note(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
};

constexpr Span call_span(Kind kind) {
  return kind == Kind::kTopology ? Span::kQueryTopology
         : kind == Kind::kFlow   ? Span::kQueryFlow
                                 : Span::kQueryPredict;
}

/// Answer one query, time it, check it, and on sampled queries replay it
/// on the snapshot it was answered from. The replay's time is charged to
/// the slice's check time, which rates leave out.
void serve_one(const core::QueryServer& server, const Query& q, Worker& w, int phase,
               std::size_t slice, std::uint64_t trace_id, bool sample) {
  QueryStats& st = w.stats[static_cast<std::size_t>(phase)];
  SpanRecorder* rec = phase == kTraced ? w.rec.get() : nullptr;
  ++st.queries;
  ++w.slices[slice].queries;
  const std::int64_t t_in = sample ? wall_ns() : 0;
  const core::QuerySnapshotPtr before = sample ? server.snapshot() : nullptr;
  const std::int64_t t0 = wall_ns();
  try {
    Scope s(sample ? rec : nullptr, call_span(q.kind), trace_id);
    ask(server, q, w.answer);
  } catch (const std::exception& e) {
    ++st.failed;
    w.note(std::string("query threw: ") + e.what());
    return;
  }
  const std::int64_t call_ns = wall_ns() - t0;
  st.latency[static_cast<std::size_t>(q.kind)].record(call_ns);
  if (const char* defect = answer_defect(q, w.answer)) {
    ++st.failed;
    w.note(defect);
  }
  if (!sample) return;
  if (server.snapshot() != before) {
    ++st.stale_samples;
  } else {
    try {
      const std::int64_t replay_ns = w.oracle.replay(*before, q, rec, trace_id);
      ++st.replays;
      if (q.kind != Kind::kTopology) ++st.replay_solves;
      if (st.overhead_ns.size() < st.overhead_ns.capacity()) {
        st.overhead_ns.push_back(static_cast<double>(call_ns - replay_ns));
      }
      const std::string why = w.oracle.compare(*before, q, w.answer);
      if (!why.empty()) {
        ++st.mismatches;
        w.note("replay mismatch: " + why);
      }
    } catch (const std::exception& e) {
      ++st.mismatches;
      w.note(std::string("replay threw: ") + e.what());
    }
  }
  w.slices[slice].check_ns += wall_ns() - t_in - call_ns;
}

struct EpochStats {
  LatencyHistogram epoch, advance, refresh, fresh_lag, late;
  std::uint64_t epochs = 0;
  std::uint64_t events = 0;
  std::uint64_t incomplete = 0;
};

/// State at a slice boundary, for deltas.
struct Mark {
  std::int64_t t_ns = 0;
  std::map<std::string, std::uint64_t> counters;
  rusage usage{};
};

Mark mark_now() {
  Mark m;
  m.t_ns = wall_ns();
  m.counters = sim::metrics().counters_snapshot();
  getrusage(RUSAGE_SELF, &m.usage);
  return m;
}

double cpu_seconds(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// Wall time, registry deltas and CPU of one phase, summed over its slices.
struct PhaseTotals {
  double seconds = 0.0;
  std::map<std::string, std::uint64_t> counters;  // names never registered are missing
  double cpu_s = 0.0;
  double ctx_switches = 0.0;

  void add(const Mark& from, const Mark& to) {
    seconds += static_cast<double>(to.t_ns - from.t_ns) / 1e9;
    for (const auto& [name, value] : to.counters) {
      const auto it = from.counters.find(name);
      counters[name] += value - (it == from.counters.end() ? 0 : it->second);
    }
    cpu_s += cpu_seconds(to.usage) - cpu_seconds(from.usage);
    ctx_switches += static_cast<double>((to.usage.ru_nvcsw + to.usage.ru_nivcsw) -
                                        (from.usage.ru_nvcsw + from.usage.ru_nivcsw));
  }

  /// Registry counter delta; nullopt when the name was never registered.
  [[nodiscard]] std::optional<double> counter(const std::string& name) const {
    const auto it = counters.find(name);
    if (it == counters.end()) return std::nullopt;
    return static_cast<double>(it->second);
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Print one metric line and keep it for the JSON result.
void add(std::vector<Metric>& into, std::string name, double value, std::string unit,
         std::uint64_t samples) {
  std::printf("  %-44s %16.6f %-12s n=%llu\n", name.c_str(), value, unit.c_str(),
              static_cast<unsigned long long>(samples));
  into.push_back(Metric{std::move(name), value, std::move(unit)});
}

void print_absent(const std::string& name) {
  std::printf("  %-44s %16s (counter not registered)\n", name.c_str(), "absent");
}

void print_json(const std::vector<Metric>& metrics, bool correct, std::uint64_t attempted,
                std::uint64_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_latency(const char* what, const LatencyHistogram& h, double scale, const char* unit) {
  std::printf("  %-26s p50 %10.3f  p90 %10.3f  p99 %10.3f  p999 %10.3f  max %10.3f %s  n=%llu\n",
              what, h.quantile_ns(0.5) / scale, h.quantile_ns(0.9) / scale,
              h.quantile_ns(0.99) / scale, h.quantile_ns(0.999) / scale, h.max_ns() / scale, unit,
              static_cast<unsigned long long>(h.count()));
}

/// Everything recorded in one phase, merged across threads.
struct PhaseView {
  double seconds = 0.0;
  std::uint64_t queries = 0, failed = 0, mismatches = 0, replays = 0, replay_solves = 0,
                stale_samples = 0;
  std::array<LatencyHistogram, kKinds> by_kind;
  LatencyHistogram all;
  std::vector<double> overhead_ns;
  const EpochStats* epochs = nullptr;
};

PhaseView view_of(int phase, const std::vector<std::unique_ptr<Worker>>& workers,
                  const EpochStats& epochs, const PhaseTotals& totals) {
  PhaseView v;
  v.seconds = totals.seconds;
  v.epochs = &epochs;
  for (const auto& w : workers) {
    const QueryStats& s = w->stats[static_cast<std::size_t>(phase)];
    v.queries += s.queries;
    v.failed += s.failed;
    v.mismatches += s.mismatches;
    v.replays += s.replays;
    v.replay_solves += s.replay_solves;
    v.stale_samples += s.stale_samples;
    for (std::size_t k = 0; k < kKinds; ++k) {
      v.by_kind[k].merge(s.latency[k]);
      v.all.merge(s.latency[k]);
    }
    v.overhead_ns.insert(v.overhead_ns.end(), s.overhead_ns.begin(), s.overhead_ns.end());
  }
  return v;
}

void untraced_metrics(std::vector<Metric>& out, const PhaseView& a, double qps,
                      double setup_median_s, double peak_rss_mb, std::uint64_t setups) {
  const EpochStats& e = *a.epochs;
  add(out, "query_qps", qps, "queries/s", a.queries);
  add(out, "query_p50_us", a.all.quantile_ns(0.5) / 1e3, "us", a.all.count());
  add(out, "query_p99_us", a.all.quantile_ns(0.99) / 1e3, "us", a.all.count());
  for (std::size_t k = 0; k < kKinds; ++k) {
    add(out, std::string(kKindNames[k]) + "_p50_us", a.by_kind[k].quantile_ns(0.5) / 1e3, "us",
          a.by_kind[k].count());
  }
  add(out, "epoch_p50_ms", e.epoch.quantile_ns(0.5) / 1e6, "ms", e.epoch.count());
  add(out, "epoch_p90_ms", e.epoch.quantile_ns(0.9) / 1e6, "ms", e.epoch.count());
  add(out, "fresh_lag_p50_ms", e.fresh_lag.quantile_ns(0.5) / 1e6, "ms", e.fresh_lag.count());
  add(out, "fresh_lag_p90_ms", e.fresh_lag.quantile_ns(0.9) / 1e6, "ms", e.fresh_lag.count());
  add(out, "setup_s", setup_median_s, "s", setups);
  add(out, "peak_rss_mb", peak_rss_mb, "MB", 1);
}

void print_diagnostics(const PhaseView& v) {
  const EpochStats& e = *v.epochs;
  std::printf("diagnostics:\n");
  print_latency("query (all kinds)", v.all, 1e3, "us");
  for (std::size_t k = 0; k < kKinds; ++k) {
    print_latency(kKindNames[k], v.by_kind[k], 1e3, "us");
  }
  print_latency("epoch", e.epoch, 1e6, "ms");
  print_latency("  advance", e.advance, 1e6, "ms");
  print_latency("  refresh", e.refresh, 1e6, "ms");
  print_latency("fresh lag", e.fresh_lag, 1e6, "ms");
  print_latency("generator late", e.late, 1e6, "ms");
  std::printf("  replays %llu (stale samples skipped %llu), mismatches %llu, failed %llu of %llu "
              "queries, incomplete snapshots %llu of %llu epochs\n",
              static_cast<unsigned long long>(v.replays),
              static_cast<unsigned long long>(v.stale_samples),
              static_cast<unsigned long long>(v.mismatches),
              static_cast<unsigned long long>(v.failed),
              static_cast<unsigned long long>(v.queries),
              static_cast<unsigned long long>(e.incomplete),
              static_cast<unsigned long long>(e.epochs));
}

/// Sum of one span's aggregate over every thread.
SpanRecorder::Aggregate merged(const std::vector<std::unique_ptr<Worker>>& workers, Span span) {
  SpanRecorder::Aggregate m;
  for (const auto& w : workers) {
    if (!w->rec) continue;
    const SpanRecorder::Aggregate& a = w->rec->agg(span);
    m.count += a.count;
    m.total_ns += a.total_ns;
    m.self_ns += a.self_ns;
    m.hist.merge(a.hist);
  }
  return m;
}

void per_layer_metrics(std::vector<Metric>& out,
                       const std::vector<std::unique_ptr<Worker>>& workers, const PhaseView& b,
                       const PhaseTotals& tb, double overhead_frac,
                       const core::QuerySnapshot& last) {
  const SpanRecorder& sim = *workers.front()->rec;  // the sim thread's spans
  const EpochStats& e = *b.epochs;
  const double epochs = static_cast<double>(std::max<std::uint64_t>(e.epochs, 1));
  const auto n = [](const SpanRecorder::Aggregate& g) { return g.count; };
  const auto per_epoch_ms = [&](double ns) { return ns / 1e6 / epochs; };

  std::printf("per-layer (traced slices, %llu epochs, %llu queries):\n",
              static_cast<unsigned long long>(e.epochs),
              static_cast<unsigned long long>(b.queries));
  const auto& adv = sim.agg(Span::kAdvance);
  const auto& sync = sim.agg(Span::kSync);
  const auto& refresh = sim.agg(Span::kRefresh);
  const auto& master = sim.agg(Span::kMasterQuery);
  const auto& lookup = sim.agg(Span::kHistoryLookup);
  const auto& epoch = sim.agg(Span::kEpoch);
  add(out, "sim.advance_p50_ms", adv.hist.quantile_ns(0.5) / 1e6, "ms", n(adv));
  add(out, "sim.advance_self_ms", per_epoch_ms(adv.self_ns), "ms/epoch", n(adv));
  add(out, "sim.events_per_epoch", static_cast<double>(e.events) / epochs, "count/epoch",
        e.epochs);
  add(out, "net.sync_ms_per_epoch", per_epoch_ms(sync.total_ns), "ms/epoch", n(sync));
  add(out, "net.sync_calls_per_epoch", static_cast<double>(sync.count) / epochs,
        "count/epoch", n(sync));

  const auto per_epoch_counter = [&](const std::string& metric, const std::string& counter) {
    if (const std::optional<double> d = tb.counter(counter)) {
      add(out, metric, *d / epochs, "count/epoch", e.epochs);
    } else {
      print_absent(metric);
    }
  };
  per_epoch_counter("snmp.requests_per_epoch", "snmp.client.requests_total");
  per_epoch_counter("snmp.retries_per_epoch", "snmp.client.retries_total");
  per_epoch_counter("snmp.failures_per_epoch", "snmp.client.failures_total");
  per_epoch_counter("core.snmp_collector.poll_passes_per_epoch",
                    "core.snmp_collector.poll_passes_total");

  add(out, "core.master_query_p50_ms", master.hist.quantile_ns(0.5) / 1e6, "ms", n(master));
  add(out, "core.history_lookups_per_epoch", static_cast<double>(lookup.count) / epochs,
        "count/epoch", n(lookup));
  add(out, "core.history_lookup_ms_per_epoch", per_epoch_ms(lookup.total_ns), "ms/epoch",
        n(lookup));
  per_epoch_counter("core.master_collector.site_queries_per_epoch",
                    "core.master_collector.site_queries_total");
  add(out, "core.refresh_p50_ms", refresh.hist.quantile_ns(0.5) / 1e6, "ms", n(refresh));
  add(out, "core.refresh_p99_ms", refresh.hist.quantile_ns(0.99) / 1e6, "ms", n(refresh));
  add(out, "core.snapshot_copy_self_ms", per_epoch_ms(refresh.self_ns), "ms/epoch", n(refresh));
  std::size_t samples = 0;
  for (const auto& [id, h] : last.histories) samples += h.size();
  add(out, "core.snapshot_history_samples", static_cast<double>(samples), "count", 1);
  add(out, "core.snapshot_edges", static_cast<double>(last.topo.edge_count()), "count", 1);

  for (std::size_t k = 0; k < kKinds; ++k) {
    add(out, "core." + std::string(kKindNames[k]) + "_p99_us",
          b.by_kind[k].quantile_ns(0.99) / 1e3, "us", b.by_kind[k].count());
  }
  const double solving = static_cast<double>(b.by_kind[1].count() + b.by_kind[2].count());
  if (const auto solves = tb.counter("core.maxmin.solves_total")) {
    const double per_query =
        (*solves - static_cast<double>(b.replay_solves)) / std::max(solving, 1.0);
    add(out, "core.maxmin_solves_per_query", per_query, "count/query",
          static_cast<std::uint64_t>(solving));
    std::printf("  %-44s %16.6f\n", "(join ratio = 1 - solves per query)", 1.0 - per_query);
  } else {
    print_absent("core.maxmin_solves_per_query");
  }
  const auto maxmin = merged(workers, Span::kMaxMin);
  const auto span_topo = merged(workers, Span::kSpanTopology);
  const auto simplify = merged(workers, Span::kSimplify);
  const auto predict = merged(workers, Span::kPredictChain);
  add(out, "core.maxmin_p50_us", maxmin.hist.quantile_ns(0.5) / 1e3, "us", n(maxmin));
  add(out, "core.span_topology_p50_us", span_topo.hist.quantile_ns(0.5) / 1e3, "us",
        n(span_topo));
  add(out, "core.simplify_p50_us", simplify.hist.quantile_ns(0.5) / 1e3, "us", n(simplify));
  add(out, "rps.predict_p50_us", predict.hist.quantile_ns(0.5) / 1e3, "us", n(predict));
  add(out, "core.query_overhead_us", median(b.overhead_ns) / 1e3, "us", b.overhead_ns.size());

  add(out, "proc.cpu_util", tb.cpu_s / b.seconds, "cores", 1);
  add(out, "proc.ctx_switches_per_query", tb.ctx_switches / std::max<double>(b.queries, 1.0),
        "count/query", b.queries);
  add(out, "gen.epoch_late_p99_ms", e.late.quantile_ns(0.99) / 1e6, "ms", e.late.count());
  add(out, "trace.overhead_frac", overhead_frac, "frac", kSlices);

  // Cost ledger. Self times partition the epoch span exactly, so the
  // residual is the epoch span's own self time: benchmark work between layers.
  const double total = epoch.total_ns;
  const double parts =
      adv.self_ns + sync.total_ns + refresh.self_ns + master.self_ns + lookup.total_ns;
  add(out, "ledger.residual_frac", (total - parts) / total, "frac", n(epoch));

  std::printf("ledger: epoch (mean ms per epoch over %llu epochs)\n",
              static_cast<unsigned long long>(e.epochs));
  const auto line = [&](const char* what, double ns) {
    std::printf("  %-36s %10.4f ms  %6.2f%%\n", what, per_epoch_ms(ns), 100.0 * ns / total);
  };
  line("epoch", total);
  line("  sim.advance self", adv.self_ns);
  line("  net.sync (all calls)", sync.total_ns);
  line("  core.master_query self", master.self_ns);
  line("  core.history_lookup", lookup.total_ns);
  line("  core.snapshot_copy self", refresh.self_ns);
  line("  residual", total - parts);
  std::printf("ledger: query (p50 us; sampled calls against their replays on the same snapshot)\n");
  const Span calls[kKinds] = {Span::kQueryTopology, Span::kQueryFlow, Span::kQueryPredict};
  const double replay_p50[kKinds] = {
      span_topo.hist.quantile_ns(0.5) + simplify.hist.quantile_ns(0.5),
      maxmin.hist.quantile_ns(0.5), predict.hist.quantile_ns(0.5)};
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto call = merged(workers, calls[k]);
    const double call_p50 = call.hist.quantile_ns(0.5);
    std::printf("  %-10s call %10.3f = replay %10.3f + overhead %10.3f  (n=%llu)\n",
                kKindNames[k], call_p50 / 1e3, replay_p50[k] / 1e3,
                (call_p50 - replay_p50[k]) / 1e3, static_cast<unsigned long long>(call.count));
  }
}

/// Answers per second in one slice: each thread's answers over the slice's
/// wall time less the time that thread spent checking answers.
double slice_rate(const std::vector<std::unique_ptr<Worker>>& workers, double seconds,
                  std::size_t slice) {
  double rate = 0.0;
  for (const auto& w : workers) {
    const Worker::SliceCount& c = w->slices[slice];
    if (c.queries == 0) continue;
    rate += static_cast<double>(c.queries) / (seconds - static_cast<double>(c.check_ns) / 1e9);
  }
  return rate;
}

int run(const Options& opt) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const Workload& wl = *found;
  const bool collect = wl.clients == 0;
  const core::QueryServerConfig config;  // AR(16), min_history 64, window 1024, no cache

  std::printf("remos e2e: workload %s\n", wl.name);
  std::printf("  testbed %zu sites x %zu hosts, %d clients, epoch %s, %s; seed %llu, %.1f s, "
              "trace %d%s\n",
              wl.sites, wl.hosts_per_site, wl.clients,
              collect ? "back to back" : (std::to_string(wl.epoch_period_s * 1e3) + " ms").c_str(),
              wl.catalog > 0 ? ("Zipf(1) over " + std::to_string(wl.catalog) + " queries").c_str()
                             : "every query unique",
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.smoke ? ", smoke" : "");
  std::printf("  build: audit %s, obs %s, %u hardware threads, %s\n",
              core::audit::kEnabled ? "on" : "off", sim::kObsEnabled ? "on" : "off",
              std::thread::hardware_concurrency(), __VERSION__);
  std::fflush(stdout);

  // ---- setup (timed; setup_s is the median) ----
  SimTrace sim_trace;
  std::unique_ptr<Deployment> dep;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    dep.reset();
    const std::int64_t t0 = wall_ns();
    dep = deploy(wl, opt, config, sim_trace);
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  core::QueryServer& server = *dep->server;
  std::printf("setup: %d x (build testbed + QueryServer, warm %.0f virtual s):", kSetups,
              opt.smoke ? kSmokeWarmupS : kWarmupS);
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf(" s\n");

  // ---- inputs ----
  const sim::Rng inputs = sim::Rng(opt.seed).fork("e2e-inputs");
  std::vector<Query> catalog(wl.catalog);
  {
    QueryGen gen(dep->site_hosts, inputs.fork("catalog"), /*continuous_demand=*/false);
    for (std::size_t r = 0; r < catalog.size(); ++r) gen.make(r, catalog[r]);
  }
  const Zipf zipf(std::max<std::size_t>(wl.catalog, 1));
  QueryGen probe_gen(dep->site_hosts, inputs.fork("probes"), /*continuous_demand=*/false);
  Query probe;

  // Traced runs time net.sync through the agents' pre-read hook in traced
  // slices; untraced slices get a plain hook, the same as the testbed's own.
  apps::WanTestbed* wan = dep->wan.get();
  const auto install_sync_hook = [wan, &sim_trace](bool timed) {
    if (timed) {
      wan->agents->set_before_read([wan, &sim_trace] {
        Scope s(sim_trace.rec, Span::kSync, sim_trace.epoch);
        wan->flows->sync();
      });
    } else {
      wan->agents->set_before_read([wan] { wan->flows->sync(); });
    }
  };

  // ---- plan, in epochs: a ramp, then kSlices equal slices ----
  std::uint64_t ramp_epochs, measured_epochs;
  if (collect) {
    ramp_epochs = kCollectRampEpochs;
    measured_epochs =
        static_cast<std::uint64_t>(std::llround(kCollectEpochsPerSecond * opt.seconds));
  } else {
    const double ramp_s = std::min(kMaxRampS, 0.1 * opt.seconds);
    ramp_epochs = static_cast<std::uint64_t>(std::ceil(ramp_s / wl.epoch_period_s));
    measured_epochs = static_cast<std::uint64_t>(std::llround(opt.seconds / wl.epoch_period_s));
  }
  const std::uint64_t slice_epochs = std::max<std::uint64_t>(measured_epochs / kSlices, 1);
  // Slice 0 is the ramp; slice kSlices + 1 means stop.
  const auto slice_of = [&](std::uint64_t k) -> std::size_t {
    if (k < ramp_epochs) return 0;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(1 + (k - ramp_epochs) / slice_epochs, kSlices + 1));
  };
  const auto phase_of = [&](std::size_t s) -> int {
    if (s == 0) return kRamp;
    if (s > kSlices) return kStop;
    return opt.trace && s % 2 == 0 ? kTraced : kUntraced;
  };

  // ---- workers: [0] is this (sim) thread, then one per client ----
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i <= wl.clients; ++i) workers.push_back(std::make_unique<Worker>(config, opt.trace));
  const sim::Rng client_seeds = inputs.fork("clients");
  std::atomic<std::size_t> slice{0};
  std::vector<std::thread> threads;
  struct Joiner {
    std::atomic<std::size_t>& slice;
    std::vector<std::thread>& threads;
    ~Joiner() {
      slice.store(kSlices + 1, std::memory_order_release);
      for (std::thread& t : threads) t.join();
    }
  } joiner{slice, threads};
  for (int i = 1; i <= wl.clients; ++i) {
    threads.emplace_back([&, i] {
      Worker& w = *workers[static_cast<std::size_t>(i)];
      sim::Rng rng = client_seeds.fork("client" + std::to_string(i));
      QueryGen gen(dep->site_hosts, rng.fork("unique"), /*continuous_demand=*/true);
      Query fresh;
      const std::uint64_t tag = static_cast<std::uint64_t>(i) << 48;
      for (;;) {
        const std::size_t s = slice.load(std::memory_order_acquire);
        const int p = phase_of(s);
        if (p == kStop) return;
        const Query* q = &fresh;
        if (wl.catalog > 0) {
          q = &catalog[zipf.draw(rng)];
        } else {
          gen.make(w.serial, fresh);
        }
        const std::uint64_t serial = ++w.serial;
        const std::uint64_t every = p == kTraced ? kSampleEveryTraced : kSampleEveryUntraced;
        serve_one(server, *q, w, p, s, tag | serial, serial % every == 0);
      }
    });
  }

  // ---- epochs on this thread ----
  Worker& sim_worker = *workers.front();
  std::array<EpochStats, kPhases> epoch_stats;
  std::array<PhaseTotals, kPhases> totals;
  std::array<double, kSlices + 1> slice_s{};  // wall seconds of each measured slice
  Mark slice_start;
  std::size_t current = 0;
  const std::int64_t start = wall_ns();
  const auto period_ns = static_cast<std::int64_t>(wl.epoch_period_s * 1e9);
  for (std::uint64_t k = 0;; ++k) {
    std::int64_t due = start + static_cast<std::int64_t>(k) * period_ns;
    if (period_ns > 0) {
      const std::int64_t wait = due - wall_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    const std::size_t s = slice_of(k);
    const int p = phase_of(s);
    if (s != current) {
      Mark now = mark_now();
      if (current > 0) {
        totals[static_cast<std::size_t>(phase_of(current))].add(slice_start, now);
        slice_s[current] = static_cast<double>(now.t_ns - slice_start.t_ns) / 1e9;
      }
      slice_start = std::move(now);
      sim_trace.rec = p == kTraced ? sim_worker.rec.get() : nullptr;
      if (opt.trace) install_sync_hook(p == kTraced);
      slice.store(s, std::memory_order_release);
      current = s;
    }
    if (p == kStop) break;
    if (period_ns == 0) due = wall_ns();

    EpochStats& es = epoch_stats[static_cast<std::size_t>(p)];
    sim_trace.epoch = k;
    const std::int64_t t0 = wall_ns();
    std::int64_t t1 = 0;
    const core::QuerySnapshot* snap = nullptr;
    {
      Scope ep(sim_trace.rec, Span::kEpoch, k);
      {
        Scope adv(sim_trace.rec, Span::kAdvance, k);
        es.events += dep->wan->engine.advance(kPollIntervalS);
      }
      t1 = wall_ns();
      Scope ref(sim_trace.rec, Span::kRefresh, k);
      snap = &server.refresh();
    }
    const std::int64_t t2 = wall_ns();
    ++es.epochs;
    es.epoch.record(t2 - t0);
    es.advance.record(t1 - t0);
    es.refresh.record(t2 - t1);
    es.fresh_lag.record(t2 - due);
    es.late.record(t0 - due);
    if (!snap->complete) ++es.incomplete;

    // collect: one answer of each kind on the fresh snapshot, the single
    // caller's cost of a Remos answer right after a poll. Always replayed.
    if (collect) {
      for (std::size_t j = 0; j < kKinds; ++j) {
        probe_gen.make(k * 4 + j, probe);  // kinds topology, flow, predict
        serve_one(server, probe, sim_worker, p, s, k * kKinds + j, /*sample=*/true);
      }
    }
  }
  for (std::thread& t : threads) t.join();
  threads.clear();

  // ---- results ----
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const PhaseView a = view_of(kUntraced, workers, epoch_stats[kUntraced], totals[kUntraced]);
  std::array<std::vector<double>, kPhases> rates;  // answers/s of each slice, by phase
  for (std::size_t s = 1; s <= kSlices; ++s) {
    rates[static_cast<std::size_t>(phase_of(s))].push_back(slice_rate(workers, slice_s[s], s));
  }
  // Every phase counts toward correctness, the ramp included.
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t p = 0; p < kPhases; ++p) {
    attempted += epoch_stats[p].epochs;
    failed += epoch_stats[p].incomplete;
    for (const auto& w : workers) {
      attempted += w->stats[p].queries;
      failed += w->stats[p].failed + w->stats[p].mismatches;
    }
  }

  // BENCHMARK.json decides which of these are end-to-end and which
  // per-layer; run.py keeps the ones it lists.
  std::vector<Metric> metrics;
  std::printf("untraced%s (%.3f s, %llu epochs):\n", opt.trace ? " slices" : "", a.seconds,
              static_cast<unsigned long long>(a.epochs->epochs));
  untraced_metrics(metrics, a, median(rates[kUntraced]), median(setup_s), peak_rss_mb,
                   setup_s.size());
  print_diagnostics(a);
  std::printf("  answers/s by slice:");
  for (std::size_t s = 1; s <= kSlices; ++s) {
    std::printf(" %.0f%s", slice_rate(workers, slice_s[s], s), phase_of(s) == kTraced ? "t" : "");
  }
  std::printf("\n");
  const core::QuerySnapshotPtr last = server.snapshot();
  // The paper's Fig 3 quantity: simulated cost of the full-universe Master query.
  add(metrics, "collector_virtual_ms", last->cost_s * 1e3, "virtual_ms", 1);
  std::printf("  failed_frac %.6f (%llu of %llu attempted)\n",
              static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  if (opt.trace) {
    const PhaseView b = view_of(kTraced, workers, epoch_stats[kTraced], totals[kTraced]);
    // Tracing cost: the untraced slices' answer rate over the traced ones'.
    const double overhead = median(rates[kUntraced]) / median(rates[kTraced]) - 1.0;
    per_layer_metrics(metrics, workers, b, totals[kTraced], overhead, *last);
    std::vector<const SpanRecorder*> recs;
    std::uint64_t dropped = 0;
    for (const auto& w : workers) {
      recs.push_back(w->rec.get());
      dropped += w->rec->dropped();
    }
    const std::string path = std::string("trace_") + wl.name + ".json";
    if (!write_trace(path.c_str(), recs, start)) {
      std::fprintf(stderr, "remos_e2e: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %s (first %zu spans per thread; %llu more aggregated only)\n",
                path.c_str(), kSpanCapacity, static_cast<unsigned long long>(dropped));
  }

  for (const auto& w : workers) {
    if (!w->first_error.empty()) std::printf("error: %s\n", w->first_error.c_str());
  }
  const bool correct = failed == 0;
  print_json(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace remos::e2e

int main(int argc, char** argv) {
  const remos::e2e::Options opt = remos::e2e::parse(argc, argv);
  try {
    return remos::e2e::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "remos_e2e: %s\n", e.what());
    return 1;
  }
}
