// Allocation-free recording for the end-to-end benchmark: the one wall
// clock, log-linear latency histograms, and per-thread span buffers.
//
// Every recorder is sized before the measured phase starts and never grows
// afterwards, so recording neither allocates on the measured path nor
// inflates the process's peak RSS (per-sample vectors did both).
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace remos::e2e {

/// Monotonic wall-clock nanoseconds. The benchmark measures real time on
/// purpose; this is the only place it reads the clock.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())  // remos-lint: allow(wallclock)
      .count();
}

/// Log-linear histogram of non-negative nanosecond values: exact below 128,
/// then 128 linear sub-buckets per power of two, so a bucket is at most
/// 1/128 (0.78%) of its lower bound wide. Quantiles interpolate linearly
/// inside the bucket that holds the requested rank.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr int kMaxExp = 42;  // values up to 2^42 ns (~73 min)
  static constexpr std::size_t kBuckets = (kMaxExp - kSubBits + 1) * kSub + kSub;

  LatencyHistogram() : buckets_(kBuckets, 0) {}

  void record(std::int64_t ns) {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    ++buckets_[index(v)];
    ++count_;
    if (v > max_) max_ = v;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    if (other.max_ > max_) max_ = other.max_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double max_ns() const { return static_cast<double>(max_); }

  /// q in [0, 1]; 0 for an empty histogram.
  [[nodiscard]] double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t n = buckets_[i];
      if (n == 0) continue;
      if (static_cast<double>(cum + n) >= target) {
        const double frac = (target - static_cast<double>(cum)) / static_cast<double>(n);
        return static_cast<double>(lower(i)) + frac * static_cast<double>(width(i));
      }
      cum += n;
    }
    return static_cast<double>(max_);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= kSubBits
    if (e > kMaxExp) return kBuckets - 1;
    const int shift = e - kSubBits;
    const std::uint64_t sub = (v >> shift) - kSub;
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const int shift = static_cast<int>(i / kSub) - 1;
    return (kSub + i % kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : 1ull << (static_cast<int>(i / kSub) - 1);
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// Layer boundaries the benchmark times from the outside.
enum class Span : std::uint8_t {
  kEpoch,           // one poll interval: advance + refresh
  kAdvance,         // sim::Engine::advance
  kSync,            // net::FlowEngine::sync, from the agents' pre-read hook
  kRefresh,         // core::QueryServer::refresh
  kMasterQuery,     // Collector::query on the Master, from refresh
  kHistoryLookup,   // Collector::history on the Master, from refresh
  kQueryTopology,   // QueryServer::topology_query (sampled calls)
  kQueryFlow,       // QueryServer::flow_query (sampled calls)
  kQueryPredict,    // QueryServer::predict_flow (sampled calls)
  kSpanTopology,    // replay: core::span_topology
  kSimplify,        // replay: core::Modeler::simplify
  kMaxMin,          // replay: core::max_min_allocate
  kPredictChain,    // replay: single_flow_info -> ... -> predict_from_history
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Span::kCount)> kSpanNames = {
    "epoch",          "sim.advance",        "net.sync",
    "core.refresh",   "core.master_query",  "core.history_lookup",
    "query.topology", "query.flow",         "query.predict",
    "core.span_topology", "core.simplify",  "core.maxmin",
    "rps.predict",
};

/// Per-thread span recorder. Aggregates every closed span (count, total
/// and self time, duration histogram) and keeps the first `capacity` raw
/// spans for the trace file; later ones are only aggregated and counted as
/// dropped. A span's self time is its duration minus its children's.
class SpanRecorder {
 public:
  struct Record {
    Span name;
    std::uint32_t id;      // 1-based within this thread
    std::uint32_t parent;  // 0 = root
    std::uint64_t trace;   // epoch or query serial: one request's spans share it
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Aggregate {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    LatencyHistogram hist;
  };

  explicit SpanRecorder(std::size_t capacity) { records_.reserve(capacity); }

  void open(Span name, std::uint64_t trace) {
    if (depth_ == stack_.size()) {  // deeper than any boundary we time
      ++overflow_;
      return;
    }
    stack_[depth_++] = Frame{name, ++next_id_, current_id(), trace, wall_ns(), 0};
  }

  void close() {
    if (overflow_ > 0) {
      --overflow_;
      return;
    }
    const std::int64_t end = wall_ns();
    const Frame f = stack_[--depth_];
    const std::int64_t dur = end - f.start_ns;
    Aggregate& a = agg_[static_cast<std::size_t>(f.name)];
    ++a.count;
    a.total_ns += static_cast<double>(dur);
    a.self_ns += static_cast<double>(dur - f.child_ns);
    a.hist.record(dur);
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (records_.size() < records_.capacity()) {
      records_.push_back(Record{f.name, f.id, f.parent, f.trace, f.start_ns, end});
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] const Aggregate& agg(Span name) const {
    return agg_[static_cast<std::size_t>(name)];
  }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct Frame {
    Span name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t trace;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  [[nodiscard]] std::uint32_t current_id() const { return depth_ == 0 ? 0 : stack_[depth_ - 1].id; }

  std::array<Frame, 8> stack_{};
  std::size_t depth_ = 0;
  std::size_t overflow_ = 0;
  std::uint32_t next_id_ = 0;
  std::array<Aggregate, static_cast<std::size_t>(Span::kCount)> agg_{};
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(SpanRecorder* rec, Span name, std::uint64_t trace) : rec_(rec) {
    if (rec_ != nullptr) rec_->open(name, trace);
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
};

/// Write every thread's retained spans as a Chrome trace-event file
/// (chrome://tracing, Perfetto). Timestamps are microseconds since `t0_ns`.
inline bool write_trace(const char* path, const std::vector<const SpanRecorder*>& threads,
                        std::int64_t t0_ns) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    for (const SpanRecorder::Record& r : threads[tid]->records()) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u, "
                   "\"trace\": %llu}}",
                   first ? "" : ",", kSpanNames[static_cast<std::size_t>(r.name)], tid,
                   static_cast<double>(r.start_ns - t0_ns) / 1e3,
                   static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.id, r.parent,
                   static_cast<unsigned long long>(r.trace));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace remos::e2e
