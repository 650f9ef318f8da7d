// Correctness oracle for the end-to-end benchmark: send a query through
// the QueryServer's public read path, check the shape of every answer, and
// replay sampled answers through the public pure functions on the same
// snapshot (span_topology/simplify, max_min_allocate, the prediction chain).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/maxmin.hpp"
#include "core/query_server.hpp"
#include "core/query_snapshot.hpp"
#include "record.hpp"

namespace remos::e2e {

enum class Kind : std::uint8_t { kTopology, kFlow, kPredict };
inline constexpr std::size_t kKinds = 3;
inline constexpr std::array<const char*, kKinds> kKindNames = {"topology", "flow", "predict"};

/// One Remos API call; only the payload of `kind` is used.
struct Query {
  Kind kind = Kind::kTopology;
  std::vector<net::Ipv4Address> nodes;  // topology query
  core::FlowQuery flows;                // flow query
  core::FlowRequest request;            // prediction request
};

struct Answer {
  core::VirtualTopology topology;
  std::vector<core::FlowInfo> flows;
  std::optional<core::FlowPrediction> prediction;
};

/// Issue `q` through QueryServer::{topology_query, flow_query, predict_flow}.
void ask(const core::QueryServer& server, const Query& q, Answer& out);

/// Checks every answer gets: a topology query spans at least its hosts, a
/// flow query routes every flow at a finite non-negative rate, a prediction
/// is present (a refusal counts as a failure) with finite forecasts.
/// nullptr when the answer is well formed, else what is wrong with it.
[[nodiscard]] const char* answer_defect(const Query& q, const Answer& a);

/// Replays one query with the public functions the QueryServer answers
/// through, on the snapshot the answer was computed from, and compares.
class Oracle {
 public:
  explicit Oracle(const core::QueryServerConfig& config);

  /// Replay `q` on `snap`; spans for the replayed parts go to `rec` when
  /// it is not null. Returns the replay's wall time in nanoseconds.
  std::int64_t replay(const core::QuerySnapshot& snap, const Query& q, SpanRecorder* rec,
                      std::uint64_t trace);

  /// Compare `got` with the last replay: identical node names, edge ids and
  /// paths, doubles within 1e-9 relative, and flow rates feasible on every
  /// directed edge of `snap`. Empty when they agree.
  [[nodiscard]] std::string compare(const core::QuerySnapshot& snap, const Query& q,
                                    const Answer& got);

 private:
  [[nodiscard]] std::string check_feasible(const core::VirtualTopology& topo,
                                           const std::vector<core::FlowRequest>& requests,
                                           const std::vector<core::FlowInfo>& flows);

  const core::QueryServerConfig config_;
  const rps::ClientServerPredictor predictor_;
  core::MaxMinScratch scratch_;
  Answer want_;
  std::vector<double> usage_;  // per directed edge: key 2*edge + dir
};

}  // namespace remos::e2e
