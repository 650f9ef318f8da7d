#include "oracle.hpp"

#include <cmath>
#include <cstdio>

#include "core/modeler.hpp"

namespace remos::e2e {
namespace {

// The repository's max-min feasibility tolerance (core/audit.cpp).
constexpr double kFeasibleRel = 1e-6;
constexpr double kFeasibleAbsBps = 1024.0;
constexpr double kCloseRel = 1e-9;

bool close(double a, double b) {
  if (a == b) return true;  // equal infinities included
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= kCloseRel * std::max(std::fabs(a), std::fabs(b));
}

std::string describe(const char* what, std::size_t index, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s #%zu: got %.17g, replay %.17g", what, index, got, want);
  return buf;
}

std::string compare_topology(const core::VirtualTopology& got, const core::VirtualTopology& want) {
  if (got.node_count() != want.node_count() || got.edge_count() != want.edge_count()) {
    return "topology: " + std::to_string(got.node_count()) + " nodes/" +
           std::to_string(got.edge_count()) + " edges, replay " +
           std::to_string(want.node_count()) + "/" + std::to_string(want.edge_count());
  }
  for (std::size_t i = 0; i < got.node_count(); ++i) {
    const core::VNode& g = got.nodes()[i];
    const core::VNode& w = want.nodes()[i];
    if (g.name != w.name || g.kind != w.kind || g.addr != w.addr) {
      return "topology node #" + std::to_string(i) + ": " + g.name + " vs replay " + w.name;
    }
  }
  for (std::size_t i = 0; i < got.edge_count(); ++i) {
    const core::VEdge& g = got.edges()[i];
    const core::VEdge& w = want.edges()[i];
    if (g.id != w.id || g.a != w.a || g.b != w.b) {
      return "topology edge #" + std::to_string(i) + ": " + g.id + " vs replay " + w.id;
    }
    if (!close(g.capacity_bps, w.capacity_bps)) {
      return describe("edge capacity", i, g.capacity_bps, w.capacity_bps);
    }
    if (!close(g.util_ab_bps, w.util_ab_bps)) {
      return describe("edge util a->b", i, g.util_ab_bps, w.util_ab_bps);
    }
    if (!close(g.util_ba_bps, w.util_ba_bps)) {
      return describe("edge util b->a", i, g.util_ba_bps, w.util_ba_bps);
    }
    if (!close(g.latency_s, w.latency_s)) return describe("edge latency", i, g.latency_s, w.latency_s);
    if (!close(g.staleness_s, w.staleness_s)) {
      return describe("edge staleness", i, g.staleness_s, w.staleness_s);
    }
  }
  return {};
}

std::string compare_flows(const std::vector<core::FlowInfo>& got,
                          const std::vector<core::FlowInfo>& want) {
  if (got.size() != want.size()) {
    return "flows: " + std::to_string(got.size()) + " answers, replay " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].path_edge_ids != want[i].path_edge_ids) {
      return "flow #" + std::to_string(i) + ": path differs from replay";
    }
    if (!close(got[i].available_bps, want[i].available_bps)) {
      return describe("flow rate", i, got[i].available_bps, want[i].available_bps);
    }
    if (!close(got[i].bottleneck_capacity_bps, want[i].bottleneck_capacity_bps)) {
      return describe("flow bottleneck", i, got[i].bottleneck_capacity_bps,
                      want[i].bottleneck_capacity_bps);
    }
    if (!close(got[i].latency_s, want[i].latency_s)) {
      return describe("flow latency", i, got[i].latency_s, want[i].latency_s);
    }
  }
  return {};
}

std::string compare_prediction(const std::optional<core::FlowPrediction>& got,
                               const std::optional<core::FlowPrediction>& want) {
  if (got.has_value() != want.has_value()) {
    return got ? "prediction where the replay has none" : "no prediction where the replay has one";
  }
  if (!got) return {};
  if (got->model_name != want->model_name) {
    return "prediction model " + got->model_name + " vs replay " + want->model_name;
  }
  if (got->mean_bps.size() != want->mean_bps.size() ||
      got->variance.size() != want->variance.size()) {
    return "prediction horizon differs from replay";
  }
  for (std::size_t i = 0; i < got->mean_bps.size(); ++i) {
    if (!close(got->mean_bps[i], want->mean_bps[i])) {
      return describe("forecast mean", i, got->mean_bps[i], want->mean_bps[i]);
    }
    if (!close(got->variance[i], want->variance[i])) {
      return describe("forecast variance", i, got->variance[i], want->variance[i]);
    }
  }
  return {};
}

}  // namespace

void ask(const core::QueryServer& server, const Query& q, Answer& out) {
  switch (q.kind) {
    case Kind::kTopology: out.topology = server.topology_query(q.nodes); break;
    case Kind::kFlow: out.flows = server.flow_query(q.flows); break;
    case Kind::kPredict: out.prediction = server.predict_flow(q.request); break;
  }
}

const char* answer_defect(const Query& q, const Answer& a) {
  switch (q.kind) {
    case Kind::kTopology:
      if (a.topology.node_count() < 2) return "topology answer spans fewer than two nodes";
      return nullptr;
    case Kind::kFlow:
      if (a.flows.size() != q.flows.flows.size()) return "flow answer has the wrong flow count";
      for (const core::FlowInfo& f : a.flows) {
        if (!f.routable()) return "unroutable flow";
        if (!std::isfinite(f.available_bps) || f.available_bps < 0.0) return "bad flow rate";
      }
      return nullptr;
    case Kind::kPredict:
      if (!a.prediction) return "prediction refused or missing";
      if (a.prediction->mean_bps.empty()) return "empty forecast";
      for (const double m : a.prediction->mean_bps) {
        if (!std::isfinite(m)) return "non-finite forecast";
      }
      return nullptr;
  }
  return "unknown query kind";
}

Oracle::Oracle(const core::QueryServerConfig& config)
    : config_(config), predictor_(config.prediction_model) {}

std::int64_t Oracle::replay(const core::QuerySnapshot& snap, const Query& q, SpanRecorder* rec,
                            std::uint64_t trace) {
  const std::int64_t t0 = wall_ns();
  switch (q.kind) {
    case Kind::kTopology: {
      core::VirtualTopology spanned;
      {
        Scope s(rec, Span::kSpanTopology, trace);
        spanned = core::span_topology(snap.topo, q.nodes);
      }
      if (config_.simplify_topology) {
        Scope s(rec, Span::kSimplify, trace);
        want_.topology = core::Modeler::simplify(spanned);
      } else {
        want_.topology = std::move(spanned);
      }
      break;
    }
    case Kind::kFlow: {
      Scope s(rec, Span::kMaxMin, trace);
      want_.flows = core::max_min_allocate(snap.topo, q.flows.flows, scratch_).flows;
      break;
    }
    case Kind::kPredict: {
      Scope s(rec, Span::kPredictChain, trace);
      want_.prediction.reset();
      const core::FlowInfo info = core::single_flow_info(snap.topo, q.request, scratch_);
      if (!info.routable()) break;
      const core::VEdge* bottleneck = core::bottleneck_edge(snap.topo, info);
      if (bottleneck == nullptr) break;
      const std::vector<double>* hist = core::choose_history(
          snap.history(bottleneck->id), snap.history(bottleneck->id + ":ba"));
      if (hist == nullptr) break;
      want_.prediction = core::predict_from_history(
          *hist, *bottleneck, predictor_, config_.prediction_model, config_.prediction_horizon,
          config_.min_history, config_.prediction_cache);
      break;
    }
  }
  return wall_ns() - t0;
}

std::string Oracle::compare(const core::QuerySnapshot& snap, const Query& q, const Answer& got) {
  switch (q.kind) {
    case Kind::kTopology: return compare_topology(got.topology, want_.topology);
    case Kind::kFlow: {
      std::string why = compare_flows(got.flows, want_.flows);
      if (why.empty()) why = check_feasible(snap.topo, q.flows.flows, got.flows);
      return why;
    }
    case Kind::kPredict: return compare_prediction(got.prediction, want_.prediction);
  }
  return "unknown query kind";
}

std::string Oracle::check_feasible(const core::VirtualTopology& topo,
                                   const std::vector<core::FlowRequest>& requests,
                                   const std::vector<core::FlowInfo>& flows) {
  usage_.assign(topo.edge_count() * 2, 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const double rate = flows[f].available_bps;
    if (!std::isfinite(rate) || rate < 0.0) return describe("flow rate", f, rate, rate);
    if (rate > requests[f].demand_bps * (1.0 + kFeasibleRel) + kFeasibleAbsBps) {
      return describe("flow rate above demand", f, rate, requests[f].demand_bps);
    }
    // Walk the route the answer reports, edge by edge, to learn the
    // direction each edge is crossed in.
    core::VNodeIndex cur = topo.find_by_addr(requests[f].src);
    const auto path = topo.shortest_path(cur, topo.find_by_addr(requests[f].dst));
    if (!path || path->size() != flows[f].path_edge_ids.size()) {
      return "flow #" + std::to_string(f) + ": reported path is not the topology's route";
    }
    for (std::size_t h = 0; h < path->size(); ++h) {
      const core::VEdge& e = topo.edges()[(*path)[h]];
      if (e.id != flows[f].path_edge_ids[h]) {
        return "flow #" + std::to_string(f) + ": reported path is not the topology's route";
      }
      const bool ab = e.a == cur;
      usage_[(*path)[h] * 2 + (ab ? 0 : 1)] += rate;
      cur = ab ? e.b : e.a;
    }
  }
  for (std::size_t key = 0; key < usage_.size(); ++key) {
    const double avail = topo.edges()[key / 2].available_bps(key % 2 == 0);
    if (usage_[key] > avail * (1.0 + kFeasibleRel) + kFeasibleAbsBps) {
      return describe("directed edge overcommitted", key, usage_[key], avail);
    }
  }
  return {};
}

}  // namespace remos::e2e
