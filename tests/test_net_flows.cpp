// FlowEngine: max-min fairness, demand caps, octet accounting, completion.
#include <gtest/gtest.h>

#include <cmath>

#include "net/flows.hpp"
#include "net/l2.hpp"

namespace remos::net {
namespace {

/// Dumbbell: a0,a1 - swL - r0 --bottleneck-- r1 - swR - b0,b1
struct Dumbbell {
  Network net{"dumbbell"};
  sim::Engine engine;
  NodeId a0, a1, b0, b1, r0, r1;
  std::unique_ptr<FlowEngine> flows;

  explicit Dumbbell(double bottleneck_bps = 10e6) {
    const NodeId swl = net.add_switch("swL");
    const NodeId swr = net.add_switch("swR");
    r0 = net.add_router("r0");
    r1 = net.add_router("r1");
    a0 = net.add_host("a0");
    a1 = net.add_host("a1");
    b0 = net.add_host("b0");
    b1 = net.add_host("b1");
    net.connect(a0, swl, 100e6);
    net.connect(a1, swl, 100e6);
    net.connect(swl, r0, 1e9);
    net.connect(r0, r1, bottleneck_bps);
    net.connect(r1, swr, 1e9);
    net.connect(b0, swr, 100e6);
    net.connect(b1, swr, 100e6);
    net.finalize();
    flows = std::make_unique<FlowEngine>(engine, net);
  }
};

TEST(FlowEngine, SingleGreedyFlowGetsBottleneck) {
  Dumbbell d;
  const FlowId f = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  EXPECT_DOUBLE_EQ(d.flows->rate(f), 10e6);
}

TEST(FlowEngine, TwoGreedyFlowsShareFairly) {
  Dumbbell d;
  const FlowId f1 = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  const FlowId f2 = d.flows->start(FlowSpec{.src = d.a1, .dst = d.b1});
  EXPECT_DOUBLE_EQ(d.flows->rate(f1), 5e6);
  EXPECT_DOUBLE_EQ(d.flows->rate(f2), 5e6);
}

TEST(FlowEngine, DemandCappedFlowLeavesRestToOthers) {
  Dumbbell d;
  const FlowId small = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0, .demand_bps = 2e6});
  const FlowId big = d.flows->start(FlowSpec{.src = d.a1, .dst = d.b1});
  EXPECT_DOUBLE_EQ(d.flows->rate(small), 2e6);
  EXPECT_DOUBLE_EQ(d.flows->rate(big), 8e6);
}

TEST(FlowEngine, StoppingFlowRestoresBandwidth) {
  Dumbbell d;
  const FlowId f1 = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  const FlowId f2 = d.flows->start(FlowSpec{.src = d.a1, .dst = d.b1});
  d.flows->stop(f2);
  EXPECT_DOUBLE_EQ(d.flows->rate(f1), 10e6);
  EXPECT_FALSE(d.flows->active(f2));
}

TEST(FlowEngine, AccessLinkCanBeTheBottleneck) {
  Dumbbell d(1e9);  // backbone wider than the 100 Mb access links
  const FlowId f = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  EXPECT_DOUBLE_EQ(d.flows->rate(f), 100e6);
}

TEST(FlowEngine, OppositeDirectionsDoNotContend) {
  Dumbbell d;
  const FlowId fwd = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  const FlowId rev = d.flows->start(FlowSpec{.src = d.b1, .dst = d.a1});
  // Full duplex: both directions get the whole bottleneck.
  EXPECT_DOUBLE_EQ(d.flows->rate(fwd), 10e6);
  EXPECT_DOUBLE_EQ(d.flows->rate(rev), 10e6);
}

TEST(FlowEngine, FiniteFlowCompletesAtExactTime) {
  Dumbbell d;
  bool done = false;
  FlowSpec spec{.src = d.a0, .dst = d.b0};
  spec.bytes = 10'000'000;  // 10 MB at 10 Mb/s = 8 s
  spec.on_complete = [&](FlowId) { done = true; };
  const FlowId f = d.flows->start(std::move(spec));
  d.engine.run_until(7.99);
  EXPECT_FALSE(done);
  d.engine.run_until(8.01);
  EXPECT_TRUE(done);
  const auto stats = d.flows->stats(f);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->delivered_bytes, 10'000'000u);
  EXPECT_NEAR(stats->average_bps(), 10e6, 1.0);
}

TEST(FlowEngine, CompletionTimeAdaptsToRateChanges) {
  Dumbbell d;
  bool done = false;
  FlowSpec spec{.src = d.a0, .dst = d.b0};
  spec.bytes = 10'000'000;
  spec.on_complete = [&](FlowId) { done = true; };
  d.flows->start(std::move(spec));
  // At t=2 a competitor halves the rate; remaining 7.5 MB now drain at
  // 5 Mb/s -> 12 s more. The competitor is infinite, so total is 14 s.
  d.engine.after(2.0, [&] { d.flows->start(FlowSpec{.src = d.a1, .dst = d.b1}); });
  d.engine.run_until(13.9);
  EXPECT_FALSE(done);
  d.engine.run_until(14.1);
  EXPECT_TRUE(done);
}

TEST(FlowEngine, OctetCountersMatchDelivery) {
  Dumbbell d;
  const FlowId f = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  d.engine.advance(4.0);
  d.flows->sync();
  (void)f;
  // Bottleneck egress on r0 toward r1: 10 Mb/s * 4 s = 5 MB.
  const PathResult p = d.net.resolve_path(d.a0, d.b0);
  std::uint64_t bottleneck_out = 0;
  for (const Hop& h : p.hops) {
    const Link& l = d.net.link(h.link);
    if (l.capacity_bps == 10e6) {
      bottleneck_out = d.net.egress_interface(h).out_octets;
    }
  }
  EXPECT_NEAR(static_cast<double>(bottleneck_out), 5e6, 1.0);
}

TEST(FlowEngine, ManySmallSyncsDoNotDriftOctets) {
  Dumbbell d;
  const FlowId f = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  // 10 Mb/s over 10 us syncs is 12.5 bytes each: truncating per sync would
  // lose 0.5 bytes every step (~500 bytes here). The fractional residue is
  // carried across syncs, so the total stays within one octet of fluid.
  for (int i = 0; i < 1000; ++i) {
    d.engine.advance(1e-5);
    d.flows->sync();
  }
  const auto stats = d.flows->stats(f);
  ASSERT_TRUE(stats.has_value());
  EXPECT_NEAR(static_cast<double>(stats->delivered_bytes), 12500.0, 1.0);
}

TEST(FlowEngine, EveryHopCountsOctets) {
  Dumbbell d;
  d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  d.engine.advance(2.0);
  d.flows->sync();
  const PathResult p = d.net.resolve_path(d.a0, d.b0);
  for (const Hop& h : p.hops) {
    EXPECT_GT(d.net.egress_interface(h).out_octets, 0u);
    EXPECT_GT(d.net.ingress_interface(h).in_octets, 0u);
  }
}

TEST(FlowEngine, DirectedLinkRateAggregates) {
  Dumbbell d;
  d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  d.flows->start(FlowSpec{.src = d.a1, .dst = d.b1});
  const PathResult p = d.net.resolve_path(d.a0, d.b0);
  for (const Hop& h : p.hops) {
    const Link& l = d.net.link(h.link);
    if (l.capacity_bps == 10e6) {
      EXPECT_DOUBLE_EQ(d.flows->directed_link_rate(l.id, h.forward), 10e6);
      EXPECT_DOUBLE_EQ(d.flows->directed_link_rate(l.id, !h.forward), 0.0);
    }
  }
}

TEST(FlowEngine, StoppedFlowKeepsStats) {
  Dumbbell d;
  const FlowId f = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  d.engine.advance(3.0);
  d.flows->stop(f);
  const auto stats = d.flows->stats(f);
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->completed);
  EXPECT_NEAR(stats->average_bps(), 10e6, 10.0);
}

TEST(FlowEngine, SharedHubSegmentIsSingleResource) {
  Network net;
  sim::Engine engine;
  const NodeId hub = net.add_hub("hub", 10e6);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId c = net.add_host("c");
  const NodeId d = net.add_host("d");
  for (NodeId h : {a, b, c, d}) net.connect(h, hub, 100e6);
  net.finalize();
  FlowEngine flows(engine, net);
  // Two flows in *different directions* through the hub still share the
  // 10 Mb/s collision domain (half duplex).
  const FlowId f1 = flows.start(FlowSpec{.src = a, .dst = b});
  const FlowId f2 = flows.start(FlowSpec{.src = c, .dst = d});
  EXPECT_DOUBLE_EQ(flows.rate(f1), 5e6);
  EXPECT_DOUBLE_EQ(flows.rate(f2), 5e6);
}

TEST(FlowEngine, ManyFlowsConvergeToEqualShares) {
  Dumbbell d;
  std::vector<FlowId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(d.flows->start(FlowSpec{.src = i % 2 ? d.a0 : d.a1, .dst = i % 2 ? d.b0 : d.b1}));
  }
  for (FlowId f : ids) EXPECT_NEAR(d.flows->rate(f), 1e6, 1e-6);
}

TEST(FlowEngine, MaxMinThreeLinkExample) {
  // Classic parking-lot: flows (s0->e2 long), (s0->e1), (s1->e2).
  Network net;
  sim::Engine engine;
  const NodeId r0 = net.add_router("r0");
  const NodeId r1 = net.add_router("r1");
  const NodeId r2 = net.add_router("r2");
  net.connect(r0, r1, 10e6);
  net.connect(r1, r2, 10e6);
  const NodeId s0 = net.add_host("s0");
  const NodeId s1 = net.add_host("s1");
  const NodeId e1 = net.add_host("e1");
  const NodeId e2 = net.add_host("e2");
  net.connect(s0, r0, 100e6);
  net.connect(s1, r1, 100e6);
  net.connect(e1, r1, 100e6);
  net.connect(e2, r2, 100e6);
  net.finalize();
  FlowEngine flows(engine, net);
  const FlowId fl = flows.start(FlowSpec{.src = s0, .dst = e2});  // both links
  const FlowId f1 = flows.start(FlowSpec{.src = s0, .dst = e1});  // link 1
  const FlowId f2 = flows.start(FlowSpec{.src = s1, .dst = e2});  // link 2
  // Max-min: each link splits 10 Mb/s between two flows -> all get 5.
  EXPECT_DOUBLE_EQ(flows.rate(fl), 5e6);
  EXPECT_DOUBLE_EQ(flows.rate(f1), 5e6);
  EXPECT_DOUBLE_EQ(flows.rate(f2), 5e6);
  // Remove the long flow: f1 and f2 each get their whole link.
  flows.stop(fl);
  EXPECT_DOUBLE_EQ(flows.rate(f1), 10e6);
  EXPECT_DOUBLE_EQ(flows.rate(f2), 10e6);
}

TEST(FlowEngine, FinishedHistoryIsBounded) {
  // Long-running simulations churn through many flows; finished-flow
  // records must not grow without bound, and recent stats stay readable.
  Dumbbell d;
  FlowId last = 0;
  for (int i = 0; i < 300; ++i) {
    FlowSpec spec{.src = d.a0, .dst = d.b0};
    spec.bytes = 1000;
    last = d.flows->start(std::move(spec));
    d.engine.advance(0.1);
  }
  d.engine.advance(10.0);  // drain everything
  EXPECT_EQ(d.flows->active_count(), 0u);
  // The most recent flow's stats are retained.
  const auto stats = d.flows->stats(last);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->completed);
}

TEST(FlowEngine, OctetsReconcileAtCompletion) {
  // A finite transfer whose size never divides evenly into sync steps:
  // when it completes, the interface counters an SNMP agent would read
  // must show exactly the transferred bytes — the fractional tail is
  // delivered as a real final octet, not silently absorbed into stats.
  Dumbbell d;
  FlowSpec spec{.src = d.a0, .dst = d.b0};
  spec.bytes = 999'999;
  const FlowId f = d.flows->start(std::move(spec));
  // Ragged sync instants so the sub-octet carry is live when it drains.
  for (int i = 1; i <= 100; ++i) {
    d.engine.run_until(static_cast<double>(i) * 1.7e-3);
    d.flows->sync();
  }
  d.engine.run_until(2.0);  // completion fires (0.8 s at 10 Mb/s)
  const auto stats = d.flows->stats(f);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->delivered_bytes, 999'999u);
  const PathResult p = d.net.resolve_path(d.a0, d.b0);
  for (const Hop& h : p.hops) {
    EXPECT_EQ(d.net.egress_interface(h).out_octets, 999'999u);
    EXPECT_EQ(d.net.ingress_interface(h).in_octets, 999'999u);
  }
}

TEST(FlowEngine, OctetsReconcileAtStop) {
  // Stopping mid-transfer flushes the sub-octet carry (rounded) instead of
  // dropping it, so flow stats and interface counters agree exactly.
  Dumbbell d;
  const FlowId f = d.flows->start(FlowSpec{.src = d.a0, .dst = d.b0});
  // 10 Mb/s for 101 * 10 us = 12.5 bytes per step; the odd step count
  // leaves a 0.5-octet carry pending at stop().
  for (int i = 0; i < 101; ++i) {
    d.engine.advance(1e-5);
    d.flows->sync();
  }
  d.flows->stop(f);
  const auto stats = d.flows->stats(f);
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->completed);
  const PathResult p = d.net.resolve_path(d.a0, d.b0);
  for (const Hop& h : p.hops) {
    EXPECT_EQ(d.net.egress_interface(h).out_octets, stats->delivered_bytes);
    EXPECT_EQ(d.net.ingress_interface(h).in_octets, stats->delivered_bytes);
  }
  // And the flush really captured the fluid total: 101 * 12.5 = 1262.5,
  // rounded to nearest.
  EXPECT_EQ(stats->delivered_bytes, 1263u);
}

TEST(FlowEngine, ZeroCapacityLinkRttStaysFinite) {
  // A dead (zero-capacity) hop has no headroom: utilization saturates at
  // the cap instead of dividing by zero and poisoning the RTT with NaN.
  Network net{"dead-hop"};
  sim::Engine engine;
  const NodeId sw = net.add_switch("sw");
  const NodeId h0 = net.add_host("h0");
  const NodeId h1 = net.add_host("h1");
  net.connect(h0, sw, 100e6, 0.001);
  const LinkId dead = net.connect(h1, sw, 100e6, 0.001);
  net.finalize();
  net.link(dead).capacity_bps = 0.0;  // administratively down / speed unknown
  FlowEngine flows(engine, net);
  const double rtt = flows.current_rtt(h0, h1);
  EXPECT_TRUE(std::isfinite(rtt));
  // Propagation 2*(1+1) ms plus the saturated-queue penalty on both
  // directions of the dead link: 0.002 * 0.95 / 0.05 = 38 ms each way.
  EXPECT_NEAR(rtt, 0.004 + 2.0 * 0.002 * 0.95 / 0.05, 1e-9);
}

TEST(FlowEngine, LinkIndexRebuiltOnTopologyChange) {
  // Rehoming a host bumps the topology version; the published
  // per-directed-link rates must follow the new paths, so nothing stale
  // survives on the links the old paths crossed.
  Network lan{"lan"};
  sim::Engine engine;
  const NodeId sw0 = lan.add_switch("sw0");
  const NodeId sw1 = lan.add_switch("sw1");
  const NodeId h0 = lan.add_host("h0");
  const NodeId h1 = lan.add_host("h1");
  const LinkId l0 = lan.connect(h0, sw0, 100e6);
  lan.connect(h1, sw1, 100e6);
  const LinkId trunk = lan.connect(sw0, sw1, 1e9);
  lan.finalize();
  FlowEngine flows(engine, lan);

  const FlowId f1 = flows.start(FlowSpec{.src = h0, .dst = h1});
  EXPECT_DOUBLE_EQ(flows.directed_link_rate(l0, true) + flows.directed_link_rate(l0, false),
                   100e6);
  flows.stop(f1);

  lan.move_host(h0, sw1, 100e6);
  const FlowId f2 = flows.start(FlowSpec{.src = h0, .dst = h1});
  // move_host rewires l0 onto sw1, so it still carries the new flow — but
  // the trunk is off every path now; a stale per-link sum would make it
  // non-zero.
  EXPECT_DOUBLE_EQ(flows.directed_link_rate(l0, true) + flows.directed_link_rate(l0, false),
                   100e6);
  EXPECT_DOUBLE_EQ(
      flows.directed_link_rate(trunk, true) + flows.directed_link_rate(trunk, false), 0.0);
  EXPECT_DOUBLE_EQ(flows.rate(f2), 100e6);
}

TEST(FlowEngine, OctetsReconcileAcrossHostMoveOntoCrossedSwitch) {
  // A flow crosses sw1 while a host moves onto sw1: the move rewires the
  // host's link onto a new sw1 port, growing (and possibly reallocating)
  // sw1's interface vector under the flow's cached interface pointers.
  // Crediting after the move must land on live interfaces, and every
  // hop's counters must still reconcile with delivered_bytes.
  Network lan{"lan"};
  sim::Engine engine;
  const NodeId sw0 = lan.add_switch("sw0");
  const NodeId sw1 = lan.add_switch("sw1");
  const NodeId a = lan.add_host("a");
  const NodeId b = lan.add_host("b");
  const NodeId roamer = lan.add_host("roamer");
  const LinkId la = lan.connect(a, sw0, 100e6);
  const LinkId lb = lan.connect(b, sw1, 100e6);
  const LinkId trunk = lan.connect(sw0, sw1, 1e9);
  lan.connect(roamer, sw0, 100e6);
  lan.finalize();
  FlowEngine flows(engine, lan);

  const FlowId f = flows.start(FlowSpec{.src = a, .dst = b, .demand_bps = 8e6});
  const std::size_t ports_before = lan.node(sw1).interfaces.size();
  engine.advance(3.3);
  flows.sync();
  for (int i = 0; i < 4; ++i) {
    // Each move adds a port to the target switch.
    lan.move_host(roamer, i % 2 == 0 ? sw1 : sw0, 100e6);
    engine.advance(1.7);
    flows.sync();
  }
  EXPECT_EQ(lan.node(sw1).interfaces.size(), ports_before + 2);
  flows.stop(f);

  const auto st = flows.stats(f);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->delivered_bytes, static_cast<std::uint64_t>(8e6 / 8.0 * 10.1 + 0.5));
  for (const LinkId l : {la, trunk, lb}) {
    const Hop hop{l, lan.link(l).a == a || lan.link(l).a == sw0};
    EXPECT_EQ(lan.egress_interface(hop).out_octets, st->delivered_bytes) << "link " << l;
    EXPECT_EQ(lan.ingress_interface(hop).in_octets, st->delivered_bytes) << "link " << l;
  }
}

}  // namespace
}  // namespace remos::net
