// Reproducibility: identical seeds produce identical simulations — the
// property every experiment in EXPERIMENTS.md depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/mirror.hpp"
#include "apps/testbed.hpp"

namespace remos {
namespace {

TEST(Determinism, WanTestbedBenchmarkHistoriesIdentical) {
  auto run = [] {
    apps::WanTestbed::Params p;
    p.seed = 99;
    p.sites = {{"a", 2, 100e6, 5e6}, {"b", 2, 100e6, 3e6}};
    p.cross_traffic_load = 0.4;
    apps::WanTestbed w(p);
    w.warm_up(200.0);
    std::vector<double> out;
    const auto* hist = w.benchmark->pair_history("a", "b");
    if (hist != nullptr) out = hist->values();
    return out;
  };
  const auto h1 = run();
  const auto h2 = run();
  ASSERT_FALSE(h1.empty());
  EXPECT_EQ(h1, h2);
}

TEST(Determinism, CollectorCostsIdenticalAcrossRuns) {
  auto run = [] {
    apps::LanTestbed::Params p;
    p.hosts = 12;
    p.switches = 3;
    p.seed = 5;
    apps::LanTestbed lan(p);
    const auto nodes = lan.host_addrs(12);
    std::vector<double> costs;
    costs.push_back(lan.collector->query(nodes).cost_s);
    lan.engine.advance(17.0);
    costs.push_back(lan.collector->query(nodes).cost_s);
    return costs;
  };
  EXPECT_EQ(run(), run());
}

/// 64-bit FNV-1a over every interface's (in, out) octet counters, nodes and
/// ports in id order: one number that moves if any counter moves.
std::uint64_t interface_octets_fnv1a(const net::Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const net::Node& n : net.nodes()) {
    for (const net::Interface& ifc : n.interfaces) {
      mix(ifc.in_octets);
      mix(ifc.out_octets);
    }
  }
  return h;
}

TEST(Determinism, LongPollPathPinned) {
  // The poll path end to end over a long warm-up: cross traffic, benchmark
  // probes and every rate change the fluid engine makes credit the octet
  // counters the SNMP Collector polls. 4,000 virtual s of a 6 x 8 WAN (the
  // e2e bench's site shape) pins every counter, the water-filling work and
  // the event trajectory, so a rate or crediting change that moves one
  // simulated bit fails here, far past the goldens' few hundred seconds.
  apps::WanTestbed::Params p;
  for (std::size_t i = 0; i < 6; ++i) {
    p.sites.push_back({"s" + std::to_string(i), 8, 100e6,
                       (4.0 + static_cast<double>(i % 5)) * 1e6});
  }
  p.cross_traffic_load = 0.3;
  p.seed = 11;
  apps::WanTestbed w(p);
  w.warm_up(4000.0);
  w.flows->sync();
  EXPECT_EQ(interface_octets_fnv1a(w.net), 152857340520126273ULL);
  EXPECT_EQ(w.flows->waterfill_rounds_total(), 169199ULL);
  EXPECT_EQ(w.flows->started_count(), 15377ULL);
  EXPECT_EQ(w.engine.dispatched(), 31826ULL);
}

TEST(Determinism, DifferentSeedsDiverge) {
  auto run = [](std::uint64_t seed) {
    apps::WanTestbed::Params p;
    p.seed = seed;
    p.sites = {{"a", 2, 100e6, 5e6}, {"b", 2, 100e6, 3e6}};
    p.cross_traffic_load = 0.4;
    p.cross_period_s = 2.0;
    apps::WanTestbed w(p);
    w.warm_up(200.0);
    const auto* hist = w.benchmark->pair_history("a", "b");
    return hist != nullptr ? hist->values() : std::vector<double>{};
  };
  const auto h1 = run(1);
  const auto h2 = run(2);
  ASSERT_FALSE(h1.empty());
  EXPECT_NE(h1, h2);
}

TEST(Determinism, MirrorTrialIdentical) {
  auto run = [] {
    apps::WanTestbed::Params p;
    p.seed = 7;
    p.sites = {{"client", 2, 100e6, 20e6}, {"x", 2, 100e6, 4e6}, {"y", 2, 100e6, 2e6}};
    p.cross_traffic_load = 0.3;
    apps::WanTestbed wan(p);
    wan.warm_up(60.0);
    apps::MirrorClient client(wan.engine, *wan.flows, *wan.modeler, wan.host("client", 1),
                              wan.addr(wan.host("client", 1)),
                              {{"x", wan.host("x", 1), wan.addr(wan.host("x", 1))},
                               {"y", wan.host("y", 1), wan.addr(wan.host("y", 1))}});
    return client.run_trial();
  };
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1.remos_ranking, r2.remos_ranking);
  EXPECT_EQ(r1.achieved_bps, r2.achieved_bps);
  EXPECT_EQ(r1.remos_bandwidth_bps, r2.remos_bandwidth_bps);
}

}  // namespace
}  // namespace remos
