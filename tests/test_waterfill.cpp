// WaterfillSolver: randomized equivalence against a naive reference
// rescan solver, allocation invariants, determinism, and the FlowEngine
// path cache's invalidation on topology change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/waterfill.hpp"
#include "net/flows.hpp"
#include "sim/thread_pool.hpp"

namespace remos {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Problem {
  std::vector<double> capacity;
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> resources;
  std::vector<double> demand;
};

/// Textbook rescan water-filler, retained as the reference the optimized
/// kernel is checked against: every round recomputes every resource's
/// saturation level from scratch. Same freeze tolerance (1e-9) and the
/// same per-caller level options as the kernel. When `stats` is given it
/// receives the same work counters the kernel reports.
std::vector<double> naive_waterfill(const Problem& p, const core::WaterfillOptions& opt,
                                    core::WaterfillStats* stats = nullptr) {
  core::WaterfillStats local;
  core::WaterfillStats& st = stats != nullptr ? *stats : local;
  st = core::WaterfillStats{};
  const std::size_t nf = p.demand.size();
  const std::size_t nr = p.capacity.size();
  std::vector<double> rates(nf, 0.0);
  std::vector<char> frozen(nf, 0);
  double level = 0.0;
  for (;;) {
    std::vector<double> frozen_usage(nr, 0.0);
    std::vector<std::size_t> unfrozen(nr, 0);
    std::size_t active = 0;
    for (std::size_t f = 0; f < nf; ++f) {
      for (std::size_t k = p.offsets[f]; k < p.offsets[f + 1]; ++k) {
        if (frozen[f] != 0) {
          frozen_usage[p.resources[k]] += rates[f];
        } else {
          ++unfrozen[p.resources[k]];
        }
      }
      if (frozen[f] == 0) ++active;
    }
    if (active == 0) break;
    ++st.rounds;
    std::vector<double> sat(nr, kInf);
    double next = kInf;
    for (std::size_t r = 0; r < nr; ++r) {
      if (unfrozen[r] == 0) continue;
      sat[r] = (p.capacity[r] - frozen_usage[r]) / static_cast<double>(unfrozen[r]);
      next = std::min(next, sat[r]);
    }
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f] == 0) next = std::min(next, p.demand[f]);
    }
    if (!std::isfinite(next)) break;
    if (opt.monotone_level) {
      level = std::max(level, next);
    } else {
      level = next;
      if (opt.clamp_negative_level && level < 0.0) level = 0.0;
    }
    const double thr = level + 1e-9;
    bool any = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f] != 0) continue;
      const bool capped = p.demand[f] <= thr;
      bool freeze = capped;
      for (std::size_t k = p.offsets[f]; k < p.offsets[f + 1] && !freeze; ++k) {
        freeze = sat[p.resources[k]] <= thr;
      }
      if (freeze) {
        ++(capped ? st.demand_frozen : st.saturation_frozen);
        frozen[f] = 1;
        rates[f] = std::min(level, p.demand[f]);
        any = true;
      }
    }
    if (!any) break;
  }
  return rates;
}

/// 1..16 resources, 1..32 flows crossing 1..4 of them (duplicates allowed
/// — each crossing is a constraint, as on a path revisiting a link), ~30%
/// greedy (infinite-demand) flows.
Problem random_problem(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Problem p;
  const std::size_t nr = std::uniform_int_distribution<std::size_t>(1, 16)(rng);
  const std::size_t nf = std::uniform_int_distribution<std::size_t>(1, 32)(rng);
  std::uniform_real_distribution<double> cap_d(0.5, 100.0);
  std::uniform_int_distribution<std::size_t> deg_d(1, 4);
  std::uniform_int_distribution<std::uint32_t> res_d(0, static_cast<std::uint32_t>(nr - 1));
  std::uniform_real_distribution<double> dem_d(0.1, 50.0);
  std::uniform_int_distribution<int> pct_d(0, 99);
  p.capacity.resize(nr);
  for (double& c : p.capacity) c = cap_d(rng);
  p.offsets.push_back(0);
  for (std::size_t f = 0; f < nf; ++f) {
    const std::size_t deg = deg_d(rng);
    for (std::size_t k = 0; k < deg; ++k) p.resources.push_back(res_d(rng));
    p.offsets.push_back(p.resources.size());
    p.demand.push_back(pct_d(rng) < 30 ? kInf : dem_d(rng));
  }
  return p;
}

TEST(Waterfill, MatchesNaiveReferenceOnRandomProblems) {
  core::WaterfillSolver solver;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Problem p = random_problem(seed);
    for (const bool monotone : {true, false}) {
      core::WaterfillOptions opt;
      opt.monotone_level = monotone;       // fluid-engine flavor
      opt.clamp_negative_level = !monotone;  // Modeler flavor
      std::vector<double> rates(p.demand.size(), 0.0);
      solver.solve(p.capacity, p.offsets, p.resources, p.demand, rates, opt);
      const std::vector<double> want = naive_waterfill(p, opt);
      for (std::size_t f = 0; f < rates.size(); ++f) {
        EXPECT_NEAR(rates[f], want[f], 1e-9)
            << "seed " << seed << " monotone " << monotone << " flow " << f;
      }
    }
  }
}

TEST(Waterfill, RandomAllocationsAreFeasibleAndMaxMin) {
  core::WaterfillSolver solver;
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const Problem p = random_problem(seed);
    core::WaterfillOptions opt;
    opt.monotone_level = true;
    std::vector<double> rates(p.demand.size(), 0.0);
    solver.solve(p.capacity, p.offsets, p.resources, p.demand, rates, opt);
    std::vector<double> used(p.capacity.size(), 0.0);
    for (std::size_t f = 0; f < p.demand.size(); ++f) {
      for (std::size_t k = p.offsets[f]; k < p.offsets[f + 1]; ++k) {
        used[p.resources[k]] += rates[f];
      }
    }
    // Feasibility: no resource overcommitted (counting path multiplicity).
    for (std::size_t r = 0; r < p.capacity.size(); ++r) {
      EXPECT_LE(used[r], p.capacity[r] + 1e-6) << "seed " << seed << " resource " << r;
    }
    // Max-min optimality: every unsatisfied flow crosses a saturated
    // resource — no rate can be raised without lowering a smaller one.
    for (std::size_t f = 0; f < p.demand.size(); ++f) {
      if (rates[f] >= p.demand[f] - 1e-6) continue;
      bool bottlenecked = false;
      for (std::size_t k = p.offsets[f]; k < p.offsets[f + 1] && !bottlenecked; ++k) {
        bottlenecked = used[p.resources[k]] >= p.capacity[p.resources[k]] - 1e-6;
      }
      EXPECT_TRUE(bottlenecked) << "seed " << seed << " flow " << f;
    }
  }
}

TEST(Waterfill, RepeatedSolvesAreBitIdentical) {
  core::WaterfillSolver solver;
  const Problem p = random_problem(7);
  core::WaterfillOptions opt;
  opt.monotone_level = true;
  std::vector<double> a(p.demand.size(), 0.0);
  std::vector<double> b(p.demand.size(), 0.0);
  const core::WaterfillStats s1 =
      solver.solve(p.capacity, p.offsets, p.resources, p.demand, a, opt);
  const core::WaterfillStats s2 =
      solver.solve(p.capacity, p.offsets, p.resources, p.demand, b, opt);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.demand_frozen, s2.demand_frozen);
  EXPECT_EQ(s1.saturation_frozen, s2.saturation_frozen);
  // Reusing the solver's arenas must not perturb a single bit.
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

TEST(Waterfill, StatsClassifyFreezes) {
  core::WaterfillSolver solver;
  // One capacity-10 resource: a demand-2 flow freezes on its cap first,
  // the greedy flow then saturates the remainder at level 8.
  const std::vector<double> capacity{10.0};
  const std::vector<std::size_t> offsets{0, 1, 2};
  const std::vector<std::uint32_t> resources{0, 0};
  const std::vector<double> demand{2.0, kInf};
  std::vector<double> rates(2, 0.0);
  core::WaterfillOptions opt;
  opt.monotone_level = true;
  const core::WaterfillStats s =
      solver.solve(capacity, offsets, resources, demand, rates, opt);
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
  EXPECT_EQ(s.rounds, 2u);
  EXPECT_EQ(s.demand_frozen, 1u);
  EXPECT_EQ(s.saturation_frozen, 1u);
}

TEST(Waterfill, EmptyProblem) {
  core::WaterfillSolver solver;
  const std::vector<std::size_t> offsets{0};
  const std::vector<double> nothing;
  const std::vector<std::uint32_t> no_resources;
  std::vector<double> rates;
  const core::WaterfillStats s = solver.solve(nothing, offsets, no_resources, nothing, rates,
                                              core::WaterfillOptions{});
  EXPECT_EQ(s.rounds, 0u);
  EXPECT_EQ(s.demand_frozen, 0u);
  EXPECT_EQ(s.saturation_frozen, 0u);
}

/// Solve `p` and check it against the naive reference: rates within the
/// freeze tolerance, identical work counters. Returns the kernel's rates.
std::vector<double> expect_matches_naive(core::WaterfillSolver& solver, const Problem& p,
                                         const core::WaterfillOptions& opt,
                                         const std::string& where) {
  std::vector<double> rates(p.demand.size(), 0.0);
  const core::WaterfillStats got =
      solver.solve(p.capacity, p.offsets, p.resources, p.demand, rates, opt);
  core::WaterfillStats want_stats;
  const std::vector<double> want = naive_waterfill(p, opt, &want_stats);
  for (std::size_t f = 0; f < rates.size(); ++f) {
    EXPECT_NEAR(rates[f], want[f], 1e-9) << where << " flow " << f;
  }
  EXPECT_EQ(got.rounds, want_stats.rounds) << where;
  EXPECT_EQ(got.demand_frozen, want_stats.demand_frozen) << where;
  EXPECT_EQ(got.saturation_frozen, want_stats.saturation_frozen) << where;
  return rates;
}

void expect_same_solve(const std::vector<double>& a, const core::WaterfillStats& sa,
                       const std::vector<double>& b, const core::WaterfillStats& sb,
                       const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double))) << where;
  EXPECT_EQ(sa.rounds, sb.rounds) << where;
  EXPECT_EQ(sa.demand_frozen, sb.demand_frozen) << where;
  EXPECT_EQ(sa.saturation_frozen, sb.saturation_frozen) << where;
}

TEST(WaterfillKernel, SparseResourceIdsCostNothingAndChangeNothing) {
  // The same problem with its resources scattered over a capacity table
  // 8-64x larger, every unused slot NaN: the kernel must never read an
  // unused slot, and the answer must be bit-identical to the dense layout.
  core::WaterfillSolver dense_solver;
  core::WaterfillSolver sparse_solver;
  for (std::uint64_t seed = 400; seed < 440; ++seed) {
    const Problem p = random_problem(seed);
    std::mt19937_64 rng(seed);
    const std::size_t spread = std::uniform_int_distribution<std::size_t>(8, 64)(rng);
    std::vector<std::uint32_t> slot(spread * p.capacity.size());
    for (std::size_t i = 0; i < slot.size(); ++i) slot[i] = static_cast<std::uint32_t>(i);
    std::shuffle(slot.begin(), slot.end(), rng);
    Problem sparse = p;
    sparse.capacity.assign(slot.size(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t r = 0; r < p.capacity.size(); ++r) sparse.capacity[slot[r]] = p.capacity[r];
    for (std::uint32_t& r : sparse.resources) r = slot[r];
    for (const bool monotone : {true, false}) {
      core::WaterfillOptions opt;
      opt.monotone_level = monotone;
      opt.clamp_negative_level = !monotone;
      const std::string where =
          "seed " + std::to_string(seed) + " monotone " + std::to_string(monotone);
      std::vector<double> a(p.demand.size(), 0.0);
      std::vector<double> b(p.demand.size(), 0.0);
      const core::WaterfillStats sa =
          dense_solver.solve(p.capacity, p.offsets, p.resources, p.demand, a, opt);
      const core::WaterfillStats sb = sparse_solver.solve(sparse.capacity, sparse.offsets,
                                                          sparse.resources, sparse.demand, b, opt);
      expect_same_solve(a, sa, b, sb, where);
      expect_matches_naive(sparse_solver, sparse, opt, where);
    }
  }
}

TEST(WaterfillKernel, BackboneHeadroomIsDroppedWithoutChangingTheAnswer) {
  // Random problems plus 1-3 "backbone" resources with 10-100x headroom
  // over every crossing flow's upper bound, so the cut rule drops them.
  // A resource that can never saturate cannot matter: the answer must be
  // bit-identical to the same problem without the backbones, and match
  // the naive reference (which keeps them) in rates and counters.
  core::WaterfillSolver solver;
  core::WaterfillSolver bare_solver;
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    const Problem bare = random_problem(seed);
    std::mt19937_64 rng(seed * 7919);
    const std::size_t nbackbone = std::uniform_int_distribution<std::size_t>(1, 3)(rng);
    const auto first_backbone = static_cast<std::uint32_t>(bare.capacity.size());
    std::vector<double> bound(bare.demand.size());
    for (std::size_t f = 0; f < bare.demand.size(); ++f) {
      bound[f] = bare.demand[f];
      for (std::size_t k = bare.offsets[f]; k < bare.offsets[f + 1]; ++k) {
        bound[f] = std::min(bound[f], bare.capacity[bare.resources[k]]);
      }
    }
    std::vector<double> load(nbackbone, 0.0);
    Problem p;
    p.capacity = bare.capacity;
    p.demand = bare.demand;
    p.offsets.push_back(0);
    std::uniform_int_distribution<int> coin(0, 1);
    for (std::size_t f = 0; f < bare.demand.size(); ++f) {
      for (std::size_t k = bare.offsets[f]; k < bare.offsets[f + 1]; ++k) {
        p.resources.push_back(bare.resources[k]);
        // Backbones interleave with the flow's own constraints.
        for (std::size_t b = 0; b < nbackbone; ++b) {
          if (coin(rng) == 0) continue;
          p.resources.push_back(first_backbone + static_cast<std::uint32_t>(b));
          load[b] += bound[f];
        }
      }
      p.offsets.push_back(p.resources.size());
    }
    std::uniform_real_distribution<double> headroom(10.0, 100.0);
    for (std::size_t b = 0; b < nbackbone; ++b) {
      p.capacity.push_back(headroom(rng) * std::max(load[b], 1.0));
    }
    for (const bool monotone : {true, false}) {
      core::WaterfillOptions opt;
      opt.monotone_level = monotone;
      opt.clamp_negative_level = !monotone;
      const std::string where =
          "seed " + std::to_string(seed) + " monotone " + std::to_string(monotone);
      const std::vector<double> got = expect_matches_naive(solver, p, opt, where);
      std::vector<double> want(bare.demand.size(), 0.0);
      const core::WaterfillStats sw =
          bare_solver.solve(bare.capacity, bare.offsets, bare.resources, bare.demand, want, opt);
      std::vector<double> again(p.demand.size(), 0.0);
      const core::WaterfillStats sg =
          solver.solve(p.capacity, p.offsets, p.resources, p.demand, again, opt);
      expect_same_solve(got, sg, again, sg, where + " (rerun)");
      expect_same_solve(want, sw, again, sg, where);
    }
  }
}

TEST(WaterfillKernel, ZeroAndInfiniteCapacitiesAreNeverCutWrongly) {
  // A zero-capacity resource always saturates at level 0, so it must never
  // be dropped; an infinite-capacity one never saturates, but when it is a
  // greedy flow's only constraint the flow's bound is infinite and the
  // resource stays in — the flow then freezes at 0, as the reference does.
  core::WaterfillSolver solver;
  for (std::uint64_t seed = 600; seed < 640; ++seed) {
    Problem p = random_problem(seed);
    std::mt19937_64 rng(seed);
    const auto zero = static_cast<std::uint32_t>(p.capacity.size());
    const auto inf = zero + 1;
    p.capacity.push_back(0.0);
    p.capacity.push_back(kInf);
    std::uniform_int_distribution<int> pct(0, 99);
    Problem q;
    q.capacity = p.capacity;
    q.offsets.push_back(0);
    for (std::size_t f = 0; f < p.demand.size(); ++f) {
      const int roll = pct(rng);
      if (roll < 15) {
        q.resources.push_back(inf);  // only an infinite resource
      } else {
        q.resources.insert(q.resources.end(), p.resources.begin() + p.offsets[f],
                           p.resources.begin() + p.offsets[f + 1]);
        if (roll < 35) q.resources.push_back(zero);
        if (roll >= 60) q.resources.push_back(inf);
      }
      q.offsets.push_back(q.resources.size());
      q.demand.push_back(p.demand[f]);
    }
    for (const bool monotone : {true, false}) {
      core::WaterfillOptions opt;
      opt.monotone_level = monotone;
      opt.clamp_negative_level = !monotone;
      const std::string where =
          "seed " + std::to_string(seed) + " monotone " + std::to_string(monotone);
      const std::vector<double> rates = expect_matches_naive(solver, q, opt, where);
      for (std::size_t f = 0; f < q.demand.size(); ++f) {
        for (std::size_t k = q.offsets[f]; k < q.offsets[f + 1]; ++k) {
          if (q.resources[k] == zero) {
            EXPECT_EQ(rates[f], 0.0) << where << " flow " << f << " crosses the zero resource";
          }
        }
        if (q.offsets[f + 1] - q.offsets[f] == 1 && q.resources[q.offsets[f]] == inf &&
            std::isinf(q.demand[f])) {
          EXPECT_EQ(rates[f], 0.0) << where << " unconstrained greedy flow " << f;
        }
      }
    }
  }
}

/// `clusters` independent sub-problems (private resources + flows) plus one
/// shared backbone resource crossed by every flow but provisioned far above
/// the sum of all demand caps — the partitioner must cut it and recover
/// exactly `clusters` components. ~30% greedy flows per cluster exercise the
/// min-crossed-capacity refinement of the cut bound (an infinite demand
/// alone would make the backbone uncuttable).
Problem clustered_problem(std::uint64_t seed, std::size_t clusters) {
  std::mt19937_64 rng(seed);
  Problem p;
  std::uniform_int_distribution<std::size_t> nr_d(2, 6);
  std::uniform_int_distribution<std::size_t> nf_d(4, 12);
  std::uniform_real_distribution<double> cap_d(0.5, 100.0);
  std::uniform_int_distribution<std::size_t> deg_d(1, 3);
  std::uniform_real_distribution<double> dem_d(0.1, 50.0);
  std::uniform_int_distribution<int> pct_d(0, 99);
  p.offsets.push_back(0);
  const std::uint32_t backbone = 0;  // key 0; capacity patched at the end
  p.capacity.push_back(0.0);
  for (std::size_t c = 0; c < clusters; ++c) {
    const std::size_t nr = nr_d(rng);
    const std::uint32_t base = static_cast<std::uint32_t>(p.capacity.size());
    for (std::size_t r = 0; r < nr; ++r) p.capacity.push_back(cap_d(rng));
    std::uniform_int_distribution<std::uint32_t> res_d(base, base + static_cast<std::uint32_t>(nr) - 1);
    const std::size_t nf = nf_d(rng);
    for (std::size_t f = 0; f < nf; ++f) {
      const std::size_t deg = deg_d(rng);
      for (std::size_t k = 0; k < deg; ++k) p.resources.push_back(res_d(rng));
      p.resources.push_back(backbone);
      p.offsets.push_back(p.resources.size());
      p.demand.push_back(pct_d(rng) < 30 ? kInf : dem_d(rng));
    }
  }
  // Every flow is capped by its cluster's finite capacities, so total
  // backbone load is provably below sum(per-flow min crossed capacity).
  p.capacity[backbone] = 100.0 * static_cast<double>(p.demand.size()) + 1000.0;
  return p;
}

TEST(WaterfillPartition, BitIdenticalToMonolithicOnClusteredProblems) {
  core::WaterfillSolver mono_solver;
  core::WaterfillSolver part_solver;
  for (std::uint64_t seed = 200; seed < 230; ++seed) {
    const std::size_t clusters = 2 + static_cast<std::size_t>(seed % 5);
    const Problem p = clustered_problem(seed, clusters);
    core::WaterfillOptions mono;
    mono.monotone_level = true;
    core::WaterfillOptions part = mono;
    part.partition_min_flows = 2;
    std::vector<double> a(p.demand.size(), 0.0);
    std::vector<double> b(p.demand.size(), 0.0);
    const core::WaterfillStats sm =
        mono_solver.solve(p.capacity, p.offsets, p.resources, p.demand, a, mono);
    const core::WaterfillStats sp =
        part_solver.solve(p.capacity, p.offsets, p.resources, p.demand, b, part);
    EXPECT_EQ(sm.partitions, 1u);
    // At least one component per cluster; the partitioner may split finer
    // when a cluster's own resources cannot saturate either.
    EXPECT_GE(sp.partitions, clusters) << "seed " << seed;
    // The contract the parallel driver rests on: partitioning must not
    // perturb one bit of any rate.
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "seed " << seed;
    // Freeze classifications are per-flow facts, so the totals agree too
    // (round counts may differ: a monolithic round can freeze flows of
    // several components at once).
    EXPECT_EQ(sm.demand_frozen, sp.demand_frozen) << "seed " << seed;
    EXPECT_EQ(sm.saturation_frozen, sp.saturation_frozen) << "seed " << seed;
  }
}

TEST(WaterfillPartition, PoolSolveBitIdenticalForAnyWorkerCount) {
  const Problem p = clustered_problem(42, 6);
  core::WaterfillOptions part;
  part.monotone_level = true;
  part.partition_min_flows = 2;
  core::WaterfillSolver seq_solver;
  std::vector<double> want(p.demand.size(), 0.0);
  const core::WaterfillStats ss =
      seq_solver.solve(p.capacity, p.offsets, p.resources, p.demand, want, part);
  EXPECT_GE(ss.partitions, 6u);
  for (const std::size_t workers : {1u, 2u, 5u}) {
    sim::ThreadPool pool(workers);
    core::WaterfillOptions par = part;
    par.pool = &pool;
    core::WaterfillSolver par_solver;
    for (int rep = 0; rep < 3; ++rep) {  // arena reuse must stay clean
      std::vector<double> got(p.demand.size(), 0.0);
      const core::WaterfillStats sp =
          par_solver.solve(p.capacity, p.offsets, p.resources, p.demand, got, par);
      EXPECT_EQ(sp.rounds, ss.rounds) << workers << " workers rep " << rep;
      EXPECT_EQ(sp.partitions, ss.partitions);
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(double)))
          << workers << " workers rep " << rep;
    }
  }
}

TEST(WaterfillPartition, RandomProblemsMatchNaiveUnderPartitioning) {
  // Generic random problems (usually one component, sometimes more):
  // partitioning enabled at threshold 1 must still match the reference.
  core::WaterfillSolver solver;
  for (std::uint64_t seed = 300; seed < 330; ++seed) {
    const Problem p = random_problem(seed);
    core::WaterfillOptions opt;
    opt.monotone_level = true;
    opt.partition_min_flows = 1;
    std::vector<double> rates(p.demand.size(), 0.0);
    solver.solve(p.capacity, p.offsets, p.resources, p.demand, rates, opt);
    const std::vector<double> want = naive_waterfill(p, opt);
    for (std::size_t f = 0; f < rates.size(); ++f) {
      EXPECT_NEAR(rates[f], want[f], 1e-9) << "seed " << seed << " flow " << f;
    }
  }
}

TEST(WaterfillPartition, SaturableSharedResourcePreventsCutting) {
  // Two two-flow groups over private resources plus one shared resource
  // that genuinely saturates: the partitioner must refuse to cut it and
  // fall back to the monolithic kernel.
  const std::vector<double> capacity{10.0, 100.0, 100.0};
  const std::vector<std::size_t> offsets{0, 2, 4};
  const std::vector<std::uint32_t> resources{1, 0, 2, 0};
  const std::vector<double> demand{kInf, kInf};
  core::WaterfillOptions opt;
  opt.monotone_level = true;
  opt.partition_min_flows = 1;
  core::WaterfillSolver solver;
  std::vector<double> rates(2, 0.0);
  const core::WaterfillStats s =
      solver.solve(capacity, offsets, resources, demand, rates, opt);
  EXPECT_EQ(s.partitions, 1u);
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(PathCache, InvalidatedOnTopologyChange) {
  net::Network lan{"lan"};
  sim::Engine engine;
  const net::NodeId sw0 = lan.add_switch("sw0");
  const net::NodeId sw1 = lan.add_switch("sw1");
  const net::NodeId h0 = lan.add_host("h0");
  const net::NodeId h1 = lan.add_host("h1");
  lan.connect(h0, sw0, 100e6);
  lan.connect(h1, sw1, 100e6);
  const net::LinkId trunk = lan.connect(sw0, sw1, 1e9);
  lan.finalize();
  net::FlowEngine flows(engine, lan);

  const net::FlowId f1 = flows.start(net::FlowSpec{.src = h0, .dst = h1});
  EXPECT_EQ(flows.path_cache_misses(), 1u);
  EXPECT_DOUBLE_EQ(
      flows.directed_link_rate(trunk, true) + flows.directed_link_rate(trunk, false), 100e6);
  // A second resolution of the same (src, dst) pair hits the cache.
  (void)flows.current_rtt(h0, h1, 0.0);
  EXPECT_GE(flows.path_cache_hits(), 1u);
  flows.stop(f1);

  // Rehoming h0 onto sw1 bumps the topology version: the cached h0->h1
  // path through the trunk must not be reused by the next start.
  lan.move_host(h0, sw1, 100e6);
  const std::uint64_t misses_before = flows.path_cache_misses();
  const net::FlowId f2 = flows.start(net::FlowSpec{.src = h0, .dst = h1});
  EXPECT_EQ(flows.path_cache_misses(), misses_before + 1);
  EXPECT_DOUBLE_EQ(flows.rate(f2), 100e6);
  EXPECT_DOUBLE_EQ(
      flows.directed_link_rate(trunk, true) + flows.directed_link_rate(trunk, false), 0.0);
}

}  // namespace
}  // namespace remos
