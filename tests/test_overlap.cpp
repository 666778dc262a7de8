// Tests for the overlapping-coverage extension: model, projections, P2,
// and the primal-dual solver — cross-checked against brute force on tiny
// instances.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "overlap/primal_dual.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::overlap {
namespace {

/// Two SBSs; class 0 reaches both, classes 1/2 reach one each.
OverlapConfig small_config(std::size_t contents = 3) {
  OverlapConfig config;
  config.num_contents = contents;
  config.sbs = {SbsParams{.cache_capacity = 1, .bandwidth = 2.0,
                          .replacement_beta = 1.0},
                SbsParams{.cache_capacity = 1, .bandwidth = 1.5,
                          .replacement_beta = 2.0}};
  config.classes = {
      OverlapMuClass{.omega_bs = 1.0, .neighbors = {0, 1}, .omega_sbs = {0.0, 0.0}},
      OverlapMuClass{.omega_bs = 0.7, .neighbors = {0}, .omega_sbs = {0.0}},
      OverlapMuClass{.omega_bs = 0.4, .neighbors = {1}, .omega_sbs = {0.0}},
  };
  return config;
}

ClassDemand uniform_demand(const OverlapConfig& config, double rate) {
  ClassDemand demand(config.num_classes(), config.num_contents);
  for (auto& v : demand.data()) v = rate;
  return demand;
}

// ------------------------------------------------------------------ model ----

TEST(OverlapModel, ValidatesConfig) {
  EXPECT_NO_THROW(small_config().validate());

  auto bad = small_config();
  bad.classes[0].neighbors = {0, 0};  // duplicate
  bad.classes[0].omega_sbs = {0.0, 0.0};
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = small_config();
  bad.classes[1].neighbors = {7};  // out of range
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = small_config();
  bad.classes[0].omega_sbs = {0.0};  // size mismatch
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(OverlapModel, LayoutEnumeratesLinks) {
  const auto config = small_config();
  const OverlapLayout layout(config);
  EXPECT_EQ(layout.num_links(), 4u);  // 2 + 1 + 1
  EXPECT_EQ(layout.links_of_class(0).size(), 2u);
  EXPECT_EQ(layout.links_of_sbs(0).size(), 2u);  // class 0 and class 1
  EXPECT_EQ(layout.links_of_sbs(1).size(), 2u);  // class 0 and class 2
  EXPECT_EQ(layout.y_size(), 4u * config.num_contents);
}

TEST(OverlapModel, BsCostAtZeroIsWholeCellSquare) {
  const auto config = small_config();
  const OverlapLayout layout(config);
  const auto demand = uniform_demand(config, 1.0);
  const linalg::Vec y(layout.y_size(), 0.0);
  // a = (1.0 + 0.7 + 0.4) * 3 = 6.3; cost = a^2.
  EXPECT_NEAR(bs_cost(config, layout, demand, y), 6.3 * 6.3, 1e-9);
}

TEST(OverlapModel, ServingFromEitherNeighborReducesBsCost) {
  const auto config = small_config();
  const OverlapLayout layout(config);
  const auto demand = uniform_demand(config, 1.0);
  linalg::Vec via_first(layout.y_size(), 0.0);
  linalg::Vec via_second(layout.y_size(), 0.0);
  via_first[layout.index(layout.links_of_class(0)[0], 0)] = 1.0;
  via_second[layout.index(layout.links_of_class(0)[1], 0)] = 1.0;
  const double base =
      bs_cost(config, layout, demand, linalg::Vec(layout.y_size(), 0.0));
  EXPECT_LT(bs_cost(config, layout, demand, via_first), base);
  // Both neighbors offload the same traffic: identical BS cost.
  EXPECT_NEAR(bs_cost(config, layout, demand, via_first),
              bs_cost(config, layout, demand, via_second), 1e-12);
}

TEST(OverlapModel, ReplacementCostAndInsertions) {
  const auto config = small_config();
  auto prev = empty_cache(config);
  auto now = empty_cache(config);
  now[0][1] = 1;
  now[1][2] = 1;
  EXPECT_EQ(cache_insertions(now, prev), 2u);
  EXPECT_DOUBLE_EQ(replacement_cost(config, now, prev), 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(replacement_cost(config, prev, now), 0.0);
}

TEST(OverlapModel, FeasibilityChecksAllFamilies) {
  const auto config = small_config();
  const OverlapLayout layout(config);
  const auto demand = uniform_demand(config, 1.0);
  OverlapDecision decision;
  decision.cache = empty_cache(config);
  decision.y.assign(layout.y_size(), 0.0);
  EXPECT_TRUE(is_feasible(config, layout, demand, decision));

  // y on an uncached content.
  decision.y[layout.index(0, 0)] = 0.5;
  EXPECT_FALSE(is_feasible(config, layout, demand, decision));
  decision.cache[layout.link(0).second][0] = 1;
  EXPECT_TRUE(is_feasible(config, layout, demand, decision));

  // Per-class share > 1 for class 0, content 0.
  const auto& class0 = layout.links_of_class(0);
  decision.cache[layout.link(class0[0]).second][0] = 1;
  decision.cache[layout.link(class0[1]).second][0] = 1;
  decision.y[layout.index(class0[0], 0)] = 0.7;
  decision.y[layout.index(class0[1], 0)] = 0.7;
  EXPECT_FALSE(is_feasible(config, layout, demand, decision));
}

// ------------------------------------------------------------- projection ----

class OverlapProjectionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapProjectionTest, FeasibleIdempotentAndNotBeatenBySamples) {
  Rng rng(GetParam());
  const auto config = small_config();
  const OverlapLayout layout(config);
  ClassDemand demand(config.num_classes(), config.num_contents);
  for (auto& v : demand.data()) v = rng.uniform(0.0, 1.5);
  linalg::Vec ub(layout.y_size());
  for (auto& b : ub) b = rng.bernoulli(0.2) ? 0.0 : 1.0;
  OverlapFeasibleSet set;
  set.rebind(config, layout, demand, ub);

  linalg::Vec point(layout.y_size());
  for (auto& v : point) v = rng.uniform(-0.5, 1.8);

  OverlapFeasibleSet::ProjectionScratch scratch;
  linalg::Vec projected, twice;
  set.project_with(point, projected, 200, 1e-11, scratch);
  EXPECT_TRUE(set.contains(projected, 1e-5));

  set.project_with(projected, twice, 200, 1e-11, scratch);
  for (std::size_t j = 0; j < projected.size(); ++j) {
    EXPECT_NEAR(twice[j], projected[j], 1e-4);
  }

  // No sampled feasible point is closer to the original point.
  double best = 0.0;
  for (std::size_t j = 0; j < projected.size(); ++j) {
    const double d = projected[j] - point[j];
    best += d * d;
  }
  Rng sampler(GetParam() + 5);
  for (int trial = 0; trial < 150; ++trial) {
    linalg::Vec candidate(point.size());
    for (std::size_t j = 0; j < candidate.size(); ++j) {
      candidate[j] = sampler.uniform(0.0, ub[j]);
    }
    if (!set.contains(candidate, 0.0)) continue;
    double dist = 0.0;
    for (std::size_t j = 0; j < candidate.size(); ++j) {
      const double d = candidate[j] - point[j];
      dist += d * d;
    }
    EXPECT_GE(dist, best - 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPoints, OverlapProjectionTest,
                         ::testing::Range<std::uint64_t>(1, 16));

// ------------------------------------------------------------------- P2 ----

TEST(OverlapP2, SharedClassUsesBothNeighborsUnderScarcity) {
  // Class 0 has 3 units of demand per content but each SBS alone lacks the
  // bandwidth; the optimal split uses both.
  auto config = small_config(1);
  config.classes[1].omega_bs = 0.0;  // mute the side classes
  config.classes[2].omega_bs = 0.0;
  const OverlapLayout layout(config);
  ClassDemand demand(config.num_classes(), 1);
  demand.at(0, 0) = 3.0;

  OverlapP2Workspace ws;
  ws.bind(config, layout, demand);
  solve_overlap_load_balancing(ws, {});

  const auto& class0 = layout.links_of_class(0);
  const double y0 = ws.y()[layout.index(class0[0], 0)];
  const double y1 = ws.y()[layout.index(class0[1], 0)];
  EXPECT_GT(y0, 0.1);
  EXPECT_GT(y1, 0.1);
  // Bandwidths: 2.0 / 1.5 over demand 3 -> shares <= 2/3 and 1/2.
  EXPECT_LE(3.0 * y0, 2.0 + 1e-5);
  EXPECT_LE(3.0 * y1, 1.5 + 1e-5);
  // Everything servable is served (total demand 3 < combined bandwidth 3.5
  // but share sum <= 1 caps at exactly full service).
  EXPECT_NEAR(y0 + y1, 1.0, 1e-3);
}

/// Property: the P2 solution beats random feasible samples.
class OverlapP2RandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapP2RandomTest, BeatsRandomFeasiblePoints) {
  Rng rng(GetParam() * 13 + 1);
  auto config = small_config(2);
  // Occasionally give the SBS side a non-zero weight too.
  config.classes[0].omega_sbs = {rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)};
  const OverlapLayout layout(config);
  ClassDemand demand(config.num_classes(), 2);
  for (auto& v : demand.data()) v = rng.uniform(0.0, 2.0);

  linalg::Vec linear(layout.y_size());
  for (auto& c : linear) c = rng.uniform(0.0, 0.8);
  OverlapP2Workspace ws;
  ws.bind(config, layout, demand);
  ws.set_linear(linear.data(), linear.data() + linear.size());

  OverlapP2Options tight;
  tight.first_order.max_iterations = 2000;
  tight.first_order.gradient_tolerance = 1e-9;
  tight.dykstra_iterations = 200;
  const auto sol = solve_overlap_load_balancing(ws, tight);
  EXPECT_EQ(ws.objective(ws.y()), sol.objective);

  OverlapFeasibleSet set;
  set.rebind(config, layout, demand, linalg::Vec(layout.y_size(), 1.0));
  EXPECT_TRUE(set.contains(ws.y(), 1e-4));

  Rng sampler(GetParam() + 99);
  for (int trial = 0; trial < 150; ++trial) {
    linalg::Vec candidate(layout.y_size());
    for (auto& v : candidate) v = sampler.uniform(0.0, 1.0);
    if (!set.contains(candidate, 0.0)) continue;
    EXPECT_GE(ws.objective(candidate), sol.objective - 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, OverlapP2RandomTest,
                         ::testing::Range<std::uint64_t>(1, 16));

// ------------------------------------------------------------ primal-dual ----

OverlapHorizonProblem horizon_problem(const OverlapConfig& config,
                                      const OverlapLayout& layout,
                                      std::uint64_t seed, std::size_t slots) {
  OverlapHorizonProblem problem;
  problem.config = &config;
  problem.layout = &layout;
  Rng rng(seed);
  for (std::size_t t = 0; t < slots; ++t) {
    ClassDemand demand(config.num_classes(), config.num_contents);
    for (auto& v : demand.data()) v = rng.uniform(0.0, 2.0);
    problem.demand.push_back(std::move(demand));
  }
  problem.initial = empty_cache(config);
  return problem;
}

TEST(OverlapPrimalDual, ProducesFeasibleScheduleWithOrderedBounds) {
  const auto config = small_config();
  const OverlapLayout layout(config);
  const auto problem = horizon_problem(config, layout, 3, 3);
  const auto solution = OverlapPrimalDualSolver().solve(problem);
  ASSERT_EQ(solution.schedule.size(), 3u);
  EXPECT_LE(solution.lower_bound, solution.upper_bound + 1e-9);
  for (std::size_t t = 0; t < 3; ++t) {
    OverlapDecision decision = solution.schedule[t];
    EXPECT_TRUE(
        is_feasible(config, layout, problem.demand[t], decision, 1e-4))
        << "slot " << t;
  }
  // The reported upper bound is the schedule's true cost.
  EXPECT_NEAR(schedule_cost(config, layout, problem.demand,
                            solution.schedule, problem.initial),
              solution.upper_bound, 1e-9);
}

TEST(OverlapPrimalDual, DeterministicAcrossRuns) {
  const auto config = small_config();
  const OverlapLayout layout(config);
  const auto problem = horizon_problem(config, layout, 7, 2);
  const auto a = OverlapPrimalDualSolver().solve(problem);
  const auto b = OverlapPrimalDualSolver().solve(problem);
  EXPECT_DOUBLE_EQ(a.upper_bound, b.upper_bound);
}

/// A reused solver must give the same bits as a fresh one on every
/// window, whatever it solved before: each solve binds its P2 bank cold,
/// so slot t of one window never warm-starts from slot t of the last.
TEST(OverlapPrimalDual, SolvesDoNotDependOnSolverHistory) {
  const auto config = small_config(4);
  const OverlapLayout layout(config);
  const auto trace = horizon_problem(config, layout, 13, 8);
  OverlapPrimalDualSolver reused;
  OverlapCache start = trace.initial;
  const std::pair<std::size_t, std::size_t> windows[] = {
      {0, 3}, {1, 3}, {5, 3}, {6, 2}, {2, 4}, {3, 4}};
  for (const auto& [first, length] : windows) {
    OverlapHorizonProblem problem;
    problem.config = &config;
    problem.layout = &layout;
    problem.demand.assign(trace.demand.begin() + first,
                          trace.demand.begin() + first + length);
    problem.initial = start;
    const auto got = reused.solve(problem);
    const auto want = OverlapPrimalDualSolver().solve(problem);
    SCOPED_TRACE("window [" + std::to_string(first) + ", " +
                 std::to_string(first + length) + ")");
    EXPECT_EQ(got.upper_bound, want.upper_bound);
    EXPECT_EQ(got.lower_bound, want.lower_bound);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.mu, want.mu);
    ASSERT_EQ(got.schedule.size(), want.schedule.size());
    for (std::size_t t = 0; t < got.schedule.size(); ++t) {
      EXPECT_EQ(got.schedule[t].cache, want.schedule[t].cache) << "slot " << t;
      EXPECT_EQ(got.schedule[t].y, want.schedule[t].y) << "slot " << t;
    }
    start = got.schedule.front().cache;
  }
}

/// Brute force: enumerate all feasible cache sequences (tiny instance),
/// solve each slot's y by tight P2 with ub = x, and take the best.
double brute_force_optimum(const OverlapConfig& config,
                           const OverlapLayout& layout,
                           const OverlapHorizonProblem& problem) {
  const std::size_t k_count = config.num_contents;
  // Enumerate per-SBS cache sets (|set| <= capacity).
  std::vector<std::vector<std::uint32_t>> sets(config.num_sbs());
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    for (std::uint32_t mask = 0; mask < (1u << k_count); ++mask) {
      if (static_cast<std::size_t>(__builtin_popcount(mask)) <=
          config.sbs[n].cache_capacity) {
        sets[n].push_back(mask);
      }
    }
  }
  // Joint combos across SBSs.
  std::vector<std::vector<std::uint32_t>> combos;
  std::vector<std::uint32_t> current(config.num_sbs(), 0);
  std::function<void(std::size_t)> recurse = [&](std::size_t n) {
    if (n == config.num_sbs()) {
      combos.push_back(current);
      return;
    }
    for (const auto mask : sets[n]) {
      current[n] = mask;
      recurse(n + 1);
    }
  };
  recurse(0);

  OverlapP2Options tight;
  tight.first_order.max_iterations = 2000;
  tight.first_order.gradient_tolerance = 1e-9;
  tight.dykstra_iterations = 150;

  // opcost[t][combo]
  const std::size_t slots = problem.horizon();
  std::vector<std::vector<double>> opcost(slots,
                                          std::vector<double>(combos.size()));
  OverlapP2Workspace ws;
  linalg::Vec upper;
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::size_t s = 0; s < combos.size(); ++s) {
      ws.bind(config, layout, problem.demand[t]);  // every set solves cold
      upper.assign(layout.y_size(), 0.0);
      for (std::size_t id = 0; id < layout.num_links(); ++id) {
        const auto [m, n] = layout.link(id);
        (void)m;
        for (std::size_t k = 0; k < k_count; ++k) {
          if ((combos[s][n] >> k) & 1u) upper[layout.index(id, k)] = 1.0;
        }
      }
      ws.set_upper(upper);
      opcost[t][s] = solve_overlap_load_balancing(ws, tight).objective;
    }
  }
  // DP over slots with replacement transition costs.
  auto transition = [&](const std::vector<std::uint32_t>& from,
                        const std::vector<std::uint32_t>& to) {
    double cost = 0.0;
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      cost += config.sbs[n].replacement_beta *
              __builtin_popcount(to[n] & ~from[n]);
    }
    return cost;
  };
  std::vector<std::uint32_t> initial(config.num_sbs(), 0);
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    for (std::size_t k = 0; k < k_count; ++k) {
      if (problem.initial[n][k]) initial[n] |= (1u << k);
    }
  }
  std::vector<double> value(combos.size());
  for (std::size_t s = 0; s < combos.size(); ++s) {
    value[s] = opcost[0][s] + transition(initial, combos[s]);
  }
  for (std::size_t t = 1; t < slots; ++t) {
    std::vector<double> next(combos.size(),
                             std::numeric_limits<double>::infinity());
    for (std::size_t s = 0; s < combos.size(); ++s) {
      for (std::size_t prev = 0; prev < combos.size(); ++prev) {
        next[s] = std::min(next[s],
                           value[prev] + transition(combos[prev], combos[s]));
      }
      next[s] += opcost[t][s];
    }
    value = std::move(next);
  }
  return *std::min_element(value.begin(), value.end());
}

class OverlapVsBruteForceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapVsBruteForceTest, PrimalDualNearBruteForceOptimum) {
  auto config = small_config(2);  // K = 2 keeps enumeration tiny
  const OverlapLayout layout(config);
  const auto problem = horizon_problem(config, layout, GetParam(), 2);

  OverlapPrimalDualOptions options;
  options.max_iterations = 40;
  const auto pd = OverlapPrimalDualSolver(options).solve(problem);
  const double exact = brute_force_optimum(config, layout, problem);

  EXPECT_GE(pd.upper_bound, exact - 1e-3);
  EXPECT_LE(pd.lower_bound, exact + 1e-3);
  EXPECT_LE(pd.upper_bound, exact * 1.08 + 1e-6)
      << "overlap primal-dual more than 8% above brute force";
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, OverlapVsBruteForceTest,
                         ::testing::Range<std::uint64_t>(40, 48));

}  // namespace
}  // namespace mdo::overlap
