// Tests for the caching subproblem P1: the flow solver, the paper's simplex
// route, and brute force must all agree (the constructive version of
// Theorem 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/caching.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::core {
namespace {

CachingSubproblem make_problem(std::size_t k, std::size_t w,
                               std::size_t capacity, double beta) {
  CachingSubproblem p;
  p.num_contents = k;
  p.horizon = w;
  p.capacity = capacity;
  p.beta = beta;
  p.initial.assign(k, 0);
  p.rewards.assign(k * w, 0.0);
  return p;
}

std::size_t cached_at(const CachingSolution& sol, std::size_t t,
                      std::size_t k_count) {
  std::size_t count = 0;
  for (std::size_t k = 0; k < k_count; ++k) count += sol.x[t * k_count + k];
  return count;
}

TEST(CachingP1, ZeroRewardsCacheNothing) {
  auto p = make_problem(4, 3, 2, 5.0);
  const auto sol = solve_caching_flow(p);
  EXPECT_DOUBLE_EQ(sol.objective, 0.0);
  for (const auto v : sol.x) EXPECT_EQ(v, 0);
}

TEST(CachingP1, HighRewardWorthTheInsertion) {
  auto p = make_problem(2, 1, 1, 5.0);
  p.rewards = {10.0, 1.0};  // content 0 worth caching, content 1 not
  const auto sol = solve_caching_flow(p);
  EXPECT_EQ(sol.x[0], 1);
  EXPECT_EQ(sol.x[1], 0);
  EXPECT_DOUBLE_EQ(sol.objective, 5.0 - 10.0);
}

TEST(CachingP1, RewardBelowBetaNotWorthIt) {
  auto p = make_problem(1, 1, 1, 5.0);
  p.rewards = {4.0};
  const auto sol = solve_caching_flow(p);
  EXPECT_EQ(sol.x[0], 0);
  EXPECT_DOUBLE_EQ(sol.objective, 0.0);
}

TEST(CachingP1, SpreadRewardAmortizesInsertion) {
  // Reward 2 per slot for 4 slots (total 8) vs insertion cost 5: cache it
  // once and keep it.
  auto p = make_problem(1, 4, 1, 5.0);
  p.rewards.assign(4, 2.0);
  const auto sol = solve_caching_flow(p);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(sol.x[t], 1);
  EXPECT_DOUBLE_EQ(sol.objective, 5.0 - 8.0);
}

TEST(CachingP1, InitialStateAvoidsCharge) {
  auto p = make_problem(2, 2, 1, 100.0);
  p.initial = {1, 0};
  // Small rewards: keeping the initially cached content is free.
  p.rewards = {1.0, 0.0, 1.0, 0.0};
  const auto sol = solve_caching_flow(p);
  EXPECT_EQ(sol.x[0], 1);
  EXPECT_EQ(sol.x[2], 1);
  EXPECT_DOUBLE_EQ(sol.objective, -2.0);
}

TEST(CachingP1, SwitchWhenGainExceedsBeta) {
  auto p = make_problem(2, 2, 1, 3.0);
  p.initial = {1, 0};
  // Content 1 becomes much better in slot 1.
  p.rewards = {5.0, 0.0, 0.0, 10.0};
  const auto sol = solve_caching_flow(p);
  EXPECT_EQ(sol.x[0 * 2 + 0], 1);
  EXPECT_EQ(sol.x[1 * 2 + 1], 1);
  EXPECT_DOUBLE_EQ(sol.objective, -5.0 + (3.0 - 10.0));
}

TEST(CachingP1, CapacityBindsPerSlot) {
  auto p = make_problem(3, 2, 1, 0.0);
  p.rewards = {3.0, 2.0, 1.0, 1.0, 2.0, 3.0};
  const auto sol = solve_caching_flow(p);
  EXPECT_EQ(cached_at(sol, 0, 3), 1u);
  EXPECT_EQ(cached_at(sol, 1, 3), 1u);
  EXPECT_EQ(sol.x[0 * 3 + 0], 1);  // best at t=0
  EXPECT_EQ(sol.x[1 * 3 + 2], 1);  // best at t=1 (beta = 0: free switch)
}

TEST(CachingP1, ZeroCapacityMeansNoCaching) {
  auto p = make_problem(3, 2, 0, 1.0);
  p.rewards.assign(6, 100.0);
  const auto sol = solve_caching_flow(p);
  for (const auto v : sol.x) EXPECT_EQ(v, 0);
}

TEST(CachingP1, ObjectiveEvaluatorMatchesDefinition) {
  auto p = make_problem(2, 2, 2, 7.0);
  p.initial = {1, 0};
  p.rewards = {1.0, 2.0, 3.0, 4.0};
  // Schedule: keep 0, insert 1 at t=0, drop 0 at t=1.
  const std::vector<std::uint8_t> x{1, 1, 0, 1};
  // Cost: insertion of 1 at t=0 (7) - rewards 1 + 2 + 4 = 7 - 7 = 0.
  EXPECT_DOUBLE_EQ(caching_objective(p, x), 0.0);
}

TEST(CachingP1, ValidatesInput) {
  auto p = make_problem(2, 2, 3, 1.0);  // capacity > K
  EXPECT_THROW(p.validate(), InvalidArgument);

  p = make_problem(2, 2, 1, -1.0);
  EXPECT_THROW(p.validate(), InvalidArgument);

  p = make_problem(2, 2, 1, 1.0);
  p.rewards[0] = -0.5;
  EXPECT_THROW(p.validate(), InvalidArgument);

  p = make_problem(2, 2, 1, 1.0);
  p.initial = {1, 1};  // over capacity
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(CachingP1, BruteForceRefusesLargeInstances) {
  auto p = make_problem(5, 5, 2, 1.0);
  EXPECT_THROW(solve_caching_brute_force(p), InvalidArgument);
}

TEST(CachingP1, SimplexMatchesFlowOnKnownInstance) {
  auto p = make_problem(3, 3, 2, 2.5);
  p.rewards = {4.0, 1.0, 0.0, 0.5, 3.0, 0.0, 0.0, 3.0, 2.9};
  const auto flow = solve_caching_flow(p);
  const auto simplex = solve_caching_simplex(p);
  EXPECT_NEAR(flow.objective, simplex.objective, 1e-7);
}

/// Property: on random instances all three solvers return the same optimum
/// and the flow/simplex schedules are feasible and integral.
class CachingCrossCheckTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CachingCrossCheckTest, FlowSimplexBruteForceAgree) {
  Rng rng(GetParam());
  // Draw (k, w) inside the k * w <= 12 budget the test keeps for brute
  // force, so every seed runs all three solvers.
  constexpr std::int64_t kMaxCells = 12;
  const std::size_t k = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const std::int64_t max_w =
      std::min<std::int64_t>(4, kMaxCells / static_cast<std::int64_t>(k));
  const std::size_t w =
      2 + static_cast<std::size_t>(rng.uniform_int(0, max_w - 2));
  const std::size_t capacity =
      1 + static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
  auto p = make_problem(k, w, capacity, rng.uniform(0.0, 4.0));
  std::size_t init_count = 0;
  for (std::size_t i = 0; i < k && init_count < capacity; ++i) {
    if (rng.bernoulli(0.4)) {
      p.initial[i] = 1;
      ++init_count;
    }
  }
  for (auto& reward : p.rewards) {
    reward = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 5.0);
  }

  const auto flow = solve_caching_flow(p);
  const auto simplex = solve_caching_simplex(p);
  const auto brute = solve_caching_brute_force(p);

  EXPECT_NEAR(flow.objective, brute.objective, 1e-6)
      << "flow vs brute force";
  EXPECT_NEAR(simplex.objective, brute.objective, 1e-6)
      << "simplex vs brute force";

  // Feasibility and integrality of the flow schedule.
  for (std::size_t t = 0; t < w; ++t) {
    EXPECT_LE(cached_at(flow, t, k), capacity);
    EXPECT_LE(cached_at(simplex, t, k), capacity);
  }
  // Reported objectives match re-evaluation.
  EXPECT_NEAR(caching_objective(p, flow.x), flow.objective, 1e-9);
  EXPECT_NEAR(caching_objective(p, simplex.x), simplex.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CachingCrossCheckTest,
                         ::testing::Range<std::uint64_t>(1, 41));

/// Property: on larger instances (brute force impossible) flow and simplex
/// still agree.
class CachingFlowVsSimplexTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CachingFlowVsSimplexTest, Agree) {
  Rng rng(GetParam() * 31 + 7);
  const std::size_t k = 6;
  const std::size_t w = 5;
  auto p = make_problem(k, w, 2, rng.uniform(0.5, 3.0));
  for (auto& reward : p.rewards) reward = rng.uniform(0.0, 2.0);
  const auto flow = solve_caching_flow(p);
  const auto simplex = solve_caching_simplex(p);
  EXPECT_NEAR(flow.objective, simplex.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CachingFlowVsSimplexTest,
                         ::testing::Range<std::uint64_t>(1, 16));

/// ShardCore binds each SBS's P1 over the window's content list only (the
/// union of demanded and cached contents), with capacity clamped to the
/// list: outside it every reward is zero and nothing is initially cached.
/// The restricted solve must match the full-catalogue flow exactly.
class CachingBankRestrictionTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CachingBankRestrictionTest, MatchesFullCatalogueFlow) {
  Rng rng(GetParam() * 17 + 3);
  const std::size_t k = 4 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  const std::size_t w = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  // Even seeds give the full catalogue's capacity, above the list size.
  const std::size_t capacity =
      GetParam() % 2 == 0
          ? k
          : static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(k)));
  std::vector<std::size_t> list;
  for (std::size_t c = 0; c < k; ++c) {
    if (rng.bernoulli(0.5)) list.push_back(c);
  }
  auto full = make_problem(k, w, capacity, rng.uniform(0.1, 3.0));
  std::size_t init_count = 0;
  for (const std::size_t c : list) {
    if (init_count < capacity && rng.bernoulli(0.4)) {
      full.initial[c] = 1;
      ++init_count;
    }
  }
  // Strictly positive rewards on the list keep the optimum unique.
  for (std::size_t t = 0; t < w; ++t) {
    for (const std::size_t c : list) {
      full.rewards[t * k + c] = rng.uniform(0.01, 5.0);
    }
  }

  const std::size_t kp = list.size();
  std::vector<std::uint8_t> initial(kp);
  for (std::size_t i = 0; i < kp; ++i) initial[i] = full.initial[list[i]];
  CachingBank bank;
  bank.reset(1);
  bank.bind(0, kp, w, capacity, full.beta, std::move(initial));
  linalg::Vec& rewards = bank.clear_rewards(0);
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t i = 0; i < kp; ++i) {
      rewards[t * kp + i] = full.rewards[t * k + list[i]];
    }
  }
  bank.solve(0);

  const CachingSolution reference = solve_caching_flow(full);
  EXPECT_EQ(bank.objectives()[0], reference.objective);
  const std::vector<std::uint8_t>& x = bank.x()[0];
  ASSERT_EQ(x.size(), kp * w);
  for (std::size_t t = 0; t < w; ++t) {
    std::size_t i = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const bool listed = i < kp && list[i] == c;
      const std::uint8_t expected = listed ? x[t * kp + i] : 0;
      EXPECT_EQ(reference.x[t * k + c], expected)
          << "slot " << t << ", content " << c
          << (listed ? " (listed)" : " (unlisted)");
      if (listed) ++i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CachingBankRestrictionTest,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace mdo::core
