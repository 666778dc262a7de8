// Tests for the CHC rounding policy (Theorem 3).
#include <gtest/gtest.h>

#include <cmath>

#include "core/rounding.hpp"
#include "util/error.hpp"

namespace mdo::core {
namespace {

model::NetworkConfig config_with(std::size_t contents, std::size_t capacity) {
  model::NetworkConfig config;
  config.num_contents = contents;
  model::SbsConfig sbs;
  sbs.cache_capacity = capacity;
  sbs.bandwidth = 10.0;
  sbs.replacement_beta = 1.0;
  sbs.classes = {model::MuClass{1.0, 0.0}};
  config.sbs.push_back(sbs);
  return config;
}

TEST(Rounding, ThresholdIsGoldenRatioConjugate) {
  const double rho = chc_rounding_threshold();
  EXPECT_NEAR(rho, (3.0 - std::sqrt(5.0)) / 2.0, 1e-15);
  // The optimum balances 1/rho with 1/(1-rho)^2.
  EXPECT_NEAR(1.0 / rho, 1.0 / ((1.0 - rho) * (1.0 - rho)), 1e-9);
  // And the resulting approximation ratio is the paper's 2.62.
  EXPECT_NEAR(chc_approximation_ratio(rho), 2.618, 1e-3);
}

TEST(Rounding, ApproximationRatioMinimizedAtThreshold) {
  const double rho_star = chc_rounding_threshold();
  const double best = chc_approximation_ratio(rho_star);
  for (double rho = 0.05; rho < 1.0; rho += 0.05) {
    EXPECT_GE(chc_approximation_ratio(rho), best - 1e-9) << "rho=" << rho;
  }
}

TEST(Rounding, RatioFormula) {
  // At rho = 0.5: max{2, 4, 4} = 4.
  EXPECT_NEAR(chc_approximation_ratio(0.5), 4.0, 1e-12);
  // At rho = 0.9: max{1.11.., 1.23.., 100} = 100.
  EXPECT_NEAR(chc_approximation_ratio(0.9), 100.0, 1e-9);
  EXPECT_THROW(chc_approximation_ratio(0.0), InvalidArgument);
  EXPECT_THROW(chc_approximation_ratio(1.0), InvalidArgument);
}

TEST(Rounding, ThresholdsAtRho) {
  const auto config = config_with(4, 4);
  const double rho = 0.4;
  const auto cache =
      round_cache(config, {{0.39, 0.4, 0.41, 1.0}}, rho);
  EXPECT_FALSE(cache.cached(0, 0));
  EXPECT_TRUE(cache.cached(0, 1));  // >= rho includes equality (policy (i))
  EXPECT_TRUE(cache.cached(0, 2));
  EXPECT_TRUE(cache.cached(0, 3));
}

TEST(Rounding, CapacityCapKeepsLargest) {
  const auto config = config_with(4, 2);
  const auto cache =
      round_cache(config, {{0.5, 0.9, 0.8, 0.6}}, 0.4);
  EXPECT_EQ(cache.count(0), 2u);
  EXPECT_TRUE(cache.cached(0, 1));
  EXPECT_TRUE(cache.cached(0, 2));
}

TEST(Rounding, TieBreaksByLowerIndex) {
  const auto config = config_with(3, 1);
  const auto cache = round_cache(config, {{0.7, 0.7, 0.7}}, 0.5);
  EXPECT_EQ(cache.count(0), 1u);
  EXPECT_TRUE(cache.cached(0, 0));
}

TEST(Rounding, ValidatesInput) {
  const auto config = config_with(2, 1);
  EXPECT_THROW(round_cache(config, {{0.5, 0.5}}, 0.0), InvalidArgument);
  EXPECT_THROW(round_cache(config, {{0.5, 0.5}}, 1.0), InvalidArgument);
  EXPECT_THROW(round_cache(config, {{1.5, 0.5}}, 0.5), InvalidArgument);
  EXPECT_THROW(round_cache(config, {{0.5}}, 0.5), InvalidArgument);
  EXPECT_THROW(round_cache(config, {}, 0.5), InvalidArgument);
}

TEST(Rounding, MaskZeroesUncachedLoad) {
  const auto config = config_with(3, 2);
  model::CacheState cache(config);
  cache.set(0, 1, true);
  model::LoadAllocation load(config);
  load.set(0, 0, 0, 0.5);
  load.set(0, 0, 1, 0.5);
  load.set(0, 0, 2, 0.5);
  mask_load_by_cache(config, cache, load);
  EXPECT_DOUBLE_EQ(load.at(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(load.at(0, 0, 1), 0.5);
  EXPECT_DOUBLE_EQ(load.at(0, 0, 2), 0.0);
}

/// Property: the rounded cache is always capacity-feasible and contains
/// exactly the >= rho values when they fit.
class RoundingSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(RoundingSweepTest, FeasibleForAnyRho) {
  const double rho = GetParam();
  const auto config = config_with(6, 3);
  const std::vector<linalg::Vec> fractional{
      {0.1, 0.35, 0.5, 0.62, 0.8, 1.0}};
  const auto cache = round_cache(config, fractional, rho);
  EXPECT_LE(cache.count(0), 3u);
  std::size_t eligible = 0;
  for (const double v : fractional[0]) eligible += (v >= rho);
  EXPECT_EQ(cache.count(0), std::min<std::size_t>(eligible, 3));
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, RoundingSweepTest,
                         ::testing::Values(0.05, 0.2, 0.382, 0.5, 0.7, 0.95));

}  // namespace
}  // namespace mdo::core
