// Tests for the load-balancing subproblem P2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/load_balancing.hpp"
#include "model/decision.hpp"
#include "model/sparse_demand.hpp"
#include "solver/first_order.hpp"
#include "solver/projection.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::core {
namespace {

struct Fixture {
  model::SbsConfig sbs;
  model::SbsDemand demand;

  Fixture(std::size_t classes, std::size_t contents, double bandwidth)
      : demand(classes, contents) {
    sbs.cache_capacity = contents;
    sbs.bandwidth = bandwidth;
    sbs.replacement_beta = 1.0;
    sbs.classes.assign(classes, model::MuClass{1.0, 0.0});
  }

  std::vector<std::size_t> all_contents() const {
    std::vector<std::size_t> all(demand.num_contents());
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }

  /// ShardCore's binding of a cell: the demand support plus the contents
  /// cached at the SBS (model::active_contents).
  std::vector<std::size_t> active_contents(
      const std::vector<std::size_t>& cached) const {
    model::NetworkConfig config;
    config.num_contents = demand.num_contents();
    config.sbs = {sbs};
    model::CacheState cache(config);
    for (const std::size_t k : cached) cache.set(0, k, true);
    return model::active_contents(model::SparseSbsDemand::from_dense(demand),
                                  cache.cached_contents(0));
  }

  /// Binds `ws` over `contents`; the coefficient layout is then
  /// m * |contents| + i.
  void bind_over(P2Workspace& ws,
                 const std::vector<std::size_t>& contents) const {
    ws.bind_active(sbs, model::SparseSbsDemand::from_dense(demand), contents);
  }

  /// Binds `ws` over the whole catalogue (layout m * K + k) with linear
  /// term `linear` and box bound `upper`; empty keeps the bind's zero and
  /// all-ones.
  void bind(P2Workspace& ws, const linalg::Vec& linear = {},
            const linalg::Vec& upper = {}) const {
    bind_over(ws, all_contents());
    if (!linear.empty()) {
      ws.set_linear(linear.data(), linear.data() + linear.size());
    }
    if (!upper.empty()) ws.set_upper(upper);
  }
};

TEST(LoadBalancing, ServesEverythingWhenBandwidthAmple) {
  // One class, one content, plenty of bandwidth: f = (a - u y)^2 minimized
  // at y = 1 (a = u here).
  Fixture fx(1, 1, 100.0);
  fx.demand.at(0, 0) = 3.0;
  P2Workspace ws;
  fx.bind(ws);
  const auto out = solve_load_balancing(ws);
  EXPECT_NEAR(ws.y()[0], 1.0, 1e-4);
  EXPECT_NEAR(out.objective, 0.0, 1e-4);
}

TEST(LoadBalancing, BandwidthCapBinds) {
  Fixture fx(1, 1, 1.0);  // bandwidth 1 < demand 3
  fx.demand.at(0, 0) = 3.0;
  P2Workspace ws;
  fx.bind(ws);
  const auto out = solve_load_balancing(ws);
  // lambda y <= 1 -> y <= 1/3; the BS term decreases in y so y* = 1/3.
  EXPECT_NEAR(ws.y()[0], 1.0 / 3.0, 1e-4);
  EXPECT_NEAR(out.objective, (3.0 - 1.0) * (3.0 - 1.0), 1e-3);
}

TEST(LoadBalancing, UpperBoundFromCachingRespected) {
  Fixture fx(1, 2, 100.0);
  fx.demand.at(0, 0) = 2.0;
  fx.demand.at(0, 1) = 2.0;
  P2Workspace ws;
  fx.bind(ws, {}, {1.0, 0.0});  // content 1 not cached
  solve_load_balancing(ws);
  EXPECT_NEAR(ws.y()[0], 1.0, 1e-4);
  EXPECT_NEAR(ws.y()[1], 0.0, 1e-8);
}

TEST(LoadBalancing, PrioritizesHighOmegaClassesUnderScarcity) {
  Fixture fx(2, 1, 2.0);
  fx.sbs.classes[0].omega_bs = 1.0;
  fx.sbs.classes[1].omega_bs = 0.1;
  fx.demand.at(0, 0) = 2.0;
  fx.demand.at(1, 0) = 2.0;
  P2Workspace ws;
  fx.bind(ws);
  solve_load_balancing(ws);
  // Only 2 units of bandwidth for 4 units of demand: serve the expensive
  // class first.
  EXPECT_GT(ws.y()[0], 0.95);
  EXPECT_LT(ws.y()[1], 0.05);
}

TEST(LoadBalancing, LinearTermDiscouragesService) {
  Fixture fx(1, 1, 100.0);
  fx.demand.at(0, 0) = 1.0;
  // Gradient of (1 - y)^2 at y is -2(1-y); with c = 3 > 2 the multiplier
  // dominates everywhere and y* = 0.
  P2Workspace ws;
  fx.bind(ws, {3.0});
  solve_load_balancing(ws);
  EXPECT_NEAR(ws.y()[0], 0.0, 1e-4);
}

TEST(LoadBalancing, LinearTermPartialInterior) {
  Fixture fx(1, 1, 100.0);
  fx.demand.at(0, 0) = 1.0;
  // Stationarity: -2(1 - y) + c = 0 -> y = 1 - c/2 = 0.4 for c = 1.2.
  P2Workspace ws;
  fx.bind(ws, {1.2});
  solve_load_balancing(ws);
  EXPECT_NEAR(ws.y()[0], 0.4, 1e-3);
}

TEST(LoadBalancing, SbsCostTermPullsDown) {
  Fixture fx(1, 1, 100.0);
  fx.sbs.classes[0].omega_sbs = 1.0;  // same weight both sides
  fx.demand.at(0, 0) = 1.0;
  P2Workspace ws;
  fx.bind(ws);
  solve_load_balancing(ws);
  // min (1-y)^2 + y^2 -> y = 0.5.
  EXPECT_NEAR(ws.y()[0], 0.5, 1e-3);
}

TEST(LoadBalancing, ZeroDemandDegenerates) {
  Fixture fx(2, 2, 1.0);
  P2Workspace ws;
  fx.bind(ws);
  const auto out = solve_load_balancing(ws);
  EXPECT_EQ(out.status, solver::SolveStatus::kConverged);
  for (const double y : ws.y()) EXPECT_DOUBLE_EQ(y, 0.0);
  EXPECT_DOUBLE_EQ(out.objective, 0.0);
}

TEST(LoadBalancing, WarmStartGivesSameAnswer) {
  // A solve reads no earlier solution: a workspace that already solved
  // under another linear term gives the cold answer bit for bit, on the
  // r step (omega_sbs > 0) with a binding bandwidth row.
  Fixture fx(3, 4, 2.0);
  fx.sbs.classes.assign(3, model::MuClass{1.0, 0.3});
  Rng rng(5);
  for (auto& v : fx.demand.data()) v = rng.uniform(0.0, 2.0);
  P2Workspace cold, warm;
  fx.bind(cold);
  const auto cold_out = solve_load_balancing(cold);

  // The warm workspace first solves under another linear term, then starts
  // the zero-term solve from that solution within the same binding.
  linalg::Vec c(12);
  for (auto& v : c) v = rng.uniform(0.0, 0.5);
  fx.bind(warm, c);
  solve_load_balancing(warm);
  ASSERT_EQ(warm.y().size(), 12u);
  const linalg::Vec zero(12, 0.0);
  warm.set_linear(zero.data(), zero.data() + zero.size());
  const auto warm_out = solve_load_balancing(warm);
  EXPECT_GT(warm_out.iterations, 1u);  // the bisections ran
  EXPECT_EQ(std::memcmp(&warm_out.objective, &cold_out.objective,
                        sizeof(double)),
            0);
  ASSERT_EQ(warm.y().size(), cold.y().size());
  EXPECT_EQ(std::memcmp(warm.y().data(), cold.y().data(),
                        sizeof(double) * cold.y().size()),
            0);
}

TEST(LoadBalancing, ObjectiveEvaluatorConsistent) {
  Fixture fx(2, 2, 10.0);
  fx.demand.at(0, 0) = 1.0;
  fx.demand.at(0, 1) = 2.0;
  fx.demand.at(1, 0) = 0.5;
  P2Workspace ws;
  fx.bind(ws, {0.1, 0.2, 0.3, 0.4});
  const linalg::Vec y{0.5, 0.25, 1.0, 0.0};
  // a = 1 + 2 + 0.5 = 3.5; u.y = 0.5 + 0.5 + 0.5 = 1.5; c.y = 0.1*0.5 +
  // 0.2*0.25 + 0.3*1 = 0.4.
  EXPECT_NEAR(load_balancing_objective(ws.coefficients(), y), 2.0 * 2.0 + 0.4,
              1e-12);
}

TEST(LoadBalancing, ValidatesInputs) {
  Fixture fx(1, 2, 1.0);
  P2Workspace ws;
  EXPECT_THROW(solve_load_balancing(ws), InvalidArgument);  // unbound
  fx.bind(ws);
  EXPECT_THROW(ws.set_upper({0.5}), InvalidArgument);  // wrong size
  EXPECT_THROW(ws.set_upper({1.5, 0.0}), InvalidArgument);  // outside [0, 1]
  const linalg::Vec linear{0.1};
  EXPECT_THROW(ws.set_linear(linear.data(), linear.data() + linear.size()),
               InvalidArgument);  // wrong size
  fx.sbs.classes.push_back(model::MuClass{1.0, 0.0});  // 2 classes, 1 row
  EXPECT_THROW(fx.bind(ws), InvalidArgument);
}

/// A random instance of the property tests below, bound either over the
/// whole catalogue or — as ShardCore binds a cell — over the compact active
/// set. The compact variant appends two zero-demand contents and caches the
/// first, so its active set is the demand support plus one cached-only
/// content: a strict subset of the catalogue.
struct RandomCell {
  Fixture fx;
  std::size_t contents;
  bool compact;

  RandomCell(std::size_t classes, std::size_t contents_, double bandwidth,
             bool compact_)
      : fx(classes, contents_ + (compact_ ? 2 : 0), bandwidth),
        contents(contents_),
        compact(compact_) {}

  /// Fills the demand of the first `contents` columns in row-major order.
  template <class Draw>
  void fill_demand(Draw draw) {
    for (std::size_t m = 0; m < fx.demand.num_classes(); ++m) {
      for (std::size_t k = 0; k < contents; ++k) fx.demand.at(m, k) = draw();
    }
  }

  /// Binds `ws` and returns its coordinate count.
  std::size_t bind(P2Workspace& ws) const {
    fx.bind_over(ws,
                 compact ? fx.active_contents({contents}) : fx.all_contents());
    if (compact) {
      EXPECT_LT(ws.coefficients().lambda.size(),
                fx.demand.num_classes() * fx.demand.num_contents());
    }
    return ws.coefficients().lambda.size();
  }
};

/// Property: the solution beats random feasible samples.
class LoadBalancingRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoadBalancingRandomTest, BeatsRandomFeasiblePoints) {
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact active set" : "whole catalogue");
    Rng rng(GetParam());
    const std::size_t classes =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    const std::size_t contents =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    RandomCell cell(classes, contents, rng.uniform(0.5, 5.0), compact);
    for (auto& mu : cell.fx.sbs.classes) {
      mu.omega_bs = rng.uniform(0.0, 1.0);
      mu.omega_sbs = rng.uniform(0.0, 0.2);
    }
    cell.fill_demand([&] { return rng.uniform(0.0, 2.0); });
    P2Workspace ws;
    const std::size_t size = cell.bind(ws);
    linalg::Vec linear(size), upper(size);
    for (auto& c : linear) c = rng.uniform(0.0, 1.0);
    for (auto& u : upper) u = rng.bernoulli(0.3) ? 0.0 : 1.0;
    ws.set_linear(linear.data(), linear.data() + size);
    ws.set_upper(upper);

    const auto out = solve_load_balancing(ws);
    const linalg::Vec& y = ws.y();
    const Coefficients& coeff = ws.coefficients();

    // Solution must be feasible.
    double load = 0.0;
    for (std::size_t j = 0; j < size; ++j) {
      EXPECT_GE(y[j], -1e-8);
      EXPECT_LE(y[j], upper[j] + 1e-8);
      load += coeff.lambda[j] * y[j];
    }
    EXPECT_LE(load, cell.fx.sbs.bandwidth + 1e-6);

    Rng sampler(GetParam() + 1234);
    for (int trial = 0; trial < 200; ++trial) {
      linalg::Vec candidate(size);
      double candidate_load = 0.0;
      for (std::size_t j = 0; j < size; ++j) {
        candidate[j] = sampler.uniform(0.0, upper[j]);
        candidate_load += coeff.lambda[j] * candidate[j];
      }
      if (candidate_load > cell.fx.sbs.bandwidth) continue;
      EXPECT_GE(load_balancing_objective(coeff, candidate),
                out.objective - 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LoadBalancingRandomTest,
                         ::testing::Range<std::uint64_t>(1, 31));

// ------------------------------------------------------------ exact KKT ----

TEST(ExactLoadBalancing, ApplicabilityDetection) {
  // Every omega_sbs zero and ample bandwidth: the solve is the single
  // theta = 0 stationary point.
  Fixture fx(2, 2, 100.0);
  fx.demand.at(0, 0) = 1.0;
  fx.demand.at(0, 1) = 0.5;
  fx.demand.at(1, 0) = 2.0;
  fx.demand.at(1, 1) = 0.25;
  P2Workspace ws;
  fx.bind(ws);
  EXPECT_EQ(solve_load_balancing(ws).iterations, 1u);
}

TEST(ExactLoadBalancing, MatchesClosedFormInterior) {
  Fixture fx(1, 1, 100.0);
  fx.demand.at(0, 0) = 1.0;
  P2Workspace ws;
  fx.bind(ws, {1.2});  // stationarity: y = 1 - c/2 = 0.4
  solve_load_balancing(ws);
  EXPECT_NEAR(ws.y()[0], 0.4, 1e-9);
}

TEST(ExactLoadBalancing, BandwidthBindingMatchesKkt) {
  Fixture fx(1, 1, 1.0);
  fx.demand.at(0, 0) = 3.0;
  P2Workspace ws;
  fx.bind(ws);
  solve_load_balancing(ws);
  EXPECT_NEAR(ws.y()[0], 1.0 / 3.0, 1e-6);
}

TEST(ExactLoadBalancing, ZeroUCoordinatesFollowLinearSign) {
  // Class with omega 0: its u is zero; y moves only on the linear term.
  Fixture fx(2, 1, 100.0);
  fx.sbs.classes[1].omega_bs = 0.0;
  fx.demand.at(0, 0) = 1.0;
  fx.demand.at(1, 0) = 1.0;
  P2Workspace ws;
  fx.bind(ws, {0.0, -0.5});  // negative coefficient: push to the upper bound
  solve_load_balancing(ws);
  EXPECT_NEAR(ws.y()[1], 1.0, 1e-9);
  fx.bind(ws, {0.0, 0.5});
  solve_load_balancing(ws);
  EXPECT_NEAR(ws.y()[1], 0.0, 1e-9);
}

/// The reference for a bound P2: tightly converged FISTA
/// (solver::minimize_projected) over box ∩ bandwidth, projected by
/// solver::project_box_knapsack_into, on the workspace's own coefficients.
/// The projection ends on the feasible side, so the value is that of a
/// feasible point: an upper bound on the optimum.
double reference_objective(const Coefficients& coeff, double budget) {
  const std::size_t size = coeff.lambda.size();
  solver::BoxKnapsackSet set;
  set.lo.assign(size, 0.0);
  set.hi = coeff.ub;
  set.weights = coeff.lambda;
  set.budget = budget;
  set.validate();
  const solver::ValueGradientFn objective = [&](const linalg::Vec& y,
                                                linalg::Vec& grad) {
    const double bs_term = coeff.a - linalg::dot(coeff.u, y);
    const double sbs_term = linalg::dot(coeff.v, y);
    for (std::size_t j = 0; j < size; ++j) {
      grad[j] = -2.0 * bs_term * coeff.u[j] + 2.0 * sbs_term * coeff.v[j] +
                coeff.c[j];
    }
    return load_balancing_objective(coeff, y);
  };
  const solver::ProjectionIntoFn project = [&](const linalg::Vec& in,
                                               linalg::Vec& out) {
    solver::project_box_knapsack_into(in, set, out, 1e-15);
  };
  const double lipschitz =
      2.0 * (linalg::dot(coeff.u, coeff.u) + linalg::dot(coeff.v, coeff.v));
  solver::FirstOrderWorkspace fista;
  fista.x.assign(size, 0.0);
  solver::minimize_projected(objective, project, fista,
                             {.max_iterations = 20000,
                              .gradient_tolerance = 1e-14,
                              .lipschitz = std::max(lipschitz, 1e-6),
                              .accelerate = true});
  return load_balancing_objective(coeff, fista.x);
}

/// Property: on random instances — omega_sbs > 0 on most classes, one
/// class with omega = 0 but omega_sbs > 0, the bandwidth row binding on odd
/// seeds — the exact solution is feasible and no worse than the reference.
class ExactVsFistaTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactVsFistaTest, ObjectivesAgree) {
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact active set" : "whole catalogue");
    Rng rng(GetParam() * 7 + 3);
    const std::size_t classes =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    const std::size_t contents =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    RandomCell cell(classes, contents, 0.0, compact);
    for (auto& mu : cell.fx.sbs.classes) {
      mu.omega_bs = rng.uniform(0.0, 1.0);
      mu.omega_sbs = rng.bernoulli(0.8) ? rng.uniform(0.0, 0.5) : 0.0;
    }
    if (classes > 1) cell.fx.sbs.classes.back() = {0.0, rng.uniform(0.1, 0.5)};
    double total_rate = 0.0;
    cell.fill_demand([&] {
      const double rate = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 2.0);
      total_rate += rate;
      return rate;
    });
    cell.fx.sbs.bandwidth = GetParam() % 2 == 1
                                ? rng.uniform(0.1, 0.4) * total_rate
                                : rng.uniform(1.0, 2.0) * total_rate + 0.1;
    P2Workspace ws;
    const std::size_t size = cell.bind(ws);
    linalg::Vec linear(size), upper(size);
    for (auto& c : linear) c = rng.uniform(-0.3, 1.0);
    for (auto& u : upper) u = rng.bernoulli(0.25) ? 0.0 : 1.0;
    ws.set_linear(linear.data(), linear.data() + size);
    ws.set_upper(upper);
    const auto exact = solve_load_balancing(ws);
    const linalg::Vec& y = ws.y();
    const Coefficients& coeff = ws.coefficients();
    const double budget = cell.fx.sbs.bandwidth;

    double load = 0.0;
    for (std::size_t j = 0; j < size; ++j) {
      EXPECT_GE(y[j], 0.0);
      EXPECT_LE(y[j], upper[j]);
      load += coeff.lambda[j] * y[j];
    }
    EXPECT_LE(load, budget + 1e-12 * (1.0 + budget));

    const double reference = reference_objective(coeff, budget);
    EXPECT_LE(exact.objective, reference + 1e-9 * (1.0 + std::abs(reference)));
    EXPECT_NEAR(load_balancing_objective(coeff, y), exact.objective,
                1e-12 * (1.0 + std::abs(exact.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ExactVsFistaTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// ------------------------------------------------ warm threshold order ----

/// An exact-path cell on the compact active set of all contents. Rates and
/// omegas repeat, so thresholds tie across distinct j; rate-0 entries and
/// the omega-0 class give u_j = 0 coordinates.
struct WarmOrderCell {
  model::SbsConfig sbs;
  model::SparseSbsDemand demand;
  std::vector<std::size_t> active;
  std::size_t size = 0;

  WarmOrderCell(double bandwidth, std::uint64_t seed) {
    const std::size_t classes = 4, contents = 40;
    sbs.cache_capacity = contents;
    sbs.bandwidth = bandwidth;
    sbs.replacement_beta = 1.0;
    sbs.classes = {model::MuClass{0.8, 0.0}, model::MuClass{0.3, 0.0},
                   model::MuClass{0.8, 0.0}, model::MuClass{0.0, 0.0}};
    const double rates[] = {0.0, 0.05, 0.1, 0.1, 0.2};
    Rng rng(seed);
    model::SbsDemand dense(classes, contents);
    for (auto& v : dense.data()) v = rates[rng.uniform_int(0, 4)];
    demand = model::SparseSbsDemand::from_dense(dense);
    active.resize(contents);
    std::iota(active.begin(), active.end(), std::size_t{0});
    size = classes * contents;
  }
};

/// Solves `warm` as the caller left it and expects y and the objective to
/// be bitwise equal to a freshly bound workspace solved on the same
/// (c, ub), whose first call sorts cold. Returns the warm solve's
/// iteration count (> 1 once the bandwidth bisection ran).
std::size_t expect_warm_equals_cold(P2Workspace& warm,
                                    const WarmOrderCell& cell,
                                    const linalg::Vec& c,
                                    const linalg::Vec& ub) {
  const LoadBalancingOutcome warm_out = solve_load_balancing(warm);

  P2Workspace cold;
  cold.bind_active(cell.sbs, cell.demand, cell.active);
  cold.set_linear(c.data(), c.data() + c.size());
  cold.set_upper(ub);
  const LoadBalancingOutcome cold_out = solve_load_balancing(cold);

  EXPECT_EQ(warm.y().size(), cold.y().size());
  if (warm.y().size() == cold.y().size()) {
    EXPECT_EQ(std::memcmp(warm.y().data(), cold.y().data(),
                          sizeof(double) * cold.y().size()),
              0);
  }
  EXPECT_EQ(std::memcmp(&warm_out.objective, &cold_out.objective,
                        sizeof(double)),
            0);
  return warm_out.iterations;
}

/// Bandwidth of the cell: slack (theta = 0 only) or binding (bisection).
class WarmOrderTest : public ::testing::TestWithParam<double> {};

TEST_P(WarmOrderTest, LinearSequenceMatchesColdSort) {
  const WarmOrderCell cell(GetParam(), 3);
  const bool binding = GetParam() < 5.0;
  Rng rng(17);
  linalg::Vec c(cell.size, 0.0);
  const linalg::Vec ub(cell.size, 1.0);
  P2Workspace ws;
  ws.bind_active(cell.sbs, cell.demand, cell.active);
  std::size_t bisections = 0;
  const auto step = [&] {
    ws.set_linear(c.data(), c.data() + c.size());
    if (expect_warm_equals_cold(ws, cell, c, ub) > 1) ++bisections;
  };

  // All-zero c: one tie group at threshold 0.
  step();
  // Small diminishing steps of a projected subgradient walk.
  for (auto& v : c) v = rng.uniform(0.0, 0.3);
  step();
  for (int s = 1; s <= 40; ++s) {
    for (auto& v : c) {
      v = std::max(0.0, v + rng.uniform(-0.02, 0.02) / s);
    }
    step();
  }
  // Large jumps: far from the warm order, past the move budget.
  for (int s = 0; s < 5; ++s) {
    for (auto& v : c) v = rng.uniform(-0.5, 1.0);
    step();
  }
  std::fill(c.begin(), c.end(), 0.0);
  step();
  // Mixed signed zeros, alone and around a repeated nonzero value.
  for (auto& v : c) v = rng.bernoulli(0.5) ? -0.0 : 0.0;
  step();
  for (auto& v : c) {
    v = rng.bernoulli(0.3) ? 0.1 : (rng.bernoulli(0.5) ? -0.0 : 0.0);
  }
  step();
  // Repeated values: large tie groups that shift between steps.
  const double levels[] = {0.0, 0.04, 0.08, -0.04};
  for (int s = 0; s < 10; ++s) {
    for (auto& v : c) {
      if (rng.bernoulli(0.2)) v = levels[rng.uniform_int(0, 3)];
    }
    step();
  }

  if (binding) {
    EXPECT_GT(bisections, 0u);
  } else {
    EXPECT_EQ(bisections, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Bandwidth, WarmOrderTest,
                         ::testing::Values(100.0, 1.0));

TEST(WarmOrder, UpperMaskToggleMatchesColdSort) {
  // The repair pattern: c = 0 and set_upper alternating between two cache
  // masks, on a binding bandwidth so every solve bisects.
  const WarmOrderCell cell(1.0, 5);
  Rng rng(23);
  linalg::Vec c(cell.size, 0.0);
  linalg::Vec mask_a(cell.size), mask_b(cell.size);
  for (auto& b : mask_a) b = rng.bernoulli(0.3) ? 0.0 : 1.0;
  for (auto& b : mask_b) b = rng.bernoulli(0.3) ? 0.0 : 1.0;
  P2Workspace ws;
  ws.bind_active(cell.sbs, cell.demand, cell.active);
  for (int round = 0; round < 6; ++round) {
    const linalg::Vec& mask = round % 2 == 0 ? mask_a : mask_b;
    ws.set_upper(mask);
    EXPECT_GT(expect_warm_equals_cold(ws, cell, c, mask), 1u);
  }
  // The same toggle under a nonzero linear term.
  for (auto& v : c) v = rng.uniform(0.0, 0.2);
  ws.set_linear(c.data(), c.data() + c.size());
  for (int round = 0; round < 4; ++round) {
    const linalg::Vec& mask = round % 2 == 0 ? mask_a : mask_b;
    ws.set_upper(mask);
    expect_warm_equals_cold(ws, cell, c, mask);
  }
}

// ------------------------------------------------- optimal_load_for_cache ----

TEST(OptimalLoadForCache, MasksUncachedAndStaysInBandwidth) {
  model::NetworkConfig config;
  config.num_contents = 3;
  model::SbsConfig sbs;
  sbs.cache_capacity = 2;
  sbs.bandwidth = 1.0;
  sbs.replacement_beta = 1.0;
  sbs.classes = {model::MuClass{1.0, 0.0}};
  config.sbs.push_back(sbs);

  model::SlotDemand demand = model::make_zero_slot_demand(config);
  demand[0].at(0, 0) = 1.0;
  demand[0].at(0, 1) = 1.0;
  demand[0].at(0, 2) = 1.0;

  model::CacheState cache(config);
  cache.set(0, 0, true);
  cache.set(0, 1, true);

  const auto load = optimal_load_for_cache(config, demand, cache);
  EXPECT_DOUBLE_EQ(load.at(0, 0, 2), 0.0);  // not cached
  EXPECT_LE(model::sbs_load(load, 0, demand[0]), 1.0 + 1e-6);
  // Bandwidth worth using.
  EXPECT_GT(model::sbs_load(load, 0, demand[0]), 0.9);
}

}  // namespace
}  // namespace mdo::core
