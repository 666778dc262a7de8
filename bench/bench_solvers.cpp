// E6 — solver micro-benchmarks (google-benchmark).
//
// Measures the building blocks: P1 via min-cost flow vs the paper's simplex
// route, the P2 solve (the exact KKT solver through core::P2Workspace, and
// FISTA and plain projected gradient through solver::minimize_projected on
// the same coefficients, each a bind plus a cold solve), the box-knapsack
// projection, and one full primal-dual window solve. These back the
// engineering claims in DESIGN.md (flow >> simplex inside the dual loop;
// exact P2 >> FISTA >> PGD).
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/caching.hpp"
#include "core/load_balancing.hpp"
#include "core/primal_dual.hpp"
#include "model/sparse_demand.hpp"
#include "solver/first_order.hpp"
#include "solver/projection.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace mdo;

core::CachingSubproblem caching_instance(std::size_t k, std::size_t w,
                                         std::size_t capacity) {
  core::CachingSubproblem p;
  p.num_contents = k;
  p.horizon = w;
  p.capacity = capacity;
  p.beta = 2.0;
  p.initial.assign(k, 0);
  p.rewards.assign(k * w, 0.0);
  Rng rng(99);
  for (auto& r : p.rewards) r = rng.uniform(0.0, 3.0);
  return p;
}

void BM_CachingFlow(benchmark::State& state) {
  const auto problem = caching_instance(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_caching_flow(problem));
  }
}
BENCHMARK(BM_CachingFlow)
    ->Args({30, 10})
    ->Args({30, 30})
    ->Args({60, 10})
    ->Args({30, 100});

void BM_CachingSimplex(benchmark::State& state) {
  const auto problem = caching_instance(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_caching_simplex(problem));
  }
}
BENCHMARK(BM_CachingSimplex)->Args({10, 5})->Args({20, 5})->Args({30, 10});

/// One P2 cell of classes x contents coordinates (the row's first two
/// arguments). Its bandwidth binds (half the classes' unit traffic) unless
/// the fourth argument is nonzero, and every class has omega_sbs = the
/// third argument / 100.
struct P2Fixture {
  model::SbsConfig sbs;
  model::SparseSbsDemand demand;
  std::vector<std::size_t> contents;

  explicit P2Fixture(const benchmark::State& state)
      : contents(static_cast<std::size_t>(state.range(1))) {
    const auto classes = static_cast<std::size_t>(state.range(0));
    const std::size_t k_count = contents.size();
    const double omega_sbs = static_cast<double>(state.range(2)) / 100.0;
    sbs.cache_capacity = k_count;
    sbs.bandwidth =
        state.range(3) != 0 ? 1e6 : static_cast<double>(classes) / 2.0;
    sbs.replacement_beta = 1.0;
    Rng rng(5);
    sbs.classes.resize(classes);
    for (auto& mu : sbs.classes) mu = {rng.uniform(0.0, 1.0), omega_sbs};
    model::SbsDemand dense(classes, k_count);
    for (auto& v : dense.data()) v = rng.uniform(0.0, 2.0 / k_count);
    demand = model::SparseSbsDemand::from_dense(dense);
    std::iota(contents.begin(), contents.end(), std::size_t{0});
  }
};

/// Rows: {classes, contents, omega_sbs in percent, slack bandwidth}.
void p2_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"classes", "contents", "omega_sbs_pct", "slack"});
  b->Args({30, 30, 0, 0})->Args({10, 10, 0, 0})->Args({60, 30, 0, 0});
  b->Args({30, 30, 5, 0})->Args({30, 30, 5, 1});
}

/// Times one bind plus one cold exact solve per iteration, as every fresh
/// (slot, SBS) cell of a window costs.
void BM_LoadBalancingExact(benchmark::State& state) {
  const P2Fixture fx(state);
  for (auto _ : state) {
    core::P2Workspace ws;
    ws.bind_active(fx.sbs, fx.demand, fx.contents);
    benchmark::DoNotOptimize(core::solve_load_balancing(ws));
    benchmark::DoNotOptimize(ws.y().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LoadBalancingExact)->Apply(p2_args);

/// Times one bind plus one cold solver::minimize_projected run from y = 0
/// over box ∩ bandwidth, at 150 iterations and gradient tolerance 2e-5.
void run_first_order(benchmark::State& state, bool accelerate) {
  const P2Fixture fx(state);
  for (auto _ : state) {
    core::P2Workspace ws;
    ws.bind_active(fx.sbs, fx.demand, fx.contents);
    const core::Coefficients& coeff = ws.coefficients();
    const std::size_t size = coeff.lambda.size();
    solver::BoxKnapsackSet set;
    set.lo.assign(size, 0.0);
    set.hi = coeff.ub;
    set.weights = coeff.lambda;
    set.budget = fx.sbs.bandwidth;
    set.validate();
    const solver::ValueGradientFn objective = [&](const linalg::Vec& y,
                                                  linalg::Vec& grad) {
      const auto [u_dot_y, v_dot_y] = linalg::dot_pair(coeff.u, coeff.v, y);
      const double bs_term = coeff.a - u_dot_y;
      double linear_term = 0.0;
      for (std::size_t j = 0; j < size; ++j) {
        grad[j] = -2.0 * bs_term * coeff.u[j] + 2.0 * v_dot_y * coeff.v[j] +
                  coeff.c[j];
        linear_term += coeff.c[j] * y[j];
      }
      return bs_term * bs_term + v_dot_y * v_dot_y + linear_term;
    };
    const solver::ProjectionIntoFn project = [&](const linalg::Vec& in,
                                                 linalg::Vec& out) {
      solver::project_box_knapsack_into(in, set, out);
    };
    solver::FirstOrderWorkspace fo;
    fo.x.assign(size, 0.0);
    const double lipschitz =
        2.0 * (linalg::dot(coeff.u, coeff.u) + linalg::dot(coeff.v, coeff.v));
    benchmark::DoNotOptimize(solver::minimize_projected(
        objective, project, fo,
        {.max_iterations = 150,
         .gradient_tolerance = 2e-5,
         .lipschitz = lipschitz,
         .accelerate = accelerate}));
    benchmark::DoNotOptimize(fo.x.data());
    benchmark::ClobberMemory();
  }
}

void BM_LoadBalancingFista(benchmark::State& state) {
  run_first_order(state, true);
}
BENCHMARK(BM_LoadBalancingFista)->Apply(p2_args);

void BM_LoadBalancingPgd(benchmark::State& state) {
  run_first_order(state, false);
}
BENCHMARK(BM_LoadBalancingPgd)
    ->ArgNames({"classes", "contents", "omega_sbs_pct", "slack"})
    ->Args({30, 30, 0, 0});

void BM_BoxKnapsackProjection(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(31);
  solver::BoxKnapsackSet set;
  set.lo.assign(n, 0.0);
  set.hi.assign(n, 1.0);
  set.weights.resize(n);
  for (auto& w : set.weights) w = rng.uniform(0.0, 1.0);
  set.budget = static_cast<double>(n) / 10.0;
  set.validate();
  linalg::Vec point(n);
  for (auto& v : point) v = rng.uniform(-0.5, 1.5);
  linalg::Vec out(n);
  for (auto _ : state) {
    solver::project_box_knapsack_into(point, set, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BoxKnapsackProjection)->Arg(100)->Arg(900)->Arg(4000);

void BM_PrimalDualWindow(benchmark::State& state) {
  workload::PaperScenario scenario;
  scenario.horizon = static_cast<std::size_t>(state.range(0));
  const auto instance = scenario.build();
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &instance.demand;
  problem.initial_cache = instance.initial_cache;
  core::PrimalDualSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem));
  }
}
BENCHMARK(BM_PrimalDualWindow)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
