// E6 — solver micro-benchmarks (google-benchmark).
//
// Measures the building blocks: P1 via min-cost flow vs the paper's simplex
// route, the P2 solve (the exact KKT solver, FISTA and plain projected
// gradient, each a bind plus a cold solve through core::P2Workspace), the
// box-knapsack projection, and one full primal-dual window solve. These back
// the engineering claims in DESIGN.md (flow >> simplex inside the dual loop;
// FISTA >> PGD).
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/caching.hpp"
#include "core/load_balancing.hpp"
#include "core/primal_dual.hpp"
#include "model/sparse_demand.hpp"
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

struct P2Fixture {
  model::SbsConfig sbs;
  model::SparseSbsDemand demand;
  std::vector<std::size_t> contents;

  P2Fixture(std::size_t classes, std::size_t k_count) : contents(k_count) {
    sbs.cache_capacity = k_count;
    sbs.bandwidth = static_cast<double>(classes) / 2.0;
    sbs.replacement_beta = 1.0;
    Rng rng(5);
    sbs.classes.resize(classes);
    for (auto& mu : sbs.classes) mu = {rng.uniform(0.0, 1.0), 0.0};
    model::SbsDemand dense(classes, k_count);
    for (auto& v : dense.data()) v = rng.uniform(0.0, 2.0 / k_count);
    demand = model::SparseSbsDemand::from_dense(dense);
    std::iota(contents.begin(), contents.end(), std::size_t{0});
  }
};

/// Times one bind plus one cold solve per iteration, as every fresh
/// (slot, SBS) cell of a window costs.
void run_p2(benchmark::State& state, const core::LoadBalancingOptions& options) {
  const P2Fixture fx(static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    core::P2Workspace ws;
    ws.bind_active(fx.sbs, fx.demand, fx.contents);
    benchmark::DoNotOptimize(core::solve_load_balancing(ws, options));
    benchmark::DoNotOptimize(ws.y().data());
    benchmark::ClobberMemory();
  }
}

/// The default options: the exact KKT solver (every omega_sbs is zero).
void BM_LoadBalancingExact(benchmark::State& state) { run_p2(state, {}); }
BENCHMARK(BM_LoadBalancingExact)->Args({30, 30})->Args({10, 10})->Args({60, 30});

void BM_LoadBalancingFista(benchmark::State& state) {
  core::LoadBalancingOptions options;
  options.prefer_exact = false;
  run_p2(state, options);
}
BENCHMARK(BM_LoadBalancingFista)->Args({30, 30})->Args({10, 10})->Args({60, 30});

void BM_LoadBalancingPgd(benchmark::State& state) {
  core::LoadBalancingOptions options;
  options.prefer_exact = false;
  options.first_order.accelerate = false;
  run_p2(state, options);
}
BENCHMARK(BM_LoadBalancingPgd)->Args({30, 30});

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
