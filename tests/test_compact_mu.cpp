// Tests for the compact active-coordinate mu layout (DESIGN.md §12) — the
// solver's only mu layout: mu_block_offsets geometry, compact<->catalogue
// scatter/gather round trips, solver- and controller-level bit-identity
// across thread and shard counts, advance_window edge cases, and the
// warm-state blob's count()-guarded serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/primal_dual.hpp"
#include "core/shard_core.hpp"
#include "online/chc.hpp"
#include "online/rhc.hpp"
#include "shard/coordinator.hpp"
#include "sim/simulator.hpp"
#include "tsan_skip.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/zipf.hpp"

namespace mdo {
namespace {

/// A small truncated-Zipf instance whose active sets are a strict subset of
/// the catalogue (min_rate cuts the tail), so compact and dense mu layouts
/// genuinely differ in size.
model::ProblemInstance sparse_instance(std::size_t horizon = 6,
                                       std::size_t contents = 12) {
  workload::PaperScenario scenario;
  scenario.num_sbs = 2;
  scenario.num_contents = contents;
  scenario.classes_per_sbs = 3;
  scenario.cache_capacity = 3;
  scenario.bandwidth = 8.0;
  scenario.beta = 10.0;
  scenario.horizon = horizon;
  scenario.seed = 17;
  // Cut the Zipf tail at the rate of rank K/4, as the scaling bench does:
  // the surviving head is a strict subset, so compact != dense in size.
  const auto pmf = workload::zipf_mandelbrot_pmf(
      contents, scenario.workload.zipf_alpha, scenario.workload.zipf_q);
  scenario.workload.min_rate = pmf[contents / 4];
  return scenario.build_sparse();
}

/// Multipliers a window would hold over the full (class, content)
/// catalogue of every cell.
std::size_t catalogue_coordinates(const model::NetworkConfig& config,
                                  std::size_t horizon) {
  return config.total_classes() * config.num_contents * horizon;
}

core::HorizonProblem window_problem(const model::ProblemInstance& instance) {
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.sparse_demand = &instance.sparse_demand;
  problem.initial_cache = instance.initial_cache;
  return problem;
}

// ---- geometry and round trips --------------------------------------------

TEST(CompactMu, BlockOffsetsMatchActiveSetGeometry) {
  const auto instance = sparse_instance();
  const auto sets = core::build_active_sets(
      instance.config, instance.sparse_demand, instance.initial_cache);
  const std::size_t horizon = instance.sparse_demand.horizon();
  const std::size_t num_sbs = instance.config.num_sbs();
  const auto offsets =
      core::mu_block_offsets(instance.config, horizon, sets);

  ASSERT_EQ(offsets.size(), horizon * num_sbs + 1);
  EXPECT_EQ(offsets.front(), 0u);
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t n = 0; n < num_sbs; ++n) {
      const std::size_t cell = t * num_sbs + n;
      const std::size_t block = offsets[cell + 1] - offsets[cell];
      EXPECT_EQ(block, instance.config.sbs[n].num_classes() *
                           sets.active[cell].size())
          << "cell=" << cell;
    }
  }
  // The truncated tail must actually shrink the compact vector below the
  // full (class, content) catalogue of every cell.
  EXPECT_LT(offsets.back(), catalogue_coordinates(instance.config, horizon));
}

TEST(CompactMu, CompactDenseRoundTripIsLossless) {
  const auto instance = sparse_instance();
  const auto sets = core::build_active_sets(
      instance.config, instance.sparse_demand, instance.initial_cache);
  const std::size_t horizon = instance.sparse_demand.horizon();
  const std::size_t num_sbs = instance.config.num_sbs();
  const std::size_t contents = instance.config.num_contents;
  const auto offsets =
      core::mu_block_offsets(instance.config, horizon, sets);
  // Full-catalogue position of cell (t, n): slot-major, then SBS, then
  // (class, content).
  const auto catalogue_offset = [&](std::size_t t, std::size_t n) {
    std::size_t offset = t * catalogue_coordinates(instance.config, 1);
    for (std::size_t p = 0; p < n; ++p) {
      offset += instance.config.sbs[p].num_classes() * contents;
    }
    return offset;
  };

  // Distinct value per compact coordinate.
  linalg::Vec compact(offsets.back());
  for (std::size_t j = 0; j < compact.size(); ++j) {
    compact[j] = 1.0 + 0.25 * static_cast<double>(j);
  }

  // Scatter to the full catalogue (class-major over the active list within
  // each cell)...
  linalg::Vec dense(catalogue_coordinates(instance.config, horizon), 0.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t n = 0; n < num_sbs; ++n) {
      const std::size_t cell = t * num_sbs + n;
      const auto& active = sets.active[cell];
      const std::size_t classes = instance.config.sbs[n].num_classes();
      for (std::size_t m = 0; m < classes; ++m) {
        for (std::size_t i = 0; i < active.size(); ++i) {
          dense[catalogue_offset(t, n) + m * contents + active[i]] =
              compact[offsets[cell] + m * active.size() + i];
        }
      }
    }
  }
  // ...and gather back: bitwise identical, nothing lost.
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t n = 0; n < num_sbs; ++n) {
      const std::size_t cell = t * num_sbs + n;
      const auto& active = sets.active[cell];
      const std::size_t classes = instance.config.sbs[n].num_classes();
      for (std::size_t m = 0; m < classes; ++m) {
        for (std::size_t i = 0; i < active.size(); ++i) {
          EXPECT_EQ(dense[catalogue_offset(t, n) + m * contents + active[i]],
                    compact[offsets[cell] + m * active.size() + i]);
        }
      }
    }
  }
}

// ---- solver-level bit-identity -------------------------------------------

TEST(CompactMu, SolverBitIdenticalAcrossThreadsAndShards) {
  MDO_SKIP_IF_TSAN();
  const auto instance = sparse_instance();
  const auto problem = window_problem(instance);
  const auto sets = core::build_active_sets(
      instance.config, instance.sparse_demand, instance.initial_cache);
  const auto offsets = core::mu_block_offsets(
      instance.config, instance.sparse_demand.horizon(), sets);

  core::PrimalDualOptions reference_options;
  reference_options.shard_count = shard::kShardsInProcess;
  core::PrimalDualSolver reference(reference_options);
  const auto want = reference.solve(problem);
  // Sparse solves always keep mu on the compact layout.
  EXPECT_EQ(want.mu.size(), offsets.back());
  EXPECT_LT(want.mu.size(),
            catalogue_coordinates(instance.config,
                                  instance.sparse_demand.horizon()));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t shards :
         {shard::kShardsInProcess, std::size_t{2}}) {
      util::ThreadPool::set_global_threads(threads);
      core::PrimalDualOptions options;
      options.shard_count = shards;
      core::PrimalDualSolver solver(options);
      const auto got = solver.solve(problem);
      EXPECT_EQ(got.upper_bound, want.upper_bound)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(got.lower_bound, want.lower_bound)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_EQ(got.mu.size(), offsets.back());
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(CompactMu, DenseDemandSolvesUseCompactLayout) {
  workload::PaperScenario scenario;
  scenario.num_sbs = 2;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 3;
  scenario.cache_capacity = 2;
  scenario.horizon = 3;
  scenario.seed = 9;
  const auto instance = scenario.build();

  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &instance.demand;
  problem.initial_cache = instance.initial_cache;

  core::PrimalDualOptions options;
  core::PrimalDualSolver solver(options);
  const auto solution = solver.solve(problem);
  // A dense window is converted at the solver boundary: mu takes the
  // compact geometry of the converted window's active sets.
  const auto window = model::SparseDemandTrace::from_dense(instance.demand);
  const auto sets = core::build_active_sets(instance.config, window,
                                            instance.initial_cache);
  EXPECT_EQ(solution.mu.size(),
            core::mu_block_offsets(instance.config, window.horizon(), sets)
                .back());
}

// ---- controller-level bit-identity ---------------------------------------

double run_controller(bool chc, const model::ProblemInstance& instance,
                      const workload::Predictor& predictor,
                      std::size_t threads, std::size_t shards) {
  util::ThreadPool::set_global_threads(threads);
  core::PrimalDualOptions pd;
  pd.shard_count = shards;
  std::unique_ptr<online::Controller> controller;
  if (chc) {
    controller = std::make_unique<online::ChcController>(4, 2, pd);
  } else {
    controller = std::make_unique<online::RhcController>(4, pd);
  }
  const sim::Simulator simulator(instance, predictor);
  const auto result = simulator.run(*controller);
  util::ThreadPool::set_global_threads(1);
  EXPECT_TRUE(std::isfinite(result.total.total()));
  return result.total.total();
}

TEST(CompactMu, RhcBitIdenticalAcrossThreadsShards) {
  const auto instance = sparse_instance();
  const workload::NoisyPredictor predictor(instance.sparse_demand, 0.1, 1234);
  const double want = run_controller(false, instance, predictor, 1,
                                     shard::kShardsInProcess);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t shards :
         {shard::kShardsInProcess, std::size_t{2}}) {
      EXPECT_EQ(run_controller(false, instance, predictor, threads, shards),
                want)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(CompactMu, ChcBitIdenticalAcrossThreadsShards) {
  const auto instance = sparse_instance();
  const workload::NoisyPredictor predictor(instance.sparse_demand, 0.1, 1234);
  const double want = run_controller(true, instance, predictor, 1,
                                     shard::kShardsInProcess);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t shards :
         {shard::kShardsInProcess, std::size_t{2}}) {
      EXPECT_EQ(run_controller(true, instance, predictor, threads, shards),
                want)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(CompactMu, AdvanceWindowEdgeCasesStayDeterministic) {
  // Two solvers fed the identical call sequence — window solve, slide by 1,
  // slide past the horizon, horizon shrink, horizon grow — must stay
  // bitwise in lockstep throughout (the warm bank is deterministic state).
  const auto full = sparse_instance(/*horizon=*/6);
  const workload::PerfectPredictor predictor(full.sparse_demand);

  core::PrimalDualOptions options;  // sparse demand -> compact mu
  core::PrimalDualSolver a(options);
  core::PrimalDualSolver b(options);

  model::SparseDemandTrace window;
  core::HorizonProblem problem;
  problem.config = &full.config;
  problem.sparse_demand = &window;
  problem.initial_cache = full.initial_cache;

  const auto solve_both = [&](std::size_t tau, std::size_t length) {
    window = predictor.predict_window_sparse(tau, length);
    const auto got_a = a.solve(problem);
    const auto got_b = b.solve(problem);
    EXPECT_EQ(got_a.upper_bound, got_b.upper_bound)
        << "tau=" << tau << " length=" << length;
    EXPECT_EQ(got_a.lower_bound, got_b.lower_bound);
    ASSERT_EQ(got_a.mu.size(), got_b.mu.size());
    for (std::size_t j = 0; j < got_a.mu.size(); ++j) {
      EXPECT_EQ(got_a.mu[j], got_b.mu[j]);
    }
    EXPECT_TRUE(std::isfinite(got_a.upper_bound));
  };

  solve_both(0, 3);
  a.advance_window(1);
  b.advance_window(1);
  solve_both(1, 3);
  // Slide past the window horizon: every slot restarts from the last slot's
  // warm start; must not throw and must stay deterministic.
  a.advance_window(10);
  b.advance_window(10);
  solve_both(2, 3);
  // Horizon shrink (end of trace) and grow again.
  a.advance_window(1);
  b.advance_window(1);
  solve_both(4, 2);
  a.advance_window(1);
  b.advance_window(1);
  solve_both(1, 4);
  // Zero-slide replan of the same window (same-tau resync).
  a.advance_window(0);
  b.advance_window(0);
  solve_both(1, 4);
}

// ---- warm-state serialization --------------------------------------------

TEST(CompactMu, WarmStateRoundTripKeepsSolvesBitIdentical) {
  const auto full = sparse_instance(/*horizon=*/6);
  const workload::PerfectPredictor predictor(full.sparse_demand);

  core::PrimalDualOptions options;  // sparse demand -> compact mu
  core::PrimalDualSolver original(options);

  model::SparseDemandTrace window = predictor.predict_window_sparse(0, 3);
  core::HorizonProblem problem;
  problem.config = &full.config;
  problem.sparse_demand = &window;
  problem.initial_cache = full.initial_cache;
  original.solve(problem);
  original.advance_window(1);

  util::BinaryWriter writer;
  original.save_state(writer);
  const std::vector<std::uint8_t> blob = writer.bytes();

  core::PrimalDualSolver restored(options);
  util::BinaryReader reader(blob);
  restored.restore_state(reader);

  window = predictor.predict_window_sparse(1, 3);
  const auto want = original.solve(problem);
  const auto got = restored.solve(problem);
  EXPECT_EQ(got.upper_bound, want.upper_bound);
  EXPECT_EQ(got.lower_bound, want.lower_bound);
  ASSERT_EQ(got.mu.size(), want.mu.size());
  for (std::size_t j = 0; j < got.mu.size(); ++j) {
    EXPECT_EQ(got.mu[j], want.mu[j]);
  }
}

TEST(CompactMu, TruncatedWarmBlobThrowsInsteadOfMisreading) {
  const auto full = sparse_instance(/*horizon=*/6);
  const workload::PerfectPredictor predictor(full.sparse_demand);

  core::PrimalDualOptions options;
  core::PrimalDualSolver solver(options);
  model::SparseDemandTrace window = predictor.predict_window_sparse(0, 3);
  core::HorizonProblem problem;
  problem.config = &full.config;
  problem.sparse_demand = &window;
  problem.initial_cache = full.initial_cache;
  solver.solve(problem);

  util::BinaryWriter writer;
  solver.save_state(writer);
  const std::vector<std::uint8_t> blob = writer.bytes();
  ASSERT_GT(blob.size(), 8u);

  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, blob.size() / 2, blob.size() - 1}) {
    core::PrimalDualSolver victim(options);
    util::BinaryReader reader(blob.data(), keep);
    EXPECT_THROW(victim.restore_state(reader), InvalidArgument)
        << "keep=" << keep;
  }
}

TEST(CompactMu, CountGuardedReaderRejectsAbsurdVectorCounts) {
  // A corrupted count field must throw before any allocation is attempted:
  // the count() guard caps element counts by the bytes actually remaining.
  util::BinaryWriter writer;
  writer.u64(std::uint64_t{1} << 50);  // claims ~10^15 elements
  const std::vector<std::uint8_t> blob = writer.bytes();
  util::BinaryReader reader(blob);
  EXPECT_THROW(reader.f64_vec(), InvalidArgument);

  util::BinaryReader reader_as(blob);
  EXPECT_THROW(reader_as.f64_vec_as<linalg::Vec>(), InvalidArgument);
}

}  // namespace
}  // namespace mdo
