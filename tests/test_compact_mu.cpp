// Tests for the compact active-coordinate mu layout (DESIGN.md §12) — the
// solver's only mu layout: mu_block_offsets geometry, compact<->catalogue
// scatter/gather round trips, solver- and controller-level bit-identity
// across thread and shard counts, the upper bound from per-cell partials,
// and the count()-guarded reader that decodes mu blocks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/primal_dual.hpp"
#include "core/shard_core.hpp"
#include "model/costs.hpp"
#include "online/chc.hpp"
#include "online/rhc.hpp"
#include "shard/coordinator.hpp"
#include "sim/simulator.hpp"
#include "tsan_skip.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
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

// The default instance, and one where P1 caches (low beta, a warm initial
// cache) so the UB's replacement term counts insertions: UB, LB, iteration
// count and every schedule cell must be bitwise equal at every thread and
// shard count, and the UB must equal model::schedule_cost of the schedule.
TEST(CompactMu, SolverBitIdenticalAcrossThreadsAndShards) {
  MDO_SKIP_IF_TSAN();
  auto caching = sparse_instance(/*horizon=*/5);
  for (auto& sbs : caching.config.sbs) sbs.replacement_beta = 0.05;
  caching.initial_cache.set(0, 0, true);
  caching.initial_cache.set(1, 5, true);
  const model::ProblemInstance instances[] = {sparse_instance(), caching};
  for (const model::ProblemInstance& instance : instances) {
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
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want.upper_bound),
              std::bit_cast<std::uint64_t>(
                  model::schedule_cost(instance.config,
                                       model::DemandTraceView(
                                           instance.sparse_demand),
                                       want.schedule, instance.initial_cache)
                      .total()));
    if (&instance == &instances[1]) {
      std::size_t inserted = 0;
      const model::CacheState* previous = &instance.initial_cache;
      for (const model::SlotDecision& slot : want.schedule) {
        inserted += model::replacement_count(slot.cache, *previous);
        previous = &slot.cache;
      }
      EXPECT_GT(inserted, 0u) << "P1 must insert for the UB's h term";
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t shards :
           {shard::kShardsInProcess, std::size_t{2}}) {
        util::ThreadPool::set_global_threads(threads);
        core::PrimalDualOptions options;
        options.shard_count = shards;
        core::PrimalDualSolver solver(options);
        const auto got = solver.solve(problem);
        const std::string where = "threads=" + std::to_string(threads) +
                                  " shards=" + std::to_string(shards);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.upper_bound),
                  std::bit_cast<std::uint64_t>(want.upper_bound))
            << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lower_bound),
                  std::bit_cast<std::uint64_t>(want.lower_bound))
            << where;
        EXPECT_EQ(got.iterations, want.iterations) << where;
        EXPECT_EQ(got.mu.size(), offsets.back()) << where;
        ASSERT_EQ(got.schedule.size(), want.schedule.size()) << where;
        for (std::size_t t = 0; t < want.schedule.size(); ++t) {
          EXPECT_EQ(got.schedule[t].cache, want.schedule[t].cache) << where;
          for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
            EXPECT_EQ(got.schedule[t].load.sbs_data(n),
                      want.schedule[t].load.sbs_data(n))
                << where << " t=" << t << " n=" << n;
          }
        }
      }
    }
    util::ThreadPool::set_global_threads(1);
  }
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

// ---- the upper bound from per-cell partials -------------------------------

/// A random window with M classes per SBS, per-SBS beta, a random initial
/// cache and some empty cells.
struct RandomWindow {
  model::NetworkConfig config;
  model::CacheState initial;
  model::SparseDemandTrace demand;
};

RandomWindow random_window(Rng& rng, std::size_t classes) {
  RandomWindow out;
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(lo, hi));
  };
  const std::size_t num_sbs = pick(1, 4);
  const std::size_t k_count = pick(6, 16);
  const std::size_t w = pick(1, 5);
  out.config.num_contents = k_count;
  for (std::size_t n = 0; n < num_sbs; ++n) {
    model::SbsConfig sbs;
    sbs.cache_capacity = pick(1, 4);
    sbs.bandwidth = 5.0;
    sbs.replacement_beta = rng.uniform(0.5, 9.0);
    for (std::size_t m = 0; m < classes; ++m) {
      sbs.classes.push_back({.omega_bs = rng.uniform(0.5, 2.0),
                             .omega_sbs = rng.uniform(0.0, 0.1)});
    }
    out.config.sbs.push_back(std::move(sbs));
  }
  out.initial = model::CacheState(out.config);
  for (std::size_t n = 0; n < num_sbs; ++n) {
    for (std::size_t k = 0; k < k_count; ++k) {
      if (out.initial.count(n) < out.config.sbs[n].cache_capacity &&
          rng.bernoulli(0.2)) {
        out.initial.set(n, k, true);
      }
    }
  }
  for (std::size_t t = 0; t < w; ++t) {
    model::SparseSlotDemand slot;
    for (std::size_t n = 0; n < num_sbs; ++n) {
      model::SparseSbsDemand cell(classes, k_count);
      const bool empty = rng.bernoulli(0.2);
      for (std::size_t m = 0; m < classes && !empty; ++m) {
        for (std::size_t k = 0; k < k_count; ++k) {
          if (rng.bernoulli(0.4)) cell.append(m, k, rng.uniform(0.0, 3.0));
        }
      }
      cell.finalize();
      slot.push_back(std::move(cell));
    }
    out.demand.push_back(std::move(slot));
  }
  return out;
}

// Random P1 plans over each SBS's window union (so some contents stay
// "cached" through slots where they are off the active set, which the
// written schedule does not cache) and random repaired loads: the reduced
// partials must equal model::schedule_cost of the schedule that
// write_repaired_cell writes from the same plan and loads, bit for bit.
TEST(CellCost, ReducedPartialsMatchScheduleCostBitwise) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const std::size_t classes = seed % 2 == 0 ? 1 : 3;
    const RandomWindow win = random_window(rng, classes);
    const std::size_t num_sbs = win.config.num_sbs();
    const std::size_t w = win.demand.horizon();
    const core::ActiveSets sets =
        core::build_active_sets(win.config, win.demand, win.initial);
    std::vector<std::vector<std::uint8_t>> x(num_sbs);
    for (std::size_t n = 0; n < num_sbs; ++n) {
      x[n].resize(w * sets.p1_list[n].size());
      for (auto& bit : x[n]) bit = rng.bernoulli(0.5) ? 1 : 0;
    }
    model::Schedule schedule(w);
    for (model::SlotDecision& slot : schedule) {
      slot.cache = model::CacheState(win.config);
      slot.load = model::LoadAllocation(win.config);
    }
    std::vector<core::CellCost> cells(w * num_sbs);
    for (std::size_t t = 0; t < w; ++t) {
      for (std::size_t n = 0; n < num_sbs; ++n) {
        const std::size_t cell = t * num_sbs + n;
        linalg::Vec y(classes * sets.active[cell].size());
        for (double& v : y) v = rng.uniform(0.0, 1.0);
        core::write_repaired_cell(sets, t, n, x[n], y, schedule[t]);
        cells[cell] = core::repaired_cell_cost(win.config, win.demand,
                                               win.initial, sets, t, n,
                                               x[n], y);
      }
    }
    const double want =
        model::schedule_cost(win.config, model::DemandTraceView(win.demand),
                             schedule, win.initial)
            .total();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  core::repaired_schedule_cost(win.config, cells)),
              std::bit_cast<std::uint64_t>(want))
        << "seed " << seed;
  }
}

// ---- count()-guarded decoding ---------------------------------------------

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
