// Steady-state allocation gate for P2 (see DESIGN.md "hot-path memory
// model"): once a core::P2Workspace is bound and warmed up, re-solving it
// with a refreshed linear term — exactly what the dual loop does per
// iteration — must not touch the heap, with every omega_sbs zero and with
// the r step (omega_sbs > 0), each with the bandwidth binding or slack.
// Neither must the
// feasibility repair's pattern, a box upper bound alternating between two
// cache masks. A byte ceiling on one sparse forecast keeps the noisy
// predictor from building content-wide (K-wide) buffers again, and an
// allocation ceiling on one sparse window solve keeps the P1 flow networks
// flat.
//
// The binary replaces the global allocation functions with a counting
// forwarder to malloc/free, so it is its own executable: the counter would
// otherwise see every allocation of the suites linked next to it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/load_balancing.hpp"
#include "core/primal_dual.hpp"
#include "linalg/vec.hpp"
#include "model/sparse_demand.hpp"
#include "shard/coordinator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/zipf.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* ptr = std::malloc(size > 0 ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* counted_alloc_aligned(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* ptr = std::aligned_alloc(alignment, rounded > 0 ? rounded : alignment);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Bytes requested from the allocation functions so far (frees are not
/// subtracted: this counts traffic, not residency).
std::uint64_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace mdo {
namespace {

enum class Regime {
  kExactBinding,  // the exact solver bisects the bandwidth multiplier
  kExactSlack,    // the exact solver stops at theta = 0
  kMaskToggle,    // exact; set_upper alternates two masks, c = 0
  kSbsWeightedBinding,  // omega_sbs > 0: the r step over binding solves
  kSbsWeightedSlack,    // omega_sbs > 0: the r step over slack solves
};

/// Binds one workspace on a 30x30 cell, solves twice to warm it up, then
/// re-solves `repeats` times with a perturbed linear term (the dual loop's
/// per-iteration pattern; the repair's mask toggle for kMaskToggle) and
/// returns the heap allocations of those re-solves.
std::uint64_t steady_p2_allocations(Regime regime, std::size_t repeats) {
  const bool sbs_weighted = regime == Regime::kSbsWeightedBinding ||
                            regime == Regime::kSbsWeightedSlack;
  const std::size_t classes = 30, contents = 30;
  model::SbsConfig sbs;
  sbs.cache_capacity = contents;
  sbs.bandwidth =
      regime == Regime::kExactSlack || regime == Regime::kSbsWeightedSlack
          ? 1e6
          : static_cast<double>(classes) / 2.0;
  sbs.replacement_beta = 1.0;
  model::SbsDemand dense(classes, contents);
  Rng rng(5);
  sbs.classes.resize(classes);
  for (auto& mu : sbs.classes) {
    mu = {rng.uniform(0.0, 1.0), sbs_weighted ? 0.05 : 0.0};
  }
  for (auto& v : dense.data()) v = rng.uniform(0.0, 2.0 / contents);
  const model::SparseSbsDemand demand =
      model::SparseSbsDemand::from_dense(dense);
  std::vector<std::size_t> active(contents);
  for (std::size_t k = 0; k < contents; ++k) active[k] = k;
  linalg::Vec base(classes * contents);
  for (auto& v : base) v = rng.uniform(0.0, 0.2);
  linalg::Vec c = base;

  core::P2Workspace ws;
  ws.bind_active(sbs, demand, active);
  if (regime == Regime::kMaskToggle) {
    linalg::Vec masks[2] = {linalg::Vec(classes * contents),
                            linalg::Vec(classes * contents)};
    for (auto& mask : masks) {
      for (auto& b : mask) b = rng.bernoulli(0.3) ? 0.0 : 1.0;
      ws.set_upper(mask);  // warm-up: both masks once
      core::solve_load_balancing(ws);
    }
    const std::uint64_t before_steady = allocation_count();
    for (std::size_t r = 0; r < repeats; ++r) {
      ws.set_upper(masks[r % 2]);
      core::solve_load_balancing(ws);
    }
    return allocation_count() - before_steady;
  }
  ws.set_linear(c.data(), c.data() + c.size());
  core::solve_load_balancing(ws);
  // Second warm-up with the steady loop's perturbation pattern: the exact
  // parametric path sizes a tie-grouping scratch by the number of distinct
  // breakpoints, which the perturbed c can raise once.
  for (std::size_t j = 0; j < c.size(); ++j) {
    c[j] = base[j] * (1.0 + 0.01 * static_cast<double>(j % 7));
  }
  ws.set_linear(c.data(), c.data() + c.size());
  core::solve_load_balancing(ws);

  const std::uint64_t before_steady = allocation_count();
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t j = 0; j < c.size(); ++j) {
      c[j] = base[j] * (1.0 + 0.01 * static_cast<double>((r + j) % 7));
    }
    ws.set_linear(c.data(), c.data() + c.size());
    core::solve_load_balancing(ws);
  }
  return allocation_count() - before_steady;
}

constexpr std::size_t kSteadyRepeats = 64;

TEST(Allocations, ExactP2SteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_p2_allocations(Regime::kExactBinding, kSteadyRepeats), 0u);
}

TEST(Allocations, ExactP2SlackBandwidthIsAllocationFree) {
  EXPECT_EQ(steady_p2_allocations(Regime::kExactSlack, kSteadyRepeats), 0u);
}

TEST(Allocations, ExactP2MaskToggleIsAllocationFree) {
  EXPECT_EQ(steady_p2_allocations(Regime::kMaskToggle, kSteadyRepeats), 0u);
}

TEST(Allocations, SbsWeightedP2SteadyStateIsAllocationFree) {
  EXPECT_EQ(
      steady_p2_allocations(Regime::kSbsWeightedBinding, kSteadyRepeats), 0u);
  EXPECT_EQ(steady_p2_allocations(Regime::kSbsWeightedSlack, kSteadyRepeats),
            0u);
}

/// The sparse_n64 perfbench shape scaled down to N = 8, K = 2000: two
/// classes per SBS, the catalogue cut at the Zipf rate of rank 0.02 K.
model::ProblemInstance truncated_sparse_instance() {
  workload::PaperScenario scenario;
  scenario.num_sbs = 8;
  scenario.num_contents = 2000;
  scenario.classes_per_sbs = 2;
  scenario.horizon = 4;
  const auto pmf = workload::zipf_mandelbrot_pmf(
      scenario.num_contents, scenario.workload.zipf_alpha,
      scenario.workload.zipf_q);
  scenario.workload.min_rate = pmf[scenario.num_contents / 50];
  return scenario.build_sparse();
}

// Ceiling measured at the commit that added this gate (parent 8369573),
// g++ 12: one forecast of the instance above allocated 35,504 bytes in 36
// allocations, nearly all of it the copied truth slot. The parent built an
// N x K factor matrix per call and allocated 159,312 bytes; that matrix
// alone is N * K * sizeof(double) = 128,000 bytes. Lower the ceiling when
// a change lowers the measurement.
constexpr std::uint64_t kSparseForecastByteCeiling = 40 * 1024;

TEST(Allocations, SparseForecastAllocatesNoContentWideFactors) {
  const model::ProblemInstance instance = truncated_sparse_instance();
  const std::size_t num_sbs = instance.config.num_sbs();
  const std::size_t contents = instance.config.num_contents;
  std::size_t stored = 0;
  for (const model::SparseSbsDemand& sbs : instance.sparse_demand.slot(2)) {
    stored += sbs.nnz();
  }
  ASSERT_LT(stored, num_sbs * contents / 10) << "the truncation must bite";
  const workload::NoisyPredictor predictor(instance.sparse_demand, 0.2, 7);
  const std::uint64_t before = allocated_bytes();
  const model::SparseSlotDemand forecast = predictor.predict_sparse(1, 2);
  const std::uint64_t bytes = allocated_bytes() - before;
  ASSERT_EQ(forecast.size(), num_sbs);
  EXPECT_LE(bytes, kSparseForecastByteCeiling);
  EXPECT_LT(kSparseForecastByteCeiling, num_sbs * contents * sizeof(double));
}

// The window solve of Algorithm 1 on the truncated sparse shape above (the
// perf test_budgets shape, in process, 1 thread): RHC windows of w = 4,
// each planned from the previous plan's first cache. Every solve rebuilds
// its per-window state (active sets, P2 bindings, any P1 flow network the
// idle certificate does not rule out), so it allocates; the count and the
// bytes per steady solve are deterministic.
struct SolveAllocations {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

SolveAllocations sparse_window_solve_allocations(std::size_t solves) {
  constexpr std::size_t kWindow = 4;
  workload::PaperScenario scenario;
  scenario.num_sbs = 8;
  scenario.num_contents = 2000;
  scenario.classes_per_sbs = 2;
  scenario.horizon = kWindow + solves;
  scenario.seed = 7;
  scenario.workload.min_rate = workload::zipf_mandelbrot_pmf(
      scenario.num_contents, scenario.workload.zipf_alpha,
      scenario.workload.zipf_q)[scenario.num_contents / 50];
  const model::ProblemInstance instance = scenario.build_sparse();
  const workload::PerfectPredictor predictor(instance.sparse_demand);
  std::vector<model::SparseDemandTrace> windows;
  for (std::size_t tau = 0; tau <= solves; ++tau) {
    windows.push_back(predictor.predict_window_sparse(tau, kWindow));
  }

  util::ThreadPool::set_global_threads(1);
  core::PrimalDualOptions options;
  options.shard_count = shard::kShardsInProcess;
  core::PrimalDualSolver solver(options);
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.initial_cache = instance.initial_cache;
  SolveAllocations steady;
  for (std::size_t tau = 0; tau <= solves; ++tau) {
    problem.sparse_demand = &windows[tau];
    const std::uint64_t count_before = allocation_count();
    const std::uint64_t bytes_before = allocated_bytes();
    core::HorizonSolution solution = solver.solve(problem);
    // The first solve also sizes the solver's banks: not steady.
    if (tau > 0) {
      steady.count += allocation_count() - count_before;
      steady.bytes += allocated_bytes() - bytes_before;
    }
    problem.initial_cache = solution.schedule.front().cache;
  }
  util::ThreadPool::set_global_threads(0);
  return {steady.count / solves, steady.bytes / solves};
}

// Ceiling measured at the commit that added it (parent 0e6e952), g++ 12:
// 473 allocations per steady solve. The parent, whose flow networks kept
// one std::vector of arc indices per node, made 24,178. Lowered to 410
// when P1 stopped building a flow network for SBSs whose plan the idle
// certificate proves (parent 4c9c4d8), and to 342, the measured count,
// when each repaired cell's loads became a compact row instead of a
// zero-filled M x K row per cell (parent 961b09d, which made 378). Lower
// the ceiling when a change lowers the measurement.
constexpr std::uint64_t kSparseWindowSolveAllocationCeiling = 342;

// Heap bytes per steady solve of the same shape, measured at the commit
// that added this gate (parent 961b09d), g++ 12: 587,485. The parent
// allocated 1,610,557, of which 1,024,000 were the w x N dense M x K load
// rows of the repaired buffer (4 * 8 * 2 * 2000 * 8 bytes): restoring one
// zero-filled M x K row per cell fails the gate. Lower the ceiling when a
// change lowers the measurement.
constexpr std::uint64_t kSparseWindowSolveByteCeiling = 640 * 1024;

TEST(Allocations, SparseWindowSolveAllocationCeiling) {
  const std::uint64_t per_solve = sparse_window_solve_allocations(4).count;
  RecordProperty("allocations_per_solve", static_cast<int>(per_solve));
  EXPECT_LE(per_solve, kSparseWindowSolveAllocationCeiling);
}

TEST(Allocations, SparseWindowSolveByteCeiling) {
  const std::uint64_t per_solve = sparse_window_solve_allocations(4).bytes;
  RecordProperty("bytes_per_solve", static_cast<int>(per_solve));
  EXPECT_LE(per_solve, kSparseWindowSolveByteCeiling);
}

}  // namespace
}  // namespace mdo
