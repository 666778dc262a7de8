// E10 — hot-path allocation and latency bench.
//
// Two measurements back the zero-allocation claims in DESIGN.md ("hot-path
// memory model"):
//
//  1. Steady-state P2 micro-loop: bind a core::P2Workspace once, then
//     re-solve with a refreshed linear term (exactly what the dual loop
//     does per iteration) and count heap allocations with a global
//     operator-new hook. After the warm-up solve the count must stay at
//     zero — for the exact parametric path AND the FISTA path.
//
//  2. Full RHC runs over the headline instance (default T=100) on the one
//     solver path (persistent workspace bank, P1 networks built once per
//     solve and re-priced, P2 warm starts carried across windows), at one
//     thread ("hotpath") and at --threads ("hotpath_mt"), reporting wall
//     clock, allocations per decision, and per-slot decision latency
//     percentiles.
//
// Determinism guard (exit code != 0 on violation): total costs must be
// bit-identical across MDO thread counts. The steady-state allocation
// counts must also stay within --steady-allocs-limit (default 0).
//
// Flags beyond the common set (see common.hpp; --slots defaults to 100
// here, the paper's T):
//   --reps N                timing repetitions per config (default 3)
//   --steady-repeats N      steady-state P2 re-solves (default 64)
//   --steady-allocs-limit N allocation ceiling for the steady loop
//   --threads N             thread count for the determinism re-run
//   --p99-budget-ms X       p99 decision-latency budget for the hot path
//                           (0 = gate off, the default); exceeding it fails
//                           the bench like a determinism violation
//   --json PATH             output path (default BENCH_hotpath.json)
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "common.hpp"
#include "core/load_balancing.hpp"
#include "core/primal_dual.hpp"
#include "online/rhc.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. Every path through the replaced operators
// bumps one relaxed atomic; scopes read the counter before/after.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size > 0 ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* counted_alloc_aligned(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* ptr = std::aligned_alloc(alignment, rounded > 0 ? rounded : alignment);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
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

namespace {

using namespace mdo;

/// Nearest-rank percentile of an unsorted sample; p in (0, 100].
double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sample[std::min(sample.size() - 1, rank > 0 ? rank - 1 : 0)];
}

// ---- Measurement 1: steady-state P2 allocations -------------------------

struct SteadyStats {
  std::uint64_t warmup_allocations = 0;  // bind + first solve
  std::uint64_t steady_allocations = 0;  // all subsequent solves
  std::size_t solves = 0;
  std::size_t solver_iterations = 0;  // FISTA/bisection iterations summed
  double allocs_per_iteration = 0.0;
};

/// Binds one workspace, solves once, then re-solves `repeats` times with a
/// perturbed linear term — the dual loop's per-iteration pattern.
SteadyStats measure_p2_steady(bool fista_path, std::size_t repeats) {
  const std::size_t classes = 30, contents = 30;
  model::SbsConfig sbs;
  sbs.cache_capacity = contents;
  sbs.bandwidth = static_cast<double>(classes) / 2.0;
  sbs.replacement_beta = 1.0;
  model::SbsDemand dense(classes, contents);
  Rng rng(5);
  sbs.classes.resize(classes);
  for (auto& mu : sbs.classes) {
    mu = {rng.uniform(0.0, 1.0), fista_path ? 0.05 : 0.0};
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
  const core::LoadBalancingOptions options;
  SteadyStats stats;

  const std::uint64_t before_warmup = allocation_count();
  ws.bind_active(sbs, demand, active);
  ws.set_linear(c.data(), c.data() + c.size());
  core::solve_load_balancing(ws, options);
  // Second warm-up with the steady loop's perturbation pattern: the exact
  // parametric path sizes a tie-grouping scratch by the number of distinct
  // breakpoints, which the perturbed c can raise once.
  for (std::size_t j = 0; j < c.size(); ++j) {
    c[j] = base[j] * (1.0 + 0.01 * static_cast<double>(j % 7));
  }
  ws.set_linear(c.data(), c.data() + c.size());
  core::solve_load_balancing(ws, options);
  stats.warmup_allocations = allocation_count() - before_warmup;

  const std::uint64_t before_steady = allocation_count();
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t j = 0; j < c.size(); ++j) {
      c[j] = base[j] * (1.0 + 0.01 * static_cast<double>((r + j) % 7));
    }
    ws.set_linear(c.data(), c.data() + c.size());
    const auto outcome = core::solve_load_balancing(ws, options);
    stats.solver_iterations += outcome.iterations;
    ++stats.solves;
  }
  stats.steady_allocations = allocation_count() - before_steady;
  stats.allocs_per_iteration =
      stats.solver_iterations > 0
          ? static_cast<double>(stats.steady_allocations) /
                static_cast<double>(stats.solver_iterations)
          : static_cast<double>(stats.steady_allocations);
  return stats;
}

// ---- Measurement 2: full RHC runs ---------------------------------------

struct RunStats {
  std::string label;
  std::size_t threads = 1;
  double wall_seconds = 0.0;  // best of --reps
  double total_cost = 0.0;
  std::uint64_t allocations = 0;  // whole run, first repetition
  double allocs_per_decision = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;  // decision seconds
};

RunStats run_rhc(const sim::ExperimentConfig& config,
                 const core::PrimalDualOptions& pd, std::size_t threads,
                 std::size_t reps, std::string label) {
  util::ThreadPool::set_global_threads(threads);
  const model::ProblemInstance instance = config.scenario.build();
  const workload::NoisyPredictor predictor(instance.demand, config.eta,
                                           config.predictor_seed);
  const sim::Simulator simulator(instance, predictor);

  RunStats stats;
  stats.label = std::move(label);
  stats.threads = threads;
  stats.wall_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < std::max<std::size_t>(reps, 1); ++rep) {
    online::RhcController rhc(config.window, pd);
    const std::uint64_t before = allocation_count();
    const Stopwatch watch;
    const auto result = simulator.run(rhc);
    stats.wall_seconds = std::min(stats.wall_seconds, watch.elapsed_seconds());
    if (rep == 0) {
      stats.allocations = allocation_count() - before;
      stats.total_cost = result.total_cost();
      stats.allocs_per_decision =
          static_cast<double>(stats.allocations) /
          static_cast<double>(std::max<std::size_t>(result.slots.size(), 1));
      std::vector<double> decision_seconds;
      decision_seconds.reserve(result.slots.size());
      for (const auto& slot : result.slots) {
        decision_seconds.push_back(slot.decision_seconds);
      }
      stats.p50 = percentile(decision_seconds, 50.0);
      stats.p90 = percentile(decision_seconds, 90.0);
      stats.p99 = percentile(decision_seconds, 99.0);
    }
  }
  return stats;
}

void print_run(const RunStats& run) {
  std::cout << "  " << run.label << ": wall=" << run.wall_seconds
            << "s cost=" << run.total_cost
            << " allocs/decision=" << run.allocs_per_decision
            << " p50/p90/p99=" << run.p50 << "/" << run.p90 << "/" << run.p99
            << "\n";
}

void json_run(std::ostream& os, const RunStats& run, bool last) {
  os << "    {\"label\": \"" << run.label << "\", \"threads\": " << run.threads
     << ", \"wall_seconds\": " << run.wall_seconds
     << ", \"total_cost\": " << run.total_cost
     << ", \"allocations\": " << run.allocations
     << ", \"allocs_per_decision\": " << run.allocs_per_decision
     << ", \"decision_seconds\": {\"p50\": " << run.p50
     << ", \"p90\": " << run.p90 << ", \"p99\": " << run.p99 << "}}"
     << (last ? "" : ",") << "\n";
}

void json_steady(std::ostream& os, const char* name, const SteadyStats& s,
                 bool last) {
  os << "    \"" << name << "\": {\"warmup_allocations\": "
     << s.warmup_allocations
     << ", \"steady_allocations\": " << s.steady_allocations
     << ", \"solves\": " << s.solves
     << ", \"solver_iterations\": " << s.solver_iterations
     << ", \"allocs_per_iteration\": " << s.allocs_per_iteration << "}"
     << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    bench::BenchSetup setup = bench::parse_common(flags);
    const auto reps = static_cast<std::size_t>(flags.get_int("reps", 3));
    const auto steady_repeats =
        static_cast<std::size_t>(flags.get_int("steady-repeats", 64));
    const auto steady_limit = static_cast<std::uint64_t>(
        flags.get_int("steady-allocs-limit", 0));
    const auto mt_threads =
        static_cast<std::size_t>(flags.get_int("threads", 4));
    const double p99_budget_ms = flags.get_double("p99-budget-ms", 0.0);
    const std::string json_path =
        flags.get_string("json", "BENCH_hotpath.json");
    flags.require_all_consumed();

    auto config = setup.experiment;
    if (!flags.has("slots")) config.scenario.horizon = 100;  // the paper's T

    std::cout << "Hot-path allocation / latency bench\n"
              << "T=" << config.scenario.horizon << " w=" << config.window
              << " reps=" << reps << "\n";

    // ---- Steady-state P2 allocations (single-threaded by construction).
    const SteadyStats exact = measure_p2_steady(false, steady_repeats);
    const SteadyStats fista = measure_p2_steady(true, steady_repeats);
    std::cout << "P2 steady-state allocations: exact="
              << exact.steady_allocations << "/" << exact.solves
              << " solves, fista=" << fista.steady_allocations << "/"
              << fista.solves << " solves (" << fista.solver_iterations
              << " FISTA iterations, " << fista.allocs_per_iteration
              << " allocs/iteration)\n";

    // ---- Full runs.
    const core::PrimalDualOptions& pd = config.primal_dual;
    std::vector<RunStats> runs;
    runs.push_back(run_rhc(config, pd, 1, reps, "hotpath"));
    runs.push_back(run_rhc(config, pd, mt_threads, 1, "hotpath_mt"));
    util::ThreadPool::set_global_threads(1);
    for (const RunStats& run : runs) print_run(run);
    const RunStats& hot_run = runs[0];
    const RunStats& mt_run = runs[1];

    // ---- Determinism guard.
    bool deterministic = true;
    if (mt_run.total_cost != hot_run.total_cost) {
      deterministic = false;
      std::cerr << "DETERMINISM VIOLATION: cost differs between 1 and "
                << mt_threads << " threads\n";
    }
    const bool allocs_ok = exact.steady_allocations <= steady_limit &&
                           fista.steady_allocations <= steady_limit;
    if (!allocs_ok) {
      std::cerr << "ALLOCATION CEILING EXCEEDED: steady-state P2 solves "
                   "allocated (limit "
                << steady_limit << ")\n";
    }
    // Optional p99 decision-latency budget (ms) on the hot path.
    const bool p99_ok =
        p99_budget_ms <= 0.0 || hot_run.p99 * 1000.0 <= p99_budget_ms;
    if (!p99_ok) {
      std::cerr << "P99 BUDGET EXCEEDED: hot path p99 = "
                << hot_run.p99 * 1000.0 << " ms > budget " << p99_budget_ms
                << " ms\n";
    }
    std::cout << (deterministic ? "deterministic across thread counts\n"
                                : "NOT deterministic\n");

    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "warning: cannot open JSON path " << json_path << "\n";
    } else {
      json.precision(17);
      json << "{\n"
           << "  \"bench\": \"hotpath\",\n"
           << "  \"slots\": " << config.scenario.horizon << ",\n"
           << "  \"window\": " << config.window << ",\n"
           << "  \"reps\": " << reps << ",\n"
           << "  \"steady_state\": {\n";
      json_steady(json, "exact", exact, false);
      json_steady(json, "fista", fista, true);
      json << "  },\n"
           << "  \"runs\": [\n";
      for (std::size_t i = 0; i < runs.size(); ++i) {
        json_run(json, runs[i], i + 1 == runs.size());
      }
      json << "  ],\n"
           << "  \"steady_allocs_limit\": " << steady_limit << ",\n"
           << "  \"p99_budget_ms\": " << p99_budget_ms << ",\n"
           << "  \"p99_budget_ok\": " << (p99_ok ? "true" : "false") << ",\n"
           << "  \"allocations_ok\": " << (allocs_ok ? "true" : "false")
           << ",\n"
           << "  \"deterministic\": " << (deterministic ? "true" : "false")
           << "\n}\n";
      std::cout << "wrote " << json_path << "\n";
    }
    return deterministic && allocs_ok && p99_ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
