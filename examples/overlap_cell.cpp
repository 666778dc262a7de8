// Overlapping-coverage cell (the extension the paper sketches in Sec. II-A).
//
// A corridor of 3 SBSs whose coverage areas overlap: edge classes reach one
// SBS, middle classes reach two. The example runs the overlap primal-dual
// solver over a short horizon and compares it against (a) caching nothing
// and (b) a greedy top-C heuristic with the same optimal load balancing,
// demonstrating the value of jointly planning cache contents across
// overlapping neighbors. It then slides the window by one slot and plans it
// on the same solver from the first plan's slot-0 cache, as a receding
// horizon would, so the output also shows what a reused solver carries
// from one solve to the next.
//
//   ./overlap_cell [--slots N] [--contents K] [--seed S]
#include <iomanip>
#include <iostream>

#include "overlap/primal_dual.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/zipf.hpp"

int main(int argc, char** argv) {
  using namespace mdo;
  using namespace mdo::overlap;
  try {
    const CliFlags flags(argc, argv);
    const auto slots = static_cast<std::size_t>(flags.get_int("slots", 6));
    const auto contents =
        static_cast<std::size_t>(flags.get_int("contents", 8));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
    flags.require_all_consumed();

    // Corridor: SBS 0 -- SBS 1 -- SBS 2. Five classes: 0 (left edge),
    // 1 (left overlap), 2 (center), 3 (right overlap), 4 (right edge).
    OverlapConfig config;
    config.num_contents = contents;
    config.sbs.assign(3, SbsParams{.cache_capacity = 2, .bandwidth = 3.0,
                                   .replacement_beta = 4.0});
    config.classes = {
        {.omega_bs = 0.9, .neighbors = {0}, .omega_sbs = {0.0}},
        {.omega_bs = 0.8, .neighbors = {0, 1}, .omega_sbs = {0.0, 0.0}},
        {.omega_bs = 1.0, .neighbors = {1}, .omega_sbs = {0.0}},
        {.omega_bs = 0.7, .neighbors = {1, 2}, .omega_sbs = {0.0, 0.0}},
        {.omega_bs = 0.6, .neighbors = {2}, .omega_sbs = {0.0}},
    };
    config.validate();
    const OverlapLayout layout(config);

    // Zipf-popular contents, per-class per-slot densities.
    Rng rng(seed);
    const auto pmf = workload::zipf_mandelbrot_pmf(contents, 0.8, 5.0);
    OverlapHorizonProblem problem;
    problem.config = &config;
    problem.layout = &layout;
    for (std::size_t t = 0; t < slots; ++t) {
      ClassDemand demand(config.num_classes(), contents);
      for (std::size_t m = 0; m < config.num_classes(); ++m) {
        const double density = rng.uniform(1.0, 4.0);
        for (std::size_t k = 0; k < contents; ++k) {
          demand.at(m, k) = density * pmf[k] * rng.uniform(0.8, 1.2);
        }
      }
      problem.demand.push_back(std::move(demand));
    }
    problem.initial = empty_cache(config);

    std::cout << "Overlap cell: 3 SBSs in a corridor, 5 classes (2 in "
                 "overlap zones), K=" << contents << ", T=" << slots
              << "\n\n";

    // (a) no caching at all.
    std::vector<OverlapDecision> idle(slots);
    for (std::size_t t = 0; t < slots; ++t) {
      idle[t].cache = empty_cache(config);
      idle[t].y.assign(layout.y_size(), 0.0);
    }
    const double no_cache_cost = schedule_cost(config, layout, problem.demand,
                                               idle, problem.initial);

    // (b) greedy: each SBS caches the top-C contents of its reachable
    // demand (slot 0), held static; load balancing solved optimally.
    std::vector<OverlapDecision> greedy(slots);
    {
      OverlapCache cache = empty_cache(config);
      for (std::size_t n = 0; n < config.num_sbs(); ++n) {
        std::vector<std::pair<double, std::size_t>> scored(contents);
        for (std::size_t k = 0; k < contents; ++k) {
          double volume = 0.0;
          for (const std::size_t id : layout.links_of_sbs(n)) {
            volume += problem.demand[0].at(layout.link(id).first, k);
          }
          scored[k] = {volume, k};
        }
        std::sort(scored.rbegin(), scored.rend());
        for (std::size_t i = 0; i < config.sbs[n].cache_capacity; ++i) {
          cache[n][scored[i].second] = 1;
        }
      }
      for (std::size_t t = 0; t < slots; ++t) {
        greedy[t].cache = cache;
        linalg::Vec upper(layout.y_size(), 0.0);
        for (std::size_t id = 0; id < layout.num_links(); ++id) {
          const auto [m, n] = layout.link(id);
          (void)m;
          for (std::size_t k = 0; k < contents; ++k) {
            if (cache[n][k]) upper[layout.index(id, k)] = 1.0;
          }
        }
        OverlapP2Workspace p2;
        p2.bind(config, layout, problem.demand[t]);
        p2.set_upper(upper);
        solve_overlap_load_balancing(p2, {});
        greedy[t].y = p2.y();
      }
    }
    const double greedy_cost = schedule_cost(config, layout, problem.demand,
                                             greedy, problem.initial);

    // (c) the joint overlap primal-dual plan.
    OverlapPrimalDualOptions options;
    options.max_iterations = 30;
    OverlapPrimalDualSolver solver(options);
    const auto solution = solver.solve(problem);

    TextTable table({"scheme", "total cost", "vs no-cache"});
    table.add_row({"no caching", TextTable::fmt(no_cache_cost),
                   TextTable::fmt(1.0, 3)});
    table.add_row({"greedy top-C + optimal LB", TextTable::fmt(greedy_cost),
                   TextTable::fmt(greedy_cost / no_cache_cost, 3)});
    table.add_row({"overlap primal-dual", TextTable::fmt(solution.upper_bound),
                   TextTable::fmt(solution.upper_bound / no_cache_cost, 3)});
    table.print(std::cout);
    std::cout << "\nprimal-dual certified lower bound: "
              << solution.lower_bound << " (gap "
              << 100.0 * solution.gap() << "%)\n";

    // Show the planned caches of the middle SBS over time.
    const auto print_plan = [&](const std::vector<OverlapDecision>& schedule,
                                std::size_t first_slot) {
      for (std::size_t t = 0; t < schedule.size(); ++t) {
        std::cout << "  t=" << first_slot + t << ": {";
        bool first = true;
        for (std::size_t k = 0; k < contents; ++k) {
          if (schedule[t].cache[1][k]) {
            std::cout << (first ? "" : ", ") << k;
            first = false;
          }
        }
        std::cout << "}\n";
      }
    };
    std::cout << "\nSBS 1 (center, both overlap zones) cache plan:\n";
    print_plan(solution.schedule, 0);

    // (d) the window slid by one slot, on the same solver: slots 1..T of
    // the demand above plus one new slot, from the first plan's t=0 cache.
    OverlapHorizonProblem slid;
    slid.config = &config;
    slid.layout = &layout;
    slid.demand.assign(problem.demand.begin() + 1, problem.demand.end());
    {
      ClassDemand demand(config.num_classes(), contents);
      for (std::size_t m = 0; m < config.num_classes(); ++m) {
        const double density = rng.uniform(1.0, 4.0);
        for (std::size_t k = 0; k < contents; ++k) {
          demand.at(m, k) = density * pmf[k] * rng.uniform(0.8, 1.2);
        }
      }
      slid.demand.push_back(std::move(demand));
    }
    slid.initial = solution.schedule.front().cache;
    const auto next = solver.solve(slid);
    // Full precision and the final multipliers' sum, so state a reused
    // solver carried over from the first solve would show.
    double mu_sum = 0.0;
    for (const double value : next.mu) mu_sum += value;
    std::cout << std::setprecision(17) << "\nslid window (t=1.." << slots
              << ", same solver, from the t=0 plan's cache): cost "
              << next.upper_bound << ", lower bound " << next.lower_bound
              << ", " << next.iterations << " iterations, sum of mu "
              << mu_sum << "\n";
    std::cout << "SBS 1 cache plan:\n";
    print_plan(next.schedule, 1);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
