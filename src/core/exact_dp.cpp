#include "core/exact_dp.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace mdo::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// All subsets of {0..K-1} with at most `capacity` elements, as bitmasks.
std::vector<std::uint32_t> enumerate_sets(std::size_t k_count,
                                          std::size_t capacity,
                                          std::size_t max_states) {
  MDO_REQUIRE(k_count <= 20, "exact DP limited to K <= 20 contents");
  std::vector<std::uint32_t> sets;
  const std::uint32_t all = static_cast<std::uint32_t>(1u << k_count);
  for (std::uint32_t mask = 0; mask < all; ++mask) {
    if (static_cast<std::size_t>(__builtin_popcount(mask)) <= capacity) {
      sets.push_back(mask);
      MDO_REQUIRE(sets.size() <= max_states,
                  "exact DP: state budget exceeded; shrink the instance");
    }
  }
  return sets;
}

/// Insertions needed to go from set `from` to set `to`.
std::size_t insertions(std::uint32_t from, std::uint32_t to) {
  return static_cast<std::size_t>(__builtin_popcount(to & ~from));
}

struct PerSbsResult {
  std::vector<std::uint32_t> chosen;  // cache set per slot
  std::vector<linalg::Vec> load;      // repaired y per slot
  double objective = 0.0;
};

PerSbsResult solve_single_sbs(const model::NetworkConfig& config,
                              const model::SparseDemandTrace& demand,
                              std::size_t n, std::uint32_t initial_set,
                              const ExactDpOptions& options) {
  const std::size_t w = demand.horizon();
  const std::size_t k_count = config.num_contents;
  const auto sets = enumerate_sets(k_count, config.sbs[n].cache_capacity,
                                   options.max_states);
  const double beta = config.sbs[n].replacement_beta;
  const std::size_t classes = config.sbs[n].num_classes();
  std::vector<std::size_t> all(k_count);
  std::iota(all.begin(), all.end(), std::size_t{0});

  // opcost[t][s]: optimal f+g restricted to cache set sets[s] at slot t;
  // keep the minimizing y for reconstruction. P2 is bound over the whole
  // catalogue, so its compact layout m * K + k is the dense one.
  std::vector<std::vector<double>> opcost(w,
                                          std::vector<double>(sets.size()));
  std::vector<std::vector<linalg::Vec>> best_y(
      w, std::vector<linalg::Vec>(sets.size()));
  P2Workspace ws;
  linalg::Vec ub;
  for (std::size_t t = 0; t < w; ++t) {
    ws.bind_active(config.sbs[n], demand.slot(t)[n], all);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      ub.assign(classes * k_count, 0.0);
      for (std::size_t k = 0; k < k_count; ++k) {
        if ((sets[s] >> k) & 1u) {
          for (std::size_t m = 0; m < classes; ++m) ub[m * k_count + k] = 1.0;
        }
      }
      ws.set_upper(ub);
      opcost[t][s] = solve_load_balancing(ws).objective;
      best_y[t][s] = ws.y();
    }
  }

  // DP over slots.
  std::vector<double> value(sets.size());
  std::vector<std::vector<std::size_t>> parent(
      w, std::vector<std::size_t>(sets.size()));
  for (std::size_t s = 0; s < sets.size(); ++s) {
    value[s] = opcost[0][s] +
               beta * static_cast<double>(insertions(initial_set, sets[s]));
  }
  for (std::size_t t = 1; t < w; ++t) {
    std::vector<double> next(sets.size(), kInf);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      for (std::size_t prev = 0; prev < sets.size(); ++prev) {
        const double candidate =
            value[prev] +
            beta * static_cast<double>(insertions(sets[prev], sets[s]));
        if (candidate < next[s]) {
          next[s] = candidate;
          parent[t][s] = prev;
        }
      }
      next[s] += opcost[t][s];
    }
    value = std::move(next);
  }

  // Reconstruct.
  PerSbsResult out;
  std::size_t best_state = 0;
  for (std::size_t s = 1; s < sets.size(); ++s) {
    if (value[s] < value[best_state]) best_state = s;
  }
  out.objective = value[best_state];
  out.chosen.resize(w);
  out.load.resize(w);
  std::size_t state = best_state;
  for (std::size_t tt = w; tt > 0; --tt) {
    const std::size_t t = tt - 1;
    out.chosen[t] = sets[state];
    out.load[t] = best_y[t][state];
    if (t > 0) state = parent[t][state];
  }
  return out;
}

}  // namespace

ExactDpResult solve_joint_exact(const HorizonProblem& problem,
                                const ExactDpOptions& options) {
  problem.validate();
  const auto& config = *problem.config;
  model::SparseDemandTrace storage;
  const model::SparseDemandTrace& demand =
      model::sparse_trace(problem.demand_view(), storage);
  const std::size_t w = demand.horizon();

  ExactDpResult result;
  result.schedule.assign(w, {});
  for (std::size_t t = 0; t < w; ++t) {
    result.schedule[t].cache = model::CacheState(config);
    result.schedule[t].load = model::LoadAllocation(config);
  }

  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    std::uint32_t initial_set = 0;
    for (std::size_t k = 0; k < config.num_contents; ++k) {
      if (problem.initial_cache.cached(n, k)) {
        initial_set |= static_cast<std::uint32_t>(1u << k);
      }
    }
    const PerSbsResult sbs_result =
        solve_single_sbs(config, demand, n, initial_set, options);
    result.objective += sbs_result.objective;
    for (std::size_t t = 0; t < w; ++t) {
      for (std::size_t k = 0; k < config.num_contents; ++k) {
        result.schedule[t].cache.set(
            n, k, ((sbs_result.chosen[t] >> k) & 1u) != 0);
      }
      result.schedule[t].load.sbs_data(n) = sbs_result.load[t];
    }
  }
  return result;
}

}  // namespace mdo::core
