#include "core/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "model/feasibility.hpp"
#include "util/error.hpp"

namespace mdo::core {

double chc_rounding_threshold() { return (3.0 - std::sqrt(5.0)) / 2.0; }

double chc_approximation_ratio(double rho) {
  MDO_REQUIRE(rho > 0.0 && rho < 1.0, "rho must be in (0, 1)");
  // Theorem 3 balances the replacement-cost bound 1/rho against the BS-cost
  // bound 1/(1-rho)^2. (The SBS-cost factor is at most 1 — g is evaluated
  // at a *smaller* y after rounding and g is non-decreasing — so it never
  // dominates; the paper's printed max{1/rho, 1/rho^2, 1/(1-rho)^2} reaches
  // the same conclusion, ratio = 1/rho ~ 2.62 at rho = (3-sqrt(5))/2.)
  const double inv = 1.0 / rho;
  const double complement = 1.0 / ((1.0 - rho) * (1.0 - rho));
  return std::max(inv, complement);
}

model::CacheState round_cache(const model::NetworkConfig& config,
                              const std::vector<linalg::Vec>& fractional,
                              double rho) {
  MDO_REQUIRE(rho > 0.0 && rho < 1.0, "rho must be in (0, 1)");
  MDO_REQUIRE(fractional.size() == config.num_sbs(),
              "round_cache: SBS count mismatch");
  model::CacheState cache(config);
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const auto& values = fractional[n];
    MDO_REQUIRE(values.size() == config.num_contents,
                "round_cache: content count mismatch");
    std::vector<std::size_t> selected;
    for (std::size_t k = 0; k < values.size(); ++k) {
      MDO_REQUIRE(values[k] >= -1e-9 && values[k] <= 1.0 + 1e-9,
                  "round_cache: fractional value outside [0, 1]");
      if (values[k] >= rho) selected.push_back(k);
    }
    const std::size_t capacity = config.sbs[n].cache_capacity;
    if (selected.size() > capacity) {
      // Keep the top-capacity fractional values (documented deviation).
      std::stable_sort(selected.begin(), selected.end(),
                       [&values](std::size_t a, std::size_t b) {
                         return values[a] > values[b];
                       });
      selected.resize(capacity);
    }
    for (const std::size_t k : selected) cache.set(n, k, true);
  }
  return cache;
}

void mask_load_by_cache(const model::NetworkConfig& config,
                        const model::CacheState& cache,
                        model::LoadAllocation& load) {
  // Only stored entries can be nonzero, so only they are masked.
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    model::LoadRow& row = load.row(n);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (cache.cached(n, row.contents()[i])) continue;
      for (std::size_t m = 0; m < row.num_classes(); ++m) {
        row.class_values(m)[i] = 0.0;
      }
    }
  }
  if (!load.has_neighbor()) return;
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    model::LoadRow& row = load.neighbor_row(n);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (model::neighbor_source(config, cache, n, row.contents()[i]) !=
          config.num_sbs()) {
        continue;  // a positive-bandwidth peer still caches k
      }
      for (std::size_t m = 0; m < row.num_classes(); ++m) {
        row.class_values(m)[i] = 0.0;
      }
    }
  }
}

}  // namespace mdo::core
