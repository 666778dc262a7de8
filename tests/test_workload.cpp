// Unit tests for the workload generator, Zipf popularity, and predictors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/ema_predictor.hpp"
#include "workload/zipf.hpp"

namespace mdo::workload {
namespace {

// ------------------------------------------------------------------ zipf ----

TEST(Zipf, WeightsMatchEq49) {
  // p(i) = K / (i + q)^alpha with 1-based rank i.
  const auto w = zipf_mandelbrot_weights(4, 0.8, 2.0);
  ASSERT_EQ(w.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w[i], 4.0 / std::pow(static_cast<double>(i + 1) + 2.0, 0.8),
                1e-12);
  }
}

TEST(Zipf, WeightsDecreaseWithRank) {
  const auto w = zipf_mandelbrot_weights(30, 0.8, 30.0);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
}

TEST(Zipf, PmfSumsToOne) {
  const auto p = zipf_mandelbrot_pmf(30, 0.8, 30.0);
  double total = 0.0;
  for (const double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, ZeroAlphaIsUniform) {
  const auto p = zipf_mandelbrot_pmf(5, 0.0, 10.0);
  for (const double v : p) EXPECT_NEAR(v, 0.2, 1e-12);
}

TEST(Zipf, ValidatesArguments) {
  EXPECT_THROW(zipf_mandelbrot_weights(0, 0.8, 1.0), InvalidArgument);
  EXPECT_THROW(zipf_mandelbrot_weights(5, -1.0, 1.0), InvalidArgument);
  EXPECT_THROW(zipf_mandelbrot_weights(5, 1.0, -1.0), InvalidArgument);
}

// -------------------------------------------------------------- generator ----

model::NetworkConfig tiny_config() {
  model::NetworkConfig config;
  config.num_contents = 6;
  model::SbsConfig sbs;
  sbs.cache_capacity = 2;
  sbs.bandwidth = 5.0;
  sbs.replacement_beta = 1.0;
  sbs.classes = {model::MuClass{1.0, 0.0}, model::MuClass{0.5, 0.0}};
  config.sbs.push_back(sbs);
  return config;
}

TEST(Generator, ShapesAndNonNegativity) {
  const auto config = tiny_config();
  WorkloadOptions options;
  const auto trace = generate_demand(config, 12, options);
  EXPECT_EQ(trace.horizon(), 12u);
  EXPECT_NO_THROW(trace.validate(config));
}

TEST(Generator, DeterministicInSeed) {
  const auto config = tiny_config();
  WorkloadOptions options;
  options.seed = 42;
  const auto a = generate_demand(config, 6, options);
  const auto b = generate_demand(config, 6, options);
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_EQ(a.slot(t)[0].data(), b.slot(t)[0].data());
  }
  options.seed = 43;
  const auto c = generate_demand(config, 6, options);
  EXPECT_NE(a.slot(0)[0].data(), c.slot(0)[0].data());
}

TEST(Generator, DensityBoundsRespected) {
  const auto config = tiny_config();
  WorkloadOptions options;
  options.density_min = 1.0;
  options.density_max = 2.0;
  options.demand_noise = 0.0;
  const auto trace = generate_demand(config, 20, options);
  for (std::size_t t = 0; t < 20; ++t) {
    for (std::size_t m = 0; m < 2; ++m) {
      double class_total = 0.0;
      for (std::size_t k = 0; k < config.num_contents; ++k) {
        class_total += trace.slot(t)[0].at(m, k);
      }
      // pmf sums to 1, so the class total equals the drawn density.
      EXPECT_GE(class_total, 1.0 - 1e-9);
      EXPECT_LE(class_total, 2.0 + 1e-9);
    }
  }
}

TEST(Generator, RankDriftChangesOrdering) {
  const auto config = tiny_config();
  WorkloadOptions options;
  options.rank_swaps_per_slot = 3;
  options.demand_noise = 0.0;
  options.density_min = options.density_max = 1.0;  // isolate the ranking
  const auto trace = generate_demand(config, 40, options);
  // Content-total ordering must differ between early and late slots.
  auto ranking_at = [&](std::size_t t) {
    std::vector<std::size_t> order(config.num_contents);
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return trace.slot(t)[0].content_total(a) >
             trace.slot(t)[0].content_total(b);
    });
    return order;
  };
  EXPECT_NE(ranking_at(0), ranking_at(39));
}

TEST(Generator, RankDriftSwapsAdjacentRanksOnly) {
  // Regression for the drift bug: each swap must exchange the contents that
  // hold ranks r and r+1 (a local popularity churn), not the ranks of two
  // index-adjacent contents (which teleported tail contents into the head).
  // With noise off and fixed density the realized content totals are a
  // strictly decreasing function of rank, so the rank permutation is
  // recoverable from each slot by sorting totals.
  const auto config = tiny_config();
  WorkloadOptions options;
  options.rank_swaps_per_slot = 1;
  options.demand_noise = 0.0;
  options.density_min = options.density_max = 1.0;
  const std::size_t horizon = 30;
  const auto trace = generate_demand(config, horizon, options);
  auto ranking_at = [&](std::size_t t) {
    std::vector<std::size_t> order(config.num_contents);
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return trace.slot(t)[0].content_total(a) >
             trace.slot(t)[0].content_total(b);
    });
    return order;  // order[r] = content holding rank r
  };
  for (std::size_t t = 1; t < horizon; ++t) {
    const auto prev = ranking_at(t - 1);
    const auto cur = ranking_at(t);
    std::vector<std::size_t> moved;
    for (std::size_t r = 0; r < prev.size(); ++r) {
      if (prev[r] != cur[r]) moved.push_back(r);
    }
    // Exactly one adjacent transposition per slot: two neighboring rank
    // positions exchange their contents.
    ASSERT_EQ(moved.size(), 2u) << "slot " << t;
    EXPECT_EQ(moved[1], moved[0] + 1) << "slot " << t;
    EXPECT_EQ(prev[moved[0]], cur[moved[1]]) << "slot " << t;
    EXPECT_EQ(prev[moved[1]], cur[moved[0]]) << "slot " << t;
  }
}

TEST(Generator, RankDriftPerSlotDisplacementIsBounded) {
  // s adjacent transpositions can move a content by at most s rank
  // positions between consecutive slots.
  const auto config = tiny_config();
  WorkloadOptions options;
  options.rank_swaps_per_slot = 3;
  options.demand_noise = 0.0;
  options.density_min = options.density_max = 1.0;
  const auto trace = generate_demand(config, 25, options);
  auto rank_of_content = [&](std::size_t t) {
    std::vector<std::size_t> order(config.num_contents);
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return trace.slot(t)[0].content_total(a) >
             trace.slot(t)[0].content_total(b);
    });
    std::vector<std::size_t> rank(config.num_contents);
    for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
    return rank;
  };
  for (std::size_t t = 1; t < 25; ++t) {
    const auto prev = rank_of_content(t - 1);
    const auto cur = rank_of_content(t);
    for (std::size_t k = 0; k < config.num_contents; ++k) {
      const auto lo = std::min(prev[k], cur[k]);
      const auto hi = std::max(prev[k], cur[k]);
      EXPECT_LE(hi - lo, options.rank_swaps_per_slot)
          << "content " << k << " slot " << t;
    }
  }
}

TEST(Generator, NoDriftKeepsOrderingStable) {
  const auto config = tiny_config();
  WorkloadOptions options;
  options.rank_swaps_per_slot = 0;
  options.demand_noise = 0.0;
  const auto trace = generate_demand(config, 10, options);
  for (std::size_t t = 1; t < 10; ++t) {
    for (std::size_t k = 1; k < config.num_contents; ++k) {
      const bool first_order = trace.slot(0)[0].content_total(k - 1) >
                               trace.slot(0)[0].content_total(k);
      const bool later_order = trace.slot(t)[0].content_total(k - 1) >
                               trace.slot(t)[0].content_total(k);
      EXPECT_EQ(first_order, later_order);
    }
  }
}

TEST(Generator, DiurnalEnvelopeModulatesVolume) {
  const auto config = tiny_config();
  WorkloadOptions options;
  options.demand_noise = 0.0;
  options.density_min = options.density_max = 1.0;  // isolate the envelope
  options.diurnal_amplitude = 0.8;
  options.diurnal_period = 20;
  const auto trace = generate_demand(config, 20, options);
  // Peak near t = 5 (sin max), trough near t = 15 (sin min).
  const double peak = trace.slot(5)[0].total();
  const double trough = trace.slot(15)[0].total();
  EXPECT_GT(peak, trough * 4.0);
  // With density fixed at 1, per-class volume equals the envelope value.
  EXPECT_NEAR(peak / 2.0, 1.8, 1e-9);    // 2 classes, envelope 1.8
  EXPECT_NEAR(trough / 2.0, 0.2, 1e-9);  // envelope 0.2
}

TEST(Generator, DiurnalValidation) {
  WorkloadOptions options;
  options.diurnal_amplitude = 1.5;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = {};
  options.diurnal_period = 0;
  EXPECT_THROW(options.validate(), InvalidArgument);
}

TEST(Generator, PerClassRankingDiversifiesClasses) {
  const auto config = tiny_config();
  WorkloadOptions options;
  options.per_class_ranking = true;
  options.demand_noise = 0.0;
  options.density_min = options.density_max = 1.0;
  options.rank_swaps_per_slot = 0;
  const auto trace = generate_demand(config, 1, options);
  // With independent initial permutations the two classes' favourite
  // content should (almost surely, fixed seed) differ.
  std::size_t best[2] = {0, 0};
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t k = 1; k < config.num_contents; ++k) {
      if (trace.slot(0)[0].at(m, k) > trace.slot(0)[0].at(m, best[m])) {
        best[m] = k;
      }
    }
  }
  EXPECT_NE(best[0], best[1]);
}

TEST(Generator, ValidatesOptions) {
  WorkloadOptions options;
  options.density_min = 2.0;
  options.density_max = 1.0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = {};
  options.demand_noise = 1.5;
  EXPECT_THROW(options.validate(), InvalidArgument);
}

// -------------------------------------------------------------- predictor ----

model::DemandTrace simple_trace(const model::NetworkConfig& config,
                                std::size_t horizon) {
  WorkloadOptions options;
  options.seed = 5;
  return generate_demand(config, horizon, options);
}

TEST(Predictor, PerfectReturnsTruth) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 8);
  const PerfectPredictor predictor(trace);
  EXPECT_EQ(predictor.horizon(), 8u);
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(predictor.predict(0, t)[0].data(), trace.slot(t)[0].data());
  }
}

TEST(Predictor, RejectsPredictingThePast) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 4);
  const PerfectPredictor predictor(trace);
  EXPECT_THROW(predictor.predict(3, 1), InvalidArgument);
}

TEST(Predictor, NoisyZeroEtaIsExact) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 6);
  const NoisyPredictor predictor(trace, 0.0, 123);
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_EQ(predictor.predict(0, t)[0].data(), trace.slot(t)[0].data());
  }
}

TEST(Predictor, NoiseStaysWithinEtaBand) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 10);
  const double eta = 0.3;
  const NoisyPredictor predictor(trace, eta, 77);
  for (std::size_t tau = 0; tau < 10; ++tau) {
    for (std::size_t t = tau; t < 10; ++t) {
      const auto forecast = predictor.predict(tau, t);
      for (std::size_t m = 0; m < 2; ++m) {
        for (std::size_t k = 0; k < config.num_contents; ++k) {
          const double truth = trace.slot(t)[0].at(m, k);
          const double predicted = forecast[0].at(m, k);
          EXPECT_GE(predicted, (1.0 - eta) * truth - 1e-12);
          EXPECT_LE(predicted, (1.0 + eta) * truth + 1e-12);
        }
      }
    }
  }
}

TEST(Predictor, DeterministicPerQuery) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 6);
  const NoisyPredictor predictor(trace, 0.2, 9);
  EXPECT_EQ(predictor.predict(1, 4)[0].data(),
            predictor.predict(1, 4)[0].data());
  // Different query times give different draws (fresher forecasts differ).
  EXPECT_NE(predictor.predict(1, 4)[0].data(),
            predictor.predict(2, 4)[0].data());
}

TEST(Predictor, LeadGrowthWidensNoise) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 30);
  const double eta = 0.1;
  const NoisyPredictor near_sighted(trace, eta, 5, /*lead_growth=*/1.0);
  // With growth 1.0 and lead 20, eta_eff caps at 0.95; check some deviation
  // beyond the base band exists for far predictions.
  double max_relative_error = 0.0;
  for (std::size_t t = 20; t < 30; ++t) {
    const auto forecast = near_sighted.predict(0, t);
    for (std::size_t k = 0; k < config.num_contents; ++k) {
      const double truth = trace.slot(t)[0].at(0, k);
      if (truth <= 0.0) continue;
      max_relative_error =
          std::max(max_relative_error,
                    std::abs(forecast[0].at(0, k) - truth) / truth);
    }
  }
  EXPECT_GT(max_relative_error, eta);
}

// Frozen reference for NoisyPredictor's bits: the N x K factor matrix the
// predictor built per query before it stepped its streams without
// converting the positions off the support, applied to the dense truth.
// Kept verbatim so that any change to the stream positions, the band or
// the clamp shows up as a bit difference.
model::SlotDemand reference_noisy_forecast(const model::SlotDemand& truth,
                                           double eta, std::uint64_t seed,
                                           double lead_growth,
                                           std::size_t tau, std::size_t t) {
  model::SlotDemand out = truth;
  if (eta == 0.0) return out;
  const std::size_t num_sbs = out.size();
  const std::size_t contents = out.empty() ? 0 : out.front().num_contents();
  const double lead = static_cast<double>(t - tau);
  const double eta_eff = std::min(0.95, eta * (1.0 + lead_growth * lead));
  std::uint64_t bias_mix = seed;
  (void)splitmix64(bias_mix);
  Rng bias_rng(splitmix64(bias_mix));

  std::uint64_t mix = seed;
  (void)splitmix64(mix);
  mix ^= 0x9e3779b97f4a7c15ULL * (tau + 1);
  (void)splitmix64(mix);
  mix ^= 0xc2b2ae3d27d4eb4fULL * (t + 1);
  Rng jitter_rng(splitmix64(mix));

  std::vector<std::vector<double>> factors(num_sbs);
  for (auto& factor : factors) {
    factor.resize(contents);
    for (auto& f : factor) {
      const double bias = bias_rng.uniform(1.0 - eta_eff, 1.0 + eta_eff);
      const double jitter =
          jitter_rng.uniform(1.0 - 0.5 * eta_eff, 1.0 + 0.5 * eta_eff);
      f = std::clamp(bias * jitter, 1.0 - eta_eff, 1.0 + eta_eff);
    }
  }
  for (std::size_t n = 0; n < num_sbs; ++n) {
    auto& flat = out[n].data();
    for (std::size_t j = 0; j < flat.size(); ++j) {
      flat[j] *= factors[n][j % contents];
    }
  }
  return out;
}

template <class Actual, class Expected>
void expect_same_bits(const Actual& actual, const Expected& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "at " << i << ": " << actual[i] << " vs " << expected[i];
  }
}

/// Checks predict() and predict_sparse() of `predictor` bitwise against the
/// frozen reference over every (tau, t) with tau <= t, including the
/// sparse forecast's cached column totals.
void expect_matches_reference(const NoisyPredictor& predictor,
                              const model::DemandTrace& dense_truth,
                              double eta, std::uint64_t seed,
                              double lead_growth) {
  for (std::size_t tau = 0; tau < dense_truth.horizon(); ++tau) {
    for (std::size_t t = tau; t < dense_truth.horizon(); ++t) {
      SCOPED_TRACE("tau=" + std::to_string(tau) + " t=" + std::to_string(t));
      const model::SlotDemand expected = reference_noisy_forecast(
          dense_truth.slot(t), eta, seed, lead_growth, tau, t);
      const model::SlotDemand dense = predictor.predict(tau, t);
      const model::SparseSlotDemand sparse = predictor.predict_sparse(tau, t);
      ASSERT_EQ(dense.size(), expected.size());
      ASSERT_EQ(sparse.size(), expected.size());
      for (std::size_t n = 0; n < expected.size(); ++n) {
        expect_same_bits(dense[n].data(), expected[n].data());
        expect_same_bits(sparse[n].to_dense().data(), expected[n].data());
        std::vector<double> totals, expected_totals;
        sparse[n].content_totals_into(totals);
        expected[n].content_totals_into(expected_totals);
        expect_same_bits(totals, expected_totals);
      }
    }
  }
}

model::NetworkConfig multi_sbs_config(std::size_t num_sbs,
                                      std::size_t contents) {
  model::NetworkConfig config = tiny_config();
  config.num_contents = contents;
  config.sbs.front().classes.push_back(model::MuClass{0.8, 0.0});
  config.sbs.resize(num_sbs, config.sbs.front());
  return config;
}

struct NoiseCase {
  double eta;
  double lead_growth;
};

// eta = 0 (exact), a plain band, and a lead growth that reaches the 0.95
// cap within the horizon (0.3 * (1 + 1.0 * lead) > 0.95 from lead 3 on).
constexpr NoiseCase kNoiseCases[] = {{0.0, 0.0}, {0.3, 0.0}, {0.3, 1.0}};

TEST(Predictor, NoisyMatchesFrozenReferenceOnDenseTruth) {
  const auto config = multi_sbs_config(3, 40);
  WorkloadOptions options;
  options.seed = 21;
  const auto truth = generate_demand(config, 6, options);
  for (const NoiseCase& c : kNoiseCases) {
    SCOPED_TRACE("eta=" + std::to_string(c.eta) +
                 " growth=" + std::to_string(c.lead_growth));
    const NoisyPredictor predictor(truth, c.eta, 314, c.lead_growth);
    expect_matches_reference(predictor, truth, c.eta, 314, c.lead_growth);
  }
}

TEST(Predictor, NoisyMatchesFrozenReferenceOnTruncatedSparseTruth) {
  const auto config = multi_sbs_config(3, 40);
  WorkloadOptions options;
  options.seed = 22;
  options.min_rate = 0.05;
  const auto truth = generate_sparse_demand(config, 6, options);
  // The truncation must leave a strict subset of the contents stored, so
  // the forecast skips stream positions off the support.
  std::size_t stored = 0;
  for (std::size_t t = 0; t < truth.horizon(); ++t) {
    for (const model::SparseSbsDemand& sbs : truth.slot(t)) {
      ASSERT_LT(sbs.support().size(), config.num_contents);
      stored += sbs.support().size();
    }
  }
  ASSERT_GT(stored, truth.horizon() * config.num_sbs());
  const model::DemandTrace dense_truth = truth.to_dense();
  for (const NoiseCase& c : kNoiseCases) {
    SCOPED_TRACE("eta=" + std::to_string(c.eta) +
                 " growth=" + std::to_string(c.lead_growth));
    const NoisyPredictor predictor(truth, c.eta, 2718, c.lead_growth);
    expect_matches_reference(predictor, dense_truth, c.eta, 2718,
                             c.lead_growth);
  }
}

TEST(Predictor, WindowClipsAtHorizon) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 5);
  const PerfectPredictor predictor(trace);
  EXPECT_EQ(predictor.predict_window(3, 10).horizon(), 2u);
  EXPECT_EQ(predictor.predict_window(0, 3).horizon(), 3u);
}

// ------------------------------------------------------------------ EMA ----

TEST(EmaPredictor, ColdStartPredictsZero) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 6);
  const EmaPredictor predictor(trace, 0.5);
  const auto forecast = predictor.predict(0, 0);
  for (const double v : forecast[0].data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EmaPredictor, ConvergesToConstantTrace) {
  const auto config = tiny_config();
  model::DemandTrace trace;
  for (int t = 0; t < 30; ++t) {
    auto slot = model::make_zero_slot_demand(config);
    for (auto& v : slot[0].data()) v = 2.0;
    trace.push_back(slot);
  }
  const EmaPredictor predictor(trace, 0.5);
  const auto forecast = predictor.predict(25, 27);
  for (const double v : forecast[0].data()) EXPECT_NEAR(v, 2.0, 1e-6);
}

TEST(EmaPredictor, AlphaOneTracksLastObservation) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 8);
  const EmaPredictor predictor(trace, 1.0);
  // With alpha = 1 the forecast equals the last observed slot (tau - 1).
  const auto forecast = predictor.predict(5, 7);
  EXPECT_EQ(forecast[0].data(), trace.slot(4)[0].data());
}

TEST(EmaPredictor, FlatAcrossLeadTimes) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 10);
  const EmaPredictor predictor(trace, 0.4);
  EXPECT_EQ(predictor.predict(4, 5)[0].data(),
            predictor.predict(4, 9)[0].data());
}

TEST(EmaPredictor, BackwardQueriesRestartCleanly) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 10);
  const EmaPredictor predictor(trace, 0.4);
  const auto late = predictor.predict(7, 8);
  (void)late;
  const auto early_again = predictor.predict(2, 3);
  // Recompute a fresh predictor at the same point: must agree.
  const EmaPredictor fresh(trace, 0.4);
  EXPECT_EQ(early_again[0].data(), fresh.predict(2, 3)[0].data());
}

TEST(EmaPredictor, ValidatesArguments) {
  const auto config = tiny_config();
  const auto trace = simple_trace(config, 4);
  EXPECT_THROW(EmaPredictor(trace, 0.0), InvalidArgument);
  EXPECT_THROW(EmaPredictor(trace, 1.5), InvalidArgument);
  const EmaPredictor predictor(trace, 0.5);
  EXPECT_THROW(predictor.predict(3, 1), InvalidArgument);
  EXPECT_THROW(predictor.predict(3, 9), InvalidArgument);
}

TEST(EmaPredictor, ConcurrentPredictIsSafeAndExact) {
  // predict() is const but advances an internal cache; the mutex must make
  // concurrent queries both race-free (run under TSan in CI) and exact:
  // every answer equals what a fresh, serial predictor returns. Threads
  // deliberately walk tau in opposite directions to force cache restarts.
  const auto config = tiny_config();
  WorkloadOptions options;
  options.seed = 11;
  const std::size_t horizon = 16;
  const auto trace = generate_demand(config, horizon, options);
  const double alpha = 0.5;
  std::vector<model::SlotDemand> expected;
  for (std::size_t tau = 0; tau < horizon; ++tau) {
    const EmaPredictor fresh(trace, alpha);
    expected.push_back(fresh.predict(tau, horizon - 1));
  }

  const EmaPredictor shared(trace, alpha);
  std::atomic<bool> exact{true};
  auto worker = [&](bool forward) {
    for (int pass = 0; pass < 4; ++pass) {
      for (std::size_t i = 0; i < horizon; ++i) {
        const std::size_t tau = forward ? i : horizon - 1 - i;
        const auto got = shared.predict(tau, horizon - 1);
        for (std::size_t n = 0; n < got.size(); ++n) {
          if (got[n].data() != expected[tau][n].data()) exact = false;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(worker, i % 2 == 0);
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(exact.load());
}

// --------------------------------------------------------------- scenario ----

TEST(Scenario, BuildsValidInstance) {
  PaperScenario scenario;
  scenario.horizon = 12;
  scenario.num_contents = 10;
  scenario.classes_per_sbs = 5;
  const auto instance = scenario.build();
  EXPECT_NO_THROW(instance.validate());
  EXPECT_EQ(instance.horizon(), 12u);
  EXPECT_EQ(instance.config.num_contents, 10u);
  EXPECT_EQ(instance.config.sbs[0].num_classes(), 5u);
  // omega in [0, 1], omega_sbs = 0 by default (paper Sec. V-B).
  for (const auto& mu : instance.config.sbs[0].classes) {
    EXPECT_GE(mu.omega_bs, 0.0);
    EXPECT_LE(mu.omega_bs, 1.0);
    EXPECT_DOUBLE_EQ(mu.omega_sbs, 0.0);
  }
}

TEST(Scenario, DeterministicInSeed) {
  PaperScenario scenario;
  scenario.horizon = 5;
  scenario.num_contents = 8;
  const auto a = scenario.build();
  const auto b = scenario.build();
  EXPECT_EQ(a.demand.slot(3)[0].data(), b.demand.slot(3)[0].data());
  EXPECT_DOUBLE_EQ(a.config.sbs[0].classes[0].omega_bs,
                   b.config.sbs[0].classes[0].omega_bs);
  scenario.seed = 123;
  const auto c = scenario.build();
  EXPECT_NE(a.demand.slot(3)[0].data(), c.demand.slot(3)[0].data());
}

TEST(Scenario, OmegaSbsFactorApplied) {
  PaperScenario scenario;
  scenario.horizon = 2;
  scenario.omega_sbs_factor = 0.01;
  const auto instance = scenario.build();
  for (const auto& mu : instance.config.sbs[0].classes) {
    EXPECT_NEAR(mu.omega_sbs, 0.01 * mu.omega_bs, 1e-12);
  }
}

TEST(Scenario, MultiSbsBuilds) {
  PaperScenario scenario;
  scenario.num_sbs = 3;
  scenario.horizon = 4;
  const auto instance = scenario.build();
  EXPECT_EQ(instance.config.num_sbs(), 3u);
  EXPECT_NO_THROW(instance.validate());
}

}  // namespace
}  // namespace mdo::workload
