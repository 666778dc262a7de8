// Tests for the sparse demand representation and the active-set pipeline:
// lossless dense<->sparse conversion, sparse generation/serialization, and
// the headline guarantee — with min_rate == 0 every controller produces the
// SAME schedule and costs bit for bit whichever representation backs the
// instance (run with MDO_THREADS=4 as well via the _mt4 registration).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "model/costs.hpp"
#include "model/feasibility.hpp"
#include "model/sparse_demand.hpp"
#include "online/rhc.hpp"
#include "online/robust_controller.hpp"
#include "sim/experiment.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/trace_io.hpp"
#include "workload/zipf.hpp"

namespace mdo {
namespace {

model::NetworkConfig tiny_config(std::size_t num_sbs = 2,
                                 std::size_t contents = 6,
                                 std::size_t classes = 3) {
  model::NetworkConfig config;
  config.num_contents = contents;
  model::SbsConfig sbs;
  sbs.cache_capacity = 2;
  sbs.bandwidth = 5.0;
  sbs.replacement_beta = 1.0;
  sbs.classes.clear();
  for (std::size_t m = 0; m < classes; ++m) {
    sbs.classes.push_back(model::MuClass{0.2 + 0.1 * static_cast<double>(m),
                                         0.0});
  }
  for (std::size_t n = 0; n < num_sbs; ++n) config.sbs.push_back(sbs);
  return config;
}

void expect_dense_equal(const model::DemandTrace& a,
                        const model::DemandTrace& b) {
  ASSERT_EQ(a.horizon(), b.horizon());
  for (std::size_t t = 0; t < a.horizon(); ++t) {
    ASSERT_EQ(a.slot(t).size(), b.slot(t).size());
    for (std::size_t n = 0; n < a.slot(t).size(); ++n) {
      const auto& da = a.slot(t)[n];
      const auto& db = b.slot(t)[n];
      ASSERT_EQ(da.num_classes(), db.num_classes());
      ASSERT_EQ(da.num_contents(), db.num_contents());
      for (std::size_t m = 0; m < da.num_classes(); ++m) {
        for (std::size_t k = 0; k < da.num_contents(); ++k) {
          // Bitwise: the sparse pipeline promises exact equality.
          EXPECT_EQ(da.at(m, k), db.at(m, k))
              << "t=" << t << " n=" << n << " m=" << m << " k=" << k;
        }
      }
    }
  }
}

// ---- representation ------------------------------------------------------

TEST(SparseDemand, DenseSparseRoundTripIsLossless) {
  const auto config = tiny_config();
  workload::WorkloadOptions options;
  options.seed = 23;
  const auto dense = workload::generate_demand(config, 5, options);

  const auto sparse = model::SparseDemandTrace::from_dense(dense);
  sparse.validate(config);
  expect_dense_equal(sparse.to_dense(), dense);

  // Element access agrees with the dense matrix, including absent entries.
  for (std::size_t t = 0; t < dense.horizon(); ++t) {
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      const auto& d = dense.slot(t)[n];
      const auto& s = sparse.slot(t)[n];
      EXPECT_EQ(s.total(), d.total());
      for (std::size_t m = 0; m < d.num_classes(); ++m) {
        for (std::size_t k = 0; k < d.num_contents(); ++k) {
          EXPECT_EQ(s.at(m, k), d.at(m, k));
        }
      }
    }
  }
}

TEST(SparseDemand, ContentTotalsMatchDenseBitwise) {
  const auto config = tiny_config(1, 8, 4);
  workload::WorkloadOptions options;
  options.seed = 5;
  const auto dense = workload::generate_demand(config, 3, options);
  for (std::size_t t = 0; t < dense.horizon(); ++t) {
    const auto& d = dense.slot(t)[0];
    const auto s = model::SparseSbsDemand::from_dense(d);
    std::vector<double> from_dense_totals;
    d.content_totals_into(from_dense_totals);
    std::vector<double> from_sparse_totals;
    s.content_totals_into(from_sparse_totals);
    ASSERT_EQ(from_dense_totals.size(), from_sparse_totals.size());
    for (std::size_t k = 0; k < config.num_contents; ++k) {
      EXPECT_EQ(from_sparse_totals[k], from_dense_totals[k]) << "k=" << k;
      EXPECT_EQ(s.content_total(k), d.content_total(k)) << "k=" << k;
    }
  }
}

TEST(SparseDemand, AllZeroRowsAndEmptyMatrix) {
  model::SbsDemand dense(3, 4);  // all zeros
  dense.at(2, 1) = 0.7;          // only the last row is populated
  const auto sparse = model::SparseSbsDemand::from_dense(dense);
  EXPECT_EQ(sparse.nnz(), 1u);
  EXPECT_EQ(sparse.row_begin(0), sparse.row_end(0));
  EXPECT_EQ(sparse.row_begin(1), sparse.row_end(1));
  EXPECT_EQ(sparse.at(2, 1), 0.7);
  EXPECT_EQ(sparse.total(), 0.7);
  EXPECT_EQ(sparse.support().size(), 1u);

  const auto config = tiny_config();
  const auto zero = model::make_zero_sparse_slot_demand(config);
  ASSERT_EQ(zero.size(), config.num_sbs());
  for (const auto& d : zero) {
    EXPECT_EQ(d.nnz(), 0u);
    EXPECT_EQ(d.total(), 0.0);
    EXPECT_TRUE(d.support().empty());
  }
}

TEST(SparseDemand, FromDenseKeepsNegativeAndNanRates) {
  // Only exact zeros (and, with a positive min_rate, small non-negative
  // rates) are dropped: poisoned entries survive the conversion so that
  // validation and the solver's finite/non-negative check still see them.
  model::SbsDemand dense(2, 3);
  dense.at(0, 1) = -1.0;
  dense.at(1, 0) = 0.5;
  dense.at(1, 2) = std::numeric_limits<double>::quiet_NaN();
  const auto sparse = model::SparseSbsDemand::from_dense(dense);
  EXPECT_EQ(sparse.nnz(), 3u);
  EXPECT_EQ(sparse.at(0, 1), -1.0);
  EXPECT_EQ(sparse.at(1, 0), 0.5);
  EXPECT_TRUE(std::isnan(sparse.at(1, 2)));

  const auto truncated = model::SparseSbsDemand::from_dense(dense, 0.6);
  EXPECT_EQ(truncated.nnz(), 2u);
  EXPECT_EQ(truncated.at(0, 1), -1.0);
  EXPECT_EQ(truncated.at(1, 0), 0.0);
  EXPECT_TRUE(std::isnan(truncated.at(1, 2)));
}

TEST(SparseDemand, ActiveContentsUnionsSupportAndCache) {
  const auto config = tiny_config(1, 6, 2);
  model::SbsDemand dense(2, 6);
  dense.at(0, 1) = 1.0;
  dense.at(1, 4) = 0.5;
  const auto sparse = model::SparseSbsDemand::from_dense(dense);

  model::CacheState cache(config);
  cache.set(0, 4, true);  // overlaps the support
  cache.set(0, 5, true);  // cached-only content
  const auto active = model::active_contents(sparse, cache, 0);
  EXPECT_EQ(active, (std::vector<std::size_t>{1, 4, 5}));

  // Cached-only active set: no demand at all, the cache alone drives it.
  const auto empty = model::SparseSbsDemand::from_dense(model::SbsDemand(2, 6));
  const auto cached_only = model::active_contents(empty, cache, 0);
  EXPECT_EQ(cached_only, (std::vector<std::size_t>{4, 5}));
}

TEST(SparseDemand, ScaleByContentMatchesDenseScaling) {
  const auto config = tiny_config(1, 7, 3);
  workload::WorkloadOptions options;
  options.seed = 11;
  const auto dense = workload::generate_demand(config, 2, options);
  std::vector<double> factor(config.num_contents);
  for (std::size_t k = 0; k < factor.size(); ++k) {
    factor[k] = 0.5 + 0.13 * static_cast<double>(k);
  }
  for (std::size_t t = 0; t < dense.horizon(); ++t) {
    // No demand for contents 1 and 4: the support skips them, so factors
    // looked up by content id instead of support index would show.
    model::SbsDemand truncated = dense.slot(t)[0];
    for (std::size_t m = 0; m < truncated.num_classes(); ++m) {
      truncated.at(m, 1) = 0.0;
      truncated.at(m, 4) = 0.0;
    }
    model::SbsDemand scaled = truncated;
    for (std::size_t m = 0; m < scaled.num_classes(); ++m) {
      for (std::size_t k = 0; k < scaled.num_contents(); ++k) {
        scaled.at(m, k) *= factor[k];
      }
    }
    auto sparse = model::SparseSbsDemand::from_dense(truncated);
    ASSERT_GT(sparse.support().size(), 0u);
    ASSERT_LT(sparse.support().size(), config.num_contents);
    // A content-indexed factor no longer fits.
    EXPECT_THROW(sparse.scale_by_content(factor), InvalidArgument);
    std::vector<double> support_factor;
    for (const std::size_t k : sparse.support()) {
      support_factor.push_back(factor[k]);
    }
    sparse.scale_by_content(support_factor);
    EXPECT_EQ(sparse, model::SparseSbsDemand::from_dense(scaled)) << "t=" << t;
    for (std::size_t k = 0; k < config.num_contents; ++k) {
      EXPECT_EQ(sparse.content_total(k), scaled.content_total(k));
    }
  }
}

// ---- generation and serialization ----------------------------------------

TEST(SparseDemand, GeneratorSparseMatchesDenseBitwise) {
  const auto config = tiny_config(2, 10, 4);
  workload::WorkloadOptions options;
  options.seed = 99;
  options.diurnal_amplitude = 0.3;
  options.per_class_ranking = true;
  const auto dense = workload::generate_demand(config, 6, options);
  const auto sparse = workload::generate_sparse_demand(config, 6, options);
  sparse.validate(config);
  expect_dense_equal(sparse.to_dense(), dense);
}

TEST(SparseDemand, GeneratorMinRateTruncatesTailOnly) {
  const auto config = tiny_config(2, 10, 4);
  workload::WorkloadOptions options;
  options.seed = 42;
  const auto full = workload::generate_demand(config, 4, options);

  options.min_rate = 0.05;
  const auto truncated_dense = workload::generate_demand(config, 4, options);
  const auto truncated_sparse =
      workload::generate_sparse_demand(config, 4, options);
  expect_dense_equal(truncated_sparse.to_dense(), truncated_dense);

  std::size_t dropped = 0;
  for (std::size_t t = 0; t < full.horizon(); ++t) {
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      const auto& reference = full.slot(t)[n];
      const auto& cut = truncated_dense.slot(t)[n];
      for (std::size_t m = 0; m < reference.num_classes(); ++m) {
        for (std::size_t k = 0; k < reference.num_contents(); ++k) {
          // Same RNG stream: surviving entries are identical, entries below
          // the threshold become exact zeros.
          if (reference.at(m, k) >= options.min_rate) {
            EXPECT_EQ(cut.at(m, k), reference.at(m, k));
          } else {
            EXPECT_EQ(cut.at(m, k), 0.0);
            if (reference.at(m, k) > 0.0) ++dropped;
          }
        }
      }
    }
  }
  EXPECT_GT(dropped, 0u);  // the knob actually cut something
}

TEST(SparseDemand, CsvRoundTripAndDenseLoaderAgreement) {
  const auto config = tiny_config(2, 8, 3);
  workload::WorkloadOptions options;
  options.seed = 3;
  options.min_rate = 0.02;
  const auto sparse = workload::generate_sparse_demand(config, 5, options);

  std::stringstream buffer;
  workload::save_trace_csv(buffer, sparse);
  const std::string text = buffer.str();

  std::stringstream sparse_in(text);
  const auto reloaded = workload::load_sparse_trace_csv(sparse_in, config);
  EXPECT_EQ(reloaded, sparse);

  // The sparse loader and the dense loader agree on the same bytes.
  std::stringstream dense_in(text);
  const auto dense = workload::load_trace_csv(dense_in, config);
  expect_dense_equal(reloaded.to_dense(), dense);

  // Ingest-time truncation drops rows below the threshold.
  std::stringstream cut_in(text);
  const auto cut = workload::load_sparse_trace_csv(cut_in, config, 0.1);
  for (std::size_t t = 0; t < cut.horizon(); ++t) {
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      for (const auto* e = cut.slot(t)[n].row_begin(0);
           e != cut.slot(t)[n].row_end(config.sbs[n].classes.size() - 1);
           ++e) {
        EXPECT_GE(e->rate, 0.1);
      }
    }
  }
  EXPECT_THROW(workload::load_sparse_trace_csv(cut_in, config, -1.0),
               InvalidArgument);
}

TEST(SparseDemand, ViewCostsMatchDense) {
  const auto config = tiny_config();
  workload::WorkloadOptions options;
  options.seed = 8;
  const auto dense = workload::generate_demand(config, 3, options);
  const auto sparse = model::SparseDemandTrace::from_dense(dense);

  model::CacheState cache(config);
  cache.set(0, 0, true);
  cache.set(1, 1, true);
  std::vector<model::SlotDecision> schedule;
  for (std::size_t t = 0; t < dense.horizon(); ++t) {
    model::SlotDecision decision;
    decision.cache = cache;
    decision.load = model::LoadAllocation(config);
    schedule.push_back(decision);
  }
  const auto dense_cost = model::schedule_cost(config, dense, schedule,
                                               model::CacheState(config));
  const auto sparse_cost =
      model::schedule_cost(config, model::DemandTraceView(sparse), schedule,
                           model::CacheState(config));
  EXPECT_EQ(sparse_cost.total(), dense_cost.total());
  EXPECT_EQ(sparse_cost.bs, dense_cost.bs);
  EXPECT_EQ(sparse_cost.sbs, dense_cost.sbs);
  EXPECT_EQ(sparse_cost.replacement, dense_cost.replacement);
}

// ---- predictors ----------------------------------------------------------

TEST(SparseDemand, NoisyPredictorSparseMatchesDense) {
  const auto config = tiny_config(2, 9, 3);
  workload::WorkloadOptions options;
  options.seed = 31;
  const auto dense = workload::generate_demand(config, 6, options);
  const auto sparse = workload::generate_sparse_demand(config, 6, options);

  const workload::NoisyPredictor dense_pred(dense, 0.2, 77, 0.05);
  const workload::NoisyPredictor sparse_pred(sparse, 0.2, 77, 0.05);
  ASSERT_EQ(dense_pred.horizon(), sparse_pred.horizon());
  for (std::size_t tau = 0; tau < 3; ++tau) {
    for (std::size_t t = tau; t < dense.horizon(); ++t) {
      const auto want = dense_pred.predict(tau, t);
      const auto got_sparse = sparse_pred.predict_sparse(tau, t);
      const auto got_dense = sparse_pred.predict(tau, t);
      ASSERT_EQ(got_sparse.size(), want.size());
      for (std::size_t n = 0; n < want.size(); ++n) {
        const auto densified = got_sparse[n].to_dense();
        for (std::size_t m = 0; m < want[n].num_classes(); ++m) {
          for (std::size_t k = 0; k < want[n].num_contents(); ++k) {
            EXPECT_EQ(densified.at(m, k), want[n].at(m, k))
                << "tau=" << tau << " t=" << t;
            EXPECT_EQ(got_dense[n].at(m, k), want[n].at(m, k));
          }
        }
      }
    }
  }
}

// ---- end-to-end bit-identity ---------------------------------------------

sim::ExperimentConfig small_experiment() {
  sim::ExperimentConfig config;
  config.scenario.num_sbs = 2;
  config.scenario.num_contents = 12;
  config.scenario.classes_per_sbs = 5;
  config.scenario.cache_capacity = 3;
  config.scenario.bandwidth = 8.0;
  config.scenario.beta = 10.0;
  config.scenario.horizon = 8;
  config.scenario.seed = 13;
  config.window = 4;
  config.commit = 2;
  config.schemes.static_top_c = true;
  config.schemes.classics = true;
  return config;
}

TEST(SparseDemand, BuildSparseDensifiesToBuild) {
  const auto config = small_experiment();
  const auto dense_instance = config.scenario.build();
  const auto sparse_instance = config.scenario.build_sparse();
  EXPECT_FALSE(dense_instance.use_sparse_demand);
  EXPECT_TRUE(sparse_instance.use_sparse_demand);
  expect_dense_equal(sparse_instance.sparse_demand.to_dense(),
                     dense_instance.demand);
}

TEST(SparseDemand, AllControllersBitIdenticalDenseVsSparse) {
  // The ring input adds the cooperative overlay and the neighbor cost term.
  auto ring = small_experiment();
  ring.scenario.num_sbs = 4;
  ring.scenario.neighbor_topology = workload::NeighborTopologyKind::kRing;
  // The truncated-Zipf input cuts a large catalogue at a K-tied min_rate,
  // the Zipf pmf at rank 0.02 K, so both representations keep only the
  // head and the sparse support is a small fraction of the catalogue.
  auto zipf = small_experiment();
  zipf.scenario.num_contents = 1000;
  zipf.scenario.workload.min_rate = workload::zipf_mandelbrot_pmf(
      zipf.scenario.num_contents, zipf.scenario.workload.zipf_alpha,
      zipf.scenario.workload.zipf_q)[zipf.scenario.num_contents / 50];
  for (const sim::ExperimentConfig& config : {small_experiment(), ring, zipf}) {
    const auto dense_outcomes = sim::run_schemes(config);
    const auto sparse_outcomes =
        sim::run_schemes(config, config.scenario.build_sparse());

    ASSERT_EQ(dense_outcomes.size(), sparse_outcomes.size());
    double neigh = 0.0;
    for (std::size_t i = 0; i < dense_outcomes.size(); ++i) {
      const auto& d = dense_outcomes[i];
      const auto& s = sparse_outcomes[i];
      EXPECT_EQ(d.name, s.name);
      // Bitwise equality of every accounted quantity: same decisions, same
      // loads, same accumulation order.
      EXPECT_EQ(s.cost.bs, d.cost.bs) << d.name;
      EXPECT_EQ(s.cost.sbs, d.cost.sbs) << d.name;
      EXPECT_EQ(s.cost.neigh, d.cost.neigh) << d.name;
      EXPECT_EQ(s.cost.replacement, d.cost.replacement) << d.name;
      EXPECT_EQ(s.replacements, d.replacements) << d.name;
      EXPECT_EQ(s.offload_ratio, d.offload_ratio) << d.name;
      neigh += d.cost.neigh;
    }
    if (config.scenario.neighbor_topology !=
        workload::NeighborTopologyKind::kNone) {
      EXPECT_GT(neigh, 0.0);
    }
  }
}

TEST(SparseDemand, EmaPredictorBitIdenticalDenseVsSparse) {
  auto config = small_experiment();
  config.predictor = sim::PredictorKind::kEma;
  config.schemes = sim::SchemeSelection{};
  config.schemes.offline = false;
  config.schemes.afhc = false;
  config.schemes.lrfu = false;
  const auto dense_outcomes = sim::run_schemes(config);
  const auto sparse_outcomes =
      sim::run_schemes(config, config.scenario.build_sparse());
  ASSERT_EQ(dense_outcomes.size(), sparse_outcomes.size());
  for (std::size_t i = 0; i < dense_outcomes.size(); ++i) {
    EXPECT_EQ(sparse_outcomes[i].cost.total(), dense_outcomes[i].cost.total())
        << dense_outcomes[i].name;
  }
}

TEST(SparseDemand, RobustControllerBitIdenticalDenseVsSparse) {
  const auto config = small_experiment();
  // Under faults the wrapper reads the observed (spiked, corrupted) demand
  // and serves fallback levels; none of that may depend on the
  // representation of the instance.
  sim::FaultInjectionConfig fault_config;
  fault_config.corrupted_slots = {2, 5};
  fault_config.spikes = {sim::SpikeWindow{sim::SlotRange{3, 5}, 2.5}};
  fault_config.outages = {sim::OutageWindow{1, sim::SlotRange{4, 6}}};
  fault_config.predictor_blackouts = {sim::SlotRange{6, 7}};
  const sim::FaultInjector injector(fault_config);

  const auto run = [&](bool sparse, const sim::FaultInjector* faults) {
    const model::ProblemInstance instance =
        sparse ? config.scenario.build_sparse() : config.scenario.build();
    std::unique_ptr<workload::Predictor> predictor;
    if (sparse) {
      predictor = std::make_unique<workload::NoisyPredictor>(
          instance.sparse_demand, config.eta, config.predictor_seed);
    } else {
      predictor = std::make_unique<workload::NoisyPredictor>(
          instance.demand, config.eta, config.predictor_seed);
    }
    online::RhcController inner(config.window, config.primal_dual);
    online::RobustController robust(inner);
    sim::SimulatorOptions options;
    options.faults = faults;
    const sim::Simulator simulator(instance, *predictor, options);
    const auto result = simulator.run(robust);
    const auto levels = robust.level_counts();
    if (faults == nullptr) {
      EXPECT_EQ(levels[1] + levels[2], 0u);
    } else {
      EXPECT_GT(levels[1] + levels[2], 0u);
    }
    return std::make_pair(result, levels);
  };
  for (const sim::FaultInjector* faults :
       {static_cast<const sim::FaultInjector*>(nullptr), &injector}) {
    const auto [dense, dense_levels] = run(false, faults);
    const auto [sparse, sparse_levels] = run(true, faults);
    EXPECT_EQ(sparse.total.total(), dense.total.total());
    EXPECT_EQ(sparse.total.bs, dense.total.bs);
    EXPECT_EQ(sparse.total.sbs, dense.total.sbs);
    EXPECT_EQ(sparse.total.replacement, dense.total.replacement);
    EXPECT_EQ(sparse_levels, dense_levels);
    ASSERT_EQ(sparse.slots.size(), dense.slots.size());
    for (std::size_t t = 0; t < dense.slots.size(); ++t) {
      EXPECT_EQ(sparse.slots[t].cost, dense.slots[t].cost) << "slot " << t;
      EXPECT_EQ(sparse.slots[t].sbs_served, dense.slots[t].sbs_served)
          << "slot " << t;
    }
  }
}

// ---- truncation edge cases -----------------------------------------------

TEST(SparseDemand, TruncatedRunStaysFeasibleWithCachedZeroDemand) {
  // min_rate cuts the Zipf tail, so contents the initial solve caches can
  // see their demand disappear in later slots (active set = cached-only).
  // The run must stay feasible and finite; beta > 0 prices the resulting
  // evictions.
  auto config = small_experiment();
  config.scenario.workload.min_rate = 0.05;
  config.schemes = sim::SchemeSelection{};
  config.schemes.offline = false;
  config.schemes.afhc = false;
  const auto outcomes =
      sim::run_schemes(config, config.scenario.build_sparse());
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(std::isfinite(outcome.cost.total())) << outcome.name;
    EXPECT_GE(outcome.cost.total(), 0.0) << outcome.name;
  }
}

TEST(SparseDemand, SolverHandlesCachedOnlyActiveSet) {
  // One SBS whose demand lives entirely on content 0 while the initial
  // cache pins contents 4 and 5: the active set is {0, 4, 5} and the P2
  // variable space must still cover the cached-only coordinates.
  const auto config = tiny_config(1, 6, 2);
  model::SparseDemandTrace trace;
  for (std::size_t t = 0; t < 3; ++t) {
    auto slot = model::make_zero_sparse_slot_demand(config);
    // Rates high enough that caching content 0 beats the beta = 1 insertion
    // within one window (savings 0.2*3 + 0.3*2 = 1.2 per slot).
    slot[0] = model::SparseSbsDemand(2, 6);
    slot[0].append(0, 0, 3.0);
    slot[0].append(1, 0, 2.0);
    slot[0].finalize();
    trace.push_back(std::move(slot));
  }

  model::ProblemInstance instance;
  instance.config = config;
  instance.sparse_demand = trace;
  instance.use_sparse_demand = true;
  instance.initial_cache = model::CacheState(config);
  instance.initial_cache.set(0, 4, true);
  instance.initial_cache.set(0, 5, true);
  instance.validate();

  const workload::PerfectPredictor predictor(instance.sparse_demand);
  online::RhcController rhc(2, core::PrimalDualOptions{});
  const sim::Simulator simulator(instance, predictor);
  const auto result = simulator.run(rhc);
  EXPECT_TRUE(std::isfinite(result.total.total()));
  // All demand is on one content: a sane schedule serves some of it.
  EXPECT_GT(result.offload_ratio(), 0.0);
}

}  // namespace
}  // namespace mdo
