#include "sim/experiment.hpp"

#include <memory>

#include "workload/ema_predictor.hpp"

#include "online/baselines.hpp"
#include "online/chc.hpp"
#include "online/offline_controller.hpp"
#include "online/rhc.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace mdo::sim {

std::vector<SchemeOutcome> run_schemes(const ExperimentConfig& config) {
  MDO_REQUIRE(config.eta >= 0.0 && config.eta < 1.0, "eta must be in [0, 1)");
  MDO_REQUIRE(config.window >= 1, "window must be >= 1");
  MDO_REQUIRE(config.commit >= 1 && config.commit <= config.window,
              "commit must be in [1, window]");

  const model::ProblemInstance instance = config.use_sparse_demand
                                              ? config.scenario.build_sparse()
                                              : config.scenario.build();
  // Online algorithms see forecasts; offline/LRFU read the truth directly
  // from the instance / the per-slot context.
  std::unique_ptr<workload::Predictor> predictor;
  model::DemandTrace ema_dense;  // EMA is dense-backed; densify sparse truth
  switch (config.predictor) {
    case PredictorKind::kNoisy:
      if (config.use_sparse_demand) {
        predictor = std::make_unique<workload::NoisyPredictor>(
            instance.sparse_demand, config.eta, config.predictor_seed);
      } else {
        predictor = std::make_unique<workload::NoisyPredictor>(
            instance.demand, config.eta, config.predictor_seed);
      }
      break;
    case PredictorKind::kEma:
      if (config.use_sparse_demand) {
        ema_dense = instance.sparse_demand.to_dense();
        predictor = std::make_unique<workload::EmaPredictor>(ema_dense,
                                                             config.ema_alpha);
      } else {
        predictor = std::make_unique<workload::EmaPredictor>(instance.demand,
                                                             config.ema_alpha);
      }
      break;
  }
  SimulatorOptions simulator_options;
  simulator_options.checkpoint_every = config.checkpoint_every;
  simulator_options.resume = config.resume;
  simulator_options.simulate_events = config.simulate_events;
  simulator_options.event_options = config.event_options;
  simulator_options.cooperative_routing = config.cooperative_routing;

  // Solver options shared by every solver-backed scheme.
  const core::PrimalDualOptions& solver_options = config.primal_dual;

  std::vector<std::unique_ptr<online::Controller>> controllers;
  if (config.schemes.offline) {
    // The offline solve spans the whole horizon and runs once: give the
    // dual ascent far more room so the "offline optimal" baseline is tight.
    core::PrimalDualOptions offline_options = solver_options;
    offline_options.max_iterations =
        std::max<std::size_t>(offline_options.max_iterations, 150);
    controllers.push_back(
        std::make_unique<online::OfflineController>(offline_options));
  }
  if (config.schemes.rhc) {
    controllers.push_back(std::make_unique<online::RhcController>(
        config.window, solver_options));
  }
  if (config.schemes.chc) {
    controllers.push_back(std::make_unique<online::ChcController>(
        config.window, config.commit, solver_options));
  }
  if (config.schemes.afhc) {
    controllers.push_back(
        online::ChcController::afhc(config.window, solver_options));
  }
  if (config.schemes.lrfu) {
    controllers.push_back(std::make_unique<online::LrfuController>());
  }
  if (config.schemes.static_top_c) {
    controllers.push_back(std::make_unique<online::StaticTopCController>());
  }
  if (config.schemes.classics) {
    controllers.push_back(std::make_unique<online::LruController>());
    controllers.push_back(std::make_unique<online::LfuController>());
    controllers.push_back(std::make_unique<online::FifoController>());
  }

  std::vector<SchemeOutcome> outcomes;
  outcomes.reserve(controllers.size());
  for (auto& controller : controllers) {
    SimulatorOptions scheme_options = simulator_options;
    if (!config.checkpoint_dir.empty() && controller->supports_checkpoint()) {
      scheme_options.checkpoint_path =
          config.checkpoint_dir + "/" +
          checkpoint_file_name(controller->name());
    }
    const Simulator simulator(instance, *predictor, scheme_options);
    Stopwatch watch;
    const SimulationResult result = simulator.run(*controller);
    MDO_INFO(result.controller << ": cost " << result.total_cost() << " in "
                               << watch.elapsed_seconds() << "s");
    SchemeOutcome outcome;
    outcome.name = result.controller;
    outcome.cost = result.total;
    outcome.replacements = result.total_replacements;
    outcome.offload_ratio = result.offload_ratio();
    outcome.mean_decision_seconds = result.mean_decision_seconds();
    if (result.events) {
      outcome.has_events = true;
      outcome.event_requests = result.events->requests;
      outcome.event_hit_ratio = result.events->hit_ratio();
      outcome.event_mean_delay = result.events->mean_delay();
      outcome.event_p50_delay = result.events->p50_delay();
      outcome.event_p99_delay = result.events->p99_delay();
      outcome.event_backhaul_bytes = result.events->backhaul_bytes;
      outcome.event_discrete_cost = result.events->discrete_cost.total();
    }
    outcomes.push_back(outcome);
  }
  return outcomes;
}

std::string checkpoint_file_name(const std::string& scheme_name) {
  std::string file;
  file.reserve(scheme_name.size() + 5);
  for (const char c : scheme_name) {
    const bool keep = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    file.push_back(keep ? c : '_');
  }
  file += ".ckpt";
  return file;
}

const SchemeOutcome& find_outcome(const std::vector<SchemeOutcome>& outcomes,
                                  const std::string& prefix) {
  for (const auto& outcome : outcomes) {
    if (outcome.name.rfind(prefix, 0) == 0) return outcome;
  }
  throw InvalidArgument("no scheme outcome named like: " + prefix);
}

}  // namespace mdo::sim
