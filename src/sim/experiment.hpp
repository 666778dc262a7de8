// Experiment harness shared by the bench binaries.
//
// Bundles the paper's scheme line-up (Offline / RHC / AFHC / CHC / LRFU,
// optionally the classic policies) over one scenario + predictor, and
// returns per-scheme totals — exactly the quantities plotted in Fig. 2-5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/primal_dual.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"

namespace mdo::sim {

/// Which schemes to run.
struct SchemeSelection {
  bool offline = true;
  bool rhc = true;
  bool afhc = true;
  bool chc = true;
  bool lrfu = true;
  bool classics = false;     // LRU / LFU / FIFO extensions
  bool static_top_c = false; // clairvoyant static baseline
};

/// Which forecaster the online algorithms act on.
enum class PredictorKind {
  kNoisy,  // paper model: truth * U[1 - eta, 1 + eta]
  kEma,    // extension: exponential moving average of the observed past
};

struct ExperimentConfig {
  workload::PaperScenario scenario;  // instance parameters
  PredictorKind predictor = PredictorKind::kNoisy;
  double eta = 0.1;                  // prediction perturbation (Sec. V-B)
  double ema_alpha = 0.3;            // smoothing for PredictorKind::kEma
  std::uint64_t predictor_seed = 1234;
  std::size_t window = 10;           // w
  std::size_t commit = 5;            // r for CHC (AFHC uses r = w)
  /// Shared by every solver-backed scheme; process-level scale-out goes
  /// through primal_dual.shard_count (0 defers to MDO_SHARDS).
  core::PrimalDualOptions primal_dual{};
  SchemeSelection schemes{};

  /// Cooperative SBS-to-SBS routing (core/collab.hpp): forwarded into
  /// SimulatorOptions::cooperative_routing. Only meaningful when the
  /// scenario generates a positive-bandwidth neighbor topology; false runs
  /// the non-cooperative baseline on the same instance (E16).
  bool cooperative_routing = true;

  /// Request-level event layer (sim/event_sim.hpp): when set, every scheme
  /// additionally replays each slot's individual Poisson requests against
  /// its executed decisions and the outcomes carry hit ratio, access-delay
  /// percentiles, backhaul bytes, and the empirical (discrete) cost next to
  /// the fluid cost. Observational only — fluid costs are unchanged.
  bool simulate_events = false;
  EventSimOptions event_options;

  /// Crash-consistent checkpointing (runtime/checkpoint.hpp): when
  /// non-empty, every scheme that supports checkpointing writes its run
  /// snapshot to `<checkpoint_dir>/<sanitized scheme name>.ckpt` every
  /// `checkpoint_every` slots, and `resume` picks up an interrupted sweep
  /// where it crashed. Schemes without checkpoint support (the stateless
  /// baselines) simply run uncheckpointed.
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 25;
  bool resume = false;
};

/// The checkpoint file name used for a scheme: the display name with every
/// character outside [A-Za-z0-9._-] replaced by '_', plus ".ckpt".
std::string checkpoint_file_name(const std::string& scheme_name);

/// One scheme's totals over a run.
struct SchemeOutcome {
  std::string name;
  model::CostBreakdown cost;
  std::size_t replacements = 0;
  double offload_ratio = 0.0;
  double mean_decision_seconds = 0.0;  // computational cost per slot

  /// Request-level metrics; meaningful when the event layer ran
  /// (ExperimentConfig::simulate_events).
  bool has_events = false;
  std::size_t event_requests = 0;
  double event_hit_ratio = 0.0;
  double event_mean_delay = 0.0;
  double event_p50_delay = 0.0;
  double event_p99_delay = 0.0;
  double event_backhaul_bytes = 0.0;
  /// Empirical f + g + h at the realized per-request rates; converges to
  /// the fluid `cost` as event_options.requests_per_rate_unit grows.
  double event_discrete_cost = 0.0;

  double total_cost() const { return cost.total(); }
};

/// Builds the predictor over `instance` and runs every selected scheme.
/// Offline and LRFU see the truth (the paper grants them accurate
/// information); the online algorithms see NoisyPredictor(eta). The whole
/// pipeline — predictor, controllers, solver, simulator — runs on the
/// instance's demand representation (instance.use_sparse_demand): a
/// PaperScenario::build_sparse instance with scenario.workload.min_rate == 0
/// gives the dense run's bits, and with truncation the solves scale with
/// the demand support.
std::vector<SchemeOutcome> run_schemes(const ExperimentConfig& config,
                                       const model::ProblemInstance& instance);

/// run_schemes on the dense instance config.scenario.build().
std::vector<SchemeOutcome> run_schemes(const ExperimentConfig& config);

/// Finds a scheme by (prefix of) name; throws InvalidArgument when absent.
const SchemeOutcome& find_outcome(const std::vector<SchemeOutcome>& outcomes,
                                  const std::string& prefix);

}  // namespace mdo::sim
