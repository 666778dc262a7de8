// Discrete-time simulation engine (Sec. V methodology).
//
// Drives a Controller over the true demand trace slot by slot: the
// controller decides (using forecasts where applicable), the engine repairs
// residual infeasibility against the *true* demand (controllers acting on
// noisy predictions can slightly overshoot the bandwidth cap (2); the
// repair zeroes y on uncached contents and scales each SBS's allocation
// down proportionally — a documented reproduction choice, see DESIGN.md),
// and the true cost (9) is accounted. A dense instance's truth is converted
// to the sparse representation once per slot (model::sparse_slot); the
// controller and every per-slot kernel read that one copy.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "model/costs.hpp"
#include "model/instance.hpp"
#include "online/controller.hpp"
#include "sim/event_sim.hpp"
#include "sim/fault_injector.hpp"
#include "workload/predictor.hpp"

namespace mdo::runtime {
struct SupervisionLog;
}  // namespace mdo::runtime

namespace mdo::sim {

/// Per-slot accounting.
struct SlotRecord {
  model::CostBreakdown cost;      // true costs of the executed decision
  std::size_t replacements = 0;   // items inserted this slot
  double demand_total = 0.0;      // sum of all request rates
  double sbs_served = 0.0;        // traffic volume served by local SBSs
  double neigh_served = 0.0;      // traffic served out of neighbor caches
  double decision_seconds = 0.0;  // wall-clock time spent in decide()
};

/// A full run of one controller.
struct SimulationResult {
  std::string controller;
  std::vector<SlotRecord> slots;
  model::CostBreakdown total;
  std::size_t total_replacements = 0;
  /// Executed per-slot decisions; filled when record_schedule is set.
  std::vector<model::SlotDecision> schedule;
  /// The fault schedule the run was played under; empty for clean runs.
  std::vector<SlotFaults> fault_plan;
  /// Request-level metrics; present when SimulatorOptions::simulate_events
  /// is set (see sim/event_sim.hpp).
  std::optional<EventMetrics> events;

  double total_cost() const { return total.total(); }
  /// Fraction of demand volume served by SBSs over the whole run.
  double offload_ratio() const;
  /// Mean wall-clock seconds per decide() call (the controller's
  /// computational cost per slot).
  double mean_decision_seconds() const;
};

struct SimulatorOptions {
  /// Repair bandwidth/coupling violations against the true demand (default)
  /// instead of throwing. Without repair an infeasible decision (tolerance
  /// 1e-6, simulator.cpp) throws.
  bool repair = true;
  /// Fault-injection harness (not owned; must outlive the simulator). When
  /// set, each slot's DecisionContext carries the *observed* world — spiked
  /// or corrupted demand, a null predictor during blackouts, and an
  /// effective_config with outaged SBSs' capacity and bandwidth forced to
  /// zero — while cost accounting keeps using the clean truth. Repair runs
  /// against the effective config, so an outaged SBS serves nothing.
  const FaultInjector* faults = nullptr;
  /// Record every executed decision in SimulationResult::schedule (memory
  /// proportional to horizon x decision size).
  bool record_schedule = false;

  // ---- Cooperative SBS-to-SBS routing (core/collab.hpp). ----------------
  /// Apply the cooperative neighbor-routing overlay after each slot's
  /// decision is repaired, when the instance carries a positive-bandwidth
  /// neighbor topology. The overlay only ever strictly improves the slot
  /// cost (DESIGN.md §13), so disabling it yields the non-cooperative
  /// baseline on the same topology. With an empty topology this flag is
  /// inert and the run is bitwise-identical to the pre-topology model.
  bool cooperative_routing = true;

  // ---- Request-level event layer (sim/event_sim.hpp). -------------------
  /// Opt-in: after each slot's decision is repaired and executed, simulate
  /// the slot's individual requests (Poisson arrivals at the slot-mean
  /// rates, per-request hit/miss against the executed placement, FCFS
  /// queueing delays) and accumulate SimulationResult::events. Purely
  /// observational: the fluid cost accounting and the controller's inputs
  /// are unchanged, and the event draws are independent of MDO_THREADS.
  bool simulate_events = false;
  EventSimOptions event_options;

  // ---- Per-decision deadline budget (runtime/deadline.hpp). -------------
  /// Wall-clock budget per decide(); 0 disables. The simulator builds a
  /// fresh DeadlineToken each slot and threads it through DecisionContext;
  /// deadline-aware controllers return their best feasible anytime
  /// incumbent on expiry.
  double decision_budget_seconds = 0.0;
  /// Logical budget: dual iterations per decide() (deterministic and
  /// thread-invariant; wins over the wall clock when both are set).
  std::size_t decision_budget_checks = 0;
  /// Optional sink for supervision events (not owned; must outlive the
  /// simulator). Also enables the supervised backoff retries inside
  /// solver-backed controllers (see runtime/supervisor.hpp).
  runtime::SupervisionLog* supervision = nullptr;

  // ---- Crash-consistent checkpointing (runtime/checkpoint.hpp). ---------
  /// When non-empty, a snapshot of the whole run state (accumulated
  /// records, executed cache, predictor and controller state) is written
  /// atomically to this path every `checkpoint_every` executed slots. The
  /// controller must support checkpointing (run() rejects it upfront
  /// otherwise).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  /// Resume from checkpoint_path when a valid snapshot exists there; a
  /// missing, truncated or corrupt file falls back to a cold start. The
  /// resumed run's final result is bit-identical to an uninterrupted run
  /// (decision wall-times excepted — they are measurements, not state).
  bool resume = false;
  /// Stop after executing this slot index (inclusive), *without* flushing a
  /// final checkpoint — emulates a crash at a precise slot boundary for the
  /// kill/resume tests. max() = run to the horizon.
  std::size_t halt_after_slot = std::numeric_limits<std::size_t>::max();
};

/// Executes one decided slot against its true demand, in the order
/// Simulator::run and run_streaming share:
///  1. repair against `executed` (or, with options.repair off, the
///     feasibility check, which throws naming `controller`);
///  2. the cooperative overlay, when options.cooperative_routing is set and
///     `executed` has a neighbor tier;
///  3. the slot record, costed on the clean `config`;
///  4. the request-level events, when `events` is set.
/// The record's decision_seconds is left to the caller.
SlotRecord execute_slot(const SimulatorOptions& options,
                        const online::Controller& controller, std::size_t t,
                        const model::NetworkConfig& config,
                        const model::NetworkConfig& executed,
                        const model::SparseSlotDemand& truth,
                        const model::CacheState& previous,
                        model::SlotDecision& decision, EventSimulator* events,
                        EventMetrics* event_metrics);

class Simulator {
 public:
  /// The instance and predictor must outlive the simulator.
  Simulator(const model::ProblemInstance& instance,
            const workload::Predictor& predictor,
            SimulatorOptions options = {});

  /// Resets the controller and plays the whole horizon (or resumes from a
  /// checkpoint / halts early — see SimulatorOptions).
  SimulationResult run(online::Controller& controller) const;

 private:
  void write_checkpoint(const online::Controller& controller,
                        const SimulationResult& result,
                        const model::CacheState& previous) const;
  /// Restores run state from options_.checkpoint_path; returns the slot to
  /// resume at (0 = cold start, with the controller freshly reset).
  std::size_t try_resume(online::Controller& controller,
                         SimulationResult& result,
                         model::CacheState& previous) const;

  const model::ProblemInstance* instance_;
  const workload::Predictor* predictor_;
  SimulatorOptions options_;
};

}  // namespace mdo::sim
