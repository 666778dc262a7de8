#include "sim/simulator.hpp"

#include <sstream>
#include <utility>

#include "core/collab.hpp"
#include "model/feasibility.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/deadline.hpp"
#include "runtime/supervisor.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace mdo::sim {

namespace {
// Tolerance of the feasibility check when repair is disabled.
constexpr double kFeasibilityTol = 1e-6;
}  // namespace

double SimulationResult::offload_ratio() const {
  double demand = 0.0;
  double served = 0.0;
  for (const auto& slot : slots) {
    demand += slot.demand_total;
    // Neighbor-served traffic is offloaded from the BS too; the term is an
    // exact 0.0 on runs without a neighbor tier.
    served += slot.sbs_served + slot.neigh_served;
  }
  return demand > 0.0 ? served / demand : 0.0;
}

double SimulationResult::mean_decision_seconds() const {
  if (slots.empty()) return 0.0;
  double total_seconds = 0.0;
  for (const auto& slot : slots) total_seconds += slot.decision_seconds;
  return total_seconds / static_cast<double>(slots.size());
}

SlotRecord execute_slot(const SimulatorOptions& options,
                        const online::Controller& controller, std::size_t t,
                        const model::NetworkConfig& config,
                        const model::NetworkConfig& executed,
                        const model::SparseSlotDemand& truth,
                        const model::CacheState& previous,
                        model::SlotDecision& decision, EventSimulator* events,
                        EventMetrics* event_metrics) {
  if (options.repair) {
    model::enforce_feasibility(executed, truth, decision);
  } else {
    const auto violations = model::check_feasibility(
        executed, truth, decision, kFeasibilityTol);
    if (!violations.empty()) {
      std::ostringstream os;
      os << controller.name() << " infeasible at slot " << t << ": "
         << violations.front().description;
      throw InvalidArgument(os.str());
    }
  }

  // Cooperative tier: route part of the repaired decision's BS residual
  // through neighbor caches. Strictly cost-improving per slot by
  // construction (core/collab.hpp).
  if (options.cooperative_routing && executed.has_neighbor_tier()) {
    core::apply_neighbor_overlay(executed, truth, decision);
  }

  SlotRecord record;
  record.cost = model::slot_cost(config, truth, decision, previous);
  record.replacements = model::replacement_count(decision.cache, previous);
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    record.demand_total += truth[n].total();
    record.sbs_served += model::sbs_load(decision.load, n, truth[n]);
    record.neigh_served += model::neighbor_load(decision.load, n, truth[n]);
  }

  // Request-level layer: replay the slot's individual requests against
  // the executed decision (hit/miss, queueing delay, backhaul bytes).
  // Purely observational; runs on the clean truth like the cost above.
  if (events != nullptr) {
    events->simulate_slot(t, truth, decision, previous, *event_metrics);
  }
  return record;
}

Simulator::Simulator(const model::ProblemInstance& instance,
                     const workload::Predictor& predictor,
                     SimulatorOptions options)
    : instance_(&instance), predictor_(&predictor), options_(options) {
  instance.validate();
  MDO_REQUIRE(predictor.horizon() == instance.horizon(),
              "predictor horizon must match the instance horizon");
}

SimulationResult Simulator::run(online::Controller& controller) const {
  const auto& config = instance_->config;
  const bool checkpointing = !options_.checkpoint_path.empty();
  if (checkpointing) {
    MDO_REQUIRE(options_.checkpoint_every >= 1,
                "checkpoint cadence must be >= 1");
    MDO_REQUIRE(controller.supports_checkpoint(),
                controller.name() + " does not support checkpointing");
  }
  controller.reset(*instance_);

  SimulationResult result;
  result.controller = controller.name();
  result.slots.reserve(instance_->horizon());
  if (options_.faults != nullptr) {
    // plan() is deterministic in (config, horizon, num_sbs), so a resumed
    // run regenerates the identical fault plan — it is not checkpointed.
    result.fault_plan =
        options_.faults->plan(instance_->horizon(), config.num_sbs());
  }

  std::optional<EventSimulator> events;
  if (options_.simulate_events) {
    events.emplace(config, options_.event_options);
    result.events.emplace();
  }

  model::CacheState previous = instance_->initial_cache;
  std::size_t start_slot = 0;
  if (checkpointing && options_.resume) {
    start_slot = try_resume(controller, result, previous);
  }

  const model::DemandTraceView trace = instance_->demand_view();
  model::SparseSlotDemand converted;
  for (std::size_t t = start_slot; t < instance_->horizon(); ++t) {
    const model::SparseSlotDemand& truth =
        model::sparse_slot(trace.slot(t), converted);
    online::DecisionContext ctx;
    ctx.slot = t;
    ctx.true_demand_sparse = &truth;
    ctx.predictor = predictor_;
    // Fresh per-slot budget token; an unlimited token is not passed at all
    // so the no-budget path stays bitwise-identical to the pre-deadline
    // behavior.
    runtime::DeadlineToken budget;
    if (options_.decision_budget_checks > 0) {
      budget = runtime::DeadlineToken::after_checks(
          options_.decision_budget_checks);
    } else if (options_.decision_budget_seconds > 0.0) {
      budget = runtime::DeadlineToken::after_seconds(
          options_.decision_budget_seconds);
    }
    if (budget.active()) ctx.deadline = &budget;
    ctx.supervision = options_.supervision;

    // Under fault injection the controller sees the observed world; the
    // truth below is still what gets accounted. The perturbation operates
    // on dense matrices, so the observation is made on a dense copy of the
    // instance's own slot.
    model::SlotDemand observed;
    model::NetworkConfig degraded;
    if (!result.fault_plan.empty()) {
      const SlotFaults& faults = result.fault_plan[t];
      if (faults.corrupt_demand || faults.demand_scale != 1.0) {
        observed = options_.faults->observed_demand(trace.slot(t).to_dense(),
                                                    t, faults);
        ctx.true_demand = &observed;
        ctx.true_demand_sparse = nullptr;
      }
      if (faults.predictor_blackout) ctx.predictor = nullptr;
      if (faults.any_outage()) {
        degraded = FaultInjector::degraded_config(config, faults);
        ctx.effective_config = &degraded;
      }
    }
    const model::NetworkConfig& executed_config =
        ctx.effective_config != nullptr ? *ctx.effective_config : config;

    const Stopwatch decide_watch;
    model::SlotDecision decision = controller.decide(ctx);
    const double decision_seconds = decide_watch.elapsed_seconds();

    // Outaged links carry nothing because repair and the overlay run on the
    // executed (possibly degraded) config; the record is costed on the
    // clean truth like everything else.
    SlotRecord record = execute_slot(
        options_, controller, t, config, executed_config, truth,
        previous, decision, events ? &*events : nullptr,
        events ? &*result.events : nullptr);
    record.decision_seconds = decision_seconds;
    result.total += record.cost;
    result.total_replacements += record.replacements;
    result.slots.push_back(record);

    previous = decision.cache;
    controller.observe(t, decision);
    if (options_.record_schedule) result.schedule.push_back(std::move(decision));

    if (checkpointing && (t + 1) % options_.checkpoint_every == 0) {
      write_checkpoint(controller, result, previous);
    }
    // Crash emulation: stop WITHOUT flushing — resume must replay from the
    // last cadence checkpoint and still land bit-identical.
    if (t >= options_.halt_after_slot) break;
  }
  MDO_DEBUG(result.controller << ": total cost " << result.total_cost()
                              << ", replacements "
                              << result.total_replacements);
  return result;
}

namespace {

void write_supervision(util::BinaryWriter& w,
                       const runtime::SupervisionLog& log) {
  w.size(log.deadline_expirations);
  w.size(log.solve_failures);
  w.size(log.retries);
  w.size(log.recoveries);
  w.size(log.events.size());
  for (const runtime::SupervisionEvent& event : log.events) {
    w.size(event.slot);
    w.u8(static_cast<std::uint8_t>(event.kind));
    w.size(event.attempt);
    w.size(event.horizon);
    w.u8(static_cast<std::uint8_t>(event.status));
    w.f64(event.gap);
  }
}

void read_supervision(util::BinaryReader& r, runtime::SupervisionLog& log) {
  log.clear();
  log.deadline_expirations = r.size();
  log.solve_failures = r.size();
  log.retries = r.size();
  log.recoveries = r.size();
  const std::size_t num_events = r.count();
  log.events.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    runtime::SupervisionEvent event;
    event.slot = r.size();
    event.kind = static_cast<runtime::SupervisionEventKind>(r.u8());
    event.attempt = r.size();
    event.horizon = r.size();
    event.status = static_cast<solver::SolveStatus>(r.u8());
    event.gap = r.f64();
    log.events.push_back(event);
  }
}

}  // namespace

void Simulator::write_checkpoint(const online::Controller& controller,
                                 const SimulationResult& result,
                                 const model::CacheState& previous) const {
  util::BinaryWriter w;
  w.str(result.controller);
  w.size(instance_->horizon());
  w.size(result.slots.size());  // slots executed so far = next slot index
  w.boolean(options_.record_schedule);
  runtime::write_cache(w, previous);
  for (const SlotRecord& record : result.slots) {
    w.f64(record.cost.bs);
    w.f64(record.cost.sbs);
    w.f64(record.cost.neigh);
    w.f64(record.cost.replacement);
    w.size(record.replacements);
    w.f64(record.demand_total);
    w.f64(record.sbs_served);
    w.f64(record.neigh_served);
    w.f64(record.decision_seconds);
  }
  w.f64(result.total.bs);
  w.f64(result.total.sbs);
  w.f64(result.total.neigh);
  w.f64(result.total.replacement);
  w.size(result.total_replacements);
  if (options_.record_schedule) runtime::write_schedule(w, result.schedule);
  w.boolean(options_.simulate_events);
  if (options_.simulate_events) result.events->save(w);
  const bool has_supervision = options_.supervision != nullptr;
  w.boolean(has_supervision);
  if (has_supervision) write_supervision(w, *options_.supervision);
  predictor_->save_state(w);
  controller.save_state(w);
  runtime::write_checkpoint_file(options_.checkpoint_path, w.take());
}

std::size_t Simulator::try_resume(online::Controller& controller,
                                  SimulationResult& result,
                                  model::CacheState& previous) const {
  std::vector<std::uint8_t> payload;
  try {
    payload = runtime::read_checkpoint_file(options_.checkpoint_path);
  } catch (const std::exception& e) {
    // Missing or damaged snapshot: cold start (the documented fallback).
    MDO_WARN("checkpoint resume fell back to a cold start: " << e.what());
    return 0;
  }
  try {
    util::BinaryReader r(payload);
    const std::string controller_name = r.str();
    MDO_REQUIRE(controller_name == result.controller,
                "checkpoint belongs to controller '" + controller_name +
                    "', not '" + result.controller + "'");
    MDO_REQUIRE(r.size() == instance_->horizon(),
                "checkpoint horizon mismatch");
    const std::size_t next_slot = r.size();
    MDO_REQUIRE(next_slot <= instance_->horizon(),
                "checkpoint slot beyond the horizon");
    MDO_REQUIRE(r.boolean() == options_.record_schedule,
                "checkpoint schedule-recording mismatch");
    previous = runtime::read_cache(r, instance_->config);
    result.slots.clear();
    result.slots.reserve(instance_->horizon());
    for (std::size_t i = 0; i < next_slot; ++i) {
      SlotRecord record;
      record.cost.bs = r.f64();
      record.cost.sbs = r.f64();
      record.cost.neigh = r.f64();
      record.cost.replacement = r.f64();
      record.replacements = r.size();
      record.demand_total = r.f64();
      record.sbs_served = r.f64();
      record.neigh_served = r.f64();
      record.decision_seconds = r.f64();
      result.slots.push_back(record);
    }
    result.total = {};
    result.total.bs = r.f64();
    result.total.sbs = r.f64();
    result.total.neigh = r.f64();
    result.total.replacement = r.f64();
    result.total_replacements = r.size();
    if (options_.record_schedule) {
      result.schedule = runtime::read_schedule(r, instance_->config);
      MDO_REQUIRE(result.schedule.size() == next_slot,
                  "checkpoint schedule length mismatch");
    }
    MDO_REQUIRE(r.boolean() == options_.simulate_events,
                "checkpoint event-layer mismatch");
    if (options_.simulate_events) result.events->restore(r);
    const bool has_supervision = r.boolean();
    MDO_REQUIRE(has_supervision == (options_.supervision != nullptr),
                "checkpoint supervision-log mismatch");
    if (has_supervision) read_supervision(r, *options_.supervision);
    predictor_->restore_state(r);
    controller.restore_state(r);
    MDO_REQUIRE(r.exhausted(), "checkpoint payload has trailing bytes");
    return next_slot;
  } catch (const std::exception& e) {
    // A verified file whose payload still fails validation (wrong instance,
    // wrong run shape): the controller may be half-restored — reset it and
    // start cold.
    MDO_WARN("checkpoint restore failed, cold start: " << e.what());
    controller.reset(*instance_);
    result.slots.clear();
    result.schedule.clear();
    result.total = {};
    result.total_replacements = 0;
    if (result.events) result.events.emplace();
    if (options_.supervision != nullptr) options_.supervision->clear();
    previous = instance_->initial_cache;
    return 0;
  }
}

}  // namespace mdo::sim
