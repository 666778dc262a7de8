#include "sim/streaming_run.hpp"

#include <utility>

#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mdo::sim {

model::SlotDemand BufferedWindowPredictor::predict(std::size_t tau,
                                                   std::size_t t) const {
  (void)tau;
  return model::SlotDemandView(at(t)).to_dense();
}

model::SparseSlotDemand BufferedWindowPredictor::predict_sparse(
    std::size_t tau, std::size_t t) const {
  (void)tau;
  return at(t);
}

const model::SparseSlotDemand& BufferedWindowPredictor::at(
    std::size_t t) const {
  MDO_REQUIRE(t >= base_ && t < base_ + buffer_.size(),
              "slot " + std::to_string(t) +
                  " is outside the buffered window [" +
                  std::to_string(base_) + ", " +
                  std::to_string(base_ + buffer_.size()) + ")");
  return buffer_[t - base_];
}

void BufferedWindowPredictor::pop_front() {
  MDO_REQUIRE(!buffer_.empty(), "pop_front on an empty buffer");
  buffer_.pop_front();
  ++base_;
}

StreamingRunResult run_streaming(const model::NetworkConfig& config,
                                 workload::StreamingTraceReader& reader,
                                 online::Controller& controller,
                                 const StreamingRunOptions& options) {
  MDO_REQUIRE(options.lookahead >= 1, "lookahead must be >= 1");

  // Shell instance: everything a window/myopic controller reads at reset()
  // (config, initial cache, representation switch) without any demand.
  model::ProblemInstance shell;
  shell.config = config;
  shell.use_sparse_demand = true;
  shell.initial_cache = model::CacheState(shell.config);
  controller.reset(shell);

  StreamingRunResult result;
  result.controller = controller.name();

  std::optional<EventSimulator> events;
  if (options.simulate_events) {
    events.emplace(shell.config, options.event_options);
    result.events.emplace();
  }

  BufferedWindowPredictor predictor;
  bool drained = false;
  const auto refill = [&](std::size_t current) {
    while (!drained && predictor.horizon() < current + options.lookahead) {
      std::optional<model::SparseSlotDemand> slot = reader.next();
      if (!slot) {
        drained = true;
        break;
      }
      predictor.push(std::move(*slot));
    }
  };

  // The streamed trace shares Simulator::run's per-slot step with the
  // simulator's defaults: repair and the cooperative overlay included.
  const SimulatorOptions step{};

  model::CacheState previous = shell.initial_cache;
  for (std::size_t t = 0;; ++t) {
    refill(t);
    if (t >= predictor.horizon()) break;  // every yielded slot is accounted

    const model::SparseSlotDemand& truth = predictor.at(t);
    online::DecisionContext ctx;
    ctx.slot = t;
    ctx.true_demand_sparse = &truth;
    ctx.predictor = &predictor;

    model::SlotDecision decision = controller.decide(ctx);
    const SlotRecord record = execute_slot(
        step, controller, t, shell.config, shell.config, truth, previous,
        decision, events ? &*events : nullptr,
        events ? &*result.events : nullptr);
    result.total += record.cost;
    result.total_replacements += record.replacements;
    result.demand_total += record.demand_total;
    result.sbs_served += record.sbs_served;
    result.neigh_served += record.neigh_served;

    previous = decision.cache;
    controller.observe(t, decision);
    ++result.slots;
    predictor.pop_front();  // slot t is fully accounted: release it
  }
  MDO_DEBUG(result.controller << " (streamed): total cost "
                              << result.total_cost() << " over "
                              << result.slots << " slots");
  return result;
}

}  // namespace mdo::sim
