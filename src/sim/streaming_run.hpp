// Streaming simulation driver: controllers over unbounded traces.
//
// sim::Simulator needs the whole demand horizon materialized up front —
// O(T * N * M * K) memory before the first slot runs. run_streaming()
// instead drives a controller straight off a workload::StreamingTraceReader
// with a sliding window of buffered slots: the reader yields slot t + w
// while slot t is decided, and slot t's demand is dropped the moment it has
// been accounted. Peak memory is O(lookahead * slot size), independent of
// the trace length (DESIGN.md, "Streaming memory model").
//
// The buffered truth is served to the controller through a
// BufferedWindowPredictor whose horizon() is the buffered end, so
// window-based controllers (RHC / CHC / AFHC) clip their forecast windows
// exactly as they would against an in-memory PerfectPredictor. Each slot
// then runs through sim::execute_slot, the step Simulator::run uses, so the
// cooperative neighbor tier of a topology config is applied too: with
// lookahead >= the controller window the decisions, costs and events are
// bit-identical to a materialized run over the same trace. Controllers that
// require the whole horizon at reset() (OfflineController) cannot run
// streamed: they see an empty-demand shell instance and fail loudly at the
// first decide().
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>

#include "model/costs.hpp"
#include "model/instance.hpp"
#include "online/controller.hpp"
#include "sim/event_sim.hpp"
#include "workload/predictor.hpp"
#include "workload/streaming.hpp"

namespace mdo::sim {

/// Perfect forecasts over the currently-buffered span of a streamed trace.
/// horizon() grows as slots are pushed and is the buffered end, so
/// Predictor::predict_window() clips like it would at a full trace's end.
class BufferedWindowPredictor final : public workload::Predictor {
 public:
  model::SlotDemand predict(std::size_t tau, std::size_t t) const override;
  model::SparseSlotDemand predict_sparse(std::size_t tau,
                                         std::size_t t) const override;
  std::size_t horizon() const override { return base_ + buffer_.size(); }

  /// Absolute slot index of the oldest buffered slot.
  std::size_t base() const { return base_; }
  /// Buffered truth of absolute slot t (base() <= t < horizon()).
  const model::SparseSlotDemand& at(std::size_t t) const;
  void push(model::SparseSlotDemand slot) { buffer_.push_back(std::move(slot)); }
  /// Drops the oldest buffered slot (after it has been accounted).
  void pop_front();

 private:
  std::deque<model::SparseSlotDemand> buffer_;
  std::size_t base_ = 0;
};

struct StreamingRunOptions {
  /// Slots buffered ahead of (and including) the one being decided. Must
  /// be >= the controller's forecast window for decisions to match an
  /// in-memory run; must be >= 1.
  std::size_t lookahead = 10;
  /// Request-level event layer (sim/event_sim.hpp), accumulated into
  /// StreamingRunResult::events.
  bool simulate_events = false;
  EventSimOptions event_options;
};

/// Aggregates only — no per-slot vectors, so the result itself is O(1) in
/// the trace length (the event layer's per-slot series excepted; it is
/// O(T) in slot count, not in demand size).
struct StreamingRunResult {
  std::string controller;
  std::size_t slots = 0;  // slots executed == trace horizon
  model::CostBreakdown total;
  std::size_t total_replacements = 0;
  double demand_total = 0.0;
  double sbs_served = 0.0;
  double neigh_served = 0.0;  // traffic served out of neighbor caches
  std::optional<EventMetrics> events;

  double total_cost() const { return total.total(); }
  /// Fraction of demand volume served by SBSs, neighbor tier included.
  double offload_ratio() const {
    return demand_total > 0.0 ? (sbs_served + neigh_served) / demand_total
                              : 0.0;
  }
};

/// Plays `controller` over every slot `reader` yields. The controller is
/// reset against an empty-demand shell instance (config + all-empty initial
/// cache, use_sparse_demand set). Each slot runs sim::execute_slot with the
/// simulator's defaults, so decisions, repair, the cooperative overlay on a
/// topology config, cost accounting and events match sim::Simulator slot
/// for slot.
StreamingRunResult run_streaming(const model::NetworkConfig& config,
                                 workload::StreamingTraceReader& reader,
                                 online::Controller& controller,
                                 const StreamingRunOptions& options = {});

}  // namespace mdo::sim
