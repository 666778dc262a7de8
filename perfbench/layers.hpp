// Per-layer tracing from outside the program.
//
// Nothing here changes src/: the benchmark wraps the program's public
// interfaces in forwarding objects that time the calls crossing them, keeps
// the records in memory, and after the run replays every recorded window
// through the core / model / shard / sim entry points, timing each call and
// checking bitwise that the replay reproduces what the controller decided
// and what the simulator executed.
//
//   TimedPredictor   forwarding workload::Predictor (forecast calls)
//   TimedController  forwarding online::Controller (decide latency, the
//                    supervision log behind the failure count, per-slot
//                    records and decision digests)
//   replay_fluid     RHC windows -> PrimalDualSolver (in process and
//                    sharded), build_active_sets, ShardCore phases,
//                    schedule_cost, enforce_feasibility, the neighbor
//                    overlay and slot_cost
//   replay_stream    StreamingTraceReader::next, enforce_feasibility,
//                    slot_cost and EventSimulator::simulate_slot
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/decision.hpp"
#include "model/instance.hpp"
#include "online/controller.hpp"
#include "runtime/supervisor.hpp"
#include "sim/event_sim.hpp"
#include "workload/predictor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Folds `value` into a running 64-bit digest.
std::uint64_t mix(std::uint64_t digest, std::uint64_t value);

/// Per-layer totals keyed by metric name; divided into per-decision or
/// per-slot means when the run ends.
using Sums = std::map<std::string, double>;

/// Forwarding predictor that times and counts every forecast call.
class TimedPredictor final : public mdo::workload::Predictor {
 public:
  explicit TimedPredictor(const mdo::workload::Predictor& inner)
      : inner_(&inner) {}

  mdo::model::SlotDemand predict(std::size_t tau,
                                 std::size_t t) const override;
  mdo::model::SparseSlotDemand predict_sparse(std::size_t tau,
                                              std::size_t t) const override;
  std::size_t horizon() const override { return inner_->horizon(); }

  double ms() const { return ms_; }
  std::size_t calls() const { return calls_; }
  std::size_t entries() const { return entries_; }

 private:
  const mdo::workload::Predictor* inner_;
  // Predictors are driven through const references.
  mutable double ms_ = 0.0;
  mutable std::size_t calls_ = 0;
  mutable std::size_t entries_ = 0;
};

/// Thrown by a TimedController recording kSetup once its first decide()
/// returned, to end a set-up-only rep. Not a std::exception, so no handler
/// in the program takes it for a failure.
struct SetupDone {};

/// What a TimedController keeps besides decide() latencies.
enum class Recording {
  kSetup,    // stops the run after the first decide() (throws SetupDone)
  kLatency,  // untraced runs: latencies and the supervision log only
  kDigest,   // plus a running digest of every executed decision
  kTrace,    // plus one DecisionRecord per slot
};

/// One decide()/observe() pair of a traced run.
struct DecisionRecord {
  double decide_ms = 0.0;
  double predict_ms = 0.0;
  std::size_t predict_calls = 0;
  std::size_t predict_entries = 0;
  std::uint64_t allocations = 0;
  std::uint64_t decided = 0;   // digest of the decide() output
  std::uint64_t executed = 0;  // digest of what observe() received
  mdo::model::CacheState executed_cache;
};

/// Forwarding controller: times every decide(), attaches a supervision log
/// when the caller passed none (the clean path stays bit-identical), and
/// records according to `recording`. Runs here never checkpoint or resync,
/// so only decide() and observe() are intercepted.
class TimedController final : public mdo::online::Controller {
 public:
  /// `predictor` (traced runs) is the TimedPredictor the run forecasts
  /// through, read before and after each decide(). `keep_decisions` also
  /// stores every decide() output, for controllers with no solver to
  /// replay.
  TimedController(mdo::online::Controller& inner, Recording recording,
                  const TimedPredictor* predictor = nullptr,
                  bool keep_decisions = false)
      : inner_(&inner),
        recording_(recording),
        predictor_(predictor),
        keep_decisions_(keep_decisions) {}

  std::string name() const override { return inner_->name(); }
  void reset(const mdo::model::ProblemInstance& instance) override {
    inner_->reset(instance);
  }
  mdo::model::SlotDecision decide(
      const mdo::online::DecisionContext& ctx) override;
  void observe(std::size_t slot,
               const mdo::model::SlotDecision& executed) override;

  /// When the first decide() returned: the end of set-up.
  Clock::time_point first_decide_end() const { return first_decide_end_; }
  /// decide() latencies after the first.
  const std::vector<double>& steady_decide_ms() const { return steady_ms_; }
  double total_decide_ms() const { return total_decide_ms_; }
  /// Time spent computing digests and copying records: benchmark work that
  /// the sim layer's self time excludes.
  double recording_ms() const { return recording_ms_; }
  std::uint64_t executed_digest() const { return executed_digest_; }
  std::vector<DecisionRecord> take_records() { return std::move(records_); }
  std::vector<mdo::model::SlotDecision> take_decisions() {
    return std::move(decisions_);
  }
  std::size_t attempted() const { return attempted_; }
  /// Decisions whose solve failed, was retried, or ran out of budget.
  std::size_t failed() const;

 private:
  mdo::online::Controller* inner_;
  Recording recording_;
  const TimedPredictor* predictor_;
  bool keep_decisions_;
  mdo::runtime::SupervisionLog log_;
  std::size_t attempted_ = 0;
  Clock::time_point first_decide_end_{};
  std::vector<double> steady_ms_;
  double total_decide_ms_ = 0.0;
  double recording_ms_ = 0.0;
  std::uint64_t executed_digest_ = 0;
  std::vector<DecisionRecord> records_;
  std::vector<mdo::model::SlotDecision> decisions_;
};

/// A traced RHC run over a materialized instance.
struct FluidReplay {
  const mdo::model::ProblemInstance* instance = nullptr;
  /// The undecorated predictor the run forecast through (a pure function
  /// of its inputs, so the replay sees the same windows).
  const mdo::workload::Predictor* predictor = nullptr;
  std::size_t window = 0;
  std::size_t shards = 0;  // the run's worker count; 0 = in process
  const std::vector<DecisionRecord>* records = nullptr;
  double total_cost = 0.0;  // what the simulator accounted
};

/// Replays every recorded window in slot order through one persistent
/// in-process PrimalDualSolver (and, for a sharded run, one sharded
/// solver), times the layer calls and adds them to `sums`. Slot 0 is
/// replayed for its warm state but left out of the sums, like the
/// set-up it belongs to. Returns the failed bitwise checks.
std::vector<std::string> replay_fluid(const FluidReplay& run, Sums& sums);

/// A traced streamed run with the event layer.
struct StreamReplay {
  const mdo::model::NetworkConfig* config = nullptr;
  std::string trace_path;
  mdo::sim::EventSimOptions event_options;
  const std::vector<DecisionRecord>* records = nullptr;
  const std::vector<mdo::model::SlotDecision>* decisions = nullptr;
  double total_cost = 0.0;
  const mdo::sim::EventMetrics* events = nullptr;
};

/// Re-reads the trace slot by slot and replays each recorded decision
/// through repair, cost accounting and the event layer.
std::vector<std::string> replay_stream(const StreamReplay& run, Sums& sums);

}  // namespace perfbench
