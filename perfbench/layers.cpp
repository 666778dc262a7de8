#include "layers.hpp"

#include <bit>
#include <cstring>
#include <optional>
#include <set>

#include "alloc.hpp"
#include "core/collab.hpp"
#include "core/primal_dual.hpp"
#include "core/shard_core.hpp"
#include "model/costs.hpp"
#include "model/feasibility.hpp"
#include "shard/coordinator.hpp"
#include "shard/wire.hpp"
#include "workload/streaming.hpp"

namespace perfbench {

using namespace mdo;

std::uint64_t mix(std::uint64_t digest, std::uint64_t value) {
  digest = (digest ^ value) * 0x9E3779B97F4A7C15ULL;
  return digest ^ (digest >> 29);
}

namespace {

std::uint64_t mix_doubles(std::uint64_t h, const linalg::Vec& values) {
  for (const double value : values) h = mix(h, std::bit_cast<std::uint64_t>(value));
  return h;
}

std::size_t entry_count(const model::SlotDemand& slot) {
  std::size_t entries = 0;
  for (const model::SbsDemand& sbs : slot) {
    entries += sbs.num_classes() * sbs.num_contents();
  }
  return entries;
}

std::size_t entry_count(const model::SparseSlotDemand& slot) {
  std::size_t entries = 0;
  for (const model::SparseSbsDemand& sbs : slot) entries += sbs.nnz();
  return entries;
}

/// Message types of the shard wire, in protocol order (kShutdown is sent
/// only at fleet teardown, outside any solve).
constexpr std::pair<shard::MessageType, const char*> kWireMessages[] = {
    {shard::MessageType::kBegin, "shard.bytes.begin"},
    {shard::MessageType::kBeginAck, "shard.bytes.begin_ack"},
    {shard::MessageType::kIterate, "shard.bytes.iterate"},
    {shard::MessageType::kIterateReply, "shard.bytes.iterate_reply"},
    {shard::MessageType::kEnd, "shard.bytes.end"},
    {shard::MessageType::kEndReply, "shard.bytes.end_reply"},
};

/// Collects failed checks, keeping the first few messages.
class Checks {
 public:
  void expect(bool ok, const std::string& what, std::size_t slot) {
    if (ok) return;
    if (errors_.size() < 8) {
      errors_.push_back(what + " at slot " + std::to_string(slot));
    }
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }
  std::vector<std::string> take() { return std::move(errors_); }

 private:
  std::vector<std::string> errors_;
};

/// Runs the ShardCore phases of one window the way the in-process solver
/// does (begin, then per dual iteration: iterate, repair, schedule_cost,
/// dual_update), at the solve's final multipliers and with a zero step so
/// they stay there.
void time_phases(const core::HorizonProblem& problem,
                 const core::HorizonSolution& solution, core::ActiveSets sets,
                 std::vector<core::CellState>& bank, Sums& sums) {
  const model::NetworkConfig& config = *problem.config;
  core::ShardInputs inputs;
  inputs.config = problem.config;
  inputs.demand = problem.demand;
  inputs.sparse_demand = problem.sparse_demand;
  inputs.initial_cache = &problem.initial_cache;

  core::ShardCore core;
  auto start = Clock::now();
  core.begin(inputs, core::ShardOptions{}, bank, std::move(sets));
  sums["core.begin_ms"] += ms_since(start);

  model::Schedule schedule(problem.horizon());
  for (model::SlotDecision& slot : schedule) {
    slot.cache = model::CacheState(config);
    slot.load = model::LoadAllocation(config);
  }
  linalg::Vec mu = solution.mu;
  for (std::size_t i = 0; i < solution.iterations; ++i) {
    start = Clock::now();
    core.iterate(mu);
    sums["core.iterate_ms"] += ms_since(start);
    start = Clock::now();
    core.repair(&schedule);
    sums["core.repair_ms"] += ms_since(start);
    start = Clock::now();
    model::schedule_cost(config, problem.demand_view(), schedule,
                         problem.initial_cache);
    sums["model.schedule_cost_ms"] += ms_since(start);
    start = Clock::now();
    core.dual_update(0.0, mu);
    sums["core.dual_update_ms"] += ms_since(start);
  }
}

/// Digest of every bit of a decision: cache bitmaps, then the local and
/// (when present) neighbor load banks.
std::uint64_t digest(const model::SlotDecision& decision) {
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  const model::CacheState& cache = decision.cache;
  for (std::size_t n = 0; n < cache.num_sbs(); ++n) {
    const std::vector<std::uint8_t>& bits = cache.sbs_bitmap(n);
    std::size_t i = 0;
    for (; i + 8 <= bits.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, bits.data() + i, 8);
      h = mix(h, word);
    }
    for (; i < bits.size(); ++i) h = mix(h, bits[i]);
  }
  const model::LoadAllocation& load = decision.load;
  h = mix(h, load.has_neighbor() ? 1 : 0);
  for (std::size_t n = 0; n < load.num_sbs(); ++n) {
    h = mix_doubles(h, load.sbs_data(n));
    if (load.has_neighbor()) h = mix_doubles(h, load.neighbor_data(n));
  }
  return h;
}

}  // namespace

model::SlotDemand TimedPredictor::predict(std::size_t tau,
                                          std::size_t t) const {
  const auto start = Clock::now();
  model::SlotDemand slot = inner_->predict(tau, t);
  ms_ += ms_since(start);
  ++calls_;
  entries_ += entry_count(slot);
  return slot;
}

model::SparseSlotDemand TimedPredictor::predict_sparse(std::size_t tau,
                                                       std::size_t t) const {
  const auto start = Clock::now();
  model::SparseSlotDemand slot = inner_->predict_sparse(tau, t);
  ms_ += ms_since(start);
  ++calls_;
  entries_ += entry_count(slot);
  return slot;
}

model::SlotDecision TimedController::decide(
    const online::DecisionContext& ctx) {
  online::DecisionContext supervised = ctx;
  if (supervised.supervision == nullptr) supervised.supervision = &log_;
  ++attempted_;

  const bool tracing = recording_ == Recording::kTrace;
  DecisionRecord record;
  if (tracing && predictor_ != nullptr) {
    record.predict_ms = -predictor_->ms();
    record.predict_calls = predictor_->calls();
    record.predict_entries = predictor_->entries();
  }
  std::uint64_t allocations_before = 0;
  if (tracing) {
    allocations_before = allocations();
    count_allocations(true);
  }
  const auto start = Clock::now();
  model::SlotDecision decision = inner_->decide(supervised);
  const auto end = Clock::now();
  if (tracing) count_allocations(false);

  const double ms = std::chrono::duration<double, std::milli>(end - start).count();
  total_decide_ms_ += ms;
  if (attempted_ == 1) {
    first_decide_end_ = end;
    if (recording_ == Recording::kSetup) throw SetupDone{};
  } else {
    steady_ms_.push_back(ms);
  }
  if (tracing) {
    const auto recording_start = Clock::now();
    record.decide_ms = ms;
    record.allocations = allocations() - allocations_before;
    if (predictor_ != nullptr) {
      record.predict_ms += predictor_->ms();
      record.predict_calls = predictor_->calls() - record.predict_calls;
      record.predict_entries = predictor_->entries() - record.predict_entries;
    }
    record.decided = digest(decision);
    records_.push_back(std::move(record));
    if (keep_decisions_) decisions_.push_back(decision);
    recording_ms_ += ms_since(recording_start);
  }
  return decision;
}

void TimedController::observe(std::size_t slot,
                              const model::SlotDecision& executed) {
  inner_->observe(slot, executed);
  if (recording_ == Recording::kLatency) return;
  const auto start = Clock::now();
  const std::uint64_t d = digest(executed);
  executed_digest_ = mix(executed_digest_, d);
  if (recording_ == Recording::kTrace && !records_.empty()) {
    records_.back().executed = d;
    records_.back().executed_cache = executed.cache;
  }
  recording_ms_ += ms_since(start);
}

std::size_t TimedController::failed() const {
  std::set<std::size_t> slots;
  for (const runtime::SupervisionEvent& event : log_.events) {
    if (event.kind != runtime::SupervisionEventKind::kRecovered) {
      slots.insert(event.slot);
    }
  }
  return slots.size();
}

std::vector<std::string> replay_fluid(const FluidReplay& run, Sums& sums) {
  const model::ProblemInstance& instance = *run.instance;
  const model::NetworkConfig& config = instance.config;
  const std::vector<DecisionRecord>& records = *run.records;
  const bool sparse = instance.use_sparse_demand;
  Checks checks;

  core::PrimalDualOptions options;
  options.shard_count = shard::kShardsInProcess;
  core::PrimalDualSolver solver(options);
  std::optional<core::PrimalDualSolver> sharded;
  if (run.shards > 0) {
    options.shard_count = run.shards;
    sharded.emplace(options);
  }

  std::vector<core::CellState> bank;
  model::DemandTrace dense_window;
  model::SparseDemandTrace sparse_window;
  model::CacheState previous = instance.initial_cache;
  model::CostBreakdown total;
  const model::DemandTraceView truth = instance.demand_view();
  Sums warmup;  // slot 0: replayed for its warm state, not measured
  for (std::size_t t = 0; t < records.size(); ++t) {
    const DecisionRecord& record = records[t];
    Sums& out = t == 0 ? warmup : sums;

    // RHC's inputs: the forecast window plus the cache it planned from.
    core::HorizonProblem problem;
    problem.config = &config;
    if (sparse) {
      run.predictor->predict_window_sparse_into(t, run.window, sparse_window);
      problem.sparse_demand = &sparse_window;
    } else {
      run.predictor->predict_window_into(t, run.window, dense_window);
      problem.demand = &dense_window;
    }
    problem.initial_cache = previous;

    solver.advance_window(1);
    auto start = Clock::now();
    std::optional<core::HorizonSolution> solved(solver.solve(problem));
    const double solve_ms = ms_since(start);
    const core::HorizonSolution& solution = *solved;
    out["core.solve_ms"] += solve_ms;
    out["core.dual_iterations"] += static_cast<double>(solution.iterations);
    out["core.gap"] += solution.gap();
    checks.expect(digest(solution.schedule.front()) == record.decided,
                  "replayed solve differs from the decide() output", t);

    double controller_solve_ms = solve_ms;
    if (sharded) {
      shard::reset_wire_stats();
      sharded->advance_window(1);
      start = Clock::now();
      const core::HorizonSolution remote = sharded->solve(problem);
      const double shard_ms = ms_since(start);
      out["shard.solve_ms"] += shard_ms;
      out["shard.exchange_ms"] += shard_ms - solve_ms;
      const shard::WireStats& wire = shard::wire_stats();
      for (const auto& [type, name] : kWireMessages) {
        const auto index = static_cast<std::size_t>(type);
        out[name] += static_cast<double>(wire.sent[index] + wire.received[index]);
      }
      checks.expect(digest(remote.schedule.front()) == record.decided,
                    "sharded solve differs from the in-process solve", t);
      controller_solve_ms = shard_ms;
    }
    out["online.solve_ms"] += controller_solve_ms;

    core::ActiveSets sets;
    if (sparse) {
      start = Clock::now();
      sets = core::build_active_sets(config, sparse_window, previous);
      out["core.active_sets_ms"] += ms_since(start);
      for (const auto& cell : sets.active) {
        out["core.active_coords"] += static_cast<double>(cell.size());
      }
    }
    if (!solution.mu.empty()) {
      time_phases(problem, solution, std::move(sets), bank, out);
    }

    // RHC keeps the first action and drops the window's schedule.
    start = Clock::now();
    model::SlotDecision decision = solution.schedule.front();
    solved.reset();
    out["online.handoff_ms"] += ms_since(start);

    // The simulator's half of the slot: repair, overlay, accounting.
    const model::SlotDemandView slot_truth = truth.slot(t);
    start = Clock::now();
    model::enforce_feasibility(config, slot_truth, decision);
    out["model.enforce_feasibility_ms"] += ms_since(start);
    // The simulator routes cooperatively whenever there is a neighbor tier.
    if (config.has_neighbor_tier()) {
      start = Clock::now();
      const bool accepted =
          core::apply_neighbor_overlay(config, slot_truth, decision);
      out["core.overlay_ms"] += ms_since(start);
      out["core.overlay_accepted"] += accepted ? 1.0 : 0.0;
    }
    checks.expect(digest(decision) == record.executed,
                  "repaired decision differs from the executed one", t);
    start = Clock::now();
    total += model::slot_cost(config, slot_truth, decision, previous);
    out["model.slot_cost_ms"] += ms_since(start);
    previous = record.executed_cache;
  }
  checks.expect(std::bit_cast<std::uint64_t>(total.total()) ==
                    std::bit_cast<std::uint64_t>(run.total_cost),
                "replayed slot costs do not sum to the run's total cost");
  return checks.take();
}

std::vector<std::string> replay_stream(const StreamReplay& run, Sums& sums) {
  const model::NetworkConfig& config = *run.config;
  const std::vector<DecisionRecord>& records = *run.records;
  Checks checks;

  workload::StreamingTraceReader reader(run.trace_path, config);
  sim::EventSimulator events(config, run.event_options);
  sim::EventMetrics aggregate;
  model::CacheState previous(config);
  model::CostBreakdown total;
  Sums warmup;
  for (std::size_t t = 0; t < records.size(); ++t) {
    const DecisionRecord& record = records[t];
    Sums& out = t == 0 ? warmup : sums;

    const std::size_t rows_before = reader.entries_yielded();
    auto start = Clock::now();
    const std::optional<model::SparseSlotDemand> slot = reader.next();
    out["workload.ingest_ms"] += ms_since(start);
    if (!slot) {
      checks.expect(false, "trace ended before the recorded run", t);
      break;
    }
    out["workload.ingest_rows"] +=
        static_cast<double>(reader.entries_yielded() - rows_before);
    const model::SlotDemandView truth(*slot);

    model::SlotDecision decision = (*run.decisions)[t];
    checks.expect(digest(decision) == record.decided,
                  "kept decision differs from the decide() output", t);
    start = Clock::now();
    model::enforce_feasibility(config, truth, decision);
    out["model.enforce_feasibility_ms"] += ms_since(start);
    checks.expect(digest(decision) == record.executed,
                  "repaired decision differs from the executed one", t);
    start = Clock::now();
    total += model::slot_cost(config, truth, decision, previous);
    out["model.slot_cost_ms"] += ms_since(start);
    start = Clock::now();
    const sim::EventSlotMetrics metrics =
        events.simulate_slot(t, truth, decision, previous, aggregate);
    out["sim.event_ms"] += ms_since(start);
    out["sim.event_requests"] += static_cast<double>(metrics.requests);
    out["sim.event_hits"] += static_cast<double>(metrics.sbs_hits);
    previous = decision.cache;
  }
  checks.expect(aggregate == *run.events,
                "replayed event metrics differ from the run's");
  checks.expect(std::bit_cast<std::uint64_t>(total.total()) ==
                    std::bit_cast<std::uint64_t>(run.total_cost),
                "replayed slot costs do not sum to the run's total cost");
  return checks.take();
}

}  // namespace perfbench
