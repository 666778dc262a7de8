// Decision-path benchmark binary: one workload, one seed, one process.
//
//   perfbench --workload NAME --seed N --generate PATH
//       writes the workload's input trace (event_replay only)
//   perfbench --workload NAME --seed N --seconds S [--input PATH]
//       end-to-end measurement, repeated for S seconds
//   perfbench_traced --workload NAME --seed N --seconds S [--input PATH]
//       per-layer breakdown: untraced and traced runs in alternation, each
//       traced run replayed layer by layer (perfbench/layers.hpp)
//
// The child prints one `RESULT {json}` line; perfbench/run.py builds the
// binaries, runs them and turns that line into the benchmark's output. Each
// run ("rep") constructs the predictor, simulator and controller afresh, so
// set-up is measured once per rep, and more often in set-up-only reps that
// stop after the first decide(); it is reported as a median.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alloc.hpp"
#include "layers.hpp"
#include "online/baselines.hpp"
#include "online/rhc.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming_run.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/streaming.hpp"
#include "workload/trace_io.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace mdo;
using perfbench::Clock;
using perfbench::Recording;

/// Every workload runs the paper's Sec. V-B cell per SBS (C=5, B=30,
/// beta=100, Zipf-Mandelbrot 0.8/30: the PaperScenario defaults) with the
/// sizes below. perfbench/README.md gives the reasons and predictions.
struct Workload {
  const char* name;
  /// Workloads of one group share inputs, so their results must agree
  /// bitwise at equal seeds.
  const char* group;
  bool streamed;   // LRFU over a CSV trace with the event layer; else RHC
  std::size_t num_sbs;
  std::size_t contents;
  std::size_t classes;
  bool ring;       // cooperative ring, inter-SBS bandwidth 5
  bool sparse;     // sparse demand representation
  bool truncated;  // Zipf tail cut to the surviving 2% head
  std::size_t slots;
  std::size_t window;  // RHC window, or the streaming lookahead
  std::size_t threads;
  std::size_t shards;  // shard worker processes; 0 = in process
  /// Forecast/arrival variants a run cycles through, one per rep: the
  /// number of dual iterations RHC needs varies with the forecast noise,
  /// so one trajectory per run left decide latency seed-dependent.
  std::size_t variants;
};

constexpr Workload kWorkloads[] = {
    {.name = "paper_ring", .group = "paper_ring", .streamed = false,
     .num_sbs = 6, .contents = 30, .classes = 30, .ring = true,
     .sparse = false, .truncated = false, .slots = 30, .window = 10,
     .threads = 1, .shards = 0, .variants = 8},
    {.name = "sparse_n64", .group = "sparse_n64", .streamed = false,
     .num_sbs = 64, .contents = 10000, .classes = 2, .ring = false,
     .sparse = true, .truncated = true, .slots = 40, .window = 4,
     .threads = 4, .shards = 0, .variants = 1},
    {.name = "sparse_n64_sharded", .group = "sparse_n64", .streamed = false,
     .num_sbs = 64, .contents = 10000, .classes = 2, .ring = false,
     .sparse = true, .truncated = true, .slots = 40, .window = 4,
     .threads = 1, .shards = 2, .variants = 1},
    {.name = "event_replay", .group = "event_replay", .streamed = true,
     .num_sbs = 1, .contents = 30, .classes = 30, .ring = false,
     .sparse = true, .truncated = false, .slots = 1500, .window = 1,
     .threads = 1, .shards = 0, .variants = 1},
};

/// The network and true demand of every workload come from one scenario
/// seed (the repository's default); --seed drives the predictor's
/// perturbations and the event layer's arrivals, per variant.
constexpr std::uint64_t kScenarioSeed = 7;
constexpr double kEta = 0.1;
constexpr double kInterSbsBandwidth = 5.0;
constexpr double kHeadFraction = 0.02;
constexpr double kRequestsPerRateUnit = 250.0;
/// Full reps per run at least.
constexpr std::size_t kMinReps = 3;
/// Set-up-only reps (construction through the first decide()) before each
/// full rep of an untraced run: at least three, and more until they took
/// kMinSetupSeconds. The sparse workloads fit only three or four full reps
/// in a run, and event_replay's sub-millisecond set-ups spread by 2x from
/// one to the next, so the full reps' own set-ups give no steady median.
constexpr std::size_t kMinSetupReps = 3;
constexpr double kMinSetupSeconds = 0.05;

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw InvalidArgument("unknown workload: " + name);
}

workload::PaperScenario scenario_for(const Workload& w, std::size_t horizon) {
  workload::PaperScenario scenario;
  scenario.num_sbs = w.num_sbs;
  scenario.num_contents = w.contents;
  scenario.classes_per_sbs = w.classes;
  scenario.horizon = horizon;
  scenario.seed = kScenarioSeed;
  if (w.ring) {
    scenario.neighbor_topology = workload::NeighborTopologyKind::kRing;
    scenario.inter_sbs_bandwidth = kInterSbsBandwidth;
  }
  if (w.truncated) {
    // bench_shard's derivation: keep a fixed head fraction of the catalogue.
    const auto pmf = workload::zipf_mandelbrot_pmf(
        w.contents, scenario.workload.zipf_alpha, scenario.workload.zipf_q);
    const auto head = static_cast<std::size_t>(
        kHeadFraction * static_cast<double>(w.contents));
    scenario.workload.min_rate = pmf[head];
  }
  return scenario;
}

/// Seed of one variant's random stream (predictor noise, event arrivals).
std::uint64_t variant_seed(std::uint64_t base, std::uint64_t seed,
                           std::size_t variant) {
  return base + 1000 * seed + variant;
}

sim::EventSimOptions event_options(std::uint64_t seed, std::size_t variant) {
  sim::EventSimOptions options;
  options.requests_per_rate_unit = kRequestsPerRateUnit;
  options.seed = variant_seed(2024, seed, variant);
  return options;
}

workload::NoisyPredictor make_predictor(const model::ProblemInstance& instance,
                                        std::uint64_t seed,
                                        std::size_t variant) {
  const std::uint64_t noise_seed = variant_seed(1234, seed, variant);
  return instance.use_sparse_demand
             ? workload::NoisyPredictor(instance.sparse_demand, kEta,
                                        noise_seed)
             : workload::NoisyPredictor(instance.demand, kEta, noise_seed);
}

/// The program's inputs for one process.
struct Inputs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  model::ProblemInstance instance;  // RHC workloads
  model::NetworkConfig config;      // the cell a streamed trace belongs to
  std::string trace_path;           // streamed workloads
};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::uint64_t mix_cost(std::uint64_t h, const model::CostBreakdown& cost) {
  h = perfbench::mix(h, bits(cost.bs));
  h = perfbench::mix(h, bits(cost.sbs));
  h = perfbench::mix(h, bits(cost.neigh));
  return perfbench::mix(h, bits(cost.replacement));
}

/// One construct-reset-run cycle.
struct Rep {
  double setup_s = 0.0;   // construction start -> first decide() returned
  double steady_s = 0.0;  // first decide() returned -> run returned
  std::size_t slots = 0;
  double steady_requests = 0.0;  // requests (fluid: demand volume) after slot 0
  std::vector<double> decide_ms;  // steady decide() latencies
  double run_ms = 0.0;
  double decide_total_ms = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double total_cost = 0.0;
  std::uint64_t fingerprint = 0;       // per-slot results, bit for bit
  std::uint64_t executed_digest = 0;   // executed decisions (digest/trace)
  std::vector<perfbench::DecisionRecord> records;
  std::vector<model::SlotDecision> decisions;
  std::optional<sim::EventMetrics> events;
};

void finish_rep(Rep& rep, perfbench::TimedController& controller,
                Clock::time_point start, Clock::time_point run_start,
                Clock::time_point end) {
  const auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  // Digest bookkeeping is the benchmark's own work, not the program's.
  const double recording_s = controller.recording_ms() / 1e3;
  rep.setup_s = seconds(controller.first_decide_end() - start);
  rep.steady_s = seconds(end - controller.first_decide_end()) - recording_s;
  rep.run_ms = seconds(end - run_start) * 1e3 - controller.recording_ms();
  rep.decide_ms = controller.steady_decide_ms();
  rep.decide_total_ms = controller.total_decide_ms();
  rep.attempted = controller.attempted();
  rep.failed = controller.failed();
  rep.executed_digest = controller.executed_digest();
  rep.records = controller.take_records();
  rep.decisions = controller.take_decisions();
}

Rep run_fluid(const Inputs& in, Recording recording, std::size_t variant) {
  const Workload& w = *in.workload;
  Rep rep;
  const auto start = Clock::now();
  const workload::NoisyPredictor noisy =
      make_predictor(in.instance, in.seed, variant);
  std::optional<perfbench::TimedPredictor> timed;
  if (recording == Recording::kTrace) timed.emplace(noisy);
  const workload::Predictor& predictor =
      timed ? static_cast<const workload::Predictor&>(*timed) : noisy;
  const sim::Simulator simulator(in.instance, predictor);
  online::RhcController rhc(w.window);
  perfbench::TimedController controller(rhc, recording,
                                        timed ? &*timed : nullptr);
  const auto run_start = Clock::now();
  std::optional<sim::SimulationResult> ran;
  try {
    ran.emplace(simulator.run(controller));
  } catch (const perfbench::SetupDone&) {
  }
  const auto end = Clock::now();
  finish_rep(rep, controller, start, run_start, end);
  if (!ran) return rep;  // set-up only

  const sim::SimulationResult& result = *ran;

  rep.slots = result.slots.size();
  rep.total_cost = result.total_cost();
  std::uint64_t h = mix_cost(0, result.total);
  for (std::size_t t = 0; t < result.slots.size(); ++t) {
    const sim::SlotRecord& slot = result.slots[t];
    if (t > 0) rep.steady_requests += slot.demand_total;
    h = mix_cost(h, slot.cost);
    h = perfbench::mix(h, slot.replacements);
    h = perfbench::mix(h, bits(slot.demand_total));
    h = perfbench::mix(h, bits(slot.sbs_served));
    h = perfbench::mix(h, bits(slot.neigh_served));
  }
  rep.fingerprint = h;
  return rep;
}

Rep run_stream(const Inputs& in, Recording recording, std::size_t variant) {
  Rep rep;
  const auto start = Clock::now();
  workload::StreamingTraceReader reader(in.trace_path, in.config);
  online::LrfuController lrfu;
  perfbench::TimedController controller(lrfu, recording, nullptr,
                                        recording == Recording::kTrace);
  sim::StreamingRunOptions options;
  options.lookahead = in.workload->window;
  options.simulate_events = true;
  options.event_options = event_options(in.seed, variant);
  const auto run_start = Clock::now();
  std::optional<sim::StreamingRunResult> ran;
  try {
    ran.emplace(sim::run_streaming(in.config, reader, controller, options));
  } catch (const perfbench::SetupDone&) {
  }
  const auto end = Clock::now();
  finish_rep(rep, controller, start, run_start, end);
  if (!ran) return rep;  // set-up only

  const sim::StreamingRunResult& result = *ran;
  const sim::EventMetrics& events = *result.events;
  rep.slots = result.slots;
  rep.total_cost = result.total_cost();
  rep.steady_requests = static_cast<double>(
      events.requests - (events.slots.empty() ? 0 : events.slots[0].requests));
  std::uint64_t h = mix_cost(0, result.total);
  h = perfbench::mix(h, result.total_replacements);
  h = perfbench::mix(h, bits(result.demand_total));
  h = perfbench::mix(h, bits(result.sbs_served));
  h = perfbench::mix(h, events.requests);
  h = perfbench::mix(h, events.sbs_hits);
  h = perfbench::mix(h, events.neigh_hits);
  h = perfbench::mix(h, bits(events.backhaul_bytes));
  h = mix_cost(h, events.discrete_cost);
  for (const sim::EventSlotMetrics& slot : events.slots) {
    h = perfbench::mix(h, slot.requests);
    h = perfbench::mix(h, slot.sbs_hits);
    h = perfbench::mix(h, bits(slot.p99_delay));
  }
  rep.fingerprint = h;
  rep.events = events;
  return rep;
}

Rep run_rep(const Inputs& in, Recording recording, std::size_t variant) {
  return in.workload->streamed ? run_stream(in, recording, variant)
                               : run_fluid(in, recording, variant);
}

/// Nearest-rank percentile; p in (0, 100].
double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sample.size())));
  return sample[std::min(sample.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double median(std::vector<double> sample) { return percentile(sample, 50.0); }

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (const double value : sample) sum += value;
  return sum / static_cast<double>(sample.size());
}

double peak_rss_mb(int who) {
  struct rusage usage {};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Whether another round of `done` rounds so far still fits: it would end
/// less than half a round past the `seconds` budget.
bool another_round(Clock::time_point start, std::size_t done,
                   double seconds) {
  if (done == 0) return true;
  const double elapsed = seconds_since(start);
  return elapsed + 0.5 * elapsed / static_cast<double>(done) < seconds;
}

/// The accounted results of one input variant.
struct Outcome {
  bool seen = false;
  double total_cost = 0.0;
  std::uint64_t fingerprint = 0;
};

/// What one process reports back.
struct Report {
  explicit Report(std::size_t variants) : outcomes(variants) {}

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t reps = 0;
  std::size_t samples = 0;  // decisions behind the latency statistics
  std::vector<Outcome> outcomes;  // per variant
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> metrics;

  /// Every rep of one variant must account the same results, bit for bit.
  void record(const Rep& rep, std::size_t variant, const char* what) {
    Outcome& outcome = outcomes[variant];
    if (!outcome.seen) {
      outcome = {true, rep.total_cost, rep.fingerprint};
    } else if (rep.fingerprint != outcome.fingerprint ||
               bits(rep.total_cost) != bits(outcome.total_cost)) {
      errors.push_back(std::string(what) + " rep of variant " +
                       std::to_string(variant) +
                       " differs from its first rep");
    }
  }

  /// Mean total cost over the variants (all of them run in an untraced
  /// run).
  double mean_total_cost() const {
    double sum = 0.0;
    for (const Outcome& outcome : outcomes) sum += outcome.total_cost;
    return sum / static_cast<double>(outcomes.size());
  }
};

Report measure_untraced(const Inputs& in, double seconds) {
  const std::size_t variants = in.workload->variants;
  Report report(variants);
  std::vector<Rep> reps;
  std::vector<double> setup;
  const std::size_t min_reps = std::max(kMinReps, variants);
  const auto start = Clock::now();
  while (reps.size() < min_reps ||
         another_round(start, reps.size(), seconds)) {
    const std::size_t variant = reps.size() % variants;
    const auto setup_start = Clock::now();
    for (std::size_t i = 0; i < kMinSetupReps ||
                            seconds_since(setup_start) < kMinSetupSeconds;
         ++i) {
      const Rep rep = run_rep(in, Recording::kSetup, variant);
      setup.push_back(rep.setup_s);
      report.attempted += rep.attempted;
      report.failed += rep.failed;
    }
    reps.push_back(run_rep(in, Recording::kLatency, variant));
    report.record(reps.back(), variant, "untraced");
  }

  std::vector<double> latencies;
  double steady_slots = 0.0;
  double steady_s = 0.0;
  double steady_requests = 0.0;
  for (const Rep& rep : reps) {
    setup.push_back(rep.setup_s);
    latencies.insert(latencies.end(), rep.decide_ms.begin(),
                     rep.decide_ms.end());
    steady_slots += static_cast<double>(rep.slots - 1);
    steady_s += rep.steady_s;
    steady_requests += rep.steady_requests;
    report.attempted += rep.attempted;
    report.failed += rep.failed;
  }
  report.reps = reps.size();
  report.samples = latencies.size();
  report.metrics = {
      {"setup_s", median(setup)},
      {"slots_per_s", steady_slots / steady_s},
      {"decide_mean_ms", mean(latencies)},
      {"decide_p90_ms", percentile(latencies, 90.0)},
      {"requests_per_s", steady_requests / steady_s},
      {"peak_rss_mb", peak_rss_mb(RUSAGE_SELF)},
      {"total_cost", report.mean_total_cost()},
  };
  return report;
}

Report measure_traced(const Inputs& in, double seconds) {
  const Workload& w = *in.workload;
  Report report(w.variants);
  perfbench::Sums sums;
  double decisions = 0.0;  // traced decisions after each rep's first
  double decide_ms = 0.0, predict_ms = 0.0, predict_calls = 0.0;
  double predict_entries = 0.0, allocations = 0.0;
  double sim_self_ms = 0.0, reference_slots = 0.0;
  double reference_steady_slots = 0.0, reference_steady_s = 0.0;
  double traced_steady_slots = 0.0, traced_steady_s = 0.0;
  std::size_t traced_attempted = 0, traced_failed = 0;

  const auto start = Clock::now();
  while (another_round(start, report.reps, seconds)) {
    // An untraced reference rep (digesting the executed decisions), then a
    // traced rep of the same inputs, then the traced rep's replay.
    const std::size_t variant = report.reps % w.variants;
    Rep reference = run_rep(in, Recording::kDigest, variant);
    Rep traced = run_rep(in, Recording::kTrace, variant);
    report.record(reference, variant, "untraced");
    report.record(traced, variant, "traced");
    if (traced.executed_digest != reference.executed_digest) {
      report.errors.push_back(
          "traced decisions differ from the untraced ones");
    }
    report.attempted += reference.attempted + traced.attempted;
    report.failed += reference.failed + traced.failed;
    traced_attempted += traced.attempted;
    traced_failed += traced.failed;

    sim_self_ms += reference.run_ms - reference.decide_total_ms;
    reference_slots += static_cast<double>(reference.slots);
    reference_steady_slots += static_cast<double>(reference.slots - 1);
    reference_steady_s += reference.steady_s;
    traced_steady_slots += static_cast<double>(traced.slots - 1);
    traced_steady_s += traced.steady_s;
    for (std::size_t t = 1; t < traced.records.size(); ++t) {
      const perfbench::DecisionRecord& record = traced.records[t];
      decisions += 1.0;
      decide_ms += record.decide_ms;
      predict_ms += record.predict_ms;
      predict_calls += static_cast<double>(record.predict_calls);
      predict_entries += static_cast<double>(record.predict_entries);
      allocations += static_cast<double>(record.allocations);
    }

    std::vector<std::string> errors;
    if (w.streamed) {
      perfbench::StreamReplay replay;
      replay.config = &in.config;
      replay.trace_path = in.trace_path;
      replay.event_options = event_options(in.seed, variant);
      replay.records = &traced.records;
      replay.decisions = &traced.decisions;
      replay.total_cost = traced.total_cost;
      replay.events = &*traced.events;
      errors = perfbench::replay_stream(replay, sums);
    } else {
      const workload::NoisyPredictor predictor =
          make_predictor(in.instance, in.seed, variant);
      perfbench::FluidReplay replay;
      replay.instance = &in.instance;
      replay.predictor = &predictor;
      replay.window = w.window;
      replay.shards = w.shards;
      replay.records = &traced.records;
      replay.total_cost = traced.total_cost;
      errors = perfbench::replay_fluid(replay, sums);
    }
    report.errors.insert(report.errors.end(), errors.begin(), errors.end());
    ++report.reps;
  }

  report.samples = static_cast<std::size_t>(decisions);
  const double per_decision = decisions > 0.0 ? 1.0 / decisions : 0.0;
  const auto per = [&](const char* name) { return sums[name] * per_decision; };
  // Predictor, the solve the controller ran, and RHC's hand-off of the
  // first action: what the replay accounts for of a decision.
  const double attributed_ms = predict_ms * per_decision +
                               per("online.solve_ms") +
                               per("online.handoff_ms");
  const double mean_decide_ms = decide_ms * per_decision;
  const double requests = sums["sim.event_requests"];
  report.metrics = {
      {"online.decisions", decisions},
      {"online.decide_ms", mean_decide_ms},
      {"online.decide_self_ms", mean_decide_ms - predict_ms * per_decision -
                                    per("online.solve_ms")},
      {"online.handoff_ms", per("online.handoff_ms")},
      {"online.attributed_share",
       mean_decide_ms > 0.0 ? attributed_ms / mean_decide_ms : 0.0},
      {"online.allocs_per_decide", allocations * per_decision},
      {"online.failed_decide_ratio",
       traced_attempted > 0 ? static_cast<double>(traced_failed) /
                                  static_cast<double>(traced_attempted)
                            : 0.0},
      {"workload.predict_ms", predict_ms * per_decision},
      {"workload.predict_calls", predict_calls * per_decision},
      {"workload.predict_entries", predict_entries * per_decision},
      {"workload.ingest_ms", per("workload.ingest_ms")},
      {"workload.ingest_rows", per("workload.ingest_rows")},
      {"core.solve_ms", per("core.solve_ms")},
      {"core.dual_iterations", per("core.dual_iterations")},
      {"core.gap", per("core.gap")},
      {"core.active_sets_ms", per("core.active_sets_ms")},
      {"core.active_coords", per("core.active_coords")},
      {"core.begin_ms", per("core.begin_ms")},
      {"core.iterate_ms", per("core.iterate_ms")},
      {"core.repair_ms", per("core.repair_ms")},
      {"core.dual_update_ms", per("core.dual_update_ms")},
      {"core.overlay_ms", per("core.overlay_ms")},
      {"core.overlay_accepted", per("core.overlay_accepted")},
      {"model.schedule_cost_ms", per("model.schedule_cost_ms")},
      {"model.enforce_feasibility_ms", per("model.enforce_feasibility_ms")},
      {"model.slot_cost_ms", per("model.slot_cost_ms")},
      {"sim.self_ms", reference_slots > 0.0 ? sim_self_ms / reference_slots
                                            : 0.0},
      {"sim.event_ms", per("sim.event_ms")},
      {"sim.event_requests", per("sim.event_requests")},
      {"sim.hit_ratio",
       requests > 0.0 ? sums["sim.event_hits"] / requests : 0.0},
      {"shard.solve_ms", per("shard.solve_ms")},
      {"shard.exchange_ms", per("shard.exchange_ms")},
      {"shard.bytes.begin", per("shard.bytes.begin")},
      {"shard.bytes.begin_ack", per("shard.bytes.begin_ack")},
      {"shard.bytes.iterate", per("shard.bytes.iterate")},
      {"shard.bytes.iterate_reply", per("shard.bytes.iterate_reply")},
      {"shard.bytes.end", per("shard.bytes.end")},
      {"shard.bytes.end_reply", per("shard.bytes.end_reply")},
      // Workers are reaped once their solvers are gone, i.e. by now.
      {"shard.worker_peak_rss_mb",
       w.shards > 0 ? peak_rss_mb(RUSAGE_CHILDREN) : 0.0},
      {"trace.slots_per_s_ratio",
       (traced_steady_slots / traced_steady_s) /
           (reference_steady_slots / reference_steady_s)},
  };
  return report;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed,
                   const std::string& input_path) {
  Inputs in;
  in.workload = &w;
  in.seed = seed;
  if (w.streamed) {
    // Horizon 1 draws the same network as the generated trace's scenario
    // (the network is built from the seed before any demand).
    in.config = scenario_for(w, 1).build_sparse().config;
    in.trace_path = input_path;
    MDO_REQUIRE(!in.trace_path.empty(), "--input is required for " +
                                            std::string(w.name));
  } else {
    const workload::PaperScenario scenario = scenario_for(w, w.slots);
    in.instance = w.sparse ? scenario.build_sparse() : scenario.build();
  }
  return in;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

void print_result(const Workload& w, std::uint64_t seed, bool traced,
                  const Report& report) {
  std::ostringstream os;
  os.precision(17);
  os << "RESULT {\"workload\": " << json_string(w.name)
     << ", \"group\": " << json_string(w.group) << ", \"seed\": " << seed
     << ", \"trace\": " << (traced ? 1 : 0)
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"reps\": " << report.reps
     << ", \"samples\": " << report.samples << ", \"outcomes\": {";
  const char* separator = "";
  for (std::size_t v = 0; v < report.outcomes.size(); ++v) {
    const Outcome& outcome = report.outcomes[v];
    if (!outcome.seen) continue;
    os << separator << "\"" << v << "\": ["
       << json_string(hex(bits(outcome.total_cost))) << ", "
       << json_string(hex(outcome.fingerprint)) << "]";
    separator = ", ";
  }
  os << "}, \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    os << (i ? ", " : "") << json_string(report.errors[i]);
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    os << (i ? ", " : "") << json_string(report.metrics[i].first) << ": "
       << report.metrics[i].second;
  }
  os << "}}";
  std::cout << os.str() << "\n" << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    const Workload& w = find_workload(flags.get_string("workload", ""));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

    if (flags.has("generate")) {
      const std::string out = flags.get_string("generate", "");
      flags.require_all_consumed();
      MDO_REQUIRE(w.streamed, "only streamed workloads read an input file");
      workload::save_trace_csv(
          out, scenario_for(w, w.slots).build_sparse().sparse_demand);
      return 0;
    }

    const double seconds = flags.get_double("seconds", 10.0);
    const std::string input = flags.get_string("input", "");
    const bool traced = flags.get_int("trace", 0) != 0;
    flags.require_all_consumed();
    MDO_REQUIRE(seconds > 0.0, "--seconds must be positive");
    MDO_REQUIRE(traced == perfbench::counts_allocations(),
                "--trace 1 runs on perfbench_traced, --trace 0 on perfbench");

    // Before the first use of the thread pool or the shard fleet; forked
    // workers read the same variables.
    setenv("MDO_THREADS", std::to_string(w.threads).c_str(), 1);
    setenv("MDO_SHARDS", std::to_string(w.shards).c_str(), 1);

    const Inputs inputs = make_inputs(w, seed, input);
    const Report report = traced ? measure_traced(inputs, seconds)
                                 : measure_untraced(inputs, seconds);
    print_result(w, seed, traced, report);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
