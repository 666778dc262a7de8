// E13 — request-level event layer: fluid convergence + streaming RSS.
//
// Three measurements back the event-layer claims in DESIGN.md ("Request-
// level event simulation" and "Streaming memory model"):
//
//  1. Fluid convergence sweep: the same controller run is replayed through
//     the event layer at requests_per_rate_unit S in {2, 10, 50, 250}. The
//     mean relative gap between the empirical operating cost (f + g at the
//     realized per-class rates) and the fluid cost must shrink as S grows
//     (Monte-Carlo error ~ 1/sqrt(S)) and end below --gap-tol at the
//     largest S. Exit code != 0 otherwise.
//
//  2. Determinism guard: the arrival streams are derived per (seed, slot),
//     never from thread context, so the full EventMetrics must replay bit
//     for bit when the global pool runs 1 vs --threads workers.
//
//  3. Streaming RSS: a trace of --rss-slots slots is written to disk, then
//     two subprocesses replay it with the same myopic controller and event
//     layer: one materializes the whole trace (batch loader + Simulator),
//     one streams it slot by slot (StreamingTraceReader + run_streaming,
//     O(lookahead) resident slots). Each child reports its own
//     getrusage(RUSAGE_SELF).ru_maxrss over a pipe (the RESULT-line
//     protocol in common.hpp), so the peak is attributed per mode. Gates:
//     both modes must agree on cost and event metrics bit for bit, and the
//     streaming peak RSS must stay below the materialized peak.
//
// Flags:
//   --slots N        convergence-scenario horizon (default 40)
//   --contents K     catalogue size (default 30)
//   --classes M      MU classes per SBS (default 30)
//   --capacity C     cache capacity (default 5)
//   --bandwidth B    SBS bandwidth (default 30)
//   --beta B         replacement cost (default 100)
//   --seed S         scenario seed (default 7)
//   --scales LIST    comma-separated S sweep (default 2,10,50,250)
//   --gap-tol G      gap gate at the largest S (default 0.1)
//   --threads N      thread count for the determinism re-run (default 4)
//   --rss-slots N    trace horizon for the RSS comparison (default 400)
//   --rss-scale S    requests_per_rate_unit for the RSS children (default 50)
//   --min-requests N fail if the RSS children served fewer requests
//                    (default 0 = no gate; results/run_all.sh passes 1e7)
//   --lookahead W    streaming buffer depth (default 1; LRFU is myopic)
//   --trace PATH     trace scratch file (default /tmp/mdo_bench_events.csv)
//   --json PATH      output path (default BENCH_events.json)
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "online/baselines.hpp"
#include "sim/event_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming_run.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/streaming.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace mdo;

/// Scenario knobs shared by the parent and the --measure children.
struct EventSetup {
  std::size_t slots = 40;
  std::size_t contents = 30;
  std::size_t classes = 30;
  std::size_t capacity = 5;
  double bandwidth = 30.0;
  double beta = 100.0;
  std::uint64_t seed = 7;
  std::size_t rss_slots = 400;
  double rss_scale = 50.0;
  std::size_t lookahead = 1;
  std::string trace_path = "/tmp/mdo_bench_events.csv";

  static EventSetup parse(const CliFlags& flags) {
    EventSetup s;
    s.slots = static_cast<std::size_t>(flags.get_int("slots", 40));
    s.contents = static_cast<std::size_t>(flags.get_int("contents", 30));
    s.classes = static_cast<std::size_t>(flags.get_int("classes", 30));
    s.capacity = static_cast<std::size_t>(flags.get_int("capacity", 5));
    s.bandwidth = flags.get_double("bandwidth", 30.0);
    s.beta = flags.get_double("beta", 100.0);
    s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
    s.rss_slots = static_cast<std::size_t>(flags.get_int("rss-slots", 400));
    s.rss_scale = flags.get_double("rss-scale", 50.0);
    s.lookahead = static_cast<std::size_t>(flags.get_int("lookahead", 1));
    s.trace_path = flags.get_string("trace", "/tmp/mdo_bench_events.csv");
    return s;
  }

  workload::PaperScenario scenario(std::size_t horizon) const {
    workload::PaperScenario scenario;
    scenario.num_contents = contents;
    scenario.classes_per_sbs = classes;
    scenario.cache_capacity = capacity;
    scenario.bandwidth = bandwidth;
    scenario.beta = beta;
    scenario.horizon = horizon;
    scenario.seed = seed;
    return scenario;
  }

  std::string as_flags() const {
    std::ostringstream os;
    os.precision(17);
    os << " --slots " << slots << " --contents " << contents << " --classes "
       << classes << " --capacity " << capacity << " --bandwidth " << bandwidth
       << " --beta " << beta << " --seed " << seed << " --rss-slots "
       << rss_slots << " --rss-scale " << rss_scale << " --lookahead "
       << lookahead << " --trace " << trace_path;
    return os.str();
  }
};

sim::EventSimOptions event_options(double scale) {
  sim::EventSimOptions options;
  options.requests_per_rate_unit = scale;
  return options;
}

/// Runs LRFU with the event layer over a materialized instance.
sim::SimulationResult run_events(const model::ProblemInstance& instance,
                                 const workload::Predictor& predictor,
                                 double scale) {
  sim::SimulatorOptions options;
  options.simulate_events = true;
  options.event_options = event_options(scale);
  const sim::Simulator simulator(instance, predictor, options);
  online::LrfuController controller;
  return simulator.run(controller);
}

// ---- child: one RSS measurement ------------------------------------------

struct Measured {
  std::string mode;
  std::size_t requests = 0;
  double hit_ratio = 0.0;
  double mean_delay = 0.0;
  double backhaul_bytes = 0.0;
  double discrete_cost = 0.0;
  double fluid_cost = 0.0;
  double wall_seconds = 0.0;
  long peak_rss_kb = 0;
};

void print_result_line(const Measured& m) {
  std::ostringstream os;
  os.precision(17);
  os << "RESULT " << m.mode << " " << m.requests << " " << m.hit_ratio << " "
     << m.mean_delay << " " << m.backhaul_bytes << " " << m.discrete_cost
     << " " << m.fluid_cost << " " << m.wall_seconds << " " << m.peak_rss_kb;
  std::cout << os.str() << "\n" << std::flush;
}

int run_measure(const EventSetup& setup, const std::string& mode) {
  // Horizon 1 keeps the config draws identical to the parent's trace
  // scenario (the network is built from the seed before any demand).
  const model::NetworkConfig config =
      setup.scenario(1).build_sparse().config;

  Measured out;
  out.mode = mode;
  const Stopwatch watch;
  if (mode == "streaming") {
    workload::StreamingTraceReader reader(setup.trace_path, config);
    sim::StreamingRunOptions options;
    options.lookahead = setup.lookahead;
    options.simulate_events = true;
    options.event_options = event_options(setup.rss_scale);
    online::LrfuController controller;
    const auto result = sim::run_streaming(config, reader, controller, options);
    out.requests = result.events->requests;
    out.hit_ratio = result.events->hit_ratio();
    out.mean_delay = result.events->mean_delay();
    out.backhaul_bytes = result.events->backhaul_bytes;
    out.discrete_cost = result.events->discrete_cost.total();
    out.fluid_cost = result.total_cost();
  } else if (mode == "materialized") {
    model::ProblemInstance instance;
    instance.config = config;
    instance.sparse_demand =
        workload::load_sparse_trace_csv(setup.trace_path, config);
    instance.use_sparse_demand = true;
    instance.initial_cache = model::CacheState(config);
    const workload::PerfectPredictor predictor(instance.sparse_demand);
    const auto result = run_events(instance, predictor, setup.rss_scale);
    out.requests = result.events->requests;
    out.hit_ratio = result.events->hit_ratio();
    out.mean_delay = result.events->mean_delay();
    out.backhaul_bytes = result.events->backhaul_bytes;
    out.discrete_cost = result.events->discrete_cost.total();
    out.fluid_cost = result.total_cost();
  } else {
    std::cerr << "error: unknown --measure mode " << mode << "\n";
    return 1;
  }
  out.wall_seconds = watch.elapsed_seconds();
  out.peak_rss_kb = mdo::bench::self_peak_rss_kb();
  print_result_line(out);
  return 0;
}

// ---- parent: subprocess orchestration ------------------------------------

std::optional<Measured> spawn_measure(const std::string& self,
                                      const EventSetup& setup,
                                      const std::string& mode) {
  const std::string command = self + " --measure " + mode + setup.as_flags();
  const std::optional<std::string> payload =
      mdo::bench::run_result_child(command);
  if (!payload) return std::nullopt;
  std::istringstream fields(*payload);
  Measured m;
  if (fields >> m.mode >> m.requests >> m.hit_ratio >> m.mean_delay >>
      m.backhaul_bytes >> m.discrete_cost >> m.fluid_cost >> m.wall_seconds >>
      m.peak_rss_kb) {
    return m;
  }
  std::cerr << "error: malformed RESULT line from: " << command << "\n";
  return std::nullopt;
}

std::vector<double> parse_scales(const std::string& list) {
  std::vector<double> scales;
  std::istringstream parts(list);
  std::string token;
  while (std::getline(parts, token, ',')) {
    if (!token.empty()) scales.push_back(std::stod(token));
  }
  return scales;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    const EventSetup setup = EventSetup::parse(flags);
    if (flags.has("measure")) {
      const std::string mode = flags.get_string("measure", "");
      flags.require_all_consumed();
      return run_measure(setup, mode);
    }
    const auto scales = parse_scales(flags.get_string("scales", "2,10,50,250"));
    const double gap_tol = flags.get_double("gap-tol", 0.1);
    const auto threads = static_cast<std::size_t>(flags.get_int("threads", 4));
    const auto min_requests =
        static_cast<std::size_t>(flags.get_int("min-requests", 0));
    const std::string json_path = flags.get_string("json", "BENCH_events.json");
    flags.require_all_consumed();
    MDO_REQUIRE(scales.size() >= 2, "--scales needs at least two points");

    std::cout << "Request-level event layer bench\n"
              << "T=" << setup.slots << " K=" << setup.contents
              << " M=" << setup.classes << " rss_slots=" << setup.rss_slots
              << " rss_scale=" << setup.rss_scale << "\n";

    // ---- 1. Fluid convergence sweep. -------------------------------------
    const model::ProblemInstance instance =
        setup.scenario(setup.slots).build_sparse();
    const workload::PerfectPredictor predictor(instance.sparse_demand);
    struct GapPoint {
      double scale = 0.0;
      double gap = 0.0;
      std::size_t requests = 0;
      double hit_ratio = 0.0;
    };
    std::vector<GapPoint> gaps;
    for (const double scale : scales) {
      const auto result = run_events(instance, predictor, scale);
      const double fluid = result.total.bs + result.total.sbs;
      const double discrete =
          result.events->discrete_cost.bs + result.events->discrete_cost.sbs;
      GapPoint point;
      point.scale = scale;
      point.gap = fluid > 0.0 ? std::abs(discrete - fluid) / fluid : 0.0;
      point.requests = result.events->requests;
      point.hit_ratio = result.events->hit_ratio();
      gaps.push_back(point);
      std::cout << "  S=" << scale << ": requests=" << point.requests
                << " hit_ratio=" << point.hit_ratio
                << " operating_gap=" << point.gap << "\n";
    }
    const bool converges =
        gaps.back().gap < gaps.front().gap && gaps.back().gap < gap_tol;
    if (!converges) {
      std::cerr << "CONVERGENCE VIOLATION: operating-cost gap "
                << gaps.back().gap << " at S=" << gaps.back().scale
                << " (first " << gaps.front().gap << ", tol " << gap_tol
                << ")\n";
    }

    // ---- 2. Thread-count determinism. ------------------------------------
    util::ThreadPool::set_global_threads(1);
    const auto serial = run_events(instance, predictor, 50.0);
    util::ThreadPool::set_global_threads(threads);
    const auto threaded = run_events(instance, predictor, 50.0);
    util::ThreadPool::set_global_threads(0);
    const bool deterministic = *serial.events == *threaded.events;
    if (!deterministic) {
      std::cerr << "DETERMINISM VIOLATION: event metrics differ between 1 "
                   "and "
                << threads << " threads\n";
    }

    // ---- 3. Streaming vs materialized RSS. -------------------------------
    const model::ProblemInstance trace_instance =
        setup.scenario(setup.rss_slots).build_sparse();
    workload::save_trace_csv(setup.trace_path, trace_instance.sparse_demand);
    const std::string self = argv[0];
    const auto materialized = spawn_measure(self, setup, "materialized");
    const auto streaming = spawn_measure(self, setup, "streaming");
    bool rss_ok = false;
    bool costs_match = false;
    bool enough_requests = min_requests == 0;
    double rss_ratio = 0.0;
    if (materialized && streaming) {
      rss_ok = streaming->peak_rss_kb < materialized->peak_rss_kb;
      rss_ratio = materialized->peak_rss_kb > 0
                      ? static_cast<double>(streaming->peak_rss_kb) /
                            static_cast<double>(materialized->peak_rss_kb)
                      : 0.0;
      costs_match = streaming->fluid_cost == materialized->fluid_cost &&
                    streaming->discrete_cost == materialized->discrete_cost &&
                    streaming->requests == materialized->requests;
      enough_requests =
          min_requests == 0 || streaming->requests >= min_requests;
      std::cout << "  materialized: requests=" << materialized->requests
                << " rss=" << materialized->peak_rss_kb << "KB wall="
                << materialized->wall_seconds << "s\n"
                << "  streaming:    requests=" << streaming->requests
                << " rss=" << streaming->peak_rss_kb << "KB wall="
                << streaming->wall_seconds << "s (ratio=" << rss_ratio
                << ")\n";
      if (!rss_ok) {
        std::cerr << "RSS VIOLATION: streaming peak >= materialized peak\n";
      }
      if (!costs_match) {
        std::cerr << "EQUIVALENCE VIOLATION: streaming and materialized "
                     "replays disagree\n";
      }
      if (!enough_requests) {
        std::cerr << "SCALE VIOLATION: served " << streaming->requests
                  << " requests < required " << min_requests << "\n";
      }
    } else {
      std::cerr << "error: RSS measurement children failed\n";
    }
    std::remove(setup.trace_path.c_str());

    // ---- JSON report. ----------------------------------------------------
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "warning: cannot open JSON path " << json_path << "\n";
    } else {
      json.precision(17);
      json << "{\n"
           << "  \"bench\": \"events\",\n"
           << "  \"slots\": " << setup.slots << ",\n"
           << "  \"contents\": " << setup.contents << ",\n"
           << "  \"classes\": " << setup.classes << ",\n"
           << "  \"convergence\": [\n";
      for (std::size_t i = 0; i < gaps.size(); ++i) {
        json << "    {\"requests_per_rate_unit\": " << gaps[i].scale
             << ", \"requests\": " << gaps[i].requests
             << ", \"hit_ratio\": " << gaps[i].hit_ratio
             << ", \"operating_cost_gap\": " << gaps[i].gap << "}"
             << (i + 1 == gaps.size() ? "" : ",") << "\n";
      }
      json << "  ],\n"
           << "  \"gap_tolerance\": " << gap_tol << ",\n"
           << "  \"converges\": " << (converges ? "true" : "false") << ",\n"
           << "  \"deterministic\": " << (deterministic ? "true" : "false")
           << ",\n";
      auto emit_measured = [&json](const char* key,
                                   const std::optional<Measured>& m) {
        json << "  \"" << key << "\": ";
        if (!m) {
          json << "null,\n";
          return;
        }
        json << "{\"requests\": " << m->requests
             << ", \"hit_ratio\": " << m->hit_ratio
             << ", \"mean_delay\": " << m->mean_delay
             << ", \"backhaul_bytes\": " << m->backhaul_bytes
             << ", \"discrete_cost\": " << m->discrete_cost
             << ", \"fluid_cost\": " << m->fluid_cost
             << ", \"wall_seconds\": " << m->wall_seconds
             << ", \"peak_rss_kb\": " << m->peak_rss_kb << "},\n";
      };
      json << "  \"rss_slots\": " << setup.rss_slots << ",\n"
           << "  \"rss_scale\": " << setup.rss_scale << ",\n"
           << "  \"lookahead\": " << setup.lookahead << ",\n";
      emit_measured("materialized", materialized);
      emit_measured("streaming", streaming);
      json << "  \"rss_ratio\": " << rss_ratio << ",\n"
           << "  \"streaming_rss_below_materialized\": "
           << (rss_ok ? "true" : "false") << ",\n"
           << "  \"replays_agree\": " << (costs_match ? "true" : "false")
           << ",\n"
           << "  \"min_requests\": " << min_requests << "\n"
           << "}\n";
      std::cout << "wrote " << json_path << "\n";
    }
    return converges && deterministic && rss_ok && costs_match &&
                   enough_requests
               ? 0
               : 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
