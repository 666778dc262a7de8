// Shared scaffolding for the figure-regeneration benches.
//
// Every bench binary sweeps one scenario knob (Fig. 2: beta, Fig. 3: window,
// Fig. 4: bandwidth, Fig. 5: eta), runs the paper's scheme line-up per
// point, prints the series as aligned text (one table per sub-figure), and
// optionally writes a CSV. Common CLI flags:
//   --slots N      horizon (default 50 for fast regeneration; pass
//                  --slots 100 for the paper's T — shapes are identical)
//   --contents K   catalogue size (default 30)
//   --classes M    MU classes per SBS (default 30)
//   --window W     prediction window (default 10)
//   --commit R     CHC commitment level (default 5)
//   --eta E        prediction noise (default 0.1)
//   --beta B       replacement cost (default 100; Fig. 2 sweeps it)
//   --seed S       scenario seed (default 7)
//   --csv PATH     also write the rows as CSV
//   --classics     include LRU/LFU/FIFO extension baselines
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mdo::bench {

// ---- Measurement helpers for the benches that time decisions or isolate
// measurements in subprocesses (bench_deadline, bench_events): percentiles,
// peak-RSS attribution, and the popen-self / RESULT-line protocol. --------

/// Nearest-rank percentile of an unsorted sample; p in (0, 100].
inline double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sample[std::min(sample.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/// Peak RSS of the calling process in KiB (ru_maxrss is KiB on Linux).
inline long self_peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Runs `command` (typically this binary re-executed with --measure flags),
/// captures its stdout, and returns the payload after the first "RESULT "
/// line when the child exited cleanly. Benches run each measurement in its
/// own subprocess so peak RSS attributes to exactly one configuration; the
/// child prints one self-describing RESULT line the parent parses back.
inline std::optional<std::string> run_result_child(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    std::cerr << "error: cannot spawn: " << command << "\n";
    return std::nullopt;
  }
  std::string output;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);

  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("RESULT ", 0) != 0) continue;
    if (status != 0) break;
    return line.substr(7);
  }
  std::cerr << "error: measurement failed (status " << status
            << "): " << command << "\n"
            << output;
  return std::nullopt;
}

/// Experiment configuration parsed from the common flags.
struct BenchSetup {
  sim::ExperimentConfig experiment;
  std::optional<std::string> csv_path;
};

/// Parses the common flags; callers may read extra flags before calling
/// flags.require_all_consumed() themselves.
inline BenchSetup parse_common(const CliFlags& flags) {
  BenchSetup setup;
  auto& config = setup.experiment;
  config.scenario.horizon =
      static_cast<std::size_t>(flags.get_int("slots", 50));
  config.scenario.num_contents =
      static_cast<std::size_t>(flags.get_int("contents", 30));
  config.scenario.classes_per_sbs =
      static_cast<std::size_t>(flags.get_int("classes", 30));
  config.scenario.cache_capacity =
      static_cast<std::size_t>(flags.get_int("capacity", 5));
  config.scenario.bandwidth = flags.get_double("bandwidth", 30.0);
  config.scenario.beta = flags.get_double("beta", 100.0);
  config.scenario.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  config.window = static_cast<std::size_t>(flags.get_int("window", 10));
  config.commit = static_cast<std::size_t>(flags.get_int("commit", 5));
  config.eta = flags.get_double("eta", 0.1);
  const std::string predictor = flags.get_string("predictor", "noisy");
  if (predictor == "ema") config.predictor = sim::PredictorKind::kEma;
  else if (predictor != "noisy")
    throw InvalidArgument("--predictor must be noisy or ema");
  config.ema_alpha = flags.get_double("ema-alpha", 0.3);
  config.schemes.classics = flags.get_bool("classics", false);
  if (flags.has("csv")) setup.csv_path = flags.get_string("csv", "");
  return setup;
}

/// One sweep point: the knob value plus every scheme's outcome.
struct SweepPoint {
  double knob = 0.0;
  std::vector<sim::SchemeOutcome> outcomes;
};

/// Runs one experiment per knob value concurrently on the global thread
/// pool and returns the points in knob order. Sweep cells are independent
/// by construction — every cell derives its own RNG streams from the
/// scenario/predictor seeds — and each writes only its own slot, so the
/// output is identical at every thread count. `configure` maps a knob value
/// to that cell's ExperimentConfig.
template <typename Configure>
std::vector<SweepPoint> run_sweep(const std::vector<double>& knobs,
                                  Configure&& configure) {
  std::vector<SweepPoint> points(knobs.size());
  util::parallel_for(0, knobs.size(), [&](std::size_t i) {
    points[i].knob = knobs[i];
    points[i].outcomes = sim::run_schemes(configure(knobs[i]));
  });
  return points;
}

/// Extracts a metric from one scheme at one point.
using Metric = double (*)(const sim::SchemeOutcome&);

inline double metric_total(const sim::SchemeOutcome& o) {
  return o.total_cost();
}
inline double metric_replacement_cost(const sim::SchemeOutcome& o) {
  return o.cost.replacement;
}
inline double metric_replacements(const sim::SchemeOutcome& o) {
  return static_cast<double>(o.replacements);
}
inline double metric_bs_cost(const sim::SchemeOutcome& o) { return o.cost.bs; }

/// Scheme name without its parameter suffix ("RHC(w=2)" -> "RHC"); sweep
/// tables use this because the parameters can vary across rows.
inline std::string scheme_family(const std::string& name) {
  const auto paren = name.find('(');
  return paren == std::string::npos ? name : name.substr(0, paren);
}

/// Prints one sub-figure: rows = knob values, columns = schemes.
inline void print_series(std::ostream& os, const std::string& title,
                         const std::string& knob_name,
                         const std::vector<SweepPoint>& points,
                         Metric metric) {
  os << "\n== " << title << " ==\n";
  if (points.empty()) return;
  std::vector<std::string> columns{knob_name};
  for (const auto& outcome : points.front().outcomes) {
    columns.push_back(scheme_family(outcome.name));
  }
  TextTable table(columns);
  for (const auto& point : points) {
    std::vector<std::string> row{TextTable::fmt(point.knob, 2)};
    for (const auto& outcome : point.outcomes) {
      row.push_back(TextTable::fmt(metric(outcome), 2));
    }
    table.add_row(row);
  }
  table.print(os);
}

/// Writes every metric of every point/scheme as long-format CSV.
inline void write_csv(const std::string& path, const std::string& knob_name,
                      const std::vector<SweepPoint>& points) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "warning: cannot open CSV path " << path << "\n";
    return;
  }
  CsvWriter csv(file);
  csv.header({knob_name, "scheme", "total_cost", "bs_cost", "sbs_cost",
              "replacement_cost", "replacements", "offload_ratio"});
  for (const auto& point : points) {
    for (const auto& outcome : point.outcomes) {
      csv.row({point.knob, scheme_family(outcome.name), outcome.total_cost(),
               outcome.cost.bs, outcome.cost.sbs, outcome.cost.replacement,
               static_cast<std::int64_t>(outcome.replacements),
               outcome.offload_ratio});
    }
  }
  std::cout << "wrote " << csv.rows_written() << " CSV rows to " << path
            << "\n";
}

}  // namespace mdo::bench
