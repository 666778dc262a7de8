// E11 — catalogue-size scaling: dense vs sparse demand representation.
//
// Sweeps K (the catalogue size) and runs the same truncated Zipf(0.8)
// scenario through the RHC controller twice per point: over an instance
// holding dense M x K demand matrices, and over one holding the sparse CSR
// trace. The solver has one path — the controllers forecast sparse windows
// either way, and a dense window handed to the solver is converted at its
// boundary — so the two legs differ only in the model-layer data the
// instance, predictor and simulator keep; the solver-side gap is gone by
// construction. Both runs see the SAME trace values — the generator honors
// min_rate for both representations — so total costs must match bit for
// bit (guarded; nonzero exit on mismatch).
//
// Each child also reports the resident dual-vector footprint of one RHC
// window (compact block bytes) and the kEnd/kEndReply wire traffic of a
// one-off 2-shard solve of that window (shard::wire_stats()); the dense
// leg hands that solve the dense window, exercising the conversion.
//
// min_rate is derived from the Zipf-Mandelbrot pmf: the rate of the rank at
// --head-fraction * K becomes the cutoff, so the surviving head is a fixed
// fraction of the catalogue at every K and the dense/sparse gap isolates
// the O(M*K) vs O(nnz) scaling of the model layer. --head-fraction 0 disables truncation
// (bit-identity sanity mode; the support is then the full catalogue and no
// speedup is expected).
//
// Peak RSS must be attributed per configuration, so each measurement runs
// in its own subprocess (this binary re-executed with --measure) and
// reports getrusage(RUSAGE_SELF).ru_maxrss back over a pipe.
//
// Flags:
//   --ks LIST            comma-separated catalogue sizes
//                        (default 100,1000,10000)
//   --slots N            horizon (default 8; the dense K=10k point is slow)
//   --window W           RHC window (default 4)
//   --classes M          MU classes per SBS (default 30)
//   --capacity C         cache capacity (default 5)
//   --bandwidth B        SBS bandwidth (default 30)
//   --beta B             replacement cost (default 100)
//   --eta E              prediction noise (default 0.1)
//   --seed S             scenario seed (default 7)
//   --head-fraction F    surviving head fraction (default 0.05; 0 = no cut)
//   --json PATH          output path (default BENCH_scaling.json)
//   --require-speedup X  exit nonzero unless the largest-K decision-latency
//                        speedup reaches X (default 0 = report only)
//   --p99-budget-ms X    exit nonzero when the largest-K sparse run's p99
//                        decision latency exceeds X ms
//                        (default 0 = gate off)
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/primal_dual.hpp"
#include "online/rhc.hpp"
#include "shard/wire.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace mdo;

using bench::percentile;

/// The two measured configurations: an instance holding dense demand, and
/// one holding sparse demand.
enum class Repr { kDense, kSparse };

const char* repr_name(Repr repr) {
  switch (repr) {
    case Repr::kDense: return "dense";
    case Repr::kSparse: return "sparse";
  }
  return "?";
}

/// Everything one (representation, K) subprocess reports back.
struct Measured {
  std::string repr;
  std::size_t contents = 0;
  double min_rate = 0.0;
  double nnz_fraction = 1.0;  // stored nonzeros / (T * N * M * K)
  double wall_seconds = 0.0;
  double mean_decision_seconds = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double total_cost = 0.0;
  long peak_rss_kb = 0;
  std::uint64_t mu_bytes = 0;        // resident dual vector, one RHC window
  std::uint64_t wire_end_bytes = 0;  // kEnd + kEndReply, 2-shard window solve
  std::uint64_t wire_total_bytes = 0;  // all frames, same probe solve
};

/// The bench's scenario knobs (shared by parent and --measure child).
struct ScalingSetup {
  std::size_t slots = 8;
  std::size_t window = 4;
  std::size_t classes = 30;
  std::size_t capacity = 5;
  double bandwidth = 30.0;
  double beta = 100.0;
  double eta = 0.1;
  std::uint64_t seed = 7;
  // min_rate is set to the Zipf pmf value at rank head_fraction * K, so the
  // surviving head is a fixed catalogue fraction at every K. 0.02 keeps the
  // top 2% of contents, which under Zipf(0.8)/q=30 still carries ~23% of the
  // demand mass at K=10k — a realistic hot working set for a large catalogue.
  double head_fraction = 0.02;

  static ScalingSetup parse(const CliFlags& flags) {
    ScalingSetup s;
    s.slots = static_cast<std::size_t>(flags.get_int("slots", 8));
    s.window = static_cast<std::size_t>(flags.get_int("window", 4));
    s.classes = static_cast<std::size_t>(flags.get_int("classes", 30));
    s.capacity = static_cast<std::size_t>(flags.get_int("capacity", 5));
    s.bandwidth = flags.get_double("bandwidth", 30.0);
    s.beta = flags.get_double("beta", 100.0);
    s.eta = flags.get_double("eta", 0.1);
    s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
    s.head_fraction = flags.get_double("head-fraction", 0.02);
    return s;
  }

  std::string as_flags() const {
    std::ostringstream os;
    os.precision(17);
    os << " --slots " << slots << " --window " << window << " --classes "
       << classes << " --capacity " << capacity << " --bandwidth " << bandwidth
       << " --beta " << beta << " --eta " << eta << " --seed " << seed
       << " --head-fraction " << head_fraction;
    return os.str();
  }
};

// ---- child: one measurement ----------------------------------------------

Measured measure(const ScalingSetup& setup, std::size_t contents,
                 Repr repr) {
  const bool sparse = repr != Repr::kDense;
  workload::PaperScenario scenario;
  scenario.num_contents = contents;
  scenario.classes_per_sbs = setup.classes;
  scenario.cache_capacity = setup.capacity;
  scenario.bandwidth = setup.bandwidth;
  scenario.beta = setup.beta;
  scenario.horizon = setup.slots;
  scenario.seed = setup.seed;
  if (setup.head_fraction > 0.0) {
    const auto pmf = workload::zipf_mandelbrot_pmf(
        contents, scenario.workload.zipf_alpha, scenario.workload.zipf_q);
    auto head = static_cast<std::size_t>(
        setup.head_fraction * static_cast<double>(contents));
    head = std::min(std::max<std::size_t>(head, 1), contents - 1);
    scenario.workload.min_rate = pmf[head];
  }

  const model::ProblemInstance instance =
      sparse ? scenario.build_sparse() : scenario.build();

  Measured out;
  out.repr = repr_name(repr);
  out.contents = contents;
  out.min_rate = scenario.workload.min_rate;
  std::size_t nnz = 0;
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    const auto slot = instance.demand_view().slot(t);
    for (std::size_t n = 0; n < slot.num_sbs(); ++n) {
      if (sparse) {
        nnz += instance.sparse_demand.slot(t)[n].nnz();
      } else {
        for (const double v : instance.demand.slot(t)[n].data()) {
          if (v != 0.0) ++nnz;
        }
      }
    }
  }
  const double entries = static_cast<double>(instance.horizon()) *
                         static_cast<double>(instance.config.num_sbs()) *
                         static_cast<double>(setup.classes) *
                         static_cast<double>(contents);
  out.nnz_fraction = entries > 0.0 ? static_cast<double>(nnz) / entries : 0.0;

  std::unique_ptr<workload::Predictor> predictor;
  if (sparse) {
    predictor = std::make_unique<workload::NoisyPredictor>(
        instance.sparse_demand, setup.eta, /*seed=*/1234);
  } else {
    predictor = std::make_unique<workload::NoisyPredictor>(instance.demand,
                                                           setup.eta, 1234);
  }
  core::PrimalDualOptions pd;
  online::RhcController rhc(setup.window, pd);
  const sim::Simulator simulator(instance, *predictor);

  const Stopwatch watch;
  const auto result = simulator.run(rhc);
  out.wall_seconds = watch.elapsed_seconds();
  out.total_cost = result.total_cost();
  std::vector<double> decision_seconds;
  decision_seconds.reserve(result.slots.size());
  for (const auto& slot : result.slots) {
    decision_seconds.push_back(slot.decision_seconds);
  }
  out.mean_decision_seconds = result.mean_decision_seconds();
  out.p50 = percentile(decision_seconds, 50.0);
  out.p99 = percentile(decision_seconds, 99.0);

  // Byte accounting: the resident dual vector of one RHC window (compact
  // block bytes), and the end-of-solve wire
  // traffic of a one-off 2-shard solve of that window (the kEndReply frames
  // carry the mu blocks + warm blobs back to the driver). Done after the
  // timed run so the probe's worker fleet cannot perturb the latency
  // numbers.
  const model::SparseDemandTrace window_sparse =
      predictor->predict_window_sparse(0, setup.window);
  model::DemandTrace window_dense;
  core::HorizonProblem window_problem;
  window_problem.config = &instance.config;
  window_problem.initial_cache = instance.initial_cache;
  if (sparse) {
    window_problem.sparse_demand = &window_sparse;
  } else {
    window_dense = predictor->predict_window(0, setup.window);
    window_problem.demand = &window_dense;
  }
  const core::ActiveSets sets = core::build_active_sets(
      instance.config, window_sparse, instance.initial_cache);
  out.mu_bytes =
      core::mu_block_offsets(instance.config, window_sparse.horizon(), sets)
          .back() *
      sizeof(double);
  {
    shard::reset_wire_stats();
    core::PrimalDualOptions probe_options = pd;
    probe_options.shard_count = 2;
    core::PrimalDualSolver probe(probe_options);
    probe.solve(window_problem);
    const shard::WireStats& wire = shard::wire_stats();
    const auto end_type = static_cast<std::size_t>(shard::MessageType::kEnd);
    const auto end_reply =
        static_cast<std::size_t>(shard::MessageType::kEndReply);
    out.wire_end_bytes = wire.sent[end_type] + wire.received[end_reply];
    out.wire_total_bytes = wire.total_sent() + wire.total_received();
  }

  out.peak_rss_kb = bench::self_peak_rss_kb();
  return out;
}

void print_result_line(const Measured& m) {
  std::ostringstream os;
  os.precision(17);
  os << "RESULT " << m.repr << " " << m.contents << " " << m.min_rate << " "
     << m.nnz_fraction << " " << m.wall_seconds << " "
     << m.mean_decision_seconds << " " << m.p50 << " " << m.p99 << " "
     << m.total_cost << " " << m.peak_rss_kb << " " << m.mu_bytes << " "
     << m.wire_end_bytes << " " << m.wire_total_bytes;
  std::cout << os.str() << "\n" << std::flush;
}

// ---- parent: subprocess orchestration ------------------------------------

std::optional<Measured> spawn_measure(const std::string& self,
                                      const ScalingSetup& setup,
                                      std::size_t contents, Repr repr) {
  const std::string command = self + " --measure " + repr_name(repr) +
                              " --contents " + std::to_string(contents) +
                              setup.as_flags();
  const std::optional<std::string> payload = bench::run_result_child(command);
  if (!payload) return std::nullopt;
  std::istringstream fields(*payload);
  Measured m;
  if (fields >> m.repr >> m.contents >> m.min_rate >> m.nnz_fraction >>
      m.wall_seconds >> m.mean_decision_seconds >> m.p50 >> m.p99 >>
      m.total_cost >> m.peak_rss_kb >> m.mu_bytes >> m.wire_end_bytes >>
      m.wire_total_bytes) {
    return m;
  }
  std::cerr << "error: malformed RESULT line from: " << command << "\n";
  return std::nullopt;
}

std::vector<std::size_t> parse_ks(const std::string& list) {
  std::vector<std::size_t> ks;
  std::istringstream parts(list);
  std::string token;
  while (std::getline(parts, token, ',')) {
    if (token.empty()) continue;
    ks.push_back(static_cast<std::size_t>(std::stoull(token)));
  }
  if (ks.empty()) throw InvalidArgument("--ks must name at least one size");
  return ks;
}

void json_measured(std::ostream& os, const Measured& m) {
  os << "{\"mean_decision_seconds\": " << m.mean_decision_seconds
     << ", \"p50\": " << m.p50 << ", \"p99\": " << m.p99
     << ", \"wall_seconds\": " << m.wall_seconds
     << ", \"total_cost\": " << m.total_cost
     << ", \"peak_rss_kb\": " << m.peak_rss_kb
     << ", \"mu_bytes_resident\": " << m.mu_bytes
     << ", \"wire_end_bytes\": " << m.wire_end_bytes
     << ", \"wire_total_bytes\": " << m.wire_total_bytes << "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    const ScalingSetup setup = ScalingSetup::parse(flags);

    if (flags.has("measure")) {
      const std::string repr_flag = flags.get_string("measure", "dense");
      const auto contents =
          static_cast<std::size_t>(flags.get_int("contents", 100));
      flags.require_all_consumed();
      Repr repr;
      if (repr_flag == "dense") repr = Repr::kDense;
      else if (repr_flag == "sparse") repr = Repr::kSparse;
      else throw InvalidArgument("--measure must be dense or sparse");
      print_result_line(measure(setup, contents, repr));
      return 0;
    }

    const auto ks = parse_ks(flags.get_string("ks", "100,1000,10000"));
    const std::string json_path =
        flags.get_string("json", "BENCH_scaling.json");
    const double require_speedup = flags.get_double("require-speedup", 0.0);
    const double p99_budget_ms = flags.get_double("p99-budget-ms", 0.0);
    flags.require_all_consumed();

    std::cout << "Catalogue-size scaling bench (dense vs sparse)\n"
              << "T=" << setup.slots << " w=" << setup.window
              << " head_fraction=" << setup.head_fraction << "\n";

    struct Point {
      Measured dense;
      Measured sparse;
      double speedup = 0.0;
      double rss_ratio = 0.0;
      bool costs_match = false;
    };
    std::vector<Point> points;
    for (const std::size_t contents : ks) {
      const auto dense = spawn_measure(argv[0], setup, contents, Repr::kDense);
      const auto sparse =
          spawn_measure(argv[0], setup, contents, Repr::kSparse);
      if (!dense || !sparse) return 1;
      Point point;
      point.dense = *dense;
      point.sparse = *sparse;
      point.speedup = sparse->mean_decision_seconds > 0.0
                          ? dense->mean_decision_seconds /
                                sparse->mean_decision_seconds
                          : 0.0;
      point.rss_ratio = sparse->peak_rss_kb > 0
                            ? static_cast<double>(dense->peak_rss_kb) /
                                  static_cast<double>(sparse->peak_rss_kb)
                            : 0.0;
      // Same trace values and one solver path: the costs must agree bit for
      // bit or one of the representations is broken.
      point.costs_match = dense->total_cost == sparse->total_cost;
      points.push_back(point);
    }

    TextTable table({"K", "nnz_frac", "dense_dec_s", "sparse_dec_s", "speedup",
                     "dense_rss_mb", "sparse_rss_mb", "costs_match"});
    for (const auto& p : points) {
      table.add_row({std::to_string(p.dense.contents),
                     TextTable::fmt(p.sparse.nnz_fraction, 4),
                     TextTable::fmt(p.dense.mean_decision_seconds, 5),
                     TextTable::fmt(p.sparse.mean_decision_seconds, 5),
                     TextTable::fmt(p.speedup, 2),
                     TextTable::fmt(p.dense.peak_rss_kb / 1024.0, 1),
                     TextTable::fmt(p.sparse.peak_rss_kb / 1024.0, 1),
                     p.costs_match ? "yes" : "NO"});
    }
    table.print(std::cout);

    bool all_match = true;
    for (const auto& p : points) all_match = all_match && p.costs_match;
    const double max_k_speedup = points.back().speedup;
    const double max_k_sparse_p99_ms = points.back().sparse.p99 * 1000.0;
    std::cout << "decision-latency speedup at K=" << points.back().dense.contents
              << ": " << max_k_speedup << "x\n";
    if (!all_match) {
      std::cerr << "COST MISMATCH between dense and sparse runs\n";
    }

    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "warning: cannot open JSON path " << json_path << "\n";
    } else {
      json.precision(17);
      json << "{\n"
           << "  \"bench\": \"scaling\",\n"
           << "  \"slots\": " << setup.slots << ",\n"
           << "  \"window\": " << setup.window << ",\n"
           << "  \"classes\": " << setup.classes << ",\n"
           << "  \"head_fraction\": " << setup.head_fraction << ",\n"
           << "  \"points\": [\n";
      for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        json << "    {\"contents\": " << p.dense.contents
             << ", \"min_rate\": " << p.sparse.min_rate
             << ", \"nnz_fraction\": " << p.sparse.nnz_fraction
             << ",\n     \"dense\": ";
        json_measured(json, p.dense);
        json << ",\n     \"sparse\": ";
        json_measured(json, p.sparse);
        json << ",\n     \"decision_speedup\": " << p.speedup
             << ", \"peak_rss_ratio\": " << p.rss_ratio
             << ", \"costs_match\": " << (p.costs_match ? "true" : "false")
             << "}" << (i + 1 == points.size() ? "" : ",") << "\n";
      }
      json << "  ],\n"
           << "  \"speedup_at_max_contents\": " << max_k_speedup << ",\n"
           << "  \"p99_budget_ms\": " << p99_budget_ms << ",\n"
           << "  \"sparse_p99_ms_at_max_contents\": " << max_k_sparse_p99_ms
           << ",\n"
           << "  \"costs_match\": " << (all_match ? "true" : "false") << "\n"
           << "}\n";
      std::cout << "wrote " << json_path << "\n";
    }
    const bool speedup_ok =
        require_speedup <= 0.0 || max_k_speedup >= require_speedup;
    if (!speedup_ok) {
      std::cerr << "SPEEDUP BELOW REQUIREMENT: " << max_k_speedup << " < "
                << require_speedup << "\n";
    }
    const bool p99_ok =
        p99_budget_ms <= 0.0 || max_k_sparse_p99_ms <= p99_budget_ms;
    if (!p99_ok) {
      std::cerr << "P99 BUDGET EXCEEDED: sparse p99 = " << max_k_sparse_p99_ms
                << " ms > budget " << p99_budget_ms << " ms\n";
    }
    return all_match && speedup_ok && p99_ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
