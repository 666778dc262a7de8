#include "workload/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <set>
#include <tuple>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "workload/trace_parse.hpp"

namespace mdo::workload {

namespace {

using Entry = detail::TraceEntry;

/// Shared row parser: header + data rows + shape/duplicate/stream checks.
/// Returns the entries in file order plus the largest slot index seen.
/// Record-level failures consume options.max_bad_records before throwing;
/// file-level failures (header, stream, empty file) always throw.
std::pair<std::vector<Entry>, std::size_t> parse_trace_rows(
    std::istream& is, const model::NetworkConfig& config,
    const TraceLoadOptions& options) {
  config.validate();
  std::string line;
  MDO_REQUIRE(static_cast<bool>(std::getline(is, line)),
              "trace file is empty");
  MDO_REQUIRE(line.rfind(detail::kTraceHeader, 0) == 0,
              "unexpected trace header: " + line);

  std::vector<Entry> entries;
  std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>>
      seen;
  std::size_t max_slot = 0;
  std::size_t line_number = 1;
  std::size_t skipped = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    try {
      const Entry entry = detail::parse_trace_entry(line, line_number, config);
      MDO_REQUIRE(seen.insert({entry.t, entry.n, entry.m, entry.k}).second,
                  "duplicate (slot,sbs,class,content) entry at line " +
                      std::to_string(line_number));
      max_slot = std::max(max_slot, entry.t);
      entries.push_back(entry);
    } catch (const InvalidArgument& e) {
      // Over budget the original record error propagates — the caller sees
      // exactly what was wrong with the first unskippable row.
      if (skipped >= options.max_bad_records) throw;
      ++skipped;
      MDO_WARN("skipping bad trace record (" << skipped << "/"
                                             << options.max_bad_records
                                             << "): " << e.what());
    }
  }
  // getline() ends on either EOF or a hard read error; only the former means
  // we actually saw the whole file (a truncated read must not silently yield
  // a shorter trace).
  MDO_REQUIRE(is.eof(), "stream failure while reading trace (truncated?)");
  MDO_REQUIRE(!entries.empty(), "trace file has no data rows");
  if (options.skipped_records != nullptr) *options.skipped_records = skipped;
  return {std::move(entries), max_slot};
}

}  // namespace

void save_trace_csv(std::ostream& os, const model::DemandTrace& trace) {
  os << "slot,sbs,class,content,rate\n";
  os << std::setprecision(17);
  for (std::size_t t = 0; t < trace.horizon(); ++t) {
    const auto& slot = trace.slot(t);
    for (std::size_t n = 0; n < slot.size(); ++n) {
      const auto& demand = slot[n];
      for (std::size_t m = 0; m < demand.num_classes(); ++m) {
        for (std::size_t k = 0; k < demand.num_contents(); ++k) {
          const double rate = demand.at(m, k);
          if (rate == 0.0) continue;
          os << t << ',' << n << ',' << m << ',' << k << ',' << rate << '\n';
        }
      }
    }
  }
  // A full disk or a broken pipe surfaces as a failed stream, not as an
  // exception — check before declaring the trace saved.
  MDO_REQUIRE(static_cast<bool>(os),
              "stream failure while writing trace (disk full?)");
}

void save_trace_csv(const std::string& path, const model::DemandTrace& trace) {
  std::ofstream file(path);
  MDO_REQUIRE(static_cast<bool>(file), "cannot open trace file: " + path);
  save_trace_csv(file, trace);
  file.flush();
  MDO_REQUIRE(static_cast<bool>(file),
              "stream failure while writing trace file: " + path);
}

model::DemandTrace load_trace_csv(std::istream& is,
                                  const model::NetworkConfig& config,
                                  const TraceLoadOptions& options) {
  auto [entries, max_slot] = parse_trace_rows(is, config, options);

  model::DemandTrace trace;
  for (std::size_t t = 0; t <= max_slot; ++t) {
    trace.push_back(model::make_zero_slot_demand(config));
  }
  for (const auto& entry : entries) {
    trace.slot(entry.t)[entry.n].at(entry.m, entry.k) = entry.rate;
  }
  trace.validate(config);
  return trace;
}

model::DemandTrace load_trace_csv(const std::string& path,
                                  const model::NetworkConfig& config,
                                  const TraceLoadOptions& options) {
  std::ifstream file(path);
  MDO_REQUIRE(static_cast<bool>(file), "cannot open trace file: " + path);
  return load_trace_csv(file, config, options);
}

void save_trace_csv(std::ostream& os, const model::SparseDemandTrace& trace) {
  os << "slot,sbs,class,content,rate\n";
  os << std::setprecision(17);
  for (std::size_t t = 0; t < trace.horizon(); ++t) {
    const auto& slot = trace.slot(t);
    for (std::size_t n = 0; n < slot.size(); ++n) {
      const auto& demand = slot[n];
      for (std::size_t m = 0; m < demand.num_classes(); ++m) {
        const auto* const end = demand.row_end(m);
        for (const auto* it = demand.row_begin(m); it != end; ++it) {
          os << t << ',' << n << ',' << m << ',' << it->content << ','
             << it->rate << '\n';
        }
      }
    }
  }
  MDO_REQUIRE(static_cast<bool>(os),
              "stream failure while writing trace (disk full?)");
}

void save_trace_csv(const std::string& path,
                    const model::SparseDemandTrace& trace) {
  std::ofstream file(path);
  MDO_REQUIRE(static_cast<bool>(file), "cannot open trace file: " + path);
  save_trace_csv(file, trace);
  file.flush();
  MDO_REQUIRE(static_cast<bool>(file),
              "stream failure while writing trace file: " + path);
}

model::SparseDemandTrace load_sparse_trace_csv(
    std::istream& is, const model::NetworkConfig& config, double min_rate,
    const TraceLoadOptions& options) {
  MDO_REQUIRE(std::isfinite(min_rate) && min_rate >= 0.0,
              "min_rate must be finite and non-negative");
  auto [entries, max_slot] = parse_trace_rows(is, config, options);

  // CSR append wants (t, n, m, k) lexicographic order; the file may hold
  // rows in any order (stable_sort is overkill — duplicates were rejected).
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.t, a.n, a.m, a.k) <
                     std::tie(b.t, b.n, b.m, b.k);
            });

  model::SparseDemandTrace trace;
  std::size_t cursor = 0;
  for (std::size_t t = 0; t <= max_slot; ++t) {
    model::SparseSlotDemand slot;
    slot.reserve(config.num_sbs());
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      model::SparseSbsDemand d(config.sbs[n].num_classes(),
                               config.num_contents);
      while (cursor < entries.size() && entries[cursor].t == t &&
             entries[cursor].n == n) {
        const auto& e = entries[cursor++];
        if (e.rate != 0.0 && e.rate >= min_rate) d.append(e.m, e.k, e.rate);
      }
      d.finalize();
      slot.push_back(std::move(d));
    }
    trace.push_back(std::move(slot));
  }
  trace.validate(config);
  return trace;
}

model::SparseDemandTrace load_sparse_trace_csv(
    const std::string& path, const model::NetworkConfig& config,
    double min_rate, const TraceLoadOptions& options) {
  std::ifstream file(path);
  MDO_REQUIRE(static_cast<bool>(file), "cannot open trace file: " + path);
  return load_sparse_trace_csv(file, config, min_rate, options);
}

}  // namespace mdo::workload
