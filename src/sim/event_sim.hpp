// Request-level discrete-event simulation layer (extension beyond the paper).
//
// The fluid model evaluates the controllers on slot-mean request *rates*;
// production systems serve individual requests. This layer treats each
// slot's rate matrix as the intensity of independent Poisson arrival
// processes per (SBS, class, content), resolves every request against the
// controller's *rounded* placements (cache hit at the SBS with probability
// y[n, m, k], a neighbor-cache fetch over the designated inter-SBS link
// with probability y_neigh[n, m, k], BS fetch over the backhaul otherwise),
// and queues requests at single-server FCFS stations — one per SBS
// downlink, one per positive-bandwidth directed inter-SBS link (only when
// the topology is non-empty), and one at the BS — with exponential
// (M/M/1-style) service times. Service rates follow one rule: SBS n
// serves at B_n * S / 0.8 requests per slot (its bandwidth cap with
// 1/0.8 headroom), an inter-SBS link at its bandwidth * S / 0.8, and the
// BS at S * (slot total demand) / 0.8 (the BS can absorb the whole cell
// per the model). It reports the production-shaped metrics the fluid
// model never does: cache-hit ratio, mean/p50/p99 access delay, backhaul
// bytes, and the *empirical* operating cost, which converges to the fluid
// cost (5)-(6) as the arrival intensity scale grows (the per-class
// empirical rates concentrate around their means at rate
// O(1/sqrt(scale))).
//
// Determinism: every slot draws from an Rng seeded from (seed, slot) via
// splitmix64, arrivals are generated in (SBS, class, content) order, and
// the event loop is serial with a total (time, kind, seq) event order — so
// event sequences are bit-identical at every MDO_THREADS setting and a
// checkpoint-resumed run replays the remaining slots exactly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/costs.hpp"
#include "model/decision.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"
#include "util/serialize.hpp"

namespace mdo::sim {

struct EventSimOptions {
  /// Poisson intensity scale S: a rate-lambda (SBS, class, content) cell
  /// generates Poisson(lambda * S) requests per slot. Larger values sharpen
  /// the fluid limit (and cost proportionally more event-loop work).
  double requests_per_rate_unit = 50.0;
  /// Size of one content item; scales backhaul accounting only.
  double content_size_bytes = 1.0;
  std::uint64_t seed = 2024;

  void validate() const;
};

/// Per-slot request-level accounting. Delay percentiles are exact (computed
/// from the slot's full delay sample before it is discarded).
struct EventSlotMetrics {
  std::size_t requests = 0;
  std::size_t sbs_hits = 0;    // served out of the local SBS cache
  std::size_t neigh_hits = 0;  // served out of a neighbor cache (X2 link)
  double backhaul_bytes = 0.0;  // BS fetches * content_size_bytes
  double mean_delay = 0.0;
  double p50_delay = 0.0;
  double p99_delay = 0.0;
  /// Empirical cost of the slot: f, g and (under a neighbor tier)
  /// \tilde{f} evaluated at the realized per-class served rates (request
  /// counts / S), h at the executed caches (h is decision-level and
  /// identical to the fluid term).
  model::CostBreakdown discrete_cost;

  double hit_ratio() const {
    return requests > 0
               ? static_cast<double>(sbs_hits) / static_cast<double>(requests)
               : 0.0;
  }

  friend bool operator==(const EventSlotMetrics&,
                         const EventSlotMetrics&) = default;
};

/// Fixed-footprint log-spaced delay histogram: O(1) memory regardless of
/// request volume, so whole-run percentiles stay available when traces
/// stream through in O(window) RSS. Quantiles are bin-resolution
/// approximations (~2.7% relative width); the mean is exact.
class DelayHistogram {
 public:
  void add(double delay);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Approximate q-quantile (q in [0, 1]): the geometric midpoint of the
  /// bin holding the nearest-rank sample.
  double quantile(double q) const;

  void save(util::BinaryWriter& w) const;
  void restore(util::BinaryReader& r);

  friend bool operator==(const DelayHistogram&,
                         const DelayHistogram&) = default;

 private:
  static constexpr std::size_t kBins = 512;
  static constexpr double kMinDelay = 1e-7;  // bins span [1e-7, 1e4)
  static constexpr double kMaxDelay = 1e4;

  static std::size_t bin_of(double delay);
  static double bin_mid(std::size_t bin);

  std::array<std::uint64_t, kBins> bins_{};
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

/// Whole-run aggregate of the event layer.
struct EventMetrics {
  std::size_t requests = 0;
  std::size_t sbs_hits = 0;
  std::size_t neigh_hits = 0;
  double backhaul_bytes = 0.0;
  model::CostBreakdown discrete_cost;
  DelayHistogram delays;
  std::vector<EventSlotMetrics> slots;

  double hit_ratio() const {
    return requests > 0
               ? static_cast<double>(sbs_hits) / static_cast<double>(requests)
               : 0.0;
  }
  double mean_delay() const { return delays.mean(); }
  double p50_delay() const { return delays.quantile(0.50); }
  double p99_delay() const { return delays.quantile(0.99); }

  /// Folds one slot into the aggregate (delays are folded by
  /// EventSimulator::simulate_slot, which still holds the raw sample).
  void accumulate(const EventSlotMetrics& slot);

  void save(util::BinaryWriter& w) const;
  void restore(util::BinaryReader& r);

  friend bool operator==(const EventMetrics&, const EventMetrics&) = default;
};

/// The per-slot event engine. Stateless across slots apart from reusable
/// scratch buffers: each slot is an independent busy period over the unit
/// slot interval (arrivals land in [0, 1); the queues drain to empty and
/// every delay is accounted to its slot), and the slot's RNG stream is
/// derived from (options.seed, slot index) alone — the engine can therefore
/// resume at any slot without replaying history.
class EventSimulator {
 public:
  EventSimulator(const model::NetworkConfig& config, EventSimOptions options);

  /// Simulates one slot's requests against an executed decision. `demand`
  /// carries the slot's true mean rates (either representation); `previous`
  /// is the executed cache of the previous slot (for the replacement term
  /// of the discrete cost). Folds the slot into `aggregate` and returns the
  /// slot record.
  EventSlotMetrics simulate_slot(std::size_t slot,
                                 model::SlotDemandView demand,
                                 const model::SlotDecision& decision,
                                 const model::CacheState& previous,
                                 EventMetrics& aggregate);

  const EventSimOptions& options() const { return options_; }

 private:
  struct Arrival {
    double time = 0.0;
    std::uint32_t sbs = 0;
    std::uint32_t mu_class = 0;
    std::uint32_t content = 0;
  };

  /// One FCFS station per positive-bandwidth directed inter-SBS link,
  /// appended after the BS station. Zero-bandwidth links get no station
  /// (the designated-source rule never routes through them).
  struct LinkStation {
    std::uint32_t receiver = 0;
    std::uint32_t peer = 0;
    double bandwidth = 0.0;
  };

  const model::NetworkConfig* config_;
  EventSimOptions options_;

  // Fixed per-config link-station layout (empty topology -> no stations).
  std::vector<LinkStation> link_stations_;
  /// Per receiver SBS: (peer, index into link_stations_) for each of its
  /// positive-bandwidth fetch links.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      link_station_of_;

  // Scratch reused across slots (cleared, not reallocated).
  std::vector<Arrival> arrivals_;
  std::vector<double> delays_;
  std::vector<double> bs_class_rate_;     // per (n, m): empirical BS rate
  std::vector<double> sbs_class_rate_;    // per (n, m): empirical SBS rate
  std::vector<double> neigh_class_rate_;  // per (n, m): neighbor-tier rate
  std::vector<std::size_t> class_offset_;
};

}  // namespace mdo::sim
