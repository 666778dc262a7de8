#include "sim/event_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

#include "model/feasibility.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::sim {

namespace {
// Station utilization at the bandwidth (SBS, link) or demand (BS) rate:
// every station serves at its offered rate * S / utilization.
constexpr double kSbsUtilization = 0.8;
constexpr double kBsUtilization = 0.8;
}  // namespace

void EventSimOptions::validate() const {
  MDO_REQUIRE(std::isfinite(requests_per_rate_unit) &&
                  requests_per_rate_unit > 0.0,
              "requests_per_rate_unit must be finite and positive");
  MDO_REQUIRE(std::isfinite(content_size_bytes) && content_size_bytes > 0.0,
              "content_size_bytes must be finite and positive");
}

// ---- DelayHistogram --------------------------------------------------------

std::size_t DelayHistogram::bin_of(double delay) {
  if (!(delay > kMinDelay)) return 0;
  if (delay >= kMaxDelay) return kBins - 1;
  // log-spaced bins over [kMinDelay, kMaxDelay)
  const double span = std::log(kMaxDelay / kMinDelay);
  const double pos = std::log(delay / kMinDelay) / span;
  const auto bin = static_cast<std::size_t>(pos * static_cast<double>(kBins));
  return std::min(bin, kBins - 1);
}

double DelayHistogram::bin_mid(std::size_t bin) {
  const double span = std::log(kMaxDelay / kMinDelay);
  const double lo =
      kMinDelay * std::exp(span * static_cast<double>(bin) /
                           static_cast<double>(kBins));
  const double hi =
      kMinDelay * std::exp(span * static_cast<double>(bin + 1) /
                           static_cast<double>(kBins));
  return std::sqrt(lo * hi);  // geometric midpoint
}

void DelayHistogram::add(double delay) {
  ++bins_[bin_of(delay)];
  sum_ += delay;
  ++count_;
}

double DelayHistogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double DelayHistogram::quantile(double q) const {
  MDO_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t bin = 0; bin < kBins; ++bin) {
    seen += bins_[bin];
    if (seen >= std::max<std::uint64_t>(rank, 1)) return bin_mid(bin);
  }
  return bin_mid(kBins - 1);
}

void DelayHistogram::save(util::BinaryWriter& w) const {
  w.f64(sum_);
  w.size(count_);
  for (const std::uint64_t bin : bins_) w.u64(bin);
}

void DelayHistogram::restore(util::BinaryReader& r) {
  sum_ = r.f64();
  count_ = r.size();
  for (std::uint64_t& bin : bins_) bin = r.u64();
}

// ---- EventMetrics ----------------------------------------------------------

void EventMetrics::accumulate(const EventSlotMetrics& slot) {
  requests += slot.requests;
  sbs_hits += slot.sbs_hits;
  neigh_hits += slot.neigh_hits;
  backhaul_bytes += slot.backhaul_bytes;
  discrete_cost += slot.discrete_cost;
  slots.push_back(slot);
}

void EventMetrics::save(util::BinaryWriter& w) const {
  w.size(requests);
  w.size(sbs_hits);
  w.size(neigh_hits);
  w.f64(backhaul_bytes);
  w.f64(discrete_cost.bs);
  w.f64(discrete_cost.sbs);
  w.f64(discrete_cost.neigh);
  w.f64(discrete_cost.replacement);
  delays.save(w);
  w.size(slots.size());
  for (const EventSlotMetrics& slot : slots) {
    w.size(slot.requests);
    w.size(slot.sbs_hits);
    w.size(slot.neigh_hits);
    w.f64(slot.backhaul_bytes);
    w.f64(slot.mean_delay);
    w.f64(slot.p50_delay);
    w.f64(slot.p99_delay);
    w.f64(slot.discrete_cost.bs);
    w.f64(slot.discrete_cost.sbs);
    w.f64(slot.discrete_cost.neigh);
    w.f64(slot.discrete_cost.replacement);
  }
}

void EventMetrics::restore(util::BinaryReader& r) {
  requests = r.size();
  sbs_hits = r.size();
  neigh_hits = r.size();
  backhaul_bytes = r.f64();
  discrete_cost = {};
  discrete_cost.bs = r.f64();
  discrete_cost.sbs = r.f64();
  discrete_cost.neigh = r.f64();
  discrete_cost.replacement = r.f64();
  delays.restore(r);
  slots.clear();
  const std::size_t num_slots = r.count();
  slots.reserve(num_slots);
  for (std::size_t i = 0; i < num_slots; ++i) {
    EventSlotMetrics slot;
    slot.requests = r.size();
    slot.sbs_hits = r.size();
    slot.neigh_hits = r.size();
    slot.backhaul_bytes = r.f64();
    slot.mean_delay = r.f64();
    slot.p50_delay = r.f64();
    slot.p99_delay = r.f64();
    slot.discrete_cost.bs = r.f64();
    slot.discrete_cost.sbs = r.f64();
    slot.discrete_cost.neigh = r.f64();
    slot.discrete_cost.replacement = r.f64();
    slots.push_back(slot);
  }
}

// ---- EventSimulator --------------------------------------------------------

void resolve_entry_loads(const model::SparseSlotDemand& demand,
                         const model::LoadAllocation& load, bool neighbor,
                         std::vector<double>& y, std::vector<double>& yn) {
  y.clear();
  yn.clear();
  for (std::size_t n = 0; n < demand.size(); ++n) {
    const model::SparseSbsDemand& sbs = demand[n];
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      model::join_class(sbs, m, load.row(n),
                        [&](const model::DemandEntry& entry, double value) {
                          if (entry.rate <= 0.0) return;  // no arrivals
                          y.push_back(std::clamp(value, 0.0, 1.0));
                        });
      if (!neighbor) continue;
      model::join_class(sbs, m, load.neighbor_row(n),
                        [&](const model::DemandEntry& entry, double value) {
                          if (entry.rate <= 0.0) return;
                          yn.push_back(std::clamp(value, 0.0, 1.0));
                        });
    }
  }
}

EventSimulator::EventSimulator(const model::NetworkConfig& config,
                               EventSimOptions options)
    : config_(&config), options_(options) {
  config.validate();
  options_.validate();
  class_offset_.assign(config.num_sbs() + 1, 0);
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    class_offset_[n + 1] = class_offset_[n] + config.sbs[n].num_classes();
  }
  bs_class_rate_.assign(class_offset_.back(), 0.0);
  sbs_class_rate_.assign(class_offset_.back(), 0.0);
  neigh_class_rate_.assign(class_offset_.back(), 0.0);
  link_station_of_.assign(config.num_sbs(), {});
  for (std::size_t n = 0; n < config.topology.links.size(); ++n) {
    for (const model::NeighborLink& link : config.topology.links[n]) {
      if (!(link.bandwidth > 0.0)) continue;
      link_station_of_[n].emplace_back(
          static_cast<std::uint32_t>(link.peer),
          static_cast<std::uint32_t>(link_stations_.size()));
      link_stations_.push_back(LinkStation{static_cast<std::uint32_t>(n),
                                           static_cast<std::uint32_t>(link.peer),
                                           link.bandwidth});
    }
  }
}

namespace {

/// Departure event of the request in service at a station; `seq` is the
/// schedule order, giving simultaneous events a total deterministic order.
struct Departure {
  double time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t station = 0;

  bool operator>(const Departure& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

struct Station {
  double service_rate = 0.0;
  bool busy = false;
  double in_service_arrival = 0.0;
  std::deque<double> fifo;  // arrival times of waiting requests
};

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

}  // namespace

EventSlotMetrics EventSimulator::simulate_slot(
    std::size_t slot, model::SlotDemandView demand,
    const model::SlotDecision& decision, const model::CacheState& previous,
    EventMetrics& aggregate) {
  const model::NetworkConfig& config = *config_;
  const double scale = options_.requests_per_rate_unit;

  // Independent streams for arrival generation and for the event loop's
  // routing/service draws, both derived from (seed, slot) alone so any slot
  // can be replayed without history (checkpoint resume, streaming).
  std::uint64_t seed_state =
      options_.seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(slot) + 1);
  Rng arrival_rng(splitmix64(seed_state));
  Rng loop_rng(splitmix64(seed_state));

  // ---- Arrival generation: one Poisson stream per (n, m, k) cell, visited
  // in lexicographic order over the stored entries; exact-zero cells draw
  // nothing, so the sequence does not depend on the input representation.
  arrivals_.clear();
  double slot_rate_total = 0.0;
  model::SparseSlotDemand storage;
  const model::SparseSlotDemand& slot_demand =
      model::sparse_slot(demand, storage);
  MDO_REQUIRE(slot_demand.size() == config.num_sbs(),
              "simulate_slot: demand shape mismatch");
  const bool neigh_tier =
      decision.load.has_neighbor() && !link_stations_.empty();
  // Each arrival carries its entry's index into the loads resolved here,
  // so no request searches a load row.
  resolve_entry_loads(slot_demand, decision.load, neigh_tier, entry_y_,
                      entry_yn_);
  std::uint32_t entry = 0;
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const model::SparseSbsDemand& sbs = slot_demand[n];
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      const auto* const end = sbs.row_end(m);
      for (const auto* it = sbs.row_begin(m); it != end; ++it) {
        const double rate = it->rate;
        if (rate <= 0.0) continue;
        slot_rate_total += rate;
        const double intensity = rate * scale;
        double t = arrival_rng.exponential(intensity);
        while (t < 1.0) {
          arrivals_.push_back(Arrival{t, static_cast<std::uint32_t>(n),
                                      static_cast<std::uint32_t>(m),
                                      static_cast<std::uint32_t>(it->content),
                                      entry});
          t += arrival_rng.exponential(intensity);
        }
        ++entry;
      }
    }
  }
  // Stable by time: simultaneous arrivals keep generation (n, m, k) order.
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.time < b.time;
                   });

  // ---- Stations: one FCFS single-server queue per SBS downlink, one for
  // the BS (backhaul + macro downlink, the miss path), and — only under a
  // non-empty topology — one per positive-bandwidth directed inter-SBS
  // link, appended after the BS so the baseline indices are untouched.
  std::vector<Station> stations(config.num_sbs() + 1 + link_stations_.size());
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    stations[n].service_rate =
        config.sbs[n].bandwidth * scale / kSbsUtilization;
  }
  stations[config.num_sbs()].service_rate =
      slot_rate_total * scale / kBsUtilization;
  const auto bs_station = static_cast<std::uint32_t>(config.num_sbs());
  for (std::size_t l = 0; l < link_stations_.size(); ++l) {
    // The link's bandwidth cap with the same 1/utilization headroom rule
    // as the SBS downlinks.
    stations[config.num_sbs() + 1 + l].service_rate =
        link_stations_[l].bandwidth * scale / kSbsUtilization;
  }

  std::fill(bs_class_rate_.begin(), bs_class_rate_.end(), 0.0);
  std::fill(sbs_class_rate_.begin(), sbs_class_rate_.end(), 0.0);
  std::fill(neigh_class_rate_.begin(), neigh_class_rate_.end(), 0.0);
  delays_.clear();
  delays_.reserve(arrivals_.size());

  EventSlotMetrics metrics;
  metrics.requests = arrivals_.size();

  auto draw_service = [&](const Station& station) {
    MDO_CHECK(station.service_rate > 0.0,
              "event station with zero service rate received a request");
    return loop_rng.exponential(station.service_rate);
  };

  // ---- EV_ARRIVAL / EV_DEPART loop. Arrivals are consumed in time order
  // from the sorted vector; departures live in a min-heap. A departure at
  // the same instant as an arrival is processed first (the server frees
  // before the newcomer is seated); ties among departures follow schedule
  // order (seq).
  std::priority_queue<Departure, std::vector<Departure>,
                      std::greater<Departure>>
      departures;
  std::uint64_t seq = 0;
  std::size_t next_arrival = 0;
  while (next_arrival < arrivals_.size() || !departures.empty()) {
    const bool take_departure =
        !departures.empty() &&
        (next_arrival >= arrivals_.size() ||
         departures.top().time <= arrivals_[next_arrival].time);
    if (take_departure) {
      const Departure event = departures.top();
      departures.pop();
      Station& station = stations[event.station];
      delays_.push_back(event.time - station.in_service_arrival);
      if (station.fifo.empty()) {
        station.busy = false;
      } else {
        station.in_service_arrival = station.fifo.front();
        station.fifo.pop_front();
        departures.push(Departure{event.time + draw_service(station), seq++,
                                  event.station});
      }
      continue;
    }

    const Arrival arrival = arrivals_[next_arrival++];
    const std::size_t n = arrival.sbs;
    const std::size_t m = arrival.mu_class;
    const std::size_t k = arrival.content;
    // Route against the executed decision with a SINGLE uniform draw: the
    // SBS serves this request when u < y[n, m, k] (repair already forces
    // y = 0 off the rounded placement and under outages, but the cached()
    // check keeps the event layer honest against unrepaired decisions); a
    // neighbor cache serves it over the designated inter-SBS link when
    // u < y + y_neigh and a positive-bandwidth caching source exists; the
    // BS absorbs everything else. An SBS with no service capacity cannot
    // seat a request. Decisions without a neighbor bank take the exact
    // baseline path — same draw, same branches, same accounting.
    const double y = entry_y_[arrival.entry];
    const double u = loop_rng.uniform();
    const bool hit = decision.cache.cached(n, k) && u < y &&
                     stations[n].service_rate > 0.0;
    auto station_index = hit ? static_cast<std::uint32_t>(n) : bs_station;
    bool neigh_hit = false;
    if (!hit && neigh_tier) {
      const double yn = entry_yn_[arrival.entry];
      if (u < y + yn) {
        const std::size_t src =
            model::neighbor_source(config, decision.cache, n, k);
        if (src != config.num_sbs()) {
          for (const auto& [peer, link] : link_station_of_[n]) {
            if (peer == src) {
              station_index = static_cast<std::uint32_t>(
                  config.num_sbs() + 1 + link);
              neigh_hit = true;
              break;
            }
          }
        }
      }
    }
    if (hit) {
      ++metrics.sbs_hits;
      sbs_class_rate_[class_offset_[n] + m] += 1.0 / scale;
    } else if (neigh_hit) {
      ++metrics.neigh_hits;
      neigh_class_rate_[class_offset_[n] + m] += 1.0 / scale;
    } else {
      metrics.backhaul_bytes += options_.content_size_bytes;
      bs_class_rate_[class_offset_[n] + m] += 1.0 / scale;
    }
    Station& station = stations[station_index];
    if (station.busy) {
      station.fifo.push_back(arrival.time);
    } else {
      station.busy = true;
      station.in_service_arrival = arrival.time;
      departures.push(
          Departure{arrival.time + draw_service(station), seq++,
                    station_index});
    }
  }

  // ---- Delay statistics: exact per-slot percentiles from the full sample;
  // the aggregate keeps only the histogram (O(1) memory per run).
  for (const double delay : delays_) aggregate.delays.add(delay);
  if (!delays_.empty()) {
    double sum = 0.0;
    for (const double delay : delays_) sum += delay;
    metrics.mean_delay = sum / static_cast<double>(delays_.size());
    std::sort(delays_.begin(), delays_.end());
    metrics.p50_delay = nearest_rank(delays_, 0.50);
    metrics.p99_delay = nearest_rank(delays_, 0.99);
  }

  // ---- Empirical cost: f, g (and \tilde{f} under a neighbor tier) of
  // eqs. (5)-(6) evaluated at the realized per-class rates; h is
  // decision-level and equals the fluid term. The \tilde{f} accumulation is
  // guarded so baseline runs evaluate the original arithmetic verbatim.
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    double bs_weighted = 0.0;
    double sbs_weighted = 0.0;
    double neigh_weighted = 0.0;
    for (std::size_t m = 0; m < config.sbs[n].num_classes(); ++m) {
      bs_weighted +=
          config.sbs[n].classes[m].omega_bs * bs_class_rate_[class_offset_[n] + m];
      sbs_weighted += config.sbs[n].classes[m].omega_sbs *
                      sbs_class_rate_[class_offset_[n] + m];
      if (neigh_tier) {
        neigh_weighted += config.sbs[n].classes[m].omega_neigh *
                          neigh_class_rate_[class_offset_[n] + m];
      }
    }
    metrics.discrete_cost.bs += bs_weighted * bs_weighted;
    metrics.discrete_cost.sbs += sbs_weighted * sbs_weighted;
    if (neigh_tier) {
      metrics.discrete_cost.neigh += neigh_weighted * neigh_weighted;
    }
  }
  metrics.discrete_cost.replacement =
      model::replacement_cost(config, decision.cache, previous);

  aggregate.accumulate(metrics);
  return metrics;
}

}  // namespace mdo::sim
