#include "online/baselines.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/load_balancing.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::online {

namespace {

/// Caches the top-C contents of each SBS by the given per-content score.
model::CacheState top_c_cache(const model::NetworkConfig& config,
                              const std::vector<linalg::Vec>& scores) {
  model::CacheState cache(config);
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    std::vector<std::size_t> order(config.num_contents);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[n][a] > scores[n][b];
                     });
    const std::size_t capacity =
        std::min(config.sbs[n].cache_capacity, order.size());
    for (std::size_t i = 0; i < capacity; ++i) cache.set(n, order[i], true);
  }
  return cache;
}

}  // namespace

// ---------------------------------------------------------------- LRFU ----

void LrfuController::reset(const model::ProblemInstance& instance) {
  instance_ = &instance;
}

model::SlotDecision LrfuController::decide(const DecisionContext& ctx) {
  MDO_REQUIRE(instance_ != nullptr, "LRFU: reset() must be called first");
  MDO_REQUIRE(ctx.has_demand(), "LRFU uses the true demand");
  const auto& config = instance_->config;
  const model::SlotDemandView demand = ctx.demand();

  // Rank contents by current request volume (highest first), per SBS. One
  // O(M*K) column-sum pass per SBS instead of K O(M) content_total calls.
  std::vector<linalg::Vec> scores(config.num_sbs());
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    demand.sbs(n).content_totals_into(scores[n]);
  }
  model::SlotDecision decision;
  decision.cache = top_c_cache(config, scores);
  decision.load = core::optimal_load_for_cache(config, demand, decision.cache);
  return decision;
}

// ------------------------------------------------- request-stream base ----

RequestStreamController::RequestStreamController(std::size_t requests_per_slot,
                                                 std::uint64_t seed)
    : requests_per_slot_(requests_per_slot), seed_(seed) {
  MDO_REQUIRE(requests_per_slot >= 1, "need at least one request per slot");
}

void RequestStreamController::reset(const model::ProblemInstance& instance) {
  instance_ = &instance;
  clear(instance.config);
}

model::SlotDecision RequestStreamController::decide(
    const DecisionContext& ctx) {
  MDO_REQUIRE(instance_ != nullptr, "reset() must be called first");
  MDO_REQUIRE(ctx.has_demand(),
              "request-stream baselines use the true demand");
  const auto& config = instance_->config;
  const model::SlotDemandView demand = ctx.demand();

  // Deterministic request stream for this slot: content drawn with
  // probability proportional to its total demand at the SBS.
  std::uint64_t mix = seed_;
  (void)splitmix64(mix);
  mix ^= 0x9e3779b97f4a7c15ULL * (ctx.slot + 1);
  Rng rng(splitmix64(mix));
  std::vector<double> weights;
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    // Full K-vector (zeros included) so categorical() draws identically
    // whichever representation backs the view.
    demand.sbs(n).content_totals_into(weights);
    double total = 0.0;
    for (std::size_t k = 0; k < config.num_contents; ++k) total += weights[k];
    if (total <= 0.0) continue;  // idle slot: no requests, no updates
    for (std::size_t i = 0; i < requests_per_slot_; ++i) {
      on_request(n, rng.categorical(weights), ctx.slot);
    }
  }

  model::SlotDecision decision;
  decision.cache = model::CacheState(config);
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const auto& bitmap = cache_of(n);
    for (std::size_t k = 0; k < config.num_contents; ++k) {
      decision.cache.set(n, k, bitmap[k] != 0);
    }
  }
  decision.load = core::optimal_load_for_cache(config, demand, decision.cache);
  return decision;
}

// ----------------------------------------------------------------- LRU ----

LruController::LruController(std::size_t requests_per_slot,
                             std::uint64_t seed)
    : RequestStreamController(requests_per_slot, seed) {}

void LruController::clear(const model::NetworkConfig& config) {
  cache_.assign(config.num_sbs(),
                std::vector<std::uint8_t>(config.num_contents, 0));
  last_use_.assign(config.num_sbs(),
                   std::vector<std::size_t>(config.num_contents, 0));
  capacity_.clear();
  for (const auto& s : config.sbs) capacity_.push_back(s.cache_capacity);
  clock_ = 0;
}

void LruController::on_request(std::size_t n, std::size_t k,
                               std::size_t /*slot*/) {
  ++clock_;
  last_use_[n][k] = clock_;
  if (cache_[n][k] != 0 || capacity_[n] == 0) return;
  // Admit k; evict the least recently used cached item when full.
  std::size_t cached = 0;
  for (const auto v : cache_[n]) cached += v;
  if (cached >= capacity_[n]) {
    std::size_t victim = 0;
    std::size_t oldest = std::numeric_limits<std::size_t>::max();
    for (std::size_t j = 0; j < cache_[n].size(); ++j) {
      if (cache_[n][j] != 0 && last_use_[n][j] < oldest) {
        oldest = last_use_[n][j];
        victim = j;
      }
    }
    cache_[n][victim] = 0;
  }
  cache_[n][k] = 1;
}

const std::vector<std::uint8_t>& LruController::cache_of(
    std::size_t n) const {
  return cache_[n];
}

// ----------------------------------------------------------------- LFU ----

LfuController::LfuController(std::size_t requests_per_slot,
                             std::uint64_t seed)
    : RequestStreamController(requests_per_slot, seed) {}

void LfuController::clear(const model::NetworkConfig& config) {
  cache_.assign(config.num_sbs(),
                std::vector<std::uint8_t>(config.num_contents, 0));
  counts_.assign(config.num_sbs(),
                 std::vector<std::uint64_t>(config.num_contents, 0));
  capacity_.clear();
  for (const auto& s : config.sbs) capacity_.push_back(s.cache_capacity);
}

void LfuController::on_request(std::size_t n, std::size_t k,
                               std::size_t /*slot*/) {
  ++counts_[n][k];
  if (cache_[n][k] != 0 || capacity_[n] == 0) return;
  std::size_t cached = 0;
  for (const auto v : cache_[n]) cached += v;
  if (cached < capacity_[n]) {
    cache_[n][k] = 1;
    return;
  }
  // Evict the least frequently used cached item if k is now more frequent.
  std::size_t victim = cache_[n].size();
  std::uint64_t fewest = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t j = 0; j < cache_[n].size(); ++j) {
    if (cache_[n][j] != 0 && counts_[n][j] < fewest) {
      fewest = counts_[n][j];
      victim = j;
    }
  }
  if (victim < cache_[n].size() && counts_[n][k] > fewest) {
    cache_[n][victim] = 0;
    cache_[n][k] = 1;
  }
}

const std::vector<std::uint8_t>& LfuController::cache_of(
    std::size_t n) const {
  return cache_[n];
}

// ---------------------------------------------------------------- FIFO ----

FifoController::FifoController(std::size_t requests_per_slot,
                               std::uint64_t seed)
    : RequestStreamController(requests_per_slot, seed) {}

void FifoController::clear(const model::NetworkConfig& config) {
  cache_.assign(config.num_sbs(),
                std::vector<std::uint8_t>(config.num_contents, 0));
  queue_.assign(config.num_sbs(), {});
  capacity_.clear();
  for (const auto& s : config.sbs) capacity_.push_back(s.cache_capacity);
}

void FifoController::on_request(std::size_t n, std::size_t k,
                                std::size_t /*slot*/) {
  if (cache_[n][k] != 0 || capacity_[n] == 0) return;
  if (queue_[n].size() >= capacity_[n]) {
    cache_[n][queue_[n].front()] = 0;
    queue_[n].pop_front();
  }
  cache_[n][k] = 1;
  queue_[n].push_back(k);
}

const std::vector<std::uint8_t>& FifoController::cache_of(
    std::size_t n) const {
  return cache_[n];
}

// ---------------------------------------------------------- static topC ----

void StaticTopCController::reset(const model::ProblemInstance& instance) {
  instance_ = &instance;
  const auto& config = instance.config;
  const model::DemandTraceView trace = instance.demand_view();
  std::vector<linalg::Vec> scores(config.num_sbs(),
                                  linalg::Vec(config.num_contents, 0.0));
  std::vector<double> totals;
  for (std::size_t t = 0; t < trace.horizon(); ++t) {
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      trace.slot(t).sbs(n).content_totals_into(totals);
      for (std::size_t k = 0; k < config.num_contents; ++k) {
        scores[n][k] += totals[k];
      }
    }
  }
  static_cache_ = top_c_cache(config, scores);
}

model::SlotDecision StaticTopCController::decide(const DecisionContext& ctx) {
  MDO_REQUIRE(instance_ != nullptr, "reset() must be called first");
  MDO_REQUIRE(ctx.has_demand(), "StaticTopC uses the true demand");
  model::SlotDecision decision;
  decision.cache = static_cache_;
  decision.load = core::optimal_load_for_cache(instance_->config, ctx.demand(),
                                               decision.cache);
  return decision;
}

}  // namespace mdo::online
