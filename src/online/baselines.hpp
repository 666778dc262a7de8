// Baseline caching policies.
//
// LrfuController is the paper's comparison scheme (Sec. V-A): each slot
// every SBS caches the C_n contents with the highest current request
// volume (the paper grants LRFU accurate demand information). Load
// balancing is then chosen optimally for that cache via P2 — giving the
// baseline its best possible showing.
//
// LruController / LfuController / FifoController adapt the classic
// replacement rules (Sec. VI's related work) to the slot-level model: a
// deterministic, seeded stream of discrete requests is sampled from each
// slot's true demand and fed through a conventional cache. These extend the
// paper's evaluation with the rule-based policies its related-work section
// cites.
//
// StaticTopCController is a clairvoyant static baseline: it caches the
// top-C_n contents of the *average* demand over the whole horizon and never
// replaces — the natural "no replacement cost" anchor for the beta sweep.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "online/controller.hpp"

namespace mdo::online {

/// The paper's LRFU baseline.
class LrfuController final : public Controller {
 public:
  std::string name() const override { return "LRFU"; }
  void reset(const model::ProblemInstance& instance) override;
  model::SlotDecision decide(const DecisionContext& ctx) override;

 private:
  const model::ProblemInstance* instance_ = nullptr;
};

/// Shared scaffolding for the request-stream classics.
class RequestStreamController : public Controller {
 public:
  /// `requests_per_slot`: discrete requests sampled from the slot demand.
  RequestStreamController(std::size_t requests_per_slot, std::uint64_t seed);

  void reset(const model::ProblemInstance& instance) override;
  model::SlotDecision decide(const DecisionContext& ctx) override;

 protected:
  /// Called for each sampled request (SBS n, content k); implementations
  /// update their cache bookkeeping. `slot` is the current slot index.
  virtual void on_request(std::size_t n, std::size_t k, std::size_t slot) = 0;
  /// Current cache content of SBS n (size K bitmap).
  virtual const std::vector<std::uint8_t>& cache_of(std::size_t n) const = 0;
  /// Clears policy state for `num_sbs` SBSs with capacities `capacity`.
  virtual void clear(const model::NetworkConfig& config) = 0;

  const model::ProblemInstance* instance_ = nullptr;

 private:
  std::size_t requests_per_slot_;
  std::uint64_t seed_;
};

/// Least Recently Used over the sampled request stream.
class LruController final : public RequestStreamController {
 public:
  explicit LruController(std::size_t requests_per_slot = 64,
                         std::uint64_t seed = 99);
  std::string name() const override { return "LRU"; }

 protected:
  void on_request(std::size_t n, std::size_t k, std::size_t slot) override;
  const std::vector<std::uint8_t>& cache_of(std::size_t n) const override;
  void clear(const model::NetworkConfig& config) override;

 private:
  std::vector<std::vector<std::uint8_t>> cache_;
  std::vector<std::vector<std::size_t>> last_use_;  // per SBS per content
  std::vector<std::size_t> capacity_;
  std::size_t clock_ = 0;
};

/// Least Frequently Used (cumulative counts) over the request stream.
class LfuController final : public RequestStreamController {
 public:
  explicit LfuController(std::size_t requests_per_slot = 64,
                         std::uint64_t seed = 99);
  std::string name() const override { return "LFU"; }

 protected:
  void on_request(std::size_t n, std::size_t k, std::size_t slot) override;
  const std::vector<std::uint8_t>& cache_of(std::size_t n) const override;
  void clear(const model::NetworkConfig& config) override;

 private:
  std::vector<std::vector<std::uint8_t>> cache_;
  std::vector<std::vector<std::uint64_t>> counts_;
  std::vector<std::size_t> capacity_;
};

/// First-In First-Out over the request stream.
class FifoController final : public RequestStreamController {
 public:
  explicit FifoController(std::size_t requests_per_slot = 64,
                          std::uint64_t seed = 99);
  std::string name() const override { return "FIFO"; }

 protected:
  void on_request(std::size_t n, std::size_t k, std::size_t slot) override;
  const std::vector<std::uint8_t>& cache_of(std::size_t n) const override;
  void clear(const model::NetworkConfig& config) override;

 private:
  std::vector<std::vector<std::uint8_t>> cache_;
  std::vector<std::deque<std::size_t>> queue_;
  std::vector<std::size_t> capacity_;
};

/// Clairvoyant static top-C cache (never replaces after the first slot).
class StaticTopCController final : public Controller {
 public:
  std::string name() const override { return "StaticTopC"; }
  void reset(const model::ProblemInstance& instance) override;
  model::SlotDecision decide(const DecisionContext& ctx) override;

 private:
  const model::ProblemInstance* instance_ = nullptr;
  model::CacheState static_cache_;
};

}  // namespace mdo::online
