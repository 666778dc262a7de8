// Decision variables (Sec. II-A): caching X and load balancing Y.
//
// CacheState holds x[n, k] in {0, 1} for one slot; LoadAllocation holds
// the routing fractions for one slot. In the baseline two-way model these
// are y_local[n, m, k] in [0, 1] with the BS share y_bs = 1 - y_local
// implied (eq. (4)) and never stored. Under a non-empty neighbor topology
// (DESIGN.md §13) a second bank y_neigh[n, m, k] is allocated lazily and
// the BS share becomes 1 - y_local - y_neigh; the bank is absent on the
// empty topology so the baseline arithmetic is bitwise untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/demand.hpp"
#include "model/network.hpp"

namespace mdo::model {

/// Per-slot caching decision x[n, k] in {0, 1}.
class CacheState {
 public:
  CacheState() = default;

  /// All-empty caches shaped after the config.
  explicit CacheState(const NetworkConfig& config);

  std::size_t num_sbs() const { return x_.size(); }
  std::size_t num_contents() const { return num_contents_; }

  bool cached(std::size_t n, std::size_t k) const;
  void set(std::size_t n, std::size_t k, bool value);

  /// Number of items cached at SBS n.
  std::size_t count(std::size_t n) const;

  /// Items inserted going from `prev` to `*this` at SBS n:
  /// sum_k (x - x_prev)^+, the quantity priced by eq. (7).
  std::size_t insertions_from(const CacheState& prev, std::size_t n) const;

  /// The contents cached at SBS n, ascending, listed in one pass over the
  /// bitmap (after count() sizes the list). Computed on each call; the
  /// bitmap stays the only representation.
  std::vector<std::size_t> cached_contents(std::size_t n) const;

  /// Raw per-SBS bitmap (0/1 bytes).
  const std::vector<std::uint8_t>& sbs_bitmap(std::size_t n) const;

  bool operator==(const CacheState& other) const = default;

 private:
  std::size_t num_contents_ = 0;
  std::vector<std::vector<std::uint8_t>> x_;
};

/// Per-slot load-balancing decision y[n, m, k] in [0, 1]. The volumes it
/// routes for a given demand are model::sbs_load / model::neighbor_load
/// (sparse_demand.hpp).
class LoadAllocation {
 public:
  LoadAllocation() = default;

  /// All-zero allocation (everything served by the BS).
  explicit LoadAllocation(const NetworkConfig& config);

  std::size_t num_sbs() const { return shape_classes_.size(); }
  std::size_t num_classes(std::size_t n) const;
  std::size_t num_contents() const { return num_contents_; }

  double at(std::size_t n, std::size_t m, std::size_t k) const;
  double& at(std::size_t n, std::size_t m, std::size_t k);

  /// Flat per-SBS storage (class-major then content, 64-byte aligned), for
  /// solvers.
  const linalg::Vec& sbs_data(std::size_t n) const;
  linalg::Vec& sbs_data(std::size_t n);

  /// True once the neighbor-tier bank y_neigh exists. Decisions produced
  /// on an empty topology never allocate it.
  bool has_neighbor() const { return !yn_.empty(); }

  /// Allocates the all-zero neighbor bank (same shape as the local bank);
  /// idempotent.
  void ensure_neighbor();

  /// y_neigh[n, m, k]; the const read returns 0.0 when the bank is absent,
  /// the mutable access requires ensure_neighbor() first.
  double neighbor_at(std::size_t n, std::size_t m, std::size_t k) const;
  double& neighbor_at(std::size_t n, std::size_t m, std::size_t k);

  /// Flat neighbor-bank storage; requires has_neighbor().
  const linalg::Vec& neighbor_data(std::size_t n) const;
  linalg::Vec& neighbor_data(std::size_t n);

 private:
  std::size_t num_contents_ = 0;
  std::vector<std::size_t> shape_classes_;
  std::vector<linalg::Vec> y_;
  std::vector<linalg::Vec> yn_;  // neighbor tier; empty unless ensured
};

/// Joint decision for one slot.
struct SlotDecision {
  CacheState cache;
  LoadAllocation load;
};

/// A decision per slot over a horizon.
using Schedule = std::vector<SlotDecision>;

}  // namespace mdo::model
