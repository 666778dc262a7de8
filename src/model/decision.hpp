// Decision variables (Sec. II-A): caching X and load balancing Y.
//
// CacheState holds x[n, k] in {0, 1} for one slot; LoadAllocation holds
// the routing fractions for one slot. In the baseline two-way model these
// are y_local[n, m, k] in [0, 1] with the BS share y_bs = 1 - y_local
// implied (eq. (4)) and never stored. Under a non-empty neighbor topology
// (DESIGN.md §13) a second bank y_neigh[n, m, k] is allocated lazily and
// the BS share becomes 1 - y_local - y_neigh; the bank is absent on the
// empty topology so the baseline arithmetic is bitwise untouched.
//
// y is stored sparse, per SBS on the contents a writer lists (LoadRow):
// the solver writes the columns of each cell's active set (support of
// lambda union cached) that are not +0.0; off the active set y is a
// structural zero of P2. Kernels walk the stored entries;
// sbs_data()/neighbor_data() materialize a dense row only at the edges
// (digests, printers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/vec.hpp"
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

/// One SBS's bank of a LoadAllocation, stored on its active coordinates:
/// a sorted list of distinct contents and their loads, class-major
/// (class_values(m)[i] is the load of class m for content contents()[i]).
/// Every content off the list has load +0.0. The layout matches the
/// solver's compact mu blocks and P2 workspaces, so a repaired cell copies
/// in without a scatter.
class LoadRow {
 public:
  LoadRow() = default;
  /// Empty (all-zero) row of `classes` classes over a K = `num_contents`
  /// catalogue.
  LoadRow(std::size_t classes, std::size_t num_contents)
      : classes_(classes), num_contents_(num_contents) {}

  std::size_t num_classes() const { return classes_; }
  std::size_t num_contents() const { return num_contents_; }
  /// Number of stored contents.
  std::size_t size() const { return contents_.size(); }

  /// Stored contents, ascending.
  std::span<const std::size_t> contents() const { return contents_; }
  /// Stored loads, classes x size(), class-major. The mutable span lets a
  /// repair rewrite values in place; the stored contents stay fixed.
  std::span<const double> values() const { return values_; }
  std::span<double> values() { return values_; }
  /// Loads of class m, one per stored content.
  const double* class_values(std::size_t m) const {
    return values_.data() + m * size();
  }
  double* class_values(std::size_t m) { return values_.data() + m * size(); }

  /// y[m, k]; 0.0 off the list. O(log size()).
  double at(std::size_t m, std::size_t k) const;

  /// Replaces the row with `contents` (ascending, distinct, each < K) and
  /// their class-major `values` (classes x contents.size()); throws
  /// InvalidArgument otherwise.
  void assign(std::span<const std::size_t> contents,
              std::span<const double> values);

  /// assign() of only the columns that hold a value other than +0.0 in
  /// some class: the stored bits are the same, and under y <= x (3) a
  /// solver's row then lists at most the cached contents.
  void assign_nonzero(std::span<const std::size_t> contents,
                      std::span<const double> values);

  /// Adds the contents of `sorted` (ascending, distinct, each < K) that the
  /// row does not store yet, each with an all-zero column; stored values
  /// keep their bits. O(classes x (size() + sorted.size())).
  void widen(std::span<const std::size_t> sorted);

  /// Sets y[m, k], widening the row by one zero column first when k is not
  /// stored: O(classes x size()) per new content, for tests and the edges
  /// that build decisions entry by entry.
  void set(std::size_t m, std::size_t k, double value);

  /// Dense classes x K copy, class-major (the materializing edge).
  linalg::Vec to_dense() const;

 private:
  std::size_t classes_ = 0;
  std::size_t num_contents_ = 0;
  std::vector<std::size_t> contents_;
  std::vector<double> values_;  // classes_ x contents_.size(), class-major
};

/// Per-slot load-balancing decision y[n, m, k] in [0, 1], one LoadRow per
/// SBS (and one per SBS of the neighbor bank, which keeps its own content
/// lists). The volumes it routes for a given demand are
/// model::sbs_load / model::neighbor_load (sparse_demand.hpp).
class LoadAllocation {
 public:
  LoadAllocation() = default;

  /// All-zero allocation (everything served by the BS): every row empty.
  explicit LoadAllocation(const NetworkConfig& config);

  std::size_t num_sbs() const { return rows_.size(); }
  std::size_t num_classes(std::size_t n) const { return row(n).num_classes(); }
  std::size_t num_contents() const { return num_contents_; }

  /// y[n, m, k]; 0.0 off SBS n's list.
  double at(std::size_t n, std::size_t m, std::size_t k) const;
  /// Sets y[n, m, k] (LoadRow::set).
  void set(std::size_t n, std::size_t m, std::size_t k, double value);

  /// SBS n's local bank.
  const LoadRow& row(std::size_t n) const;
  LoadRow& row(std::size_t n);

  /// SBS n's local bank materialized as a dense M x K vector, class-major:
  /// the edge for digests and printers. No solver, cost, simulator or
  /// controller path calls it.
  linalg::Vec sbs_data(std::size_t n) const;

  /// True once the neighbor-tier bank y_neigh exists. Decisions produced
  /// on an empty topology never allocate it.
  bool has_neighbor() const { return !neighbor_rows_.empty(); }

  /// Allocates the all-zero neighbor bank (empty rows shaped like the
  /// local ones); idempotent.
  void ensure_neighbor();

  /// y_neigh[n, m, k]; 0.0 when the bank is absent or k is off the list.
  double neighbor_at(std::size_t n, std::size_t m, std::size_t k) const;

  /// SBS n's neighbor bank; requires has_neighbor().
  const LoadRow& neighbor_row(std::size_t n) const;
  LoadRow& neighbor_row(std::size_t n);

  /// Dense M x K copy of the neighbor bank (sbs_data's twin); requires
  /// has_neighbor().
  linalg::Vec neighbor_data(std::size_t n) const;

 private:
  std::size_t num_contents_ = 0;
  std::vector<LoadRow> rows_;
  std::vector<LoadRow> neighbor_rows_;  // empty unless ensured
};

/// Joint decision for one slot.
struct SlotDecision {
  CacheState cache;
  LoadAllocation load;
};

/// A decision per slot over a horizon.
using Schedule = std::vector<SlotDecision>;

}  // namespace mdo::model
