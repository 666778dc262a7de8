// Sparse demand representation (CSR per-class rows over the content axis).
//
// Zipf-distributed demand concentrates nearly all request mass on a small
// head of the catalogue, so the dense M x K matrices of SbsDemand waste
// memory bandwidth on structural zeros once K grows past a few hundred.
// SparseSbsDemand stores only the nonzero (class, content, rate) entries in
// CSR layout plus the sorted support and cached per-content column totals.
//
// This is the only module that knows demand comes in two representations.
// Every model kernel (costs, feasibility, loads, P2, the overlay, the event
// layer) has one body, written over sparse slots; the *View wrappers let
// callers hand in either representation, and a dense view is converted once
// at the kernel boundary by sparse_slot() / sparse_trace(). Conversions are
// lossless: to_dense(from_dense(d)) reproduces d bitwise when min_rate == 0,
// and every accumulation (totals, column sums, loads, costs) visits entries
// in ascending index order, so skipping exact-zero terms leaves the results
// bit-identical to a loop over the dense matrix.
#pragma once

#include <cstddef>
#include <vector>

#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "util/error.hpp"

namespace mdo::model {

/// One stored nonzero of a demand row.
struct DemandEntry {
  std::size_t content = 0;
  double rate = 0.0;

  friend bool operator==(const DemandEntry&, const DemandEntry&) = default;
};

/// Request-rate matrix of one SBS in CSR layout: per-class rows of
/// (content, rate) entries sorted by content, plus the sorted support and
/// per-content totals computed once at finalize().
class SparseSbsDemand {
 public:
  SparseSbsDemand() = default;
  SparseSbsDemand(std::size_t num_classes, std::size_t num_contents);

  std::size_t num_classes() const { return num_classes_; }
  std::size_t num_contents() const { return num_contents_; }
  std::size_t nnz() const { return entries_.size(); }

  /// Appends one entry. Entries must arrive in ascending (class, content)
  /// order; empty rows are skipped implicitly.
  void append(std::size_t m, std::size_t k, double rate);

  /// Seals the structure: closes trailing rows and computes the sorted
  /// support plus per-content totals. Must be called after the last
  /// append() and before any query; from_dense() does it automatically.
  void finalize();

  bool finalized() const { return finalized_; }

  /// Entries of class m as a [begin, end) pointer pair. Inline: the model
  /// kernels call them once per row of every cell they visit.
  const DemandEntry* row_begin(std::size_t m) const {
    MDO_REQUIRE(m < num_classes_, "SparseSbsDemand: class out of range");
    const std::size_t begin = m + 1 < row_ptr_.size() ? row_ptr_[m] : nnz();
    return entries_.data() + begin;
  }
  const DemandEntry* row_end(std::size_t m) const {
    MDO_REQUIRE(m < num_classes_, "SparseSbsDemand: class out of range");
    const std::size_t end =
        m + 2 <= row_ptr_.size() ? row_ptr_[m + 1] : nnz();
    return entries_.data() + end;
  }

  /// Stored rate at (m, k); 0.0 when the entry is absent.
  double at(std::size_t m, std::size_t k) const;

  /// Sum over stored entries in (class, content) order — bit-identical to
  /// SbsDemand::total() because the skipped dense terms are exact zeros.
  double total() const;

  /// Column sum for one content (0.0 off the support). O(log |support|).
  double content_total(std::size_t k) const;

  /// All K column sums in one pass; out is resized to num_contents().
  template <class Vector>
  void content_totals_into(Vector& out) const {
    MDO_REQUIRE(finalized_, "SparseSbsDemand: query before finalize");
    out.assign(num_contents_, 0.0);
    for (std::size_t i = 0; i < support_.size(); ++i) {
      out[support_[i]] = support_totals_[i];
    }
  }

  /// Sorted distinct contents with at least one stored entry.
  const std::vector<std::size_t>& support() const;

  /// Multiplies every stored rate of content support()[s] by
  /// support_factor[s] and rebuilds the cached totals, in one pass (the
  /// noisy predictor's per-content perturbation). The structure (rows,
  /// support) is unchanged; support_factor must have size support().size().
  /// Each scaled rate is the same product the dense code computes, so the
  /// result matches from_dense of the scaled dense matrix.
  void scale_by_content(const std::vector<double>& support_factor);

  /// Conversion from dense; entries with rate == 0 or 0 < rate < min_rate
  /// are dropped (become structural zeros). Negative and NaN rates are kept
  /// for validation to reject. min_rate == 0 is lossless.
  static SparseSbsDemand from_dense(const SbsDemand& dense,
                                    double min_rate = 0.0);
  SbsDemand to_dense() const;

  friend bool operator==(const SparseSbsDemand&,
                         const SparseSbsDemand&) = default;

 private:
  /// Rebuilds support_totals_ over the closed rows, first scaling each rate
  /// by factor[s] (s: its content's support index) when factor is given.
  void accumulate_support_totals(const double* factor);

  std::size_t num_classes_ = 0;
  std::size_t num_contents_ = 0;
  std::vector<std::size_t> row_ptr_;     // row m spans [row_ptr_[m], [m+1])
  std::vector<DemandEntry> entries_;
  std::vector<std::size_t> support_;     // sorted distinct contents
  std::vector<double> support_totals_;   // parallel to support_
  bool finalized_ = false;
};

/// Demand of all SBSs in one slot, sparse counterpart of SlotDemand.
using SparseSlotDemand = std::vector<SparseSbsDemand>;

/// Sparse counterpart of DemandTrace.
class SparseDemandTrace {
 public:
  std::size_t horizon() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  SparseSlotDemand& slot(std::size_t t);
  const SparseSlotDemand& slot(std::size_t t) const;

  void push_back(SparseSlotDemand slot);

  /// Drops every slot; controllers reuse one trace buffer per window.
  void clear() { slots_.clear(); }

  /// Sub-trace [begin, begin + length), clamped to the horizon like
  /// DemandTrace::window.
  SparseDemandTrace window(std::size_t begin, std::size_t length) const;

  /// Checks shapes against the config and that every stored rate is finite
  /// and nonnegative (and every SBS block finalized).
  void validate(const NetworkConfig& config) const;

  static SparseDemandTrace from_dense(const DemandTrace& trace,
                                      double min_rate = 0.0);
  DemandTrace to_dense() const;

  friend bool operator==(const SparseDemandTrace&,
                         const SparseDemandTrace&) = default;

 private:
  std::vector<SparseSlotDemand> slots_;
};

/// All-zero sparse slot demand shaped like the config.
SparseSlotDemand make_zero_sparse_slot_demand(const NetworkConfig& config);

/// Active-set of one (slot, SBS) cell: sorted union of support(lambda) and
/// `cached`, the SBS's cached contents in ascending order
/// (CacheState::cached_contents). P2's decision y[m,k] is structurally zero
/// off this set (no demand => nothing to serve; not cached => coupling (3)
/// forces y = 0), so the solvers restrict their variable space to it.
std::vector<std::size_t> active_contents(
    const SparseSbsDemand& demand, const std::vector<std::size_t>& cached);

class SbsDemandView;
class SlotDemandView;
class DemandTraceView;

/// The kernels' one slot representation: the sparse slot behind `demand`,
/// or — for a dense view — its from_dense conversion, written into
/// `storage`. The conversion keeps every nonzero rate, negative and NaN
/// ones included, so a finite/non-negative check on the result rejects
/// exactly the slots it would reject on the dense input.
const SparseSlotDemand& sparse_slot(SlotDemandView demand,
                                    SparseSlotDemand& storage);

/// Trace counterpart of sparse_slot(): the solver's one window
/// representation.
const SparseDemandTrace& sparse_trace(DemandTraceView trace,
                                      SparseDemandTrace& storage);

/// Calls f(entry, y) for each stored entry of class m of `demand`, in row
/// order, where y is `row`'s load at (m, entry.content) — 0.0 off the
/// row's list: one forward merge of the two content-sorted lists, no
/// search. Every kernel that weights loads by demand walks its rows
/// through this, so each sum adds the terms of a dense loop over the row,
/// in the same order, and keeps its bits.
template <class F>
void join_class(const SparseSbsDemand& demand, std::size_t m,
                const LoadRow& row, F&& f) {
  MDO_REQUIRE(m < row.num_classes(), "load row: class out of range");
  const std::size_t* const contents = row.contents().data();
  const std::size_t size = row.size();
  const double* const y = row.class_values(m);
  std::size_t pos = 0;
  const DemandEntry* const end = demand.row_end(m);
  for (const DemandEntry* it = demand.row_begin(m); it != end; ++it) {
    while (pos < size && contents[pos] < it->content) ++pos;
    f(*it, pos < size && contents[pos] == it->content ? y[pos] : 0.0);
  }
}

/// SBS-served volume at SBS n: sum_{m,k} lambda * y (left side of (2)),
/// accumulated over stored entries in ascending (class, content) order.
double sbs_load(const LoadAllocation& load, std::size_t n, SbsDemandView demand);

/// Traffic SBS n pulls over the neighbor tier: sum_{m,k} lambda * y_neigh.
/// 0.0 when the load carries no neighbor bank.
double neighbor_load(const LoadAllocation& load, std::size_t n,
                     SbsDemandView demand);

/// Non-owning view over either demand representation of one SBS.
class SbsDemandView {
 public:
  SbsDemandView() = default;
  /*implicit*/ SbsDemandView(const SbsDemand& dense) : dense_(&dense) {}
  /*implicit*/ SbsDemandView(const SparseSbsDemand& sparse)
      : sparse_(&sparse) {}

  bool valid() const { return dense_ != nullptr || sparse_ != nullptr; }
  bool is_sparse() const { return sparse_ != nullptr; }
  const SbsDemand* dense() const { return dense_; }
  const SparseSbsDemand* sparse() const { return sparse_; }

  template <class Vector>
  void content_totals_into(Vector& out) const {
    MDO_REQUIRE(valid(), "SbsDemandView: empty view");
    if (is_sparse()) {
      sparse_->content_totals_into(out);
    } else {
      dense_->content_totals_into(out);
    }
  }

 private:
  const SbsDemand* dense_ = nullptr;
  const SparseSbsDemand* sparse_ = nullptr;
};

/// Non-owning view over either slot-demand representation.
class SlotDemandView {
 public:
  SlotDemandView() = default;
  /*implicit*/ SlotDemandView(const SlotDemand& dense) : dense_(&dense) {}
  /*implicit*/ SlotDemandView(const SparseSlotDemand& sparse)
      : sparse_(&sparse) {}

  bool valid() const { return dense_ != nullptr || sparse_ != nullptr; }
  bool is_sparse() const { return sparse_ != nullptr; }
  const SlotDemand* dense() const { return dense_; }
  const SparseSlotDemand* sparse() const { return sparse_; }

  std::size_t num_sbs() const;
  SbsDemandView sbs(std::size_t n) const;

  /// Materializes a dense copy (used by the fault-injection observation
  /// path, which perturbs dense matrices, and the dense predictor API).
  SlotDemand to_dense() const;

 private:
  const SlotDemand* dense_ = nullptr;
  const SparseSlotDemand* sparse_ = nullptr;
};

/// Non-owning view over either trace representation.
class DemandTraceView {
 public:
  DemandTraceView() = default;
  /*implicit*/ DemandTraceView(const DemandTrace& dense) : dense_(&dense) {}
  /*implicit*/ DemandTraceView(const SparseDemandTrace& sparse)
      : sparse_(&sparse) {}

  bool valid() const { return dense_ != nullptr || sparse_ != nullptr; }
  bool is_sparse() const { return sparse_ != nullptr; }
  const DemandTrace* dense() const { return dense_; }
  const SparseDemandTrace* sparse() const { return sparse_; }

  std::size_t horizon() const;
  SlotDemandView slot(std::size_t t) const;

 private:
  const DemandTrace* dense_ = nullptr;
  const SparseDemandTrace* sparse_ = nullptr;
};

}  // namespace mdo::model
