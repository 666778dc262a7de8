#include "model/sparse_demand.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/error.hpp"

namespace mdo::model {

SparseSbsDemand::SparseSbsDemand(std::size_t num_classes,
                                 std::size_t num_contents)
    : num_classes_(num_classes), num_contents_(num_contents) {
  row_ptr_.reserve(num_classes_ + 1);
  row_ptr_.push_back(0);
}

void SparseSbsDemand::append(std::size_t m, std::size_t k, double rate) {
  MDO_REQUIRE(!finalized_, "SparseSbsDemand: append after finalize");
  MDO_REQUIRE(m < num_classes_, "SparseSbsDemand: class out of range");
  MDO_REQUIRE(k < num_contents_, "SparseSbsDemand: content out of range");
  const std::size_t open_row = row_ptr_.size() - 1;
  MDO_REQUIRE(m >= open_row,
              "SparseSbsDemand: entries must arrive in ascending class order");
  while (row_ptr_.size() - 1 < m) row_ptr_.push_back(entries_.size());
  if (entries_.size() > row_ptr_.back()) {
    MDO_REQUIRE(k > entries_.back().content,
                "SparseSbsDemand: entries must arrive in ascending content "
                "order within a class");
  }
  entries_.push_back(DemandEntry{k, rate});
}

void SparseSbsDemand::finalize() {
  MDO_REQUIRE(!finalized_, "SparseSbsDemand: finalize called twice");
  if (row_ptr_.empty()) row_ptr_.push_back(0);
  while (row_ptr_.size() - 1 < num_classes_) row_ptr_.push_back(entries_.size());
  support_.clear();
  support_.reserve(entries_.size());
  for (const DemandEntry& entry : entries_) support_.push_back(entry.content);
  std::sort(support_.begin(), support_.end());
  support_.erase(std::unique(support_.begin(), support_.end()),
                 support_.end());
  accumulate_support_totals(nullptr);
  finalized_ = true;
}

void SparseSbsDemand::accumulate_support_totals(const double* factor) {
  // Column totals accumulate per content in ascending class order, matching
  // SbsDemand::content_total's loop exactly. Each row is sorted by content
  // and its contents are a subset of the sorted support, so one forward
  // walk per row finds every entry's support index.
  support_totals_.assign(support_.size(), 0.0);
  for (std::size_t m = 0; m < num_classes_; ++m) {
    std::size_t s = 0;
    DemandEntry* const end = entries_.data() + row_ptr_[m + 1];
    for (DemandEntry* it = entries_.data() + row_ptr_[m]; it != end; ++it) {
      while (support_[s] < it->content) ++s;
      if (factor != nullptr) it->rate *= factor[s];
      support_totals_[s] += it->rate;
    }
  }
}

double SparseSbsDemand::at(std::size_t m, std::size_t k) const {
  MDO_REQUIRE(k < num_contents_, "SparseSbsDemand: content out of range");
  const DemandEntry* begin = row_begin(m);
  const DemandEntry* end = row_end(m);
  const DemandEntry* it = std::lower_bound(
      begin, end, k,
      [](const DemandEntry& e, std::size_t key) { return e.content < key; });
  return (it != end && it->content == k) ? it->rate : 0.0;
}

double SparseSbsDemand::total() const {
  double sum = 0.0;
  for (const DemandEntry& entry : entries_) sum += entry.rate;
  return sum;
}

double SparseSbsDemand::content_total(std::size_t k) const {
  MDO_REQUIRE(finalized_, "SparseSbsDemand: query before finalize");
  MDO_REQUIRE(k < num_contents_, "SparseSbsDemand: content out of range");
  const auto it = std::lower_bound(support_.begin(), support_.end(), k);
  if (it == support_.end() || *it != k) return 0.0;
  return support_totals_[static_cast<std::size_t>(it - support_.begin())];
}

const std::vector<std::size_t>& SparseSbsDemand::support() const {
  MDO_REQUIRE(finalized_, "SparseSbsDemand: query before finalize");
  return support_;
}

void SparseSbsDemand::scale_by_content(
    const std::vector<double>& support_factor) {
  MDO_REQUIRE(finalized_, "SparseSbsDemand: scale before finalize");
  MDO_REQUIRE(support_factor.size() == support_.size(),
              "SparseSbsDemand: factor size mismatch");
  accumulate_support_totals(support_factor.data());
}

SparseSbsDemand SparseSbsDemand::from_dense(const SbsDemand& dense,
                                            double min_rate) {
  MDO_REQUIRE(std::isfinite(min_rate) && min_rate >= 0.0,
              "from_dense: min_rate must be finite and nonnegative");
  SparseSbsDemand sparse(dense.num_classes(), dense.num_contents());
  for (std::size_t m = 0; m < dense.num_classes(); ++m) {
    for (std::size_t k = 0; k < dense.num_contents(); ++k) {
      const double rate = dense.at(m, k);
      // Negative and NaN rates are kept, so validate() and the solver's
      // finite/non-negative check still see them.
      const bool truncated = rate >= 0.0 && rate < min_rate;
      if (rate != 0.0 && !truncated) sparse.append(m, k, rate);
    }
  }
  sparse.finalize();
  return sparse;
}

SbsDemand SparseSbsDemand::to_dense() const {
  SbsDemand dense(num_classes_, num_contents_);
  for (std::size_t m = 0; m < num_classes_; ++m) {
    const DemandEntry* const end = row_end(m);
    for (const DemandEntry* it = row_begin(m); it != end; ++it) {
      dense.at(m, it->content) = it->rate;
    }
  }
  return dense;
}

SparseSlotDemand& SparseDemandTrace::slot(std::size_t t) {
  MDO_REQUIRE(t < slots_.size(), "SparseDemandTrace: slot out of range");
  return slots_[t];
}

const SparseSlotDemand& SparseDemandTrace::slot(std::size_t t) const {
  MDO_REQUIRE(t < slots_.size(), "SparseDemandTrace: slot out of range");
  return slots_[t];
}

void SparseDemandTrace::push_back(SparseSlotDemand slot) {
  slots_.push_back(std::move(slot));
}

SparseDemandTrace SparseDemandTrace::window(std::size_t begin,
                                            std::size_t length) const {
  SparseDemandTrace out;
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t t = begin + i;
    if (t >= slots_.size()) break;
    out.push_back(slots_[t]);
  }
  return out;
}

void SparseDemandTrace::validate(const NetworkConfig& config) const {
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    const SparseSlotDemand& slot = slots_[t];
    MDO_REQUIRE(slot.size() == config.num_sbs(),
                "SparseDemandTrace: slot SBS count mismatch");
    for (std::size_t n = 0; n < slot.size(); ++n) {
      const SparseSbsDemand& demand = slot[n];
      MDO_REQUIRE(demand.finalized(),
                  "SparseDemandTrace: demand block not finalized");
      MDO_REQUIRE(demand.num_classes() == config.sbs[n].num_classes(),
                  "SparseDemandTrace: class count mismatch");
      MDO_REQUIRE(demand.num_contents() == config.num_contents,
                  "SparseDemandTrace: content count mismatch");
      for (std::size_t m = 0; m < demand.num_classes(); ++m) {
        const DemandEntry* const end = demand.row_end(m);
        for (const DemandEntry* it = demand.row_begin(m); it != end; ++it) {
          MDO_REQUIRE(std::isfinite(it->rate) && it->rate >= 0.0,
                      "SparseDemandTrace: rates must be finite and >= 0");
        }
      }
    }
  }
}

SparseDemandTrace SparseDemandTrace::from_dense(const DemandTrace& trace,
                                                double min_rate) {
  SparseDemandTrace out;
  for (std::size_t t = 0; t < trace.horizon(); ++t) {
    SparseSlotDemand slot;
    slot.reserve(trace.slot(t).size());
    for (const SbsDemand& demand : trace.slot(t)) {
      slot.push_back(SparseSbsDemand::from_dense(demand, min_rate));
    }
    out.push_back(std::move(slot));
  }
  return out;
}

DemandTrace SparseDemandTrace::to_dense() const {
  DemandTrace out;
  for (const SparseSlotDemand& slot : slots_) {
    SlotDemand dense;
    dense.reserve(slot.size());
    for (const SparseSbsDemand& demand : slot) dense.push_back(demand.to_dense());
    out.push_back(std::move(dense));
  }
  return out;
}

SparseSlotDemand make_zero_sparse_slot_demand(const NetworkConfig& config) {
  SparseSlotDemand slot;
  slot.reserve(config.num_sbs());
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    SparseSbsDemand demand(config.sbs[n].num_classes(), config.num_contents);
    demand.finalize();
    slot.push_back(std::move(demand));
  }
  return slot;
}

std::vector<std::size_t> active_contents(
    const SparseSbsDemand& demand, const std::vector<std::size_t>& cached) {
  const std::vector<std::size_t>& sup = demand.support();
  std::vector<std::size_t> active;
  active.reserve(sup.size() + cached.size());
  std::set_union(sup.begin(), sup.end(), cached.begin(), cached.end(),
                 std::back_inserter(active));
  return active;
}

const SparseSlotDemand& sparse_slot(SlotDemandView demand,
                                    SparseSlotDemand& storage) {
  MDO_REQUIRE(demand.valid(), "sparse_slot: empty demand view");
  if (demand.is_sparse()) return *demand.sparse();
  storage.clear();
  storage.reserve(demand.dense()->size());
  for (const SbsDemand& sbs : *demand.dense()) {
    storage.push_back(SparseSbsDemand::from_dense(sbs));
  }
  return storage;
}

const SparseDemandTrace& sparse_trace(DemandTraceView trace,
                                      SparseDemandTrace& storage) {
  MDO_REQUIRE(trace.valid(), "sparse_trace: no demand trace");
  if (trace.is_sparse()) return *trace.sparse();
  storage = SparseDemandTrace::from_dense(*trace.dense());
  return storage;
}

namespace {

/// sum_{m,k} bank[m * K + k] * lambda[m, k] over the stored entries of the
/// SBS's demand (a dense view is converted first).
double weighted_load(const linalg::Vec& bank, std::size_t classes,
                     SbsDemandView view) {
  MDO_REQUIRE(view.valid(), "load: empty demand view");
  SparseSbsDemand storage;
  if (!view.is_sparse()) storage = SparseSbsDemand::from_dense(*view.dense());
  const SparseSbsDemand& demand = view.is_sparse() ? *view.sparse() : storage;
  MDO_REQUIRE(demand.num_classes() == classes &&
                  demand.num_classes() * demand.num_contents() == bank.size(),
              "demand shape mismatch");
  const double* y = bank.data();
  const std::size_t contents = demand.num_contents();
  double total = 0.0;
  for (std::size_t m = 0; m < classes; ++m) {
    const DemandEntry* const end = demand.row_end(m);
    for (const DemandEntry* it = demand.row_begin(m); it != end; ++it) {
      total += y[m * contents + it->content] * it->rate;
    }
  }
  return total;
}

}  // namespace

double sbs_load(const LoadAllocation& load, std::size_t n,
                SbsDemandView demand) {
  return weighted_load(load.sbs_data(n), load.num_classes(n), demand);
}

double neighbor_load(const LoadAllocation& load, std::size_t n,
                     SbsDemandView demand) {
  if (!load.has_neighbor()) return 0.0;
  return weighted_load(load.neighbor_data(n), load.num_classes(n), demand);
}

std::size_t SlotDemandView::num_sbs() const {
  MDO_REQUIRE(valid(), "SlotDemandView: empty view");
  return is_sparse() ? sparse_->size() : dense_->size();
}

SbsDemandView SlotDemandView::sbs(std::size_t n) const {
  MDO_REQUIRE(valid(), "SlotDemandView: empty view");
  if (is_sparse()) {
    MDO_REQUIRE(n < sparse_->size(), "SlotDemandView: SBS out of range");
    return SbsDemandView((*sparse_)[n]);
  }
  MDO_REQUIRE(n < dense_->size(), "SlotDemandView: SBS out of range");
  return SbsDemandView((*dense_)[n]);
}

SlotDemand SlotDemandView::to_dense() const {
  MDO_REQUIRE(valid(), "SlotDemandView: empty view");
  if (!is_sparse()) return *dense_;
  SlotDemand out;
  out.reserve(sparse_->size());
  for (const SparseSbsDemand& demand : *sparse_) out.push_back(demand.to_dense());
  return out;
}

std::size_t DemandTraceView::horizon() const {
  MDO_REQUIRE(valid(), "DemandTraceView: empty view");
  return is_sparse() ? sparse_->horizon() : dense_->horizon();
}

SlotDemandView DemandTraceView::slot(std::size_t t) const {
  MDO_REQUIRE(valid(), "DemandTraceView: empty view");
  if (is_sparse()) return SlotDemandView(sparse_->slot(t));
  return SlotDemandView(dense_->slot(t));
}

}  // namespace mdo::model
