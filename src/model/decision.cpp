#include "model/decision.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "util/error.hpp"

namespace mdo::model {

CacheState::CacheState(const NetworkConfig& config)
    : num_contents_(config.num_contents) {
  x_.resize(config.num_sbs());
  for (auto& bitmap : x_) bitmap.assign(num_contents_, 0);
}

bool CacheState::cached(std::size_t n, std::size_t k) const {
  MDO_REQUIRE(n < x_.size() && k < num_contents_, "cache index out of range");
  return x_[n][k] != 0;
}

void CacheState::set(std::size_t n, std::size_t k, bool value) {
  MDO_REQUIRE(n < x_.size() && k < num_contents_, "cache index out of range");
  x_[n][k] = value ? 1 : 0;
}

// The scans below read the bitmaps through hoisted pointers so the
// compiler can vectorize them; they are integer sums, so the order of
// accumulation cannot change a result.
std::size_t CacheState::count(std::size_t n) const {
  MDO_REQUIRE(n < x_.size(), "SBS index out of range");
  const std::uint8_t* bits = x_[n].data();
  std::size_t total = 0;
  for (std::size_t k = 0; k < num_contents_; ++k) total += bits[k];
  return total;
}

std::size_t CacheState::insertions_from(const CacheState& prev,
                                        std::size_t n) const {
  MDO_REQUIRE(n < x_.size() && n < prev.x_.size(), "SBS index out of range");
  MDO_REQUIRE(num_contents_ == prev.num_contents_,
              "cache states have different catalogue sizes");
  const std::uint8_t* now = x_[n].data();
  const std::uint8_t* before = prev.x_[n].data();
  std::size_t inserted = 0;
  for (std::size_t k = 0; k < num_contents_; ++k) {
    inserted += static_cast<std::size_t>((now[k] != 0) & (before[k] == 0));
  }
  return inserted;
}

std::vector<std::size_t> CacheState::cached_contents(std::size_t n) const {
  std::vector<std::size_t> list;
  list.reserve(count(n));  // checks n; one allocation, none when empty
  const std::uint8_t* bits = x_[n].data();
  for (std::size_t k = 0; k < num_contents_; ++k) {
    if (bits[k] != 0) list.push_back(k);
  }
  return list;
}

const std::vector<std::uint8_t>& CacheState::sbs_bitmap(std::size_t n) const {
  MDO_REQUIRE(n < x_.size(), "SBS index out of range");
  return x_[n];
}

namespace {

/// Requires `contents` ascending, distinct and each below `num_contents`.
void require_content_list(std::span<const std::size_t> contents,
                          std::size_t num_contents) {
  for (std::size_t i = 0; i < contents.size(); ++i) {
    MDO_REQUIRE(contents[i] < num_contents,
                "load row: content id outside the catalogue");
    MDO_REQUIRE(i == 0 || contents[i - 1] < contents[i],
                "load row: content ids must be ascending and distinct");
  }
}

}  // namespace

double LoadRow::at(std::size_t m, std::size_t k) const {
  MDO_REQUIRE(m < classes_ && k < num_contents_, "load index out of range");
  const std::span<const std::size_t> list = contents();
  const auto it = std::lower_bound(list.begin(), list.end(), k);
  if (it == list.end() || *it != k) return 0.0;
  return class_values(m)[static_cast<std::size_t>(it - list.begin())];
}

void LoadRow::assign(std::span<const std::size_t> contents,
                     std::span<const double> values) {
  MDO_REQUIRE(values.size() == classes_ * contents.size(),
              "load row: values count must be classes x contents");
  require_content_list(contents, num_contents_);
  contents_.assign(contents.begin(), contents.end());
  values_.assign(values.begin(), values.end());
}

void LoadRow::assign_nonzero(std::span<const std::size_t> contents,
                             std::span<const double> values) {
  MDO_REQUIRE(values.size() == classes_ * contents.size(),
              "load row: values count must be classes x contents");
  require_content_list(contents, num_contents_);
  const std::size_t count = contents.size();
  auto stored = [&](std::size_t i) {
    for (std::size_t m = 0; m < classes_; ++m) {
      if (std::bit_cast<std::uint64_t>(values[m * count + i]) != 0) {
        return true;
      }
    }
    return false;
  };
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) kept += stored(i) ? 1 : 0;
  contents_.resize(kept);
  values_.resize(classes_ * kept);
  std::size_t j = 0;
  for (std::size_t i = 0; i < count && j < kept; ++i) {
    if (!stored(i)) continue;
    contents_[j] = contents[i];
    for (std::size_t m = 0; m < classes_; ++m) {
      values_[m * kept + j] = values[m * count + i];
    }
    ++j;
  }
}

void LoadRow::widen(std::span<const std::size_t> sorted) {
  require_content_list(sorted, num_contents_);
  std::vector<std::size_t> merged;
  merged.reserve(size() + sorted.size());
  std::set_union(contents_.begin(), contents_.end(), sorted.begin(),
                 sorted.end(), std::back_inserter(merged));
  if (merged.size() == size()) return;
  std::vector<double> values(classes_ * merged.size(), 0.0);
  for (std::size_t m = 0; m < classes_; ++m) {
    const double* const old = class_values(m);
    double* const row = values.data() + m * merged.size();
    std::size_t pos = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      while (merged[pos] < contents_[i]) ++pos;
      row[pos] = old[i];
    }
  }
  contents_ = std::move(merged);
  values_ = std::move(values);
}

void LoadRow::set(std::size_t m, std::size_t k, double value) {
  MDO_REQUIRE(m < classes_ && k < num_contents_, "load index out of range");
  const std::size_t column[1] = {k};
  widen(column);
  const std::span<const std::size_t> list = contents();
  const auto it = std::lower_bound(list.begin(), list.end(), k);
  class_values(m)[static_cast<std::size_t>(it - list.begin())] = value;
}

linalg::Vec LoadRow::to_dense() const {
  linalg::Vec dense(classes_ * num_contents_, 0.0);
  for (std::size_t m = 0; m < classes_; ++m) {
    const double* const values = class_values(m);
    for (std::size_t i = 0; i < size(); ++i) {
      dense[m * num_contents_ + contents_[i]] = values[i];
    }
  }
  return dense;
}

LoadAllocation::LoadAllocation(const NetworkConfig& config)
    : num_contents_(config.num_contents) {
  rows_.reserve(config.num_sbs());
  for (const auto& s : config.sbs) {
    rows_.emplace_back(s.num_classes(), num_contents_);
  }
}

double LoadAllocation::at(std::size_t n, std::size_t m, std::size_t k) const {
  return row(n).at(m, k);
}

void LoadAllocation::set(std::size_t n, std::size_t m, std::size_t k,
                         double value) {
  row(n).set(m, k, value);
}

const LoadRow& LoadAllocation::row(std::size_t n) const {
  MDO_REQUIRE(n < rows_.size(), "SBS index out of range");
  return rows_[n];
}

LoadRow& LoadAllocation::row(std::size_t n) {
  MDO_REQUIRE(n < rows_.size(), "SBS index out of range");
  return rows_[n];
}

linalg::Vec LoadAllocation::sbs_data(std::size_t n) const {
  return row(n).to_dense();
}

void LoadAllocation::ensure_neighbor() {
  if (!neighbor_rows_.empty()) return;
  neighbor_rows_.reserve(rows_.size());
  for (const LoadRow& local : rows_) {
    neighbor_rows_.emplace_back(local.num_classes(), num_contents_);
  }
}

double LoadAllocation::neighbor_at(std::size_t n, std::size_t m,
                                   std::size_t k) const {
  if (neighbor_rows_.empty()) return 0.0;
  return neighbor_row(n).at(m, k);
}

const LoadRow& LoadAllocation::neighbor_row(std::size_t n) const {
  MDO_REQUIRE(!neighbor_rows_.empty() && n < neighbor_rows_.size(),
              "neighbor bank not allocated (ensure_neighbor)");
  return neighbor_rows_[n];
}

LoadRow& LoadAllocation::neighbor_row(std::size_t n) {
  MDO_REQUIRE(!neighbor_rows_.empty() && n < neighbor_rows_.size(),
              "neighbor bank not allocated (ensure_neighbor)");
  return neighbor_rows_[n];
}

linalg::Vec LoadAllocation::neighbor_data(std::size_t n) const {
  return neighbor_row(n).to_dense();
}

}  // namespace mdo::model
