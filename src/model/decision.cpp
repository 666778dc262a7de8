#include "model/decision.hpp"

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

LoadAllocation::LoadAllocation(const NetworkConfig& config)
    : num_contents_(config.num_contents) {
  shape_classes_.reserve(config.num_sbs());
  y_.reserve(config.num_sbs());
  for (const auto& s : config.sbs) {
    shape_classes_.push_back(s.num_classes());
    y_.emplace_back(s.num_classes() * num_contents_, 0.0);
  }
}

std::size_t LoadAllocation::num_classes(std::size_t n) const {
  MDO_REQUIRE(n < shape_classes_.size(), "SBS index out of range");
  return shape_classes_[n];
}

double LoadAllocation::at(std::size_t n, std::size_t m, std::size_t k) const {
  MDO_REQUIRE(n < y_.size() && m < shape_classes_[n] && k < num_contents_,
              "load index out of range");
  return y_[n][m * num_contents_ + k];
}

double& LoadAllocation::at(std::size_t n, std::size_t m, std::size_t k) {
  MDO_REQUIRE(n < y_.size() && m < shape_classes_[n] && k < num_contents_,
              "load index out of range");
  return y_[n][m * num_contents_ + k];
}

const linalg::Vec& LoadAllocation::sbs_data(std::size_t n) const {
  MDO_REQUIRE(n < y_.size(), "SBS index out of range");
  return y_[n];
}

linalg::Vec& LoadAllocation::sbs_data(std::size_t n) {
  MDO_REQUIRE(n < y_.size(), "SBS index out of range");
  return y_[n];
}

void LoadAllocation::ensure_neighbor() {
  if (!yn_.empty()) return;
  yn_.reserve(y_.size());
  for (const auto& row : y_) yn_.emplace_back(row.size(), 0.0);
}

double LoadAllocation::neighbor_at(std::size_t n, std::size_t m,
                                   std::size_t k) const {
  if (yn_.empty()) return 0.0;
  MDO_REQUIRE(n < yn_.size() && m < shape_classes_[n] && k < num_contents_,
              "neighbor load index out of range");
  return yn_[n][m * num_contents_ + k];
}

double& LoadAllocation::neighbor_at(std::size_t n, std::size_t m,
                                    std::size_t k) {
  MDO_REQUIRE(!yn_.empty(), "neighbor bank not allocated (ensure_neighbor)");
  MDO_REQUIRE(n < yn_.size() && m < shape_classes_[n] && k < num_contents_,
              "neighbor load index out of range");
  return yn_[n][m * num_contents_ + k];
}

const linalg::Vec& LoadAllocation::neighbor_data(std::size_t n) const {
  MDO_REQUIRE(!yn_.empty() && n < yn_.size(),
              "neighbor bank not allocated (ensure_neighbor)");
  return yn_[n];
}

linalg::Vec& LoadAllocation::neighbor_data(std::size_t n) {
  MDO_REQUIRE(!yn_.empty() && n < yn_.size(),
              "neighbor bank not allocated (ensure_neighbor)");
  return yn_[n];
}

}  // namespace mdo::model
