// Demand prediction with bounded multiplicative noise (Sec. V-B).
//
// Online algorithms act on short-term forecasts: at decision time tau the
// controller sees lambda_hat(t | tau) for t in [tau, tau + w). The paper
// perturbs each content's popularity within [(1 - eta), (1 + eta)]
// (eq. 49). NoisyPredictor implements that with one factor per (SBS n,
// content k), shared by every MU class of the SBS: the product of a bias
// draw (a stream seeded from the seed alone, the forecaster's persistent
// popularity error) and a jitter draw (a stream seeded from seed, tau and
// t), clamped into the band. The factor of (n, k) is position n * K + k of
// both streams, so every controller in a comparison sees exactly the same
// forecasts; those stream positions are part of the forecast's bits, and a
// change to them is a rebaseline. An optional lead-time growth factor makes
// far-ahead predictions noisier, matching the paper's remark that "the
// prediction quality would be worse if predicted further into the future".
//
// Both predictors can be backed by a dense OR a sparse truth trace and
// serve both representations: predict_sparse() steps the streams over all
// N * K positions but converts and applies a factor only at each SBS's
// stored support (the skipped dense terms are exact zeros scaled by a
// positive factor), so for an untruncated trace the sparse forecast
// densifies to the dense forecast bit for bit.
#pragma once

#include <cstdint>
#include <memory>

#include "model/demand.hpp"
#include "model/sparse_demand.hpp"
#include "util/serialize.hpp"

namespace mdo::workload {

/// Interface: forecast of the demand of absolute slot t as seen at tau.
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Predicted demand for slot t (tau <= t < horizon), queried at time tau.
  virtual model::SlotDemand predict(std::size_t tau, std::size_t t) const = 0;

  /// Sparse forecast for slot t. The default densifies predict() and drops
  /// exact zeros — correct for any predictor; the concrete predictors
  /// override it to stay sparse end to end when backed by a sparse trace.
  virtual model::SparseSlotDemand predict_sparse(std::size_t tau,
                                                 std::size_t t) const;

  /// Total number of slots in the underlying horizon.
  virtual std::size_t horizon() const = 0;

  /// Checkpoint hooks (see runtime/checkpoint.hpp). The predictors here are
  /// pure functions of (trace, parameters, query time) — stateless or with
  /// a derivable incremental cache — so the defaults save nothing and a
  /// resumed run recomputes bit-identically. Stateful forecasters
  /// (EmaPredictor) override these to snapshot their incremental state and
  /// skip the prefix re-scan on resume. Const because simulation drives
  /// predictors through const references; incremental caches are mutable.
  virtual void save_state(util::BinaryWriter& w) const { (void)w; }
  virtual void restore_state(util::BinaryReader& r) const { (void)r; }

  /// Forecast window [tau, tau + length) clipped at the horizon.
  model::DemandTrace predict_window(std::size_t tau, std::size_t length) const;

  /// Sparse counterpart of predict_window.
  model::SparseDemandTrace predict_window_sparse(std::size_t tau,
                                                 std::size_t length) const;

  /// Buffer-reusing variants: clear `out` and refill it in place, so a
  /// controller can keep ONE window trace per representation across
  /// decisions instead of materializing (and freeing) a fresh trace each
  /// slot. Contents are identical to the returning overloads.
  void predict_window_into(std::size_t tau, std::size_t length,
                           model::DemandTrace& out) const;
  void predict_window_sparse_into(std::size_t tau, std::size_t length,
                                  model::SparseDemandTrace& out) const;
};

/// Oracle: returns the true demand (used by the offline optimum and LRFU,
/// whose inputs the paper declares accurate).
class PerfectPredictor final : public Predictor {
 public:
  /// The trace must outlive the predictor.
  explicit PerfectPredictor(const model::DemandTrace& truth);
  explicit PerfectPredictor(const model::SparseDemandTrace& truth);

  model::SlotDemand predict(std::size_t tau, std::size_t t) const override;
  model::SparseSlotDemand predict_sparse(std::size_t tau,
                                         std::size_t t) const override;
  std::size_t horizon() const override;

 private:
  const model::DemandTrace* truth_ = nullptr;
  const model::SparseDemandTrace* sparse_truth_ = nullptr;
};

/// Bounded multiplicative noise around the truth.
class NoisyPredictor final : public Predictor {
 public:
  /// eta in [0, 1): base perturbation half-width. lead_growth >= 0 scales
  /// eta by (1 + lead_growth * (t - tau)), capped at 0.95.
  NoisyPredictor(const model::DemandTrace& truth, double eta,
                 std::uint64_t seed, double lead_growth = 0.0);
  NoisyPredictor(const model::SparseDemandTrace& truth, double eta,
                 std::uint64_t seed, double lead_growth = 0.0);

  model::SlotDemand predict(std::size_t tau, std::size_t t) const override;
  model::SparseSlotDemand predict_sparse(std::size_t tau,
                                         std::size_t t) const override;
  std::size_t horizon() const override;

  double eta() const { return eta_; }

 private:
  const model::DemandTrace* truth_ = nullptr;
  const model::SparseDemandTrace* sparse_truth_ = nullptr;
  double eta_;
  double lead_growth_;
  std::uint64_t seed_;
};

}  // namespace mdo::workload
