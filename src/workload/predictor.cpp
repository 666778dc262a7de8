#include "workload/predictor.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdo::workload {

model::DemandTrace Predictor::predict_window(std::size_t tau,
                                             std::size_t length) const {
  model::DemandTrace out;
  predict_window_into(tau, length, out);
  return out;
}

void Predictor::predict_window_into(std::size_t tau, std::size_t length,
                                    model::DemandTrace& out) const {
  out.clear();
  for (std::size_t t = tau; t < tau + length && t < horizon(); ++t) {
    out.push_back(predict(tau, t));
  }
}

model::SparseSlotDemand Predictor::predict_sparse(std::size_t tau,
                                                  std::size_t t) const {
  const model::SlotDemand dense = predict(tau, t);
  model::SparseSlotDemand out;
  out.reserve(dense.size());
  for (const model::SbsDemand& demand : dense) {
    out.push_back(model::SparseSbsDemand::from_dense(demand));
  }
  return out;
}

model::SparseDemandTrace Predictor::predict_window_sparse(
    std::size_t tau, std::size_t length) const {
  model::SparseDemandTrace out;
  predict_window_sparse_into(tau, length, out);
  return out;
}

void Predictor::predict_window_sparse_into(
    std::size_t tau, std::size_t length, model::SparseDemandTrace& out) const {
  out.clear();
  for (std::size_t t = tau; t < tau + length && t < horizon(); ++t) {
    out.push_back(predict_sparse(tau, t));
  }
}

PerfectPredictor::PerfectPredictor(const model::DemandTrace& truth)
    : truth_(&truth) {}

PerfectPredictor::PerfectPredictor(const model::SparseDemandTrace& truth)
    : sparse_truth_(&truth) {}

model::SlotDemand PerfectPredictor::predict(std::size_t tau,
                                            std::size_t t) const {
  MDO_REQUIRE(tau <= t, "cannot predict the past");
  if (truth_ != nullptr) return truth_->slot(t);
  return model::SlotDemandView(sparse_truth_->slot(t)).to_dense();
}

model::SparseSlotDemand PerfectPredictor::predict_sparse(std::size_t tau,
                                                         std::size_t t) const {
  MDO_REQUIRE(tau <= t, "cannot predict the past");
  if (sparse_truth_ != nullptr) return sparse_truth_->slot(t);
  return Predictor::predict_sparse(tau, t);
}

std::size_t PerfectPredictor::horizon() const {
  return truth_ != nullptr ? truth_->horizon() : sparse_truth_->horizon();
}

NoisyPredictor::NoisyPredictor(const model::DemandTrace& truth, double eta,
                               std::uint64_t seed, double lead_growth)
    : truth_(&truth), eta_(eta), lead_growth_(lead_growth), seed_(seed) {
  MDO_REQUIRE(eta >= 0.0 && eta < 1.0, "eta must be in [0, 1)");
  MDO_REQUIRE(lead_growth >= 0.0, "lead_growth must be non-negative");
}

NoisyPredictor::NoisyPredictor(const model::SparseDemandTrace& truth,
                               double eta, std::uint64_t seed,
                               double lead_growth)
    : sparse_truth_(&truth), eta_(eta), lead_growth_(lead_growth),
      seed_(seed) {
  MDO_REQUIRE(eta >= 0.0 && eta < 1.0, "eta must be in [0, 1)");
  MDO_REQUIRE(lead_growth >= 0.0, "lead_growth must be non-negative");
}

std::size_t NoisyPredictor::horizon() const {
  return truth_ != nullptr ? truth_->horizon() : sparse_truth_->horizon();
}

namespace {

/// The noise of one forecast (tau, t). The paper perturbs the *popularity*
/// p(i) (eq. 49): one factor per content, shared by every MU class at the
/// SBS (per-entry noise would average out across classes and underestimate
/// the damage). The factor composes a persistent per-content misestimation
/// (the forecaster's wrong popularity model: the bias stream, seeded from
/// the seed alone) with query-time jitter (fresher forecasts differ from
/// staler ones: the jitter stream, seeded from seed, tau and t), clamped
/// into the paper's [(1 - eta), (1 + eta)] band. The factor of (SBS n,
/// content k) is position n * K + k of both streams, so a caller steps
/// both over every position and converts only the ones it scales.
class NoiseStreams {
 public:
  NoiseStreams(std::uint64_t seed, double eta_eff, std::size_t tau,
               std::size_t t)
      : bias_(bias_seed(seed)),
        jitter_(jitter_seed(seed, tau, t)),
        lo_(1.0 - eta_eff),
        hi_(1.0 + eta_eff),
        jitter_lo_(1.0 - 0.5 * eta_eff),
        jitter_hi_(1.0 + 0.5 * eta_eff) {}

  /// Steps both streams past `count` positions whose factors are unused.
  void skip(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      (void)bias_();
      (void)jitter_();
    }
  }

  /// Factor at the current position; steps both streams past it.
  double next() {
    const double bias = bias_.uniform(lo_, hi_);
    const double jitter = jitter_.uniform(jitter_lo_, jitter_hi_);
    return std::clamp(bias * jitter, lo_, hi_);
  }

 private:
  static std::uint64_t bias_seed(std::uint64_t seed) {
    std::uint64_t mix = seed;
    (void)splitmix64(mix);
    return splitmix64(mix);
  }

  static std::uint64_t jitter_seed(std::uint64_t seed, std::size_t tau,
                                   std::size_t t) {
    std::uint64_t mix = seed;
    (void)splitmix64(mix);
    mix ^= 0x9e3779b97f4a7c15ULL * (tau + 1);
    (void)splitmix64(mix);
    mix ^= 0xc2b2ae3d27d4eb4fULL * (t + 1);
    return splitmix64(mix);
  }

  Rng bias_;
  Rng jitter_;
  double lo_, hi_, jitter_lo_, jitter_hi_;
};

/// eta widened by the lead t - tau, capped at 0.95.
double effective_eta(double eta, double lead_growth, std::size_t tau,
                     std::size_t t) {
  const double lead = static_cast<double>(t - tau);
  return std::min(0.95, eta * (1.0 + lead_growth * lead));
}

}  // namespace

model::SlotDemand NoisyPredictor::predict(std::size_t tau,
                                          std::size_t t) const {
  MDO_REQUIRE(tau <= t, "cannot predict the past");
  model::SlotDemand out =
      truth_ != nullptr ? truth_->slot(t)
                        : model::SlotDemandView(sparse_truth_->slot(t))
                              .to_dense();
  if (eta_ == 0.0) return out;
  const std::size_t contents = out.empty() ? 0 : out.front().num_contents();
  NoiseStreams noise(seed_, effective_eta(eta_, lead_growth_, tau, t), tau,
                     t);
  std::vector<double> factor(contents);
  for (model::SbsDemand& demand : out) {
    for (double& f : factor) f = noise.next();
    auto& flat = demand.data();
    for (std::size_t j = 0; j < flat.size(); ++j) {
      flat[j] *= factor[j % contents];
    }
  }
  return out;
}

model::SparseSlotDemand NoisyPredictor::predict_sparse(std::size_t tau,
                                                       std::size_t t) const {
  MDO_REQUIRE(tau <= t, "cannot predict the past");
  model::SparseSlotDemand out;
  if (sparse_truth_ != nullptr) {
    out = sparse_truth_->slot(t);
  } else {
    const model::SlotDemand& dense = truth_->slot(t);
    out.reserve(dense.size());
    for (const model::SbsDemand& demand : dense) {
      out.push_back(model::SparseSbsDemand::from_dense(demand));
    }
  }
  if (eta_ == 0.0) return out;
  const std::size_t contents = out.empty() ? 0 : out.front().num_contents();
  // Same stream positions as predict(), converted only on the support:
  // scaling only the stored entries matches the dense loop because its
  // skipped terms are exact zeros (0 * f = 0).
  NoiseStreams noise(seed_, effective_eta(eta_, lead_growth_, tau, t), tau,
                     t);
  std::vector<double> factor;
  for (model::SparseSbsDemand& demand : out) {
    const std::vector<std::size_t>& support = demand.support();
    factor.resize(support.size());
    std::size_t k = 0;
    for (std::size_t s = 0; s < support.size(); ++s) {
      noise.skip(support[s] - k);
      factor[s] = noise.next();
      k = support[s] + 1;
    }
    noise.skip(contents - k);
    demand.scale_by_content(factor);
  }
  return out;
}

}  // namespace mdo::workload
