// Subgradient-method utilities for the dual ascent in Algorithm 1.
//
// The paper updates the multipliers with a diminishing step size (eq. 16)
// and projects onto the non-negative orthant (eq. 15). We use
// delta_l = alpha / (1 + l),
// a harmonic schedule that satisfies the diminishing-step conditions
// (sum delta_l = inf, delta_l -> 0) with alpha scaling the step magnitude.
// The projected update itself is linalg::dual_ascent_project, and the one
// loop that uses both is core::run_dual_ascent.
#pragma once

#include <cstddef>

namespace mdo::solver {

/// Diminishing step-size schedule delta_l = alpha / (1 + l), eq. (16).
class DiminishingStep {
 public:
  explicit DiminishingStep(double alpha);

  /// Step size for (0-based) iteration l.
  double operator()(std::size_t l) const;

 private:
  double alpha_;
};

}  // namespace mdo::solver
