#include "solver/subgradient.hpp"

#include "util/error.hpp"

namespace mdo::solver {

DiminishingStep::DiminishingStep(double alpha) : alpha_(alpha) {
  MDO_REQUIRE(alpha > 0.0, "step-size alpha must be positive");
}

double DiminishingStep::operator()(std::size_t l) const {
  // delta_l = alpha / (1 + l): square-summable-but-not-summable, as Alg. 1's
  // convergence argument requires, with alpha scaling the step magnitude.
  // (The former 1 / (1 + alpha l) made delta_0 always 1 and reduced alpha to
  // a decay knob that never scaled the step.)
  return alpha_ / (1.0 + static_cast<double>(l));
}

}  // namespace mdo::solver
