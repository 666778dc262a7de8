#include "solver/first_order.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace mdo::solver {

namespace {

bool all_finite(const linalg::Vec& v) {
  for (const double value : v) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

}  // namespace

FirstOrderSummary minimize_projected(const ValueGradientFn& objective,
                                     const ProjectionIntoFn& project,
                                     FirstOrderWorkspace& ws,
                                     const FirstOrderOptions& options) {
  MDO_REQUIRE(options.lipschitz > 0.0, "lipschitz constant must be positive");
  MDO_REQUIRE(!ws.x.empty(), "empty starting point");

  const double step = 1.0 / options.lipschitz;
  const std::size_t size = ws.x.size();
  FirstOrderSummary summary;
  if (!all_finite(ws.x)) {
    // Non-finite entry point: report instead of iterating on garbage. The
    // zero vector is the conventional safe iterate for our box sets.
    ws.x.assign(size, 0.0);
    summary.status = SolveStatus::kNonFiniteInput;
    return summary;
  }
  ws.grad.resize(size);
  ws.candidate.resize(size);
  ws.projected.resize(size);
  project(ws.x, ws.projected);
  ws.x.swap(ws.projected);
  ws.y = ws.x;  // extrapolation point (FISTA)

  double t_momentum = 1.0;
  const double scale = std::sqrt(static_cast<double>(size));

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    objective(ws.y, ws.grad);
    linalg::scaled_sub(ws.y, step, ws.grad, ws.candidate);
    project(ws.candidate, ws.projected);

    // Projected-gradient mapping at y: (y - projected) / step. Serial
    // in-order reduction — NOT vectorized or lane-split: the sparse
    // workspace runs this over the active coordinates only, and skipping
    // the dense representation's exact-zero terms is bit-preserving only
    // under left-to-right accumulation (DESIGN.md §12).
    const double* yp = ws.y.data();
    const double* pp = ws.projected.data();
    double mapping_norm = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      const double d = (yp[i] - pp[i]) / step;
      mapping_norm += d * d;
    }
    mapping_norm = std::sqrt(mapping_norm) / scale;

    if (!std::isfinite(mapping_norm)) {
      // A NaN/Inf objective or gradient poisoned the iterate; keep the last
      // finite point and report rather than spinning to the budget.
      summary.status = SolveStatus::kNonFiniteInput;
      summary.objective_value = objective(ws.x, ws.grad);
      return summary;
    }

    if (options.accelerate) {
      const double t_next =
          0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
      const double beta = (t_momentum - 1.0) / t_next;
      double* yw = ws.y.data();
      const double* xp = ws.x.data();
      MDO_SIMD_LOOP
      for (std::size_t j = 0; j < size; ++j) {
        yw[j] = pp[j] + beta * (pp[j] - xp[j]);
      }
      t_momentum = t_next;
    } else {
      ws.y = ws.projected;
    }
    ws.x.swap(ws.projected);
    summary.iterations = iter + 1;
    if (mapping_norm <= options.gradient_tolerance) {
      summary.converged = true;
      break;
    }
  }

  summary.status = summary.converged ? SolveStatus::kConverged
                                     : SolveStatus::kIterationLimit;
  summary.objective_value = objective(ws.x, ws.grad);
  return summary;
}

}  // namespace mdo::solver
