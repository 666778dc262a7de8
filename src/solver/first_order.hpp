// First-order methods for smooth convex minimization over a simple set.
//
// Its one production caller is the cooperative neighbor overlay
// (core::apply_neighbor_overlay), which solves one P2-shaped QP per receiver
// and link: the objective is smooth and convex, the feasible set is
// box ∩ knapsack with an exact projection, so projected gradient / FISTA
// converge at the standard O(1/k) / O(1/k^2) rates with step 1/L. E6
// (bench_solvers) and the exact-P2 tests run it as a reference. The loop
// runs in caller-owned buffers: zero heap allocations per iteration in
// steady state.
#pragma once

#include <cstddef>
#include <functional>

#include "linalg/vec.hpp"
#include "solver/status.hpp"

namespace mdo::solver {

/// Evaluates the objective and writes its gradient; returns the value.
using ValueGradientFn =
    std::function<double(const linalg::Vec& x, linalg::Vec& grad)>;

/// Allocation-free projection: writes the projection of `in` into `out`
/// (pre-sized by the solver). `in` and `out` never alias.
using ProjectionIntoFn =
    std::function<void(const linalg::Vec& in, linalg::Vec& out)>;

struct FirstOrderOptions {
  std::size_t max_iterations = 500;
  /// Stop when the projected-gradient mapping norm (per sqrt(n)) drops
  /// below this threshold.
  double gradient_tolerance = 1e-7;
  /// Lipschitz constant of the gradient. Must be positive; callers compute
  /// it exactly for their P2-shaped QPs (L = 2(||u||^2 + ||v||^2)).
  double lipschitz = 1.0;
  /// Use Nesterov acceleration (FISTA) instead of plain projected gradient.
  bool accelerate = true;
};

/// Caller-owned iteration buffers of minimize_projected. Reusing one
/// workspace across solves of the same dimension makes the loop
/// allocation-free after the first call; dimension changes just re-size.
struct FirstOrderWorkspace {
  linalg::Vec x;  // in: starting point; out: the solution
  linalg::Vec y;          // extrapolation point
  linalg::Vec grad;       // gradient scratch
  linalg::Vec candidate;  // pre-projection gradient step
  linalg::Vec projected;  // post-projection iterate
};

/// Result of minimize_projected; the solution itself lives in
/// FirstOrderWorkspace::x.
struct FirstOrderSummary {
  double objective_value = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  SolveStatus status = SolveStatus::kIterationLimit;
};

/// Minimizes a smooth convex function over the set defined by `project`,
/// starting from ws.x (projected first if infeasible); ws.x holds the
/// solution on return. A non-finite start or iterate is reported via the
/// status rather than thrown: ws.x is then the last finite iterate (or the
/// zero vector at entry). No heap allocation once the workspace buffers
/// have reached the problem dimension.
FirstOrderSummary minimize_projected(const ValueGradientFn& objective,
                                     const ProjectionIntoFn& project,
                                     FirstOrderWorkspace& ws,
                                     const FirstOrderOptions& options);

}  // namespace mdo::solver
