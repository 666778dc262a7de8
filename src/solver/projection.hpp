// Euclidean projections used by the first-order solvers.
//
// The load-balancing subproblem P2 is minimized over the set
//   { y : lo <= y <= hi,  a . y <= b }        (box ∩ one knapsack row)
// which admits an exact projection: clamp(point - theta * a) for the unique
// multiplier theta >= 0 making the knapsack tight (or theta = 0 when the
// clamped point is already feasible). theta is found by bisection — the
// constraint value is continuous and non-increasing in theta.
#pragma once

#include "linalg/vec.hpp"

namespace mdo::solver {

/// Parameters of the box-plus-knapsack feasible set.
struct BoxKnapsackSet {
  linalg::Vec lo;       // finite lower bounds
  linalg::Vec hi;       // finite upper bounds (hi >= lo)
  linalg::Vec weights;  // non-negative knapsack weights `a`
  double budget = 0.0;  // knapsack rhs `b`

  /// Throws InvalidArgument when shapes/signs are inconsistent or when the
  /// set is empty (a . lo > budget).
  void validate() const;

  /// True when a.y <= budget + tol and lo - tol <= y <= hi + tol.
  bool contains(const linalg::Vec& y, double tol = 1e-7) const;
};

/// Exact Euclidean projection onto a BoxKnapsackSet: writes the projection
/// of `point` into `out` (pre-sized to point.size()) without allocating.
/// `tol` controls the bisection stopping threshold on the multiplier.
/// Precondition: `set` is consistent — callers validate() it once when
/// they (re)build it, not on every projection.
void project_box_knapsack_into(const linalg::Vec& point,
                               const BoxKnapsackSet& set, linalg::Vec& out,
                               double tol = 1e-10);

}  // namespace mdo::solver
