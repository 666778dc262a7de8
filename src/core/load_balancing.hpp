// The load-balancing subproblem P2 (eq. (19), Sec. III).
//
// P2 separates across SBSs and slots. For one (SBS n, slot t) the problem is
//
//   min_y  ( a - u . y )^2  +  ( v . y )^2  +  c . y
//   s.t.   lambda . y <= B_n,   0 <= y <= ub,
//
// where, flattening (m, k) to a single index j:
//   lambda_j = demand rate,           u_j = omega_m * lambda_j,
//   a = sum_j u_j (BS-weighted traffic at y = 0),
//   v_j = omega_sbs_m * lambda_j,     c_j = Lagrange multiplier mu (or 0).
// The first square is the SBS's share of f_t (eq. 5), the second of g_t
// (eq. 6). ub is all-ones inside the dual iteration and equals the caching
// vector x during feasibility repair (folding constraint (3) into the box).
//
// Hot-path memory model: the dual loop of Algorithm 1 solves one P2 per
// (slot, SBS) per dual iteration. P2Workspace keeps everything that does
// NOT change between dual iterations — the coefficient vectors lambda/u/v,
// the scalar a, and the solver's coordinate classification, sort/group
// scratch and endpoint buffers — and exposes cheap in-place refreshes for
// the parts that DO change: the linear term c (the multipliers) and the box
// upper bound ub (the repair cache vector). A solve reads no earlier
// solution. It does keep its last sorted threshold order: mu moves one
// diminishing step between dual iterations, so the next call repairs that
// order with an insertion pass (falling back to a full sort past a fixed
// move budget) instead of sorting from scratch. The order is only a hint —
// the (threshold, j) pairs are totally ordered, so the repaired order
// equals a cold sort element for element. A solve heap-allocates nothing
// once its buffers reach the instance size.
//
// The solver is exact, built from three nested steps.
//
// Stationary point (v = 0, fixed bandwidth multiplier theta): minimize
//   (a - u.y)^2 + (c + theta lambda).y   over the box.
// Coordinates sort by the threshold (c_j + theta lambda_j) / u_j, and the
// scalar s = u.y solves a piecewise-linear fixed point exactly; a group of
// tied thresholds at the root takes one common fractional fill.
//
// theta step (the bandwidth row). When the theta = 0 point overloads the
// row, theta is bisected: the load lambda.y(theta) is non-increasing in
// theta. The load can jump at theta* (coordinates enter or leave there),
// so the bracket's two end points y(theta_lo), over the budget, and
// y(theta_hi), within it, are blended as alpha y(theta_lo) + (1 - alpha)
// y(theta_hi) with alpha chosen so that lambda.y = B. This is optimal: the
// minimizers of the Lagrangian at theta* form a convex set, both end points
// lie in it up to the bisection tolerance, and the blend makes the row
// tight, which is complementary slackness.
//
// r step (some omega_sbs > 0). For a fixed r, P2_r replaces (v.y)^2 by the
// linear term 2 r v.y:
//   min (a - u.y)^2 + (c + 2 r v).y   over box and bandwidth,
// which the theta step solves. At a fixed point r = v.y*(r) the gradients
// of P2 and P2_r agree, so y*(r) satisfies the KKT conditions of P2 and is
// optimal. h(r) = v.y*(r) is non-increasing: with F(y) = (a - u.y)^2 + c.y
// and r1 < r2 with solutions y1, y2, adding the two optimality inequalities
//   F(y1) + 2 r1 v.y1 <= F(y2) + 2 r1 v.y2,
//   F(y2) + 2 r2 v.y2 <= F(y1) + 2 r2 v.y1
// gives (r2 - r1)(v.y1 - v.y2) >= 0. So r - h(r) is increasing, changes
// sign between 0 and h(0), and is bisected there. At the end the bracket's
// solutions y(r_lo) and y(r_hi) are blended so that v.y equals the blended
// r, for the same reason as the theta blend (P2_r's optimal set is convex
// in y for each r). The r step runs only when some omega_sbs is nonzero;
// otherwise the solve is the theta step on c itself. With every omega_sbs
// zero (the paper's simulation regime) and the row slack, a solve is the
// single theta = 0 stationary point.
#pragma once

#include "linalg/vec.hpp"
#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"
#include "solver/status.hpp"

namespace mdo::core {

/// Precomputed coefficient vectors of one P2 instance (see file comment).
struct Coefficients {
  linalg::Vec lambda;  // demand rates
  linalg::Vec u;       // omega-weighted rates (BS side)
  linalg::Vec v;       // omega_sbs-weighted rates (SBS side)
  double a = 0.0;      // u . 1
  linalg::Vec c;       // linear term
  linalg::Vec ub;      // upper bounds
};

/// Result of a workspace-based solve; the solution vector itself lives in
/// P2Workspace::y(). `iterations` counts the stationary points computed.
struct LoadBalancingOutcome {
  double objective = 0.0;
  std::size_t iterations = 0;
  solver::SolveStatus status = solver::SolveStatus::kConverged;
};

/// Reusable per-(slot, SBS) solve state (see file comment). bind_active()
/// is called once per horizon solve per cell; set_linear()/set_upper()
/// refresh the mu-dependent parts between dual iterations without
/// reallocating.
class P2Workspace {
 public:
  /// (Re)binds the workspace to an (SBS, demand) pair restricted to the
  /// given sorted content list (which must cover the demand support — pass
  /// model::active_contents): rebuilds lambda/u/v/a, resets c to zero and
  /// ub to all-ones, and drops any cached solution. Coefficient vectors
  /// are laid out compactly as m * |active| + i with active[i] the content.
  /// Never throws on non-finite rates; the poisoning is reported by the
  /// next solve's status instead.
  void bind_active(const model::SbsConfig& sbs,
                   const model::SparseSbsDemand& demand,
                   const std::vector<std::size_t>& active);
  bool bound() const { return sbs_ != nullptr; }

  /// Copies [begin, end) into the linear term c. Size must match.
  void set_linear(const double* begin, const double* end);

  /// Copies `upper` into the box upper bound; entries must be in [0, 1]
  /// (checked only when finite: non-finite bounds are reported by the next
  /// solve's status instead).
  void set_upper(const linalg::Vec& upper);

  const Coefficients& coefficients() const { return coeff_; }
  const linalg::Vec& upper() const { return coeff_.ub; }

  /// The last solution (after a solve).
  const linalg::Vec& y() const { return y_; }

  /// True when the workspace holds the solution of the current
  /// (bind, c, ub) state — callers may skip a re-solve (the repair loop's
  /// unchanged-ub fast path).
  bool has_solution() const { return has_solution_; }

 private:
  friend LoadBalancingOutcome solve_load_balancing(P2Workspace& ws);

  const model::SbsConfig* sbs_ = nullptr;
  Coefficients coeff_;
  bool bind_finite_ = true;  // demand rates and bandwidth
  bool linear_finite_ = true;
  bool upper_finite_ = true;
  bool sbs_weighted_ = false;  // some omega_sbs != 0: the r step runs
  bool has_solution_ = false;

  bool inputs_finite() const {
    return bind_finite_ && linear_finite_ && upper_finite_;
  }

  linalg::Vec y_;  // the last solution

  // Solver state. The coordinates split by the binding: zero_u_ holds
  // those with u_j <= 0, order_ the eligible ones (u_j > 0 and ub_j > 0)
  // as (threshold, j) pairs in the last call's sorted order — the warm
  // order the next call repairs. groups_ are tie ranges into order_, so
  // grouping allocates nothing per bisection probe.
  struct GroupRange {
    double threshold = 0.0;
    std::size_t begin = 0;  // range into order_
    std::size_t end = 0;
    double mass = 0.0;  // sum of u_j * ub_j over the range
  };
  std::vector<std::size_t> zero_u_;
  std::vector<std::pair<double, std::size_t>> order_;
  bool order_warm_ = false;  // order_ is a previous call's sorted order
  std::vector<GroupRange> groups_;
  std::size_t stationary_points_ = 0;  // computed by the current solve
  linalg::Vec exact_y_;       // stationary point / theta step result
  linalg::Vec theta_lo_y_;    // y(theta_lo), over the budget
  linalg::Vec theta_hi_y_;    // y(theta_hi), within it
  linalg::Vec shifted_c_;     // c + 2 r v, the r step's linear term
  linalg::Vec r_lo_y_;        // y(r_lo), with v.y above r_lo
  linalg::Vec r_hi_y_;        // y(r_hi), with v.y at most r_hi

  void stationary_point(const linalg::Vec& linear, double theta);
  void solve_bandwidth(const linalg::Vec& linear);
  void solve_sbs_weighted();
};

/// Solves the bound P2: reads the coefficients, writes the solution into
/// ws.y(), and reports value/iterations/status. Non-finite rates, linear
/// terms or bounds give y = 0 (always feasible) and kNonFiniteInput.
/// Allocation-free in steady state.
LoadBalancingOutcome solve_load_balancing(P2Workspace& ws);

/// Evaluates the P2 objective at y from bound coefficients.
double load_balancing_objective(const Coefficients& coeff,
                                const linalg::Vec& y);

/// Optimal load balancing for one slot given a fixed cache: solves P2 per
/// SBS with c = 0 and the box upper bound set to the caching vector
/// (constraint (3) folded in), on the compact active set (support union
/// cached; a dense view is converted by model::sparse_slot). Used for the
/// LRFU / classic baselines and wherever "the best y for this x" is needed.
model::LoadAllocation optimal_load_for_cache(const model::NetworkConfig& config,
                                             model::SlotDemandView demand,
                                             const model::CacheState& cache);

}  // namespace mdo::core
