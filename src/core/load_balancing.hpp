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
// The objective is smooth and convex with gradient Lipschitz constant
// L = 2 (||u||^2 + ||v||^2); FISTA over the box-knapsack set solves it.
//
// Hot-path memory model: the dual loop of Algorithm 1 solves one P2 per
// (slot, SBS) per dual iteration. P2Workspace keeps everything that does
// NOT change between dual iterations — the coefficient vectors lambda/u/v,
// the scalar a, the cached feasible set, the FISTA buffers, and the exact
// solver's coordinate classification and sort/group scratch — and exposes
// cheap in-place refreshes for the parts that DO change: the linear term c
// (the multipliers) and the box upper bound ub (the repair cache vector).
// Within one binding the previous solution stays in the workspace as the
// next solve's warm start; every bind starts cold. The exact solver also keeps its last sorted threshold order: mu
// moves one diminishing step between dual iterations, so the next call
// repairs that order with an insertion pass (falling back to a full sort
// past a fixed move budget) instead of sorting from scratch. The order is
// only a hint — the (threshold, j) pairs are totally ordered, so the
// repaired order equals a cold sort element for element. A workspace-based
// solve heap-allocates nothing once its buffers reach the instance size.
//
// Exact solver (v = 0, every omega_sbs zero — the paper's simulation
// regime):
//   min (a - u.y)^2 + c.y   s.t.  lambda.y <= B,  0 <= y <= ub.
// For a fixed bandwidth multiplier theta the stationarity condition sorts
// coordinates by the threshold (c_j + theta lambda_j) / u_j and the scalar
// s = u.y solves a piecewise-linear fixed point exactly (one fractional
// coordinate at most); theta itself is found by bisection when the
// bandwidth row binds. FISTA solves every other instance; the two are
// cross-checked in tests.
#pragma once

#include "linalg/vec.hpp"
#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"
#include "solver/first_order.hpp"
#include "solver/projection.hpp"

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
/// P2Workspace::y().
struct LoadBalancingOutcome {
  double objective = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  solver::SolveStatus status = solver::SolveStatus::kConverged;
};

struct LoadBalancingOptions {
  solver::FirstOrderOptions first_order{.max_iterations = 150,
                                        .gradient_tolerance = 2e-5,
                                        .lipschitz = 1.0,  // overwritten
                                        .accelerate = true};
  /// Use the exact parametric KKT solver when the instance qualifies
  /// (all omega_sbs = 0, i.e. v = 0; see the file comment). Falls back to
  /// FISTA otherwise.
  bool prefer_exact = true;
};

/// Reusable per-(slot, SBS) solve state (see file comment). bind_active()
/// is called once per horizon solve per cell; set_linear()/set_upper()
/// refresh the mu-dependent parts between dual iterations without
/// reallocating.
class P2Workspace {
 public:
  /// (Re)binds the workspace to an (SBS, demand) pair restricted to the
  /// given sorted content list (which must cover the demand support — pass
  /// model::active_contents): rebuilds lambda/u/v/a and the cached
  /// Lipschitz norm, resets c to zero and ub to all-ones, and drops any
  /// cached solution, so the first solve after a bind starts cold (y = 0)
  /// and a solve never depends on an earlier binding. Coefficient vectors
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

  /// The last solution (after a solve), doubling as the next warm start
  /// within the same binding; clear_warm_start() makes the next solve cold.
  const linalg::Vec& y() const { return y_; }
  void clear_warm_start() { y_.clear(); }

  /// True when the workspace holds the solution of the current
  /// (bind, c, ub) state — callers may skip a re-solve (the repair loop's
  /// unchanged-ub fast path).
  bool has_solution() const { return has_solution_; }

 private:
  friend LoadBalancingOutcome solve_load_balancing(
      P2Workspace& ws, const LoadBalancingOptions& options);

  const model::SbsConfig* sbs_ = nullptr;
  Coefficients coeff_;
  double quad_norm_ = 0.0;   // ||u||^2 + ||v||^2 (Lipschitz / 2)
  bool bind_finite_ = true;  // demand rates and bandwidth
  bool linear_finite_ = true;
  bool upper_finite_ = true;
  bool exact_applicable_ = false;
  bool has_solution_ = false;

  bool inputs_finite() const {
    return bind_finite_ && linear_finite_ && upper_finite_;
  }

  linalg::Vec y_;  // solution / warm start within one binding

  // FISTA machinery (refreshed per solve, allocation-free in steady state).
  solver::BoxKnapsackSet feasible_;
  solver::FirstOrderWorkspace first_order_;

  // Exact-solver state. The coordinates split by the binding: zero_u_
  // holds those with u_j <= 0, order_ the eligible ones (u_j > 0 and
  // ub_j > 0) as (threshold, j) pairs in the last call's sorted order —
  // the warm order the next call repairs. groups_ are tie ranges into
  // order_, so grouping allocates nothing per bisection probe.
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
  linalg::Vec exact_y_;  // stationary-point candidate

  void refresh_feasible_set();
  void stationary_point(double theta);
  void solve_exact(LoadBalancingOutcome& out);
  void solve_fista(const LoadBalancingOptions& options,
                   LoadBalancingOutcome& out);
};

/// Solves the bound P2: reads the coefficients, writes the solution into
/// ws.y(), and reports value/iterations/status. Non-finite rates, linear
/// terms or bounds give y = 0 (always feasible) and kNonFiniteInput.
/// Allocation-free in steady state.
LoadBalancingOutcome solve_load_balancing(P2Workspace& ws,
                                          const LoadBalancingOptions& options);

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
