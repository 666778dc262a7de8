// Load balancing for overlapping coverage.
//
// Unlike the disjoint model, the overlap P2 does not separate per SBS: the
// whole-cell BS square couples every link and the feasible set combines
//   box [0, ub]
//   ∩ per-SBS bandwidth rows   sum_{links of n} lambda y <= B_n
//   ∩ per-(class, content) rows sum_{n in A_m} y[m,n,k] <= 1.
// The two row families are internally disjoint (blocks per SBS, rows per
// (m, k)), so each family admits an exact projection; their intersection is
// handled with Dykstra's alternating projections, and the smooth convex
// objective is minimized with FISTA on top.
//
// Hot-path memory model: mirrors core::P2Workspace. OverlapP2Workspace
// keeps the coefficient vectors and the Dykstra/FISTA scratch alive across
// dual iterations and solves, and the warm start across the dual iterations
// of one binding; only the linear term c and the box upper bound are
// refreshed in place.
#pragma once

#include "overlap/model.hpp"
#include "solver/first_order.hpp"
#include "solver/projection.hpp"

namespace mdo::overlap {

/// The feasible set of the overlap P2 (see file comment).
class OverlapFeasibleSet {
 public:
  /// Reusable buffers for project_with(): the Dykstra iterates plus the
  /// per-family gather/scatter blocks. Owned by the caller so one scratch
  /// can serve many projections without reallocating.
  struct ProjectionScratch {
    linalg::Vec x, p, q, shifted, z, shifted2, next;  // Dykstra iterates
    solver::BoxKnapsackSet block;                     // bandwidth-family
    linalg::Vec block_point, block_projected;
    solver::BoxKnapsackSet row;                       // share-family
    linalg::Vec row_point, row_projected;
  };

  /// Points the set at problem data and copies `ub` (per-coordinate upper
  /// bounds in [0, 1], e.g. the caching vector, size layout.y_size()) into
  /// place without releasing any storage. The config, layout and demand
  /// must outlive the set. An empty set must be rebound before use.
  void rebind(const OverlapConfig& config, const OverlapLayout& layout,
              const ClassDemand& demand, const linalg::Vec& ub);

  /// Euclidean projection via Dykstra's algorithm with caller-owned
  /// scratch: writes the projection of `point` into `out` (resized as
  /// needed), allocation-free once the scratch buffers reach the instance
  /// size.
  void project_with(const linalg::Vec& point, linalg::Vec& out,
                    std::size_t max_iterations, double tol,
                    ProjectionScratch& scratch) const;

  /// Membership within tolerance.
  bool contains(const linalg::Vec& y, double tol = 1e-6) const;

  const linalg::Vec& upper_bounds() const { return ub_; }

 private:
  /// Exact projection onto box ∩ per-SBS bandwidth rows.
  void project_bandwidth_family(const linalg::Vec& point, linalg::Vec& out,
                                ProjectionScratch& scratch) const;
  /// Exact projection onto box ∩ per-(class, content) rows.
  void project_share_family(const linalg::Vec& point, linalg::Vec& out,
                            ProjectionScratch& scratch) const;

  const OverlapConfig* config_ = nullptr;
  const OverlapLayout* layout_ = nullptr;
  const ClassDemand* demand_ = nullptr;
  linalg::Vec ub_;
};

struct OverlapP2Options {
  solver::FirstOrderOptions first_order{.max_iterations = 250,
                                        .gradient_tolerance = 1e-6,
                                        .lipschitz = 1.0,  // overwritten
                                        .accelerate = true};
  std::size_t dykstra_iterations = 60;
};

/// Result of a workspace-based solve; the solution itself lives in
/// OverlapP2Workspace::y().
struct OverlapP2Outcome {
  double objective = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Reusable per-slot solve state (see file comment). bind() rebuilds the
/// coefficients once per horizon solve; set_linear()/set_upper() refresh
/// the mu-dependent parts between dual iterations in place.
class OverlapP2Workspace {
 public:
  /// (Re)binds to a (config, layout, demand) triple: rebuilds u/a/v and the
  /// cached Lipschitz constant, resets c to zero and ub to all-ones, and
  /// drops any cached solution, so the first solve after a bind starts
  /// cold (y = 0). Within one binding each solve warm-starts from the last.
  void bind(const OverlapConfig& config, const OverlapLayout& layout,
            const ClassDemand& demand);
  bool bound() const { return config_ != nullptr; }

  /// Copies [begin, end) into the linear term c. Size must match.
  void set_linear(const double* begin, const double* end);
  /// Copies `upper` into the box upper bound (bounds are checked when the
  /// feasible set is rebuilt at solve time).
  void set_upper(const linalg::Vec& upper);

  const linalg::Vec& upper() const { return ub_; }

  /// The last solution (after a solve), doubling as the next warm start
  /// within the same binding.
  const linalg::Vec& y() const { return y_; }

  /// True when the workspace holds the solution of the current
  /// (bind, c, ub) state (the repair loop's unchanged-ub fast path).
  bool has_solution() const { return has_solution_; }

  /// The objective f + g + c.y at y under the bound coefficients; the
  /// value a solve reports.
  double objective(const linalg::Vec& y) const;

 private:
  friend OverlapP2Outcome solve_overlap_load_balancing(
      OverlapP2Workspace& ws, const OverlapP2Options& options);

  const OverlapConfig* config_ = nullptr;
  const OverlapLayout* layout_ = nullptr;
  const ClassDemand* demand_ = nullptr;
  linalg::Vec u_;              // omega_m * lambda per coordinate
  double a_ = 0.0;             // whole-cell weighted traffic at y = 0
  std::vector<linalg::Vec> v_; // per SBS, full-size sparse-by-zeros
  /// Coordinates with u_[j] != 0 (resp. v_[n][j] != 0), built at bind().
  /// The objective/gradient loops run over these instead of all of y: the
  /// skipped terms multiply exact zeros, so dots and gradient updates stay
  /// bit-identical while the work scales with the demand support.
  std::vector<std::size_t> u_active_;
  std::vector<std::vector<std::size_t>> v_active_;
  linalg::Vec c_;
  linalg::Vec ub_;
  double lipschitz_ = 0.0;  // 2 (||u||^2 + sum_n ||v_n||^2)
  bool has_solution_ = false;

  linalg::Vec y_;  // solution / warm start

  OverlapFeasibleSet feasible_;
  OverlapFeasibleSet::ProjectionScratch projection_;
  solver::FirstOrderWorkspace first_order_;
};

/// Minimizes f + g + c.y over the overlap feasible set: reads the bound
/// coefficients and writes the solution into ws.y(). Allocation-free in
/// steady state.
OverlapP2Outcome solve_overlap_load_balancing(OverlapP2Workspace& ws,
                                              const OverlapP2Options& options);

}  // namespace mdo::overlap
