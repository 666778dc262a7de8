// Algorithm 1: the primal-dual decomposition solver (Sec. III).
//
// The coupling constraint y <= x (3) is dualized with multipliers
// mu[n, m, k, t] >= 0 (12); the Lagrangian (13) then separates into the
// caching problem P1 (solved per SBS over the window, see caching.hpp) and
// the load-balancing problem P2 (solved per SBS per slot, see
// load_balancing.hpp). The dual is ascended with the projected subgradient
// update (15)-(17).
//
// Each iteration also performs a *feasibility repair*: with X fixed from
// P1, P2 is re-solved with the box upper bound set to x (folding (3) back
// in), giving a feasible primal schedule and hence a valid upper bound.
// The solver returns the best repaired schedule; the dual value is the
// lower bound. This realizes the UB/LB bookkeeping of Algorithm 1 while
// guaranteeing the output is always feasible.
//
// The same solver serves both the offline optimum (window = whole horizon,
// true demand) and every online controller's window subproblem (26)-(31)
// (window = prediction horizon, predicted demand).
//
// The outer loop is core::run_dual_ascent (dual_ascent.hpp). The
// per-SBS / per-(slot, SBS) loop bodies live in core::ShardCore
// (shard_core.hpp): the solver here plugs one full-range shard in process
// into that loop, or — with PrimalDualOptions::shard_count / MDO_SHARDS —
// the worker subprocesses behind shard::Coordinator, with bitwise-equal
// results (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/dual_ascent.hpp"
#include "core/load_balancing.hpp"
#include "core/shard_core.hpp"
#include "linalg/vec.hpp"
#include "runtime/deadline.hpp"
#include "solver/status.hpp"
#include "model/costs.hpp"
#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"
#include "util/serialize.hpp"

namespace mdo::shard {
class Coordinator;
}  // namespace mdo::shard

namespace mdo::core {

/// A finite-horizon joint problem: minimize (9) over the given demand
/// window starting from `initial_cache`. The window is referenced, not
/// owned: exactly one of `demand` (dense) and `sparse_demand` is set, and
/// the trace must outlive the solve — controllers keep a per-window buffer
/// and hand out views instead of copying the window per decision. The
/// solver restricts P1/P2 to each (slot, SBS) active set (support union
/// cached); a dense window is converted to the sparse representation once,
/// losslessly, at the start of the solve, so both inputs give the same
/// bits.
struct HorizonProblem {
  const model::NetworkConfig* config = nullptr;            // not owned
  const model::DemandTrace* demand = nullptr;              // window, W >= 1
  const model::SparseDemandTrace* sparse_demand = nullptr;
  model::CacheState initial_cache;                         // x^{tau-1}

  std::size_t horizon() const { return demand_view().horizon(); }
  model::DemandTraceView demand_view() const {
    return sparse_demand != nullptr ? model::DemandTraceView(*sparse_demand)
                                    : model::DemandTraceView(*demand);
  }
  void validate() const;
};

struct PrimalDualOptions {
  std::size_t max_iterations = 16;  // L in Algorithm 1
  double epsilon = 1e-4;            // relative-gap accuracy (paper: 0.0001)
  // The step schedule (16) and the cold start are fixed: delta_l = 1 / (1 + l)
  // (dual_ascent.hpp), scaled by half the mean marginal BS cost, and mu
  // starts at the marginal BS-cost gradient (primal_dual.cpp).
  /// Neighbor-demand tilt of P1 (DESIGN.md §13): when positive and the
  /// config carries a positive-bandwidth neighbor topology, every content's
  /// P1 reward at SBS n gains `price * (total demand rate the positive-
  /// bandwidth receivers of n place on that content that slot)` — a
  /// constant per (n, k, t) computed serially driver-side before the
  /// ascent, so caching decisions anticipate the neighbor tier that the
  /// cooperative overlay (core/collab.hpp) later exploits. The tilt
  /// perturbs P1's objective, so with a positive price the reported lower
  /// bound is heuristic, not a valid bound on (9). 0.0 (the default)
  /// disables the tilt and leaves every solve bitwise-identical to the
  /// pre-topology solver. The tilt only reaches contents in the SBS's
  /// restricted window union (others stay un-cacheable there).
  double p1_neighbor_price = 0.0;
  /// Process-level scale-out (DESIGN.md §11): number of worker subprocesses
  /// the dual decomposition is sharded over. 0 defers to the MDO_SHARDS
  /// environment variable (unset/0 = solve in process); N >= 1 forces N
  /// workers (1 still exercises the full RPC path);
  /// shard::kShardsInProcess forces the in-process path regardless of the
  /// environment. Results are bitwise-identical at every shard count; a
  /// worker death surfaces as SolveStatus::kWorkerFailure with a safe
  /// fallback schedule, and the next solve() respawns the fleet and — a
  /// solve depends only on its problem, the warm mu and the driver-side
  /// step offset — reproduces the lost result exactly.
  std::size_t shard_count = 0;
};

struct HorizonSolution {
  model::Schedule schedule;   // length W, feasible
  double upper_bound = 0.0;   // objective (9) of `schedule`
  double lower_bound = 0.0;   // best dual value (valid lower bound)
  std::size_t iterations = 0; // dual iterations performed
  /// Final multipliers (for warm starts) on the compact active-coordinate
  /// layout (core::mu_block_offsets geometry). Empty in a fallback
  /// (kNonFiniteInput/kWorkerFailure), which safely disables same-window
  /// warm starts downstream.
  linalg::Vec mu;
  /// How the solve terminated. kNonFiniteInput means the demand window held
  /// NaN/Inf/negative rates: the schedule is then the safe fallback (carry
  /// the initial cache, serve everything from the BS) and the bounds are
  /// meaningless (UB = +inf, LB = -inf). kWorkerFailure means a shard
  /// worker subprocess died mid-solve: same safe fallback, and the solver's
  /// warm state is untouched so a retry reproduces the lost solve exactly.
  /// kIterationLimit still delivers the best feasible repaired schedule
  /// found within the budget.
  solver::SolveStatus status = solver::SolveStatus::kConverged;

  /// Relative optimality gap (UB - LB) / max(|UB|, 1e-12).
  double gap() const { return relative_gap(upper_bound, lower_bound); }
};

class PrimalDualSolver {
 public:
  explicit PrimalDualSolver(PrimalDualOptions options = {});
  ~PrimalDualSolver();

  /// Move-only: the solver owns its (lazily spawned) shard worker fleet.
  PrimalDualSolver(PrimalDualSolver&&) noexcept;
  PrimalDualSolver& operator=(PrimalDualSolver&&) noexcept;

  /// Solves the window problem. Non-finite or negative demand never
  /// throws: it is reported through the result status with a safe fallback
  /// schedule (see HorizonSolution::status).
  ///
  /// `warm_mu` (a previous solve's HorizonSolution::mu) seeds the
  /// multipliers of a SAME-window replan — an online controller resyncing
  /// at an unchanged tau. When a resync moved the start cache, and with it
  /// the active sets, the warm vector is remapped by content id. A
  /// mu-warm-started solve CONTINUES the diminishing-step schedule (16)
  /// where the previous solve stopped instead of restarting at delta_0: a
  /// full-size first step would throw mu far from the near-optimal warm
  /// point and the decayed tail of the schedule could not pull it back
  /// within the iteration budget. Multipliers are deliberately NOT shifted
  /// across slid windows: measured head-to-head (see DESIGN.md), every
  /// shifted-mu policy converges slower than the marginal
  /// re-initialization, because the window's initial cache moves every slot
  /// and the tail slots carry end-of-window effects.
  ///
  /// Non-const: the solver keeps the per-(slot, SBS) P2 workspace bank
  /// between calls as an allocation arena only (the zero-allocation hot
  /// path). Every solve re-binds it cold, so with `warm_mu` null the
  /// result equals a fresh solver's bit for bit; P2 warm starts carry y
  /// only from one dual iteration to the next within the solve.
  ///
  /// `deadline` (optional) bounds the solve: the token is polled once per
  /// dual iteration — after the first iteration completes, so a feasible
  /// repaired incumbent always exists — and on expiry the best incumbent
  /// is returned with status kDeadlineExpired (anytime semantics). A null
  /// or unlimited token leaves the solve bitwise-identical to the
  /// pre-deadline behavior.
  HorizonSolution solve(const HorizonProblem& problem,
                        const linalg::Vec* warm_mu = nullptr,
                        runtime::DeadlineToken* deadline = nullptr);

  /// No-op: no solver state follows the window (solve() says why). Kept
  /// only for the benchmark harness, which calls it between windows.
  void advance_window(std::size_t /*shift*/) {}

  const PrimalDualOptions& options() const { return options_; }

  /// Serializes the state a later solve reads: the step-schedule offset
  /// and the last solve's compact-mu geometry, both consulted only by a
  /// warm-mu solve. Restoring into a solver constructed with the same
  /// options makes every subsequent solve() bit-identical to one on the
  /// original — the checkpoint/resume contract (see
  /// runtime/checkpoint.hpp). Both live driver-side, so the snapshot is
  /// shard-count-independent.
  void save_state(util::BinaryWriter& w) const;
  void restore_state(util::BinaryReader& r);

 private:
  PrimalDualOptions options_;
  /// Workspace arena of the in-process solve (cell = t * num_sbs + n):
  /// reused for its buffers, re-bound cold by every solve, never read
  /// across solves and untouched by a sharded solve.
  std::vector<CellState> bank_;
  /// Geometry of the last completed solve (per-cell active lists +
  /// horizon; a solve lost to a worker death leaves it alone): a
  /// same-window warm mu is interpreted against THIS geometry and remapped
  /// by content id onto the new solve's active sets when a resync changed
  /// the start cache. Serialized by save_state so a restored solver keeps
  /// remapping correctly.
  std::vector<std::vector<std::size_t>> last_active_;
  std::size_t last_horizon_ = 0;
  /// Where the previous solve's diminishing-step schedule stopped; a
  /// mu-warm-started solve resumes from here (see solve()).
  std::size_t step_offset_ = 0;
  /// Worker fleet for sharded solves; spawned on first use, torn down on
  /// any worker failure (and respawned by the next sharded solve).
  std::unique_ptr<shard::Coordinator> coordinator_;
};

}  // namespace mdo::core
