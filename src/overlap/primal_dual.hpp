// Algorithm 1 for the overlapping-coverage extension.
//
// Runs the same loop as core::PrimalDualSolver, core::run_dual_ascent
// (core/dual_ascent.hpp), with the overlap model plugged in: dualize
// y <= x with multipliers mu over (slot, link, content), solve P1 per SBS
// with the *unchanged* min-cost-flow solver from core (the caching
// structure is the same; Theorem 1 still applies per SBS), solve the
// coupled overlap P2 per slot with FISTA + Dykstra, repair feasibility for
// the upper bound, and ascend the dual with diminishing subgradient steps.
// The bounds, the deadline poll, the gap exit, the lazy step and the
// status rules are the loop's, not this solver's.
#pragma once

#include "core/dual_ascent.hpp"
#include "overlap/p2.hpp"
#include "runtime/deadline.hpp"
#include "solver/status.hpp"

namespace mdo::overlap {

struct OverlapHorizonProblem {
  const OverlapConfig* config = nullptr;
  const OverlapLayout* layout = nullptr;
  OverlapTrace demand;   // one ClassDemand per slot
  OverlapCache initial;  // x^0 per SBS

  std::size_t horizon() const { return demand.size(); }
  void validate() const;
};

struct OverlapPrimalDualOptions {
  std::size_t max_iterations = 16;
  double epsilon = 1e-4;
  // Step schedule and cold start as in core::PrimalDualOptions: delta_l =
  // 1 / (1 + l), marginal-gradient scale and initialization; P2 runs at the
  // OverlapP2Options defaults.
};

struct OverlapHorizonSolution {
  std::vector<OverlapDecision> schedule;  // feasible
  double upper_bound = 0.0;
  double lower_bound = 0.0;
  std::size_t iterations = 0;
  linalg::Vec mu;  // slot-major, then (link, content)
  /// kDeadlineExpired means the decision budget ran out: the schedule is
  /// the best feasible repaired incumbent found before expiry (anytime
  /// semantics), mirroring core::HorizonSolution::status.
  solver::SolveStatus status = solver::SolveStatus::kConverged;

  double gap() const { return core::relative_gap(upper_bound, lower_bound); }
};

class OverlapPrimalDualSolver {
 public:
  explicit OverlapPrimalDualSolver(OverlapPrimalDualOptions options = {});

  /// Non-const: the solver keeps the per-slot P2 workspace bank, and with
  /// it the P2 warm starts, between calls (the zero-allocation hot path).
  ///
  /// `deadline` is polled once per dual iteration after the first one
  /// completes; on expiry the best feasible incumbent is returned with
  /// status kDeadlineExpired (see core::PrimalDualSolver::solve).
  OverlapHorizonSolution solve(const OverlapHorizonProblem& problem,
                               const linalg::Vec* warm_mu = nullptr,
                               runtime::DeadlineToken* deadline = nullptr);

 private:
  struct SlotState {
    OverlapP2Workspace p2;      // dual-iteration P2 (linear term = mu)
    OverlapP2Workspace repair;  // feasibility repair (c = 0, ub = x)
    linalg::Vec ub;             // repair upper-bound scratch
  };

  OverlapPrimalDualOptions options_;
  std::vector<SlotState> bank_;  // one per window slot
};

}  // namespace mdo::overlap
