#include "runtime/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace mdo::runtime {

namespace {

/// Backoff retries after a failed primary solve.
constexpr std::size_t kMaxRetries = 2;
/// Tolerance multiplier per retry: attempt i solves to epsilon * relax^i.
constexpr double kToleranceRelax = 10.0;

/// Window prefix of `problem` with the first `horizon` slots — the
/// truncated subproblem of a backoff retry. HorizonProblem references its
/// demand window, so the holder owns the truncated sparse trace and the
/// embedded problem points into the holder (fill() rewires the pointer in
/// place — the holder must not be moved afterwards).
struct TruncatedProblem {
  model::SparseDemandTrace demand;
  core::HorizonProblem problem;

  void fill(const core::HorizonProblem& source, std::size_t horizon) {
    problem.config = source.config;
    problem.initial_cache = source.initial_cache;
    model::SparseDemandTrace converted;
    const model::SparseDemandTrace& full =
        model::sparse_trace(source.demand_view(), converted);
    demand = full.window(0, horizon);
    problem.sparse_demand = &demand;
  }
};

bool usable(const core::HorizonSolution& solution) {
  return solution.status != solver::SolveStatus::kNonFiniteInput &&
         solution.status != solver::SolveStatus::kWorkerFailure &&
         std::isfinite(solution.upper_bound);
}

}  // namespace

void SupervisionLog::record(SupervisionEvent event) {
  switch (event.kind) {
    case SupervisionEventKind::kDeadlineExpired: ++deadline_expirations; break;
    case SupervisionEventKind::kSolveFailure: ++solve_failures; break;
    case SupervisionEventKind::kRetry: ++retries; break;
    case SupervisionEventKind::kRecovered: ++recoveries; break;
    case SupervisionEventKind::kExhausted: break;
  }
  events.push_back(event);
}

void SupervisionLog::clear() {
  events.clear();
  deadline_expirations = 0;
  solve_failures = 0;
  retries = 0;
  recoveries = 0;
}

core::HorizonSolution supervised_solve(core::PrimalDualSolver& solver,
                                       const core::HorizonProblem& problem,
                                       const linalg::Vec* warm_mu,
                                       DeadlineToken* deadline,
                                       SupervisionLog* log, std::size_t slot,
                                       std::size_t min_horizon) {
  core::HorizonSolution primary = solver.solve(problem, warm_mu, deadline);

  auto record = [&](SupervisionEventKind kind, std::size_t attempt,
                    std::size_t horizon, const core::HorizonSolution& sol) {
    if (log == nullptr) return;
    SupervisionEvent event;
    event.slot = slot;
    event.kind = kind;
    event.attempt = attempt;
    event.horizon = horizon;
    event.status = sol.status;
    event.gap = sol.gap();
    log->record(event);
  };

  if (primary.status == solver::SolveStatus::kDeadlineExpired &&
      usable(primary)) {
    // Anytime semantics: the incumbent is the best bounded-latency answer a
    // retry could not improve within an already-expired budget. Log & serve.
    record(SupervisionEventKind::kDeadlineExpired, 0, problem.horizon(),
           primary);
    return primary;
  }
  if (usable(primary)) return primary;  // clean path: exactly one solve

  record(SupervisionEventKind::kSolveFailure, 0, problem.horizon(), primary);

  if (primary.status == solver::SolveStatus::kWorkerFailure) {
    // A shard worker subprocess died. Unlike a poisoned window this failure
    // is transient, and the aborted solve left the solver's step offset
    // untouched (no other solver state reaches a later solve) — so the
    // retry runs the SAME problem on the SAME solver (no tolerance relax,
    // no truncation): it respawns the worker fleet and reproduces the lost
    // solve bit-identically.
    std::size_t last_attempt = 0;
    for (std::size_t attempt = 1; attempt <= kMaxRetries; ++attempt) {
      last_attempt = attempt;
      core::HorizonSolution retry = solver.solve(problem, warm_mu, deadline);
      record(SupervisionEventKind::kRetry, attempt, problem.horizon(), retry);
      if (usable(retry)) {
        record(SupervisionEventKind::kRecovered, attempt, problem.horizon(),
               retry);
        MDO_TRACE("supervisor: slot " << slot
                                      << " recovered from worker failure at "
                                         "attempt "
                                      << attempt);
        return retry;
      }
      if (retry.status != solver::SolveStatus::kWorkerFailure) {
        primary = std::move(retry);
        break;
      }
    }
    record(SupervisionEventKind::kExhausted, last_attempt, problem.horizon(),
           primary);
    MDO_WARN("supervisor: slot "
             << slot
             << " exhausted worker-failure retries; serving the safe "
                "fallback schedule");
    return primary;
  }

  // Unsupervised callers (no log) keep the legacy single-solve behavior:
  // the safe fallback schedule is returned and the controller's own
  // degradation path handles it — no new code runs.
  if (log == nullptr) return primary;

  const std::size_t full_horizon = problem.horizon();
  const std::size_t floor_horizon =
      std::min(std::max<std::size_t>(min_horizon, 1), full_horizon);
  std::size_t prev_horizon = full_horizon;
  std::size_t last_attempt = 0;
  for (std::size_t attempt = 1; attempt <= kMaxRetries; ++attempt) {
    const std::size_t horizon =
        std::max(floor_horizon, full_horizon >> attempt);
    if (horizon == prev_horizon && attempt > 1) {
      // The window cannot shrink further; re-solving the identical poisoned
      // prefix would fail identically.
      break;
    }
    prev_horizon = horizon;
    last_attempt = attempt;

    // Retries run on a throwaway solver so a degraded attempt never
    // perturbs the persistent solver's warm-mu state (which is checkpointed
    // and must stay bit-identical to the clean trajectory).
    core::PrimalDualOptions relaxed = solver.options();
    relaxed.epsilon *= std::pow(kToleranceRelax, static_cast<double>(attempt));
    core::PrimalDualSolver retry_solver(relaxed);

    TruncatedProblem truncated;
    if (horizon != full_horizon) truncated.fill(problem, horizon);
    const core::HorizonProblem& attempt_problem =
        horizon == full_horizon ? problem : truncated.problem;

    core::HorizonSolution retry =
        retry_solver.solve(attempt_problem, nullptr, deadline);
    record(SupervisionEventKind::kRetry, attempt, horizon, retry);
    if (usable(retry)) {
      record(SupervisionEventKind::kRecovered, attempt, horizon, retry);
      MDO_TRACE("supervisor: slot " << slot << " recovered at attempt "
                                    << attempt << " (horizon " << horizon
                                    << ")");
      return retry;
    }
  }

  record(SupervisionEventKind::kExhausted, last_attempt, prev_horizon,
         primary);
  MDO_WARN("supervisor: slot " << slot
                               << " exhausted retries; serving the safe "
                                  "fallback schedule");
  return primary;
}

}  // namespace mdo::runtime
