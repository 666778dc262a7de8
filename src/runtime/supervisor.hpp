// Deadline supervision for Algorithm 1 solves.
//
// supervised_solve() wraps core::PrimalDualSolver::solve with the
// escalation policy of the runtime layer:
//
//  - Deadline expiry (SolveStatus::kDeadlineExpired) is *not* retried: the
//    solver's anytime incumbent is already the best bounded-latency answer —
//    a retry cannot buy the budget back, it can only overshoot it further.
//    The expiry is logged and the incumbent served; wall-clock overshoot
//    stays bounded by the solver's one-iteration polling granularity.
//
//  - Solve failure (SolveStatus::kNonFiniteInput) escalates through bounded
//    retry-with-backoff: up to two retries, attempt i solving to
//    epsilon * 10^i on the planning horizon halved i times (clamped to
//    `min_horizon`, the prefix the caller must still commit). Truncation is
//    the mechanism that can actually recover — it excises poisoned tail
//    slots while keeping the committed prefix intact. Retries run on a
//    throwaway solver so the persistent solver's warm-mu state (which is
//    checkpointed) is never perturbed by a degraded attempt.
//
//  - If every retry fails — or the horizon can shrink no further — the
//    kExhausted event names the last attempt that ran, the attempt-0
//    fallback solution (carry the cache, serve everything from the BS) is
//    returned unchanged, and the caller's own degradation chain
//    (RobustController: full -> warm-reuse -> BS-only) takes over.
//
// Every step emits a typed SupervisionEvent. When the caller passes neither
// a deadline nor a log, supervised_solve is exactly one plain solve() —
// the clean path stays bitwise-transparent.
#pragma once

#include <cstddef>
#include <vector>

#include "core/primal_dual.hpp"
#include "runtime/deadline.hpp"
#include "solver/status.hpp"

namespace mdo::runtime {

enum class SupervisionEventKind {
  kDeadlineExpired,  // budget ran out; the anytime incumbent was served
  kSolveFailure,     // a solve returned the non-finite-input fallback
  kRetry,            // a backoff retry (relaxed tolerance, halved horizon)
  kRecovered,        // a retry produced a usable solution
  kExhausted,        // all retries failed; the caller must degrade further
};

constexpr const char* to_string(SupervisionEventKind kind) {
  switch (kind) {
    case SupervisionEventKind::kDeadlineExpired: return "deadline_expired";
    case SupervisionEventKind::kSolveFailure: return "solve_failure";
    case SupervisionEventKind::kRetry: return "retry";
    case SupervisionEventKind::kRecovered: return "recovered";
    case SupervisionEventKind::kExhausted: return "exhausted";
  }
  return "?";
}

struct SupervisionEvent {
  std::size_t slot = 0;     // decision slot the solve belongs to
  SupervisionEventKind kind = SupervisionEventKind::kSolveFailure;
  std::size_t attempt = 0;  // 0 = primary solve, 1.. = retries
  std::size_t horizon = 0;  // window length of that attempt
  solver::SolveStatus status = solver::SolveStatus::kConverged;
  double gap = 0.0;         // relative gap of that attempt's solution
};

/// Event sink plus aggregate counters; one per simulation run. Accessed
/// only from the serial decide() path.
struct SupervisionLog {
  std::vector<SupervisionEvent> events;
  std::size_t deadline_expirations = 0;
  std::size_t solve_failures = 0;
  std::size_t retries = 0;
  std::size_t recoveries = 0;

  void record(SupervisionEvent event);
  void clear();
};

/// Solves `problem` on `solver` under the supervision policy above.
///
/// `deadline` may be null (unlimited). `log` may be null; retries are then
/// disabled as well — an unsupervised call is exactly solver.solve(), which
/// keeps plain controllers bit-identical to their pre-runtime behavior.
/// `min_horizon` is the shortest window a truncated retry may solve (the
/// prefix the caller commits: 1 for RHC, the commitment block for FHC).
core::HorizonSolution supervised_solve(core::PrimalDualSolver& solver,
                                       const core::HorizonProblem& problem,
                                       const linalg::Vec* warm_mu,
                                       DeadlineToken* deadline,
                                       SupervisionLog* log, std::size_t slot,
                                       std::size_t min_horizon);

}  // namespace mdo::runtime
