// The outer loop of Algorithm 1, shared by every primal-dual solver.
//
// One dual iteration solves P1 and P2 at the current multipliers, takes
// the dual value as a lower bound, repairs the P1 cache plan into a
// feasible schedule whose cost is an upper bound, stops once the relative
// gap is within epsilon, and otherwise takes the projected step (15)-(17)
// of size step_scale / (1 + l): the diminishing schedule (16),
// square-summable but not summable, as Algorithm 1's convergence argument
// requires.
//
// The step is lazy: iteration l+1 first applies the pending delta_l and
// then solves, and whichever exit ends the loop applies a step still
// pending. Shard workers need this (the step rides on the next kIterate
// or on kEnd, so mu stays off the wire), and it gives the same bits as a
// step taken right after the gap check, because repair reads and writes
// neither the P2 solution nor the P1 plan the step is computed from.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/deadline.hpp"
#include "solver/status.hpp"

namespace mdo::core {

/// Relative optimality gap (UB - LB) / max(|UB|, 1e-12).
inline double relative_gap(double upper_bound, double lower_bound) {
  return (upper_bound - lower_bound) / std::max(std::abs(upper_bound), 1e-12);
}

/// Sum in index order: the canonical reduction of per-index objectives.
inline double serial_sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return sum;
}

/// One iteration's bounds, reduced in serial index order by the backend.
struct DualIterate {
  double dual_value = 0.0;     // P1 + P2 objective: a lower bound
  double repaired_cost = 0.0;  // cost of the repaired schedule: an upper bound
};

struct DualAscentParams {
  std::size_t max_iterations = 1;
  double epsilon = 0.0;
  double step_scale = 1.0;
};

/// Runs Algorithm 1 and fills the bounds, iteration count, incumbent
/// schedule and status of `best`. The backend is two callables:
///   iterate(apply_step, delta, Schedule& repaired) -> optional<DualIterate>
///     applies delta when asked, solves P1 and P2, and writes the repair
///     into `repaired`, sizing it first (it may be empty, or an older
///     incumbent whose every entry the repair overwrites);
///   finish(apply_step, delta) -> bool applies a step still pending.
/// nullopt or false (a dead shard worker) aborts: false is returned and
/// `best` is meaningless. The deadline is polled at this serial point,
/// once per iteration after the first, so a feasible incumbent exists and
/// the poll count is the same at every thread and shard count.
template <class Solution, class Iterate, class Finish>
bool run_dual_ascent(const DualAscentParams& params,
                     runtime::DeadlineToken* deadline, Iterate&& iterate,
                     Finish&& finish, Solution& best) {
  best.upper_bound = std::numeric_limits<double>::infinity();
  best.lower_bound = -std::numeric_limits<double>::infinity();
  best.iterations = 0;
  decltype(best.schedule) repaired;
  bool pending = false;
  double delta = 0.0;
  bool deadline_expired = false;
  for (std::size_t iteration = 0; iteration < params.max_iterations;
       ++iteration) {
    if (iteration > 0 && deadline != nullptr && deadline->poll()) {
      deadline_expired = true;
      break;
    }
    const std::optional<DualIterate> it = iterate(pending, delta, repaired);
    if (!it) return false;
    pending = false;
    best.lower_bound = std::max(best.lower_bound, it->dual_value);
    if (it->repaired_cost < best.upper_bound) {
      best.upper_bound = it->repaired_cost;
      std::swap(best.schedule, repaired);
    }
    best.iterations = iteration + 1;
    if (relative_gap(best.upper_bound, best.lower_bound) <= params.epsilon) {
      break;
    }
    delta = params.step_scale * (1.0 / (1.0 + static_cast<double>(iteration)));
    pending = true;
  }
  if (!finish(pending, delta)) return false;
  best.status =
      relative_gap(best.upper_bound, best.lower_bound) <= params.epsilon
          ? solver::SolveStatus::kConverged
      : deadline_expired ? solver::SolveStatus::kDeadlineExpired
                         : solver::SolveStatus::kIterationLimit;
  return true;
}

}  // namespace mdo::core
