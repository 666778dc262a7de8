// The caching subproblem P1 (eq. (18), Sec. III).
//
// Per SBS n, given the Lagrange multipliers mu, P1 chooses the cache
// contents over a horizon to trade replacement cost against the multiplier
// "rewards" nu[k, t] = sum_m mu[n, m, k, t]:
//
//   min_x  sum_t ( beta * sum_k (x[k,t] - x[k,t-1])^+  -  sum_k nu[k,t] x[k,t] )
//   s.t.   sum_k x[k,t] <= capacity  for every t,     x in {0,1}.
//
// Theorem 1 proves the {0,1} relaxation to [0,1] is exact (total
// unimodularity). We provide three interchangeable exact solvers:
//   * solve_caching_flow     — time-expanded min-cost-flow (default; the
//                              constructive counterpart of Theorem 1),
//   * solve_caching_simplex  — the paper's LP + simplex route,
//   * solve_caching_brute_force — exhaustive search for tiny instances
//                              (tests cross-check all three).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/vec.hpp"
#include "solver/mcmf.hpp"

namespace mdo::core {

/// One SBS's caching subproblem over a (window) horizon.
struct CachingSubproblem {
  std::size_t num_contents = 0;  // K
  std::size_t horizon = 0;       // W (window length)
  std::size_t capacity = 0;      // C_n
  double beta = 0.0;             // beta_n
  /// x^0: cache contents before the first slot, size K (0/1).
  std::vector<std::uint8_t> initial;
  /// nu[t * K + k] >= 0: per-slot caching reward of content k.
  linalg::Vec rewards;

  double reward(std::size_t t, std::size_t k) const {
    return rewards[t * num_contents + k];
  }

  /// Throws InvalidArgument on inconsistent shapes/signs.
  void validate() const;
};

struct CachingSolution {
  /// x[t * K + k] in {0, 1}.
  std::vector<std::uint8_t> x;
  /// P1 objective value (replacement cost minus collected rewards).
  double objective = 0.0;

  bool cached(std::size_t t, std::size_t k, std::size_t num_contents) const {
    return x[t * num_contents + k] != 0;
  }
};

/// Exact solver via successive-shortest-path min-cost flow. O(C * K * W)
/// per augmentation; the default inside the primal-dual loop.
CachingSolution solve_caching_flow(const CachingSubproblem& problem);

/// Reusable min-cost-flow workspace for P1. The time-expanded network's
/// topology depends only on (K, W, capacity, beta, initial); the dual
/// iterations of Algorithm 1 only change the rewards. bind() builds the
/// network once per window; solve_into() then re-prices the occupancy arcs
/// in place, resets the flow and re-augments — bit-identical to
/// solve_caching_flow (same arcs in the same order, same successive
/// shortest paths) without rebuilding O(K * W) nodes and arcs every
/// iteration.
class CachingFlowWorkspace {
 public:
  /// (Re)builds the network for the problem's shape, parameters and initial
  /// state. Validates the problem; the rewards it carries are installed too,
  /// so solve_into() may follow immediately.
  void bind(const CachingSubproblem& problem);

  /// True once bind() has run (solve_into() requires it).
  bool bound() const { return bound_; }

  /// Re-solves the bound network with `problem.rewards` (everything else
  /// must match the bound problem). Writes the 0/1 schedule into `x`
  /// (resized to K * W) and returns the P1 objective.
  double solve_into(const CachingSubproblem& problem,
                    std::vector<std::uint8_t>& x);

 private:
  solver::MinCostFlow network_{0};
  std::vector<std::size_t> occupancy_arc_;  // arc id of cell (k, t)
  std::size_t source_ = 0;
  std::size_t sink_ = 0;
  std::size_t num_contents_ = 0;
  std::size_t horizon_ = 0;
  std::int64_t capacity_ = 0;
  bool bound_ = false;
};

/// Per-SBS P1 state of one window solve, shared by core::ShardCore and the
/// overlap solver: each SBS's subproblem and flow workspace, bound once per
/// window (only the rewards change between dual iterations), and the last
/// solve's plan and objective. Each caller accumulates its own model's
/// rewards between clear_rewards(n) and solve(n). Every call touches only
/// SBS n, so callers run the SBSs in parallel.
class CachingBank {
 public:
  /// Sizes the bank for `count` SBSs, dropping every previous binding.
  void reset(std::size_t count);

  /// Binds SBS n to its P1 over `num_contents` contents and `horizon`
  /// slots, starting from `initial` (size num_contents, 0/1). Capacity is
  /// clamped to the catalogue; an empty catalogue binds no network.
  void bind(std::size_t n, std::size_t num_contents, std::size_t horizon,
            std::size_t capacity, double beta,
            std::vector<std::uint8_t> initial);

  std::size_t num_contents(std::size_t n) const {
    return p1_[n].sub.num_contents;
  }

  /// SBS n's rewards [t * K + k], zeroed for this iteration's sums.
  linalg::Vec& clear_rewards(std::size_t n);

  /// Solves SBS n under its current rewards into x()[n] and objectives()[n];
  /// an empty catalogue gives an empty plan with objective 0.
  void solve(std::size_t n);

  const std::vector<double>& objectives() const { return objectives_; }
  /// Per SBS: the P1 schedule [t * K + k].
  const std::vector<std::vector<std::uint8_t>>& x() const { return x_; }

 private:
  struct Entry {
    CachingSubproblem sub;
    CachingFlowWorkspace flow;
  };

  std::vector<Entry> p1_;
  std::vector<double> objectives_;
  std::vector<std::vector<std::uint8_t>> x_;
};

/// Exact solver via the LP relaxation and the simplex method, as in the
/// paper. Verifies the returned vertex is integral (Theorem 1) and throws
/// SolverError otherwise.
CachingSolution solve_caching_simplex(const CachingSubproblem& problem);

/// Exhaustive search over all feasible schedules; exponential, intended for
/// instances with at most ~20 (content, slot) cells. Throws InvalidArgument
/// on larger inputs.
CachingSolution solve_caching_brute_force(const CachingSubproblem& problem);

/// Evaluates the P1 objective of an arbitrary 0/1 schedule (for tests).
double caching_objective(const CachingSubproblem& problem,
                         const std::vector<std::uint8_t>& x);

}  // namespace mdo::core
