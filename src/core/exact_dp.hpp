// Exact joint solver for small instances via dynamic programming.
//
// Because the per-slot operating cost f_t + g_t depends on the cache only
// through the *set* of cached contents (y is re-optimized by P2 for each
// set), the joint problem (9) is a shortest path over cache-set states:
//
//   value(t, S) = opcost(t, S) + min_{S'} [ beta * |S \ S'| + value(t-1, S') ]
//
// with opcost(t, S) the optimal operating cost of P2 restricted to S. The
// enumeration is exponential in K (all subsets of size <= C_n per SBS), so
// this is a test/validation oracle for small catalogues, used to certify
// the primal-dual solver and the online controllers' offline baseline.
//
// Multi-SBS instances decompose exactly: SBSs share no constraints once
// y <= x is folded per SBS, so the DP runs independently per SBS.
#pragma once

#include "core/load_balancing.hpp"
#include "core/primal_dual.hpp"

namespace mdo::core {

struct ExactDpOptions {
  /// Hard limit on the number of cache-set states per SBS (throws
  /// InvalidArgument when exceeded) to prevent accidental blow-ups.
  std::size_t max_states = 20000;
};

struct ExactDpResult {
  model::Schedule schedule;
  double objective = 0.0;
};

/// Solves the joint problem exactly: each cache set's P2 is the exact KKT
/// solve, so the DP's value is the optimum of (9).
ExactDpResult solve_joint_exact(const HorizonProblem& problem,
                                const ExactDpOptions& options = {});

}  // namespace mdo::core
