// Cooperative SBS-to-SBS routing overlay (DESIGN.md §13).
//
// Runs after the per-slot decision is repaired and before it is costed:
// for every receiver SBS n it offloads part of the BS residual
// 1 - y_local onto neighbor caches over the inter-SBS links. Routing is
// designated-source (model::neighbor_source): each (class, content)
// coordinate fetches from the lowest-index positive-bandwidth neighbor
// that caches the content, which partitions the coordinates into
// independent per-link groups. Each group solves the exact per-SBS cost
// model
//
//   min (R - u.y)^2 + (S + w.y)^2   s.t.  lambda.y <= link cap,
//                                         0 <= y <= 1 - y_local
//
// (R = current omega_bs-weighted BS residual, S = current omega_neigh-
// weighted neighbor traffic of SBS n) with FISTA over a box+knapsack
// projection, in ascending source order with running R and S
// (Gauss-Seidel). A group's solution is only accepted when it improves
// the closed-form objective by a relative margin of 1e-9 (collab.cpp), so
// the overlaid decision never costs more than the input decision:
// cooperative <= non-cooperative by construction, slot by slot.
//
// The overlay mutates ONLY the decision's neighbor bank. The cache
// schedule, the local fractions, mu trajectories and warm-start banks are
// untouched, and with an empty topology the overlay is never invoked —
// which is what makes the degenerate topology bitwise-transparent.
//
// Determinism: receivers only read shared state (caches, demand) and
// write their own rows, so the per-receiver loop parallelizes; within a
// receiver all reductions run serially in index order (DESIGN.md §12).
#pragma once

#include <cstddef>

#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"

namespace mdo::core {

/// Applies the overlay to one slot's decision in place. Allocates the
/// decision's neighbor bank on first use. Returns true when any neighbor
/// traffic was assigned. No-op (and bank-free) when the topology carries
/// no positive-bandwidth link.
bool apply_neighbor_overlay(const model::NetworkConfig& config,
                            model::SlotDemandView demand,
                            model::SlotDecision& decision);

}  // namespace mdo::core
