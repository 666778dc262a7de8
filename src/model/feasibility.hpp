// Feasibility checking and repair for the constraints (1)-(3), (10), (11).
//
// Online controllers pick y against *predicted* demand; evaluated against
// the true demand the bandwidth constraint (2) can be slightly violated.
// enforce_feasibility() is the documented repair: zero y where x = 0
// (constraint (3)) and proportionally scale each SBS's allocation down to
// its bandwidth (constraint (2)).
//
// Each function has one body, which evaluates the bandwidth loads over the
// stored entries of a sparse slot; a dense view is converted once by
// model::sparse_slot (sparse_demand.hpp).
#pragma once

#include <string>
#include <vector>

#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"

namespace mdo::model {

/// One violated constraint, human-readable.
struct Violation {
  std::string description;
};

/// Designated neighbor source of content k for receiver SBS n: the first
/// (lowest peer index) positive-bandwidth link in n's adjacency row whose
/// peer caches k; returns config.num_sbs() when none exists. Every layer
/// (cooperative overlay, feasibility, rounding, event simulator) routes a
/// coordinate through the same designated source, so per-link bandwidth
/// budgets are well-defined and deterministic.
std::size_t neighbor_source(const NetworkConfig& config,
                            const CacheState& cache, std::size_t n,
                            std::size_t k);

/// Checks (1) cache capacity, (2) bandwidth against `demand`,
/// (3) y <= x, and (11) y in [0, 1]. Integrality of x holds by type.
/// When the decision carries a neighbor bank, additionally checks
/// y_neigh in [0, 1], y_local + y_neigh <= 1, availability (y_neigh > 0
/// needs a positive-bandwidth neighbor caching the content) and the
/// per-link bandwidth budgets under designated-source routing.
/// Returns all violations (empty means feasible within `tol`). `tol` must
/// be >= 0 (InvalidArgument otherwise): only stored load entries are
/// checked, and the implicit zeros off the lists violate nothing then.
std::vector<Violation> check_feasibility(const NetworkConfig& config,
                                         SlotDemandView demand,
                                         const SlotDecision& decision,
                                         double tol = 1e-6);

/// Convenience: true when check_feasibility() returns no violations.
bool is_feasible(const NetworkConfig& config, SlotDemandView demand,
                 const SlotDecision& decision, double tol = 1e-6);

/// Repairs a decision in place so it is feasible for `demand`:
///  - clamps y into [0, 1],
///  - zeroes y where the content is not cached,
///  - scales each SBS's y uniformly when its bandwidth is exceeded,
///  - and, when a neighbor bank is present: clamps y_neigh, zeroes it
///    where no designated source exists, trims y_local + y_neigh to 1 and
///    scales each inter-SBS link down to its bandwidth cap.
/// The cache part is never modified (capacity violations throw
/// InvalidArgument: controllers must respect (1) themselves).
void enforce_feasibility(const NetworkConfig& config, SlotDemandView demand,
                         SlotDecision& decision);

}  // namespace mdo::model
