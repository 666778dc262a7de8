// The three cost components of the objective (9) (Sec. II-B).
//
//  f_t (eq. 5): BS operating cost, per SBS the square of the omega-weighted
//               traffic that the BS still has to serve.
//  g_t (eq. 6): SBS operating cost, same form with \hat{omega} weights on
//               the traffic the SBS serves.
//  h   (eq. 8): cache replacement cost, beta_n per item inserted between
//               consecutive slots.
//
// Under a non-empty neighbor topology (DESIGN.md §13) a fourth component
// \tilde{f}_t appears: per SBS the square of the \tilde{omega}-weighted
// traffic pulled from neighbor caches, and the BS residual shrinks to
// 1 - y_local - y_neigh. All neighbor terms are guarded on
// LoadAllocation::has_neighbor(), so decisions without the bank evaluate
// the baseline arithmetic instruction for instruction.
//
// Each cost has one body, over the stored entries of a sparse slot; a dense
// view is converted once by model::sparse_slot (sparse_demand.hpp).
#pragma once

#include <cstddef>

#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"

namespace mdo::model {

/// f_t(Y^t), eq. (5). Demand and load must be shaped after the config.
double bs_operating_cost(const NetworkConfig& config, SlotDemandView demand,
                         const LoadAllocation& load);

/// g_t(Y^t), eq. (6).
double sbs_operating_cost(const NetworkConfig& config, SlotDemandView demand,
                          const LoadAllocation& load);

/// \tilde{f}_t: the neighbor-tier operating cost, per SBS the square of the
/// \tilde{omega}-weighted traffic served out of neighbor caches. 0.0 when
/// the load carries no neighbor bank.
double neighbor_operating_cost(const NetworkConfig& config,
                               SlotDemandView demand,
                               const LoadAllocation& load);

/// h(X^t, X^{t-1}), eq. (8).
double replacement_cost(const NetworkConfig& config, const CacheState& cache,
                        const CacheState& previous);

/// Total number of items inserted across all SBSs between two slots
/// (the "number of cache replacement times" series of Fig. 2c/3b/4b).
std::size_t replacement_count(const CacheState& cache,
                              const CacheState& previous);

/// One slot's cost split by component.
struct CostBreakdown {
  double bs = 0.0;           // f_t
  double sbs = 0.0;          // g_t
  double neigh = 0.0;        // \tilde{f}_t (0.0 without a neighbor tier)
  double replacement = 0.0;  // h

  double total() const { return bs + sbs + neigh + replacement; }

  CostBreakdown& operator+=(const CostBreakdown& other);

  friend bool operator==(const CostBreakdown&, const CostBreakdown&) = default;
};

/// Evaluates one slot: f + g + h relative to `previous` cache state.
CostBreakdown slot_cost(const NetworkConfig& config, SlotDemandView demand,
                        const SlotDecision& decision,
                        const CacheState& previous);

/// Evaluates a whole schedule against a demand trace, starting from
/// `initial_cache` (the x^0 of the formulation; all-empty in the paper).
CostBreakdown schedule_cost(const NetworkConfig& config, DemandTraceView trace,
                            const Schedule& schedule,
                            const CacheState& initial_cache);

}  // namespace mdo::model
