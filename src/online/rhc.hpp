// Receding Horizon Control (Algorithm 2, Sec. IV-A).
//
// At each slot tau, RHC solves the window problem (26)-(31) over the
// prediction window [tau, tau + w) starting from its own cache trajectory
// x^{tau-1}, then commits only the first action. Theorem 2: because the
// caching polytope is integral (Theorem 1), the integer RHC inherits the
// continuous competitive ratio O(1 + 1/w).
//
// RHC is the r = 1 end of the CHC family (Chen et al., SIGMETRICS 2016):
// one FHC planner that re-plans every slot and commits one action, so it
// runs FhcController(w, 1, 0) and differs only in its name. The window
// subproblem is solved with Algorithm 1, from scratch every slot, like
// every solve: the P2 warm starts live within one solve, and the
// multipliers start at the marginal BS gradient — measured head-to-head, a
// shifted-mu hand-off between windows converges *slower* than the marginal
// re-init (the window's initial cache moves each slot and the tail slots
// carry end-of-window effects, so the dual optimum genuinely shifts), and a
// cross-window P2 warm start made runs slower, not faster (see DESIGN.md).
#pragma once

#include <string>

#include "online/fhc.hpp"

namespace mdo::online {

class RhcController final : public FhcController {
 public:
  /// `window` = w >= 1 slots of prediction (including the current slot).
  RhcController(std::size_t window, core::PrimalDualOptions options = {})
      : FhcController(window, 1, 0, options) {}

  std::string name() const override {
    return "RHC(w=" + std::to_string(window_) + ")";
  }
};

}  // namespace mdo::online
