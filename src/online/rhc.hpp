// Receding Horizon Control (Algorithm 2, Sec. IV-A).
//
// At each slot tau, RHC solves the window problem (26)-(31) over the
// prediction window [tau, tau + w) starting from its own cache trajectory
// x^{tau-1}, then commits only the first action. Theorem 2: because the
// caching polytope is integral (Theorem 1), the integer RHC inherits the
// continuous competitive ratio O(1 + 1/w).
//
// The window subproblem is solved with Algorithm 1. The solver's P2
// workspace bank persists across slots (rotated by advance_window(1)) so
// the load-balancing warm starts follow the sliding window; the
// multipliers themselves are re-initialized at the marginal BS gradient
// every slot — measured head-to-head, a shifted-mu hand-off between
// windows converges *slower* than the marginal re-init (the window's
// initial cache moves each slot and the tail slots carry end-of-window
// effects, so the dual optimum genuinely shifts; see DESIGN.md).
#pragma once

#include "core/primal_dual.hpp"
#include "online/controller.hpp"

namespace mdo::online {

class RhcController final : public Controller {
 public:
  /// `window` = w >= 1 slots of prediction (including the current slot).
  RhcController(std::size_t window, core::PrimalDualOptions options = {});

  std::string name() const override;
  void reset(const model::ProblemInstance& instance) override;
  model::SlotDecision decide(const DecisionContext& ctx) override;
  /// RHC plans from its own trajectory x^{tau-1}; when the executed action
  /// differs from the planned one (a RobustController fallback) the
  /// trajectory follows the executed cache.
  void observe(std::size_t slot, const model::SlotDecision& executed) override;

  /// Snapshot = trajectory cache + the solver's warm-start bank; restoring
  /// both makes the next decide() bit-identical to an uninterrupted run.
  bool supports_checkpoint() const override { return true; }
  void save_state(util::BinaryWriter& w) const override;
  void restore_state(util::BinaryReader& r) override;

  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  core::PrimalDualOptions options_;
  /// Persistent across windows so the P2 workspace bank (and its warm
  /// starts) survives between decide() calls; advance_window(1) rotates it
  /// as the window slides. reset() recreates it.
  core::PrimalDualSolver solver_;
  const model::ProblemInstance* instance_ = nullptr;
  model::CacheState trajectory_cache_;  // x^{tau-1} along RHC's own path
  /// Forecast window the HorizonProblem references (refilled in place each
  /// decide()).
  model::SparseDemandTrace forecast_;
};

}  // namespace mdo::online
