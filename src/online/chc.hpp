// Committed Horizon Control and Averaging Fixed Horizon Control
// (Algorithm 3, Sec. IV-B).
//
// CHC(r) runs r staggered Fixed Horizon Control (FHC) planners. Planner v
// re-plans at every slot tau ≡ v (mod r) over the prediction window
// [tau, tau + w), following its *own* committed trajectory; plan times may
// be negative (the paper intersects Psi_v with [-r+1, T] and sets Lambda = 0
// for t <= 0), in which case the pre-horizon slots carry zero demand.
//
// At each slot CHC averages the r planners' actions (eqs. (36)-(37)). The
// averaged caching variables can be fractional, so the integer version
// applies the rounding policy of Theorem 3 with threshold
// rho = (3 - sqrt(5))/2 (approximation ratio ~2.62). AFHC is the special
// case r = w.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/primal_dual.hpp"
#include "core/rounding.hpp"
#include "online/controller.hpp"

namespace mdo::online {

/// One staggered FHC planner (commitment level r, window w). RHC is the
/// r = 1 planner (online/rhc.hpp).
class FhcPlanner {
 public:
  /// `offset` = v in Psi_v; requires offset < commit <= window.
  FhcPlanner(std::size_t offset, std::size_t window, std::size_t commit,
             core::PrimalDualOptions options);

  void reset(const model::ProblemInstance& instance);

  /// The planner's action for slot t (plans lazily when t enters a new
  /// commitment block). Each slot's action is handed out once: the block's
  /// last action leaves the plan by move, so between blocks the planner
  /// holds no dense decision. `deadline`/`log` (both optional) supervise
  /// the plan's solve (see runtime/supervisor.hpp); with neither set the
  /// solve is exactly the unsupervised one.
  model::SlotDecision action(std::size_t t,
                             const workload::Predictor& predictor,
                             runtime::DeadlineToken* deadline = nullptr,
                             runtime::SupervisionLog* log = nullptr);

  /// Executed-state resync (see Controller::resync): a wrapper substituted
  /// the decision actually executed at `slot`, so the variant's committed
  /// trajectory is void. The next action() replans from `executed` instead
  /// of the internal trajectory, dropping any cached plan.
  void resync(std::size_t slot, const model::CacheState& executed);

  /// Snapshot = plan bookkeeping (plan time, the rest of the committed
  /// block, the trajectory, a pending resync), the same-window warm
  /// multipliers, and the solver's warm-mu state (Checkpointable contract).
  void save_state(util::BinaryWriter& w) const;
  void restore_state(util::BinaryReader& r);

 private:
  void plan(std::ptrdiff_t tau, const workload::Predictor& predictor,
            runtime::DeadlineToken* deadline, runtime::SupervisionLog* log);

  std::size_t offset_;
  std::size_t window_;
  std::size_t commit_;
  core::PrimalDualOptions options_;
  /// Persistent across plans: its workspace bank is reused as an
  /// allocation arena, and its step offset and mu geometry serve a
  /// same-window replan's warm mu.
  core::PrimalDualSolver solver_;
  const model::ProblemInstance* instance_ = nullptr;

  std::ptrdiff_t plan_time_ = 0;
  bool has_plan_ = false;
  /// The commitment block not yet handed out, indexed from plan_time_.
  model::Schedule plan_;
  /// Start of the next plan: the block's last cache (the instance's
  /// initial cache before the first plan).
  model::CacheState trajectory_cache_;
  /// Executed cache substituted by a wrapper; consumed by the next plan().
  std::optional<model::CacheState> resync_cache_;
  /// The current block's multipliers, for a replan at the same tau;
  /// released with the block's last action.
  linalg::Vec warm_mu_;
  std::size_t warm_horizon_ = 0;
  /// Forecast window the HorizonProblem references (refilled in place each
  /// plan()).
  model::SparseDemandTrace forecast_;
};

class ChcController final : public Controller {
 public:
  /// `window` = w, `commit` = r in [1, w]; `rho` in (0, 1) is the rounding
  /// threshold (defaults to the paper's optimum).
  ChcController(std::size_t window, std::size_t commit,
                core::PrimalDualOptions options = {},
                double rho = core::chc_rounding_threshold());

  /// AFHC = CHC with r = w (Sec. IV-B notes AFHC is the extreme case).
  static std::unique_ptr<ChcController> afhc(
      std::size_t window, core::PrimalDualOptions options = {},
      double rho = core::chc_rounding_threshold());

  std::string name() const override;
  void reset(const model::ProblemInstance& instance) override;
  model::SlotDecision decide(const DecisionContext& ctx) override;
  /// Propagates the executed state to every staggered planner (fault-slot
  /// substitution; clean slots keep the paper's committed trajectories).
  void resync(std::size_t slot, const model::SlotDecision& executed) override;

  /// Snapshot = every staggered planner's state, in planner order.
  bool supports_checkpoint() const override { return true; }
  void save_state(util::BinaryWriter& w) const override;
  void restore_state(util::BinaryReader& r) override;

  std::size_t commit() const { return commit_; }

 private:
  std::size_t window_;
  std::size_t commit_;
  core::PrimalDualOptions options_;
  double rho_;
  bool is_afhc_ = false;
  const model::ProblemInstance* instance_ = nullptr;
  std::vector<FhcPlanner> planners_;
};

}  // namespace mdo::online
