// The controller abstraction the simulation engine drives.
//
// Each slot the simulator hands a controller the current time, the *true*
// demand of the current slot (which only the baselines that the paper
// declares clairvoyant — offline, LRFU, the classic policies — may use) and
// the predictor (which the online algorithms use for their w-slot
// forecasts). The controller returns the joint decision for the slot; the
// simulator then repairs residual bandwidth infeasibility against the true
// demand and accounts the true cost.
#pragma once

#include <string>

#include "model/decision.hpp"
#include "model/instance.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"
#include "workload/predictor.hpp"

namespace mdo::runtime {
class DeadlineToken;
struct SupervisionLog;
}  // namespace mdo::runtime

namespace mdo::online {

/// Per-slot inputs.
///
/// Under fault injection (see sim/fault_injector.hpp) the simulator hands
/// controllers the *observed* world, which can differ from the clean one:
/// `true_demand` may carry corrupted (NaN/negative) or spiked rates,
/// `predictor` is null during a predictor blackout, and `effective_config`
/// describes the cell with outaged SBSs (capacity and bandwidth forced to
/// zero). Plain controllers may ignore `effective_config`; RobustController
/// enforces it.
struct DecisionContext {
  std::size_t slot = 0;                               // tau
  const model::SlotDemand* true_demand = nullptr;     // observed demand at tau
  /// Sparse twin of true_demand; exactly one of the two is set when demand
  /// is observable. The simulator passes the true demand here, converted
  /// once per slot for a dense instance, and a fault-perturbed observation
  /// through true_demand. Controllers read it through demand().
  const model::SparseSlotDemand* true_demand_sparse = nullptr;
  const workload::Predictor* predictor = nullptr;     // forecasts from tau
  /// Per-slot degraded network view; nullptr means the instance config.
  const model::NetworkConfig* effective_config = nullptr;
  /// Optional per-decision budget (runtime/deadline.hpp). Solver-backed
  /// controllers thread it into Algorithm 1, which returns its best
  /// feasible incumbent with SolveStatus::kDeadlineExpired on expiry
  /// (anytime semantics). Null = unlimited; the decision path is then
  /// bitwise-identical to the pre-deadline behavior.
  runtime::DeadlineToken* deadline = nullptr;
  /// Optional sink for supervision events (runtime/supervisor.hpp):
  /// deadline expirations, solve failures, backoff retries. Null disables
  /// supervised retries — plain solves only.
  runtime::SupervisionLog* supervision = nullptr;

  bool has_demand() const {
    return true_demand != nullptr || true_demand_sparse != nullptr;
  }
  /// View over whichever demand representation is present. Call only when
  /// has_demand() (an empty view throws on access).
  model::SlotDemandView demand() const {
    if (true_demand_sparse != nullptr) {
      return model::SlotDemandView(*true_demand_sparse);
    }
    if (true_demand != nullptr) return model::SlotDemandView(*true_demand);
    return model::SlotDemandView();
  }
};

class Controller {
 public:
  virtual ~Controller() = default;

  /// Display name ("RHC", "CHC(r=5)", ...).
  virtual std::string name() const = 0;

  /// Called once before a simulation run; controllers capture the instance
  /// (which must outlive the run) and clear internal state.
  virtual void reset(const model::ProblemInstance& instance) = 0;

  /// Decision for slot ctx.slot. Must respect cache capacity (1); the
  /// simulator enforces (2)-(3) against the true demand afterwards.
  virtual model::SlotDecision decide(const DecisionContext& ctx) = 0;

  /// Called by the simulator after the slot's decision has been repaired and
  /// executed. Default: no-op. The planner-based controllers (RHC, FHC,
  /// CHC/AFHC) keep their own committed trajectories on clean slots (the
  /// paper's averaging design; the repair never edits a cache, so RHC's
  /// trajectory is the executed state there) and resync only through
  /// resync() below.
  virtual void observe(std::size_t slot, const model::SlotDecision& executed) {
    (void)slot;
    (void)executed;
  }

  /// Called instead of observe() when the executed decision did NOT come
  /// from this controller's decide() — a wrapper (RobustController)
  /// substituted a fallback action or projected the caches onto a degraded
  /// config. Trajectory-tracking controllers must abandon internal state
  /// derived from the phantom trajectory and replan from `executed`,
  /// otherwise the replacement cost h(X_t, X_{t-1}) of their next actions is
  /// charged against a cache state that never existed. The default forwards
  /// to observe().
  virtual void resync(std::size_t slot, const model::SlotDecision& executed) {
    observe(slot, executed);
  }

  /// Checkpoint support (see runtime/checkpoint.hpp). A controller that
  /// returns true here implements save_state()/restore_state() under this
  /// contract: restoring a snapshot into a freshly reset() controller makes
  /// every subsequent decide() bit-identical to the original's. The checkpointing simulator rejects unsupported
  /// controllers upfront rather than writing snapshots that cannot resume.
  virtual bool supports_checkpoint() const { return false; }
  virtual void save_state(util::BinaryWriter& w) const {
    (void)w;
    throw LogicError(name() + ": checkpointing not supported");
  }
  virtual void restore_state(util::BinaryReader& r) {
    (void)r;
    throw LogicError(name() + ": checkpointing not supported");
  }
};

}  // namespace mdo::online
