// Fixed Horizon Control as a standalone controller.
//
// FHC(v) is the building block of AFHC and CHC (Sec. IV-B): it re-plans
// every r slots over a w-slot window and commits the whole block. Exposed
// as its own Controller so the un-averaged policy can be benchmarked
// directly — it shows why the averaging in AFHC/CHC helps: a single FHC
// variant suffers at its commitment boundaries when forecasts are noisy.
// RhcController (online/rhc.hpp) is this controller at r = 1.
#pragma once

#include "online/chc.hpp"

namespace mdo::online {

class FhcController : public Controller {
 public:
  /// Plans at slots ≡ offset (mod commit); offset < commit <= window.
  FhcController(std::size_t window, std::size_t commit,
                std::size_t offset = 0, core::PrimalDualOptions options = {});

  std::string name() const override;
  void reset(const model::ProblemInstance& instance) override;
  model::SlotDecision decide(const DecisionContext& ctx) override;
  /// Hands the substituted executed state to the planner (see
  /// FhcPlanner::resync); clean slots keep the committed trajectory.
  void resync(std::size_t slot, const model::SlotDecision& executed) override;

  /// Snapshot = the single planner's state (see FhcPlanner::save_state).
  bool supports_checkpoint() const override { return true; }
  void save_state(util::BinaryWriter& w) const override {
    planner_.save_state(w);
  }
  void restore_state(util::BinaryReader& r) override {
    planner_.restore_state(r);
  }

 protected:
  std::size_t window_;

 private:
  std::size_t commit_;
  std::size_t offset_;
  FhcPlanner planner_;
};

}  // namespace mdo::online
