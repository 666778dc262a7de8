#include "online/offline_controller.hpp"

#include "util/error.hpp"

namespace mdo::online {

OfflineController::OfflineController(core::PrimalDualOptions options)
    : options_(options) {}

void OfflineController::reset(const model::ProblemInstance& instance) {
  model::SparseDemandTrace converted;
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.sparse_demand =
      &model::sparse_trace(instance.demand_view(), converted);
  problem.initial_cache = instance.initial_cache;
  solution_ = core::PrimalDualSolver(options_).solve(problem);
}

model::SlotDecision OfflineController::decide(const DecisionContext& ctx) {
  MDO_REQUIRE(ctx.slot < solution_.schedule.size(),
              "offline controller: slot beyond solved horizon");
  return solution_.schedule[ctx.slot];
}

}  // namespace mdo::online
