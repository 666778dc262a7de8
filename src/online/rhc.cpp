#include "online/rhc.hpp"

#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "util/error.hpp"

namespace mdo::online {

RhcController::RhcController(std::size_t window,
                             core::PrimalDualOptions options)
    : window_(window), options_(options), solver_(options_) {
  MDO_REQUIRE(window >= 1, "RHC window must be >= 1");
}

std::string RhcController::name() const {
  return "RHC(w=" + std::to_string(window_) + ")";
}

void RhcController::reset(const model::ProblemInstance& instance) {
  instance_ = &instance;
  trajectory_cache_ = instance.initial_cache;
  // Drop the workspace bank: warm starts from another run must not leak.
  solver_ = core::PrimalDualSolver(options_);
}

model::SlotDecision RhcController::decide(const DecisionContext& ctx) {
  MDO_REQUIRE(instance_ != nullptr, "RHC: reset() must be called first");
  MDO_REQUIRE(ctx.predictor != nullptr, "RHC needs a predictor");

  // The window problem references the controller's window buffer: one
  // trace reused across decisions, refilled in place — no per-decision
  // window copy.
  core::HorizonProblem problem;
  problem.config = &instance_->config;
  ctx.predictor->predict_window_sparse_into(ctx.slot, window_, forecast_);
  problem.sparse_demand = &forecast_;
  problem.initial_cache = trajectory_cache_;
  const std::size_t horizon = problem.horizon();
  MDO_REQUIRE(horizon >= 1, "RHC: slot beyond the instance horizon");

  // The window slid by one slot: rotate the P2 warm starts along with it.
  // The multipliers are deliberately NOT carried over — the dual optimum
  // moves with the initial cache and the window tail, and a shifted mu
  // start was measured to converge slower than the marginal
  // re-initialization (see the header comment).
  solver_.advance_window(/*shift=*/1);
  // With no deadline and no supervision log this is exactly solver_.solve()
  // — the clean path stays bit-identical to the unsupervised controller.
  // RHC commits only the first action, so a truncated backoff retry may
  // shrink the window down to a single slot.
  const auto solution = runtime::supervised_solve(
      solver_, problem, /*warm_mu=*/nullptr, ctx.deadline,
      ctx.supervision, ctx.slot, /*min_horizon=*/1);

  trajectory_cache_ = solution.schedule.front().cache;
  return solution.schedule.front();
}

void RhcController::save_state(util::BinaryWriter& w) const {
  MDO_REQUIRE(instance_ != nullptr, "RHC: reset() must be called first");
  runtime::write_cache(w, trajectory_cache_);
  solver_.save_state(w);
}

void RhcController::restore_state(util::BinaryReader& r) {
  MDO_REQUIRE(instance_ != nullptr, "RHC: reset() must be called first");
  trajectory_cache_ = runtime::read_cache(r, instance_->config);
  solver_.restore_state(r);
}

void RhcController::observe(std::size_t /*slot*/,
                            const model::SlotDecision& executed) {
  if (instance_ == nullptr) return;
  trajectory_cache_ = executed.cache;
}

}  // namespace mdo::online
