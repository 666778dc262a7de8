#include "online/chc.hpp"

#include <algorithm>
#include <utility>

#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "util/error.hpp"

namespace mdo::online {

FhcPlanner::FhcPlanner(std::size_t offset, std::size_t window,
                       std::size_t commit, core::PrimalDualOptions options)
    : offset_(offset),
      window_(window),
      commit_(commit),
      options_(options),
      solver_(options_) {
  MDO_REQUIRE(window >= 1, "FHC window must be >= 1");
  MDO_REQUIRE(commit >= 1 && commit <= window,
              "FHC commitment must be in [1, window]");
  MDO_REQUIRE(offset < commit, "FHC offset must be < commitment level");
}

void FhcPlanner::reset(const model::ProblemInstance& instance) {
  instance_ = &instance;
  trajectory_cache_ = instance.initial_cache;
  has_plan_ = false;
  plan_.clear();
  resync_cache_.reset();
}

void FhcPlanner::resync(std::size_t slot, const model::CacheState& executed) {
  (void)slot;  // the cached plan is void regardless of where it diverged
  resync_cache_ = executed;
}

void FhcPlanner::plan(std::ptrdiff_t tau,
                      const workload::Predictor& predictor,
                      runtime::DeadlineToken* deadline,
                      runtime::SupervisionLog* log) {
  const auto& config = instance_->config;
  const std::size_t total_horizon = predictor.horizon();

  // Window demand: zero demand for pre-horizon plans (Lambda^t = 0 for
  // t <= 0), forecasts for the rest, clipped at the instance horizon.
  // A pre-horizon plan (tau < 0) predates every observation: querying the
  // predictor with the clamped slot-0 time would smuggle in information not
  // yet available at plan time, so those windows are zero/prior-only.
  // The problem references the planner's window buffer, refilled in place
  // each plan — no per-plan window copy.
  core::HorizonProblem problem;
  problem.config = &config;
  if (tau >= 0) {
    predictor.predict_window_sparse_into(static_cast<std::size_t>(tau),
                                         window_, forecast_);
  } else {
    forecast_.clear();
    const std::ptrdiff_t slots = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(window_),
        static_cast<std::ptrdiff_t>(total_horizon) - tau);
    for (std::ptrdiff_t i = 0; i < slots; ++i) {
      forecast_.push_back(model::make_zero_sparse_slot_demand(config));
    }
  }
  problem.sparse_demand = &forecast_;
  MDO_CHECK(problem.horizon() >= 1, "FHC: empty planning window");
  // Starting state: this variant's own action at tau - 1 (the last cache
  // of its previous block), or the instance's initial cache before its
  // first plan. After a wrapper substituted the executed decision
  // (resync), the committed trajectory never happened: plan from the
  // executed cache instead.
  problem.initial_cache =
      resync_cache_ ? std::move(*resync_cache_) : trajectory_cache_;
  resync_cache_.reset();

  // The plan must cover this commitment block: a truncated backoff retry
  // may drop tail slots, but never below the block the planner commits.
  const std::size_t min_horizon = static_cast<std::size_t>(
      std::max<std::ptrdiff_t>(
          1, std::min<std::ptrdiff_t>(
                 static_cast<std::ptrdiff_t>(commit_),
                 static_cast<std::ptrdiff_t>(total_horizon) - tau)));
  // With no deadline and no log this is exactly solver_.solve(problem) —
  // the clean path stays bit-identical to the unsupervised planner.
  auto solution = runtime::supervised_solve(
      solver_, problem, deadline, log,
      static_cast<std::size_t>(std::max<std::ptrdiff_t>(tau, 0)),
      min_horizon);

  // Keep only the commitment block: no action past it is ever read.
  plan_ = std::move(solution.schedule);
  if (plan_.size() > commit_) {
    plan_.erase(plan_.begin() + static_cast<std::ptrdiff_t>(commit_),
                plan_.end());
  }
  trajectory_cache_ = plan_.back().cache;
  plan_time_ = tau;
  has_plan_ = true;
}

model::SlotDecision FhcPlanner::action(std::size_t t,
                                       const workload::Predictor& predictor,
                                       runtime::DeadlineToken* deadline,
                                       runtime::SupervisionLog* log) {
  MDO_REQUIRE(instance_ != nullptr, "FHC: reset() must be called first");
  MDO_REQUIRE(t < predictor.horizon(), "FHC: slot beyond the horizon");
  // Most recent plan time tau <= t with tau ≡ offset (mod commit).
  const auto signed_t = static_cast<std::ptrdiff_t>(t);
  const auto r = static_cast<std::ptrdiff_t>(commit_);
  std::ptrdiff_t diff = (signed_t - static_cast<std::ptrdiff_t>(offset_)) % r;
  if (diff < 0) diff += r;
  const std::ptrdiff_t tau = signed_t - diff;

  if (!has_plan_ || plan_time_ != tau || resync_cache_.has_value()) {
    plan(tau, predictor, deadline, log);
  }
  const std::ptrdiff_t index = signed_t - plan_time_;
  MDO_CHECK(index >= 0 && index < static_cast<std::ptrdiff_t>(plan_.size()),
            "FHC: slot outside the current plan");
  const auto i = static_cast<std::size_t>(index);
  if (i + 1 < plan_.size()) return plan_[i];
  // The block ends here: its last action leaves by move.
  model::SlotDecision last = std::move(plan_.back());
  plan_.pop_back();
  return last;
}

void FhcPlanner::save_state(util::BinaryWriter& w) const {
  MDO_REQUIRE(instance_ != nullptr, "FHC: reset() must be called first");
  w.i64(static_cast<std::int64_t>(plan_time_));
  w.boolean(has_plan_);
  runtime::write_schedule(w, plan_);
  runtime::write_cache(w, trajectory_cache_);
  w.boolean(resync_cache_.has_value());
  if (resync_cache_.has_value()) runtime::write_cache(w, *resync_cache_);
}

void FhcPlanner::restore_state(util::BinaryReader& r) {
  MDO_REQUIRE(instance_ != nullptr, "FHC: reset() must be called first");
  const auto& config = instance_->config;
  plan_time_ = static_cast<std::ptrdiff_t>(r.i64());
  has_plan_ = r.boolean();
  plan_ = runtime::read_schedule(r, config);
  trajectory_cache_ = runtime::read_cache(r, config);
  resync_cache_.reset();
  if (r.boolean()) resync_cache_ = runtime::read_cache(r, config);
}

ChcController::ChcController(std::size_t window, std::size_t commit,
                             core::PrimalDualOptions options, double rho)
    : window_(window), commit_(commit), options_(options), rho_(rho) {
  MDO_REQUIRE(window >= 1, "CHC window must be >= 1");
  MDO_REQUIRE(commit >= 1 && commit <= window,
              "CHC commitment level must be in [1, window]");
  MDO_REQUIRE(rho > 0.0 && rho < 1.0, "CHC rho must be in (0, 1)");
  planners_.reserve(commit_);
  for (std::size_t v = 0; v < commit_; ++v) {
    planners_.emplace_back(v, window_, commit_, options_);
  }
}

std::unique_ptr<ChcController> ChcController::afhc(
    std::size_t window, core::PrimalDualOptions options, double rho) {
  auto controller =
      std::make_unique<ChcController>(window, window, options, rho);
  controller->is_afhc_ = true;
  return controller;
}

std::string ChcController::name() const {
  if (is_afhc_) return "AFHC(w=" + std::to_string(window_) + ")";
  return "CHC(w=" + std::to_string(window_) +
         ",r=" + std::to_string(commit_) + ")";
}

void ChcController::reset(const model::ProblemInstance& instance) {
  instance_ = &instance;
  for (auto& planner : planners_) planner.reset(instance);
}

void ChcController::resync(std::size_t slot,
                           const model::SlotDecision& executed) {
  for (auto& planner : planners_) planner.resync(slot, executed.cache);
}

model::SlotDecision ChcController::decide(const DecisionContext& ctx) {
  MDO_REQUIRE(instance_ != nullptr, "CHC: reset() must be called first");
  MDO_REQUIRE(ctx.predictor != nullptr, "CHC needs a predictor");
  const auto& config = instance_->config;

  // Average the r variants' actions (36)-(37).
  std::vector<linalg::Vec> fractional_x(config.num_sbs(),
                                        linalg::Vec(config.num_contents, 0.0));
  model::LoadAllocation averaged_y(config);
  const double inv_r = 1.0 / static_cast<double>(commit_);
  for (auto& planner : planners_) {
    const model::SlotDecision action =
        planner.action(ctx.slot, *ctx.predictor, ctx.deadline,
                       ctx.supervision);
    for (std::size_t n = 0; n < config.num_sbs(); ++n) {
      for (std::size_t k = 0; k < config.num_contents; ++k) {
        if (action.cache.cached(n, k)) fractional_x[n][k] += inv_r;
      }
      auto& acc = averaged_y.sbs_data(n);
      const auto& part = action.load.sbs_data(n);
      for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += inv_r * part[j];
    }
  }

  // Rounding policy (Theorem 3): threshold x at rho, zero masked y.
  model::SlotDecision decision;
  decision.cache = core::round_cache(config, fractional_x, rho_);
  decision.load = std::move(averaged_y);
  core::mask_load_by_cache(config, decision.cache, decision.load);
  return decision;
}

void ChcController::save_state(util::BinaryWriter& w) const {
  MDO_REQUIRE(instance_ != nullptr, "CHC: reset() must be called first");
  w.size(planners_.size());
  for (const auto& planner : planners_) planner.save_state(w);
}

void ChcController::restore_state(util::BinaryReader& r) {
  MDO_REQUIRE(instance_ != nullptr, "CHC: reset() must be called first");
  MDO_REQUIRE(r.size() == planners_.size(),
              "CHC snapshot: planner count mismatch");
  for (auto& planner : planners_) planner.restore_state(r);
}

}  // namespace mdo::online
