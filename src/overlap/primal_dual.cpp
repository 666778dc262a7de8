#include "overlap/primal_dual.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/caching.hpp"
#include "solver/subgradient.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mdo::overlap {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void OverlapHorizonProblem::validate() const {
  MDO_REQUIRE(config != nullptr && layout != nullptr,
              "overlap horizon: config/layout must be set");
  config->validate();
  MDO_REQUIRE(!demand.empty(), "overlap horizon: empty window");
  for (const auto& slot : demand) {
    MDO_REQUIRE(slot.num_classes() == config->num_classes() &&
                    slot.num_contents() == config->num_contents,
                "overlap horizon: demand shape mismatch");
  }
  MDO_REQUIRE(initial.size() == config->num_sbs(),
              "overlap horizon: initial cache SBS mismatch");
  for (std::size_t n = 0; n < initial.size(); ++n) {
    MDO_REQUIRE(initial[n].size() == config->num_contents,
                "overlap horizon: initial cache catalogue mismatch");
    std::size_t cached = 0;
    for (const auto bit : initial[n]) cached += bit;
    MDO_REQUIRE(cached <= config->sbs[n].cache_capacity,
                "overlap horizon: initial cache over capacity");
  }
}

double OverlapHorizonSolution::gap() const {
  return (upper_bound - lower_bound) / std::max(std::abs(upper_bound), 1e-12);
}

void OverlapP1Core::begin(const OverlapHorizonProblem& problem,
                          const OverlapPrimalDualOptions& options) {
  problem_ = &problem;
  options_ = options;
  const auto& config = *problem.config;
  const std::size_t count = config.num_sbs();
  const std::size_t k_count = config.num_contents;
  const std::size_t w = problem.horizon();
  p1_.assign(count, P1State{});
  objectives_.assign(count, 0.0);
  x_.assign(count, {});
  util::parallel_for(0, count, [&](std::size_t n) {
    core::CachingSubproblem& sub = p1_[n].sub;
    sub.num_contents = k_count;
    sub.horizon = w;
    sub.capacity = config.sbs[n].cache_capacity;
    sub.beta = config.sbs[n].replacement_beta;
    sub.initial = problem.initial[n];
    sub.rewards.assign(k_count * w, 0.0);
    p1_[n].flow.bind(sub);
  });
}

void OverlapP1Core::iterate(const linalg::Vec& mu) {
  const auto& config = *problem_->config;
  const auto& layout = *problem_->layout;
  const std::size_t k_count = config.num_contents;
  const std::size_t per_slot = layout.y_size();
  const std::size_t w = problem_->horizon();
  util::parallel_for(0, p1_.size(), [&](std::size_t n) {
    core::CachingSubproblem& sub = p1_[n].sub;
    std::fill(sub.rewards.begin(), sub.rewards.end(), 0.0);
    for (std::size_t t = 0; t < w; ++t) {
      for (const std::size_t id : layout.links_of_sbs(n)) {
        for (std::size_t k = 0; k < k_count; ++k) {
          sub.rewards[t * k_count + k] +=
              mu[t * per_slot + layout.index(id, k)];
        }
      }
    }
    objectives_[n] = p1_[n].flow.solve_into(sub, x_[n]);
  });
}

OverlapPrimalDualSolver::OverlapPrimalDualSolver(
    OverlapPrimalDualOptions options)
    : options_(options) {
  MDO_REQUIRE(options_.max_iterations >= 1, "need at least one iteration");
  MDO_REQUIRE(options_.epsilon > 0.0, "epsilon must be positive");
  MDO_REQUIRE(options_.step_alpha > 0.0, "step_alpha must be positive");
}

OverlapHorizonSolution OverlapPrimalDualSolver::solve(
    const OverlapHorizonProblem& problem, const linalg::Vec* warm_mu,
    runtime::DeadlineToken* deadline) {
  problem.validate();
  const auto& config = *problem.config;
  const auto& layout = *problem.layout;
  const std::size_t w = problem.horizon();
  const std::size_t per_slot = layout.y_size();
  const std::size_t k_count = config.num_contents;

  // Marginal BS gradient at y = 0 for initialization / step scaling.
  linalg::Vec mu(per_slot * w, 0.0);
  double mean_marginal = 0.0;
  for (std::size_t t = 0; t < w; ++t) {
    const auto& demand = problem.demand[t];
    double a = 0.0;
    for (std::size_t m = 0; m < config.num_classes(); ++m) {
      double row = 0.0;
      for (std::size_t k = 0; k < k_count; ++k) row += demand.at(m, k);
      a += config.classes[m].omega_bs * row;
    }
    for (std::size_t id = 0; id < layout.num_links(); ++id) {
      const auto [m, n] = layout.link(id);
      (void)n;
      for (std::size_t k = 0; k < k_count; ++k) {
        const double marginal =
            2.0 * a * config.classes[m].omega_bs * demand.at(m, k);
        mean_marginal += marginal;
        if (options_.marginal_initialization && warm_mu == nullptr) {
          mu[t * per_slot + layout.index(id, k)] = marginal;
        }
      }
    }
  }
  mean_marginal /= std::max<std::size_t>(per_slot * w, 1);
  if (warm_mu != nullptr) {
    MDO_REQUIRE(warm_mu->size() == mu.size(), "overlap: warm mu size");
    mu = *warm_mu;
  }
  const double step_scale = options_.step_scale > 0.0
                                ? options_.step_scale
                                : std::max(1e-9, 0.5 * mean_marginal);
  const solver::DiminishingStep step(options_.step_alpha);

  OverlapHorizonSolution best;
  best.upper_bound = kInf;
  best.lower_bound = -kInf;

  // ---- Per-SBS P1 state, reused across dual iterations (shape and initial
  // cache are fixed for the whole solve; only the rewards change), owned by
  // the P1 core.
  OverlapP1Core p1;
  p1.begin(problem, options_);
  const std::vector<std::vector<std::uint8_t>>& x = p1.x();  // [t*K + k]

  // ---- Per-slot P2 workspaces: coefficients built once here, the dual
  // loop then only refreshes the linear term (and the repair loop the box
  // upper bound); the warm starts live inside and carry across solves.
  std::vector<SlotState>& bank = bank_;
  bank.resize(w);
  util::parallel_for(0, w, [&](std::size_t t) {
    SlotState& ss = bank[t];
    ss.p2.bind(config, layout, problem.demand[t]);
    ss.repair.bind(config, layout, problem.demand[t]);
  });

  bool deadline_expired = false;
  linalg::Vec xd;  // per-slot x expansion for the fused dual-ascent kernel
  for (std::size_t iteration = 0; iteration < options_.max_iterations;
       ++iteration) {
    // ---- Deadline poll at the serial point of the loop, only after the
    // first iteration completed (a feasible incumbent then exists) — same
    // placement and semantics as core::PrimalDualSolver.
    if (iteration > 0 && deadline != nullptr && deadline->poll()) {
      deadline_expired = true;
      break;
    }
    // ---- P1 per SBS (unchanged caching structure; reuse the flow solver).
    // Independent per SBS: the core fans out, then we reduce serially in
    // SBS order so the objective is bit-identical at any thread count.
    p1.iterate(mu);
    double p1_value = 0.0;
    for (const double value : p1.objectives()) p1_value += value;

    // ---- P2 per slot (coupled across SBSs, independent across slots).
    std::vector<double> p2_objectives(w, 0.0);
    util::parallel_for(0, w, [&](std::size_t t) {
      SlotState& ss = bank[t];
      ss.p2.set_linear(mu.data() + t * per_slot,
                       mu.data() + (t + 1) * per_slot);
      p2_objectives[t] =
          solve_overlap_load_balancing(ss.p2, options_.p2).objective;
    });
    double p2_value = 0.0;
    for (const double value : p2_objectives) p2_value += value;

    best.lower_bound = std::max(best.lower_bound, p1_value + p2_value);

    // ---- Feasibility repair -> upper bound (independent per slot).
    std::vector<OverlapDecision> schedule(w);
    util::parallel_for(0, w, [&](std::size_t t) {
      SlotState& ss = bank[t];
      schedule[t].cache = empty_cache(config);
      linalg::Vec& ub = ss.ub;
      ub.assign(per_slot, 0.0);
      for (std::size_t n = 0; n < config.num_sbs(); ++n) {
        for (std::size_t k = 0; k < k_count; ++k) {
          schedule[t].cache[n][k] = x[n][t * k_count + k];
        }
      }
      for (std::size_t id = 0; id < layout.num_links(); ++id) {
        const auto [m, n] = layout.link(id);
        (void)m;
        for (std::size_t k = 0; k < k_count; ++k) {
          ub[layout.index(id, k)] =
              x[n][t * k_count + k] != 0 ? 1.0 : 0.0;
        }
      }
      // Unchanged-x fast path (valid within one solve: bind() above
      // invalidated any previous window's solution).
      if (!ss.repair.has_solution() || ub != ss.repair.upper()) {
        ss.repair.set_upper(ub);
        solve_overlap_load_balancing(ss.repair, options_.p2);
      }
      schedule[t].y = ss.repair.y();
    });
    const double ub_candidate = schedule_cost(config, layout, problem.demand,
                                              schedule, problem.initial);
    if (ub_candidate < best.upper_bound) {
      best.upper_bound = ub_candidate;
      best.schedule = std::move(schedule);
    }

    best.iterations = iteration + 1;
    if (best.gap() <= options_.epsilon) break;

    // ---- Subgradient ascent: g = y - x. x is expanded once per slot onto
    // the link layout so the fused kernel runs over contiguous spans; each
    // coordinate's update is exactly max(0, mu + delta * (y - x)) as before.
    const double delta = step_scale * step(iteration);
    for (std::size_t t = 0; t < w; ++t) {
      const linalg::Vec& y = bank[t].p2.y();
      xd.resize(per_slot);
      for (std::size_t id = 0; id < layout.num_links(); ++id) {
        const auto [m, n] = layout.link(id);
        (void)m;
        for (std::size_t k = 0; k < k_count; ++k) {
          xd[layout.index(id, k)] =
              static_cast<double>(x[n][t * k_count + k]);
        }
      }
      linalg::dual_ascent_project(mu.data() + t * per_slot, y.data(),
                                  xd.data(), delta, per_slot);
    }
  }

  best.mu = std::move(mu);
  best.status = best.gap() <= options_.epsilon
                    ? solver::SolveStatus::kConverged
                : deadline_expired ? solver::SolveStatus::kDeadlineExpired
                                   : solver::SolveStatus::kIterationLimit;
  MDO_CHECK(!best.schedule.empty(), "overlap primal-dual: no schedule");
  return best;
}

}  // namespace mdo::overlap
