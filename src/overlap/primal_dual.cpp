#include "overlap/primal_dual.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/caching.hpp"
#include "core/dual_ascent.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mdo::overlap {

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

OverlapPrimalDualSolver::OverlapPrimalDualSolver(
    OverlapPrimalDualOptions options)
    : options_(options) {
  MDO_REQUIRE(options_.max_iterations >= 1, "need at least one iteration");
  MDO_REQUIRE(options_.epsilon > 0.0, "epsilon must be positive");
}

OverlapHorizonSolution OverlapPrimalDualSolver::solve(
    const OverlapHorizonProblem& problem, runtime::DeadlineToken* deadline) {
  problem.validate();
  const auto& config = *problem.config;
  const auto& layout = *problem.layout;
  const std::size_t w = problem.horizon();
  const std::size_t per_slot = layout.y_size();
  const std::size_t k_count = config.num_contents;

  // Marginal BS gradient at y = 0: the initial mu and the step scale.
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
        mu[t * per_slot + layout.index(id, k)] = marginal;
      }
    }
  }
  mean_marginal /= std::max<std::size_t>(per_slot * w, 1);
  const core::DualAscentParams params{options_.max_iterations,
                                      options_.epsilon,
                                      std::max(1e-9, 0.5 * mean_marginal)};

  // ---- Per-slot P2 workspaces: coefficients built once here, the dual
  // loop then only refreshes the linear term (and the repair loop the box
  // upper bound). Each bind starts cold; the warm starts then carry from
  // one dual iteration to the next within this solve.
  bank_.resize(w);
  util::parallel_for(0, w, [&](std::size_t t) {
    SlotState& ss = bank_[t];
    ss.p2.bind(config, layout, problem.demand[t]);
    ss.repair.bind(config, layout, problem.demand[t]);
  });

  // ---- Per-SBS P1 state, reused across dual iterations (shape and initial
  // cache are fixed for the whole solve; only the rewards change). Overlap
  // stays in-process: its P2 couples every SBS within a slot through the
  // shared links, so it cannot be partitioned by SBS like ShardCore.
  const std::size_t num_sbs = config.num_sbs();
  core::CachingBank p1;
  p1.reset(num_sbs);
  util::parallel_for(0, num_sbs, [&](std::size_t n) {
    p1.bind(n, k_count, w, config.sbs[n].cache_capacity,
            config.sbs[n].replacement_beta, problem.initial[n]);
  });
  const std::vector<std::vector<std::uint8_t>>& x = p1.x();  // [t*K + k]

  // ---- Subgradient ascent: g = y - x, the fused kernel over each slot's
  // contiguous span. x on the link layout is the repair's upper bound: the
  // 0/1 expansion of the P1 plan that the pending step was computed from.
  auto step = [&](bool apply_step, double delta) {
    for (std::size_t t = 0; apply_step && t < w; ++t) {
      linalg::dual_ascent_project(mu.data() + t * per_slot,
                                  bank_[t].p2.y().data(), bank_[t].ub.data(),
                                  delta, per_slot);
    }
    return true;
  };

  std::vector<double> p2_objectives(w, 0.0);
  auto iterate = [&](bool apply_step, double delta,
                     std::vector<OverlapDecision>& repaired) {
    step(apply_step, delta);
    // ---- P1 per SBS (unchanged caching structure; reuse the flow
    // solver) under rewards nu = the sum of mu over the SBS's links,
    // reduced serially in SBS order below.
    util::parallel_for(0, num_sbs, [&](std::size_t n) {
      linalg::Vec& rewards = p1.clear_rewards(n);
      for (std::size_t t = 0; t < w; ++t) {
        for (const std::size_t id : layout.links_of_sbs(n)) {
          for (std::size_t k = 0; k < k_count; ++k) {
            rewards[t * k_count + k] +=
                mu[t * per_slot + layout.index(id, k)];
          }
        }
      }
      p1.solve(n);
    });

    // ---- P2 per slot (coupled across SBSs, independent across slots).
    util::parallel_for(0, w, [&](std::size_t t) {
      SlotState& ss = bank_[t];
      ss.p2.set_linear(mu.data() + t * per_slot,
                       mu.data() + (t + 1) * per_slot);
      p2_objectives[t] =
          solve_overlap_load_balancing(ss.p2, {}).objective;
    });

    // ---- Feasibility repair -> upper bound (independent per slot).
    repaired.resize(w);
    util::parallel_for(0, w, [&](std::size_t t) {
      SlotState& ss = bank_[t];
      repaired[t].cache = empty_cache(config);
      linalg::Vec& ub = ss.ub;
      ub.assign(per_slot, 0.0);
      for (std::size_t n = 0; n < num_sbs; ++n) {
        for (std::size_t k = 0; k < k_count; ++k) {
          repaired[t].cache[n][k] = x[n][t * k_count + k];
        }
      }
      for (std::size_t id = 0; id < layout.num_links(); ++id) {
        const std::size_t n = layout.link(id).second;
        for (std::size_t k = 0; k < k_count; ++k) {
          ub[layout.index(id, k)] = x[n][t * k_count + k] != 0 ? 1.0 : 0.0;
        }
      }
      // Unchanged-x fast path (valid within one solve: bind() above
      // invalidated any previous window's solution).
      if (!ss.repair.has_solution() || ub != ss.repair.upper()) {
        ss.repair.set_upper(ub);
        solve_overlap_load_balancing(ss.repair, {});
      }
      repaired[t].y = ss.repair.y();
    });
    return std::optional<core::DualIterate>(
        {core::serial_sum(p1.objectives()) + core::serial_sum(p2_objectives),
         schedule_cost(config, layout, problem.demand, repaired,
                       problem.initial)});
  };

  OverlapHorizonSolution best;
  const bool solved =
      core::run_dual_ascent(params, deadline, iterate, step, best);
  MDO_CHECK(solved && !best.schedule.empty(),
            "overlap primal-dual: no schedule");
  best.mu = std::move(mu);
  return best;
}

}  // namespace mdo::overlap
