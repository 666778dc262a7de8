#include "core/primal_dual.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/dual_ascent.hpp"
#include "shard/coordinator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace mdo::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool demand_finite_nonnegative(const model::SparseDemandTrace& demand) {
  for (std::size_t t = 0; t < demand.horizon(); ++t) {
    for (const auto& sbs_demand : demand.slot(t)) {
      if (!sbs_demand.finalized()) return false;
      for (std::size_t m = 0; m < sbs_demand.num_classes(); ++m) {
        const model::DemandEntry* const end = sbs_demand.row_end(m);
        for (const model::DemandEntry* it = sbs_demand.row_begin(m); it != end;
             ++it) {
          if (!std::isfinite(it->rate) || it->rate < 0.0) return false;
        }
      }
    }
  }
  return true;
}

/// Safe fallback for solves that cannot (kNonFiniteInput) or did not
/// (kWorkerFailure) run to completion: keep the current cache, serve
/// everything from the BS, report vacuous bounds. The multipliers stay
/// EMPTY: the fallback carries no dual information, and an empty vector
/// safely disables same-window warm starts downstream (controllers gate on
/// !warm_mu.empty()).
HorizonSolution fallback_solution(const HorizonProblem& problem,
                                  solver::SolveStatus status) {
  HorizonSolution degraded;
  degraded.status = status;
  degraded.upper_bound = kInf;
  degraded.lower_bound = -kInf;
  degraded.schedule.resize(problem.horizon());
  for (auto& slot : degraded.schedule) {
    slot.cache = problem.initial_cache;
    slot.load = model::LoadAllocation(*problem.config);
  }
  return degraded;
}

/// All-zero window schedule: the repair buffer the dual loop fills.
model::Schedule empty_schedule(const model::NetworkConfig& config,
                               std::size_t horizon) {
  model::Schedule schedule(horizon);
  for (model::SlotDecision& slot : schedule) {
    slot.cache = model::CacheState(config);
    slot.load = model::LoadAllocation(config);
  }
  return schedule;
}

}  // namespace

void HorizonProblem::validate() const {
  MDO_REQUIRE(config != nullptr, "horizon problem: config must be set");
  MDO_REQUIRE((demand != nullptr) != (sparse_demand != nullptr),
              "horizon problem: exactly one demand representation");
  config->validate();
  MDO_REQUIRE(horizon() >= 1, "horizon problem: empty window");
  if (sparse_demand != nullptr) {
    sparse_demand->validate(*config);
  } else {
    demand->validate(*config);
  }
  MDO_REQUIRE(initial_cache.num_sbs() == config->num_sbs() &&
                  initial_cache.num_contents() == config->num_contents,
              "horizon problem: initial cache shape mismatch");
  for (std::size_t n = 0; n < config->num_sbs(); ++n) {
    MDO_REQUIRE(initial_cache.count(n) <= config->sbs[n].cache_capacity,
                "horizon problem: initial cache over capacity");
  }
}

PrimalDualSolver::PrimalDualSolver(PrimalDualOptions options)
    : options_(options) {
  MDO_REQUIRE(options_.max_iterations >= 1, "need at least one iteration");
  MDO_REQUIRE(options_.epsilon > 0.0, "epsilon must be positive");
  MDO_REQUIRE(options_.p1_neighbor_price >= 0.0,
              "p1_neighbor_price must be >= 0");
}

PrimalDualSolver::~PrimalDualSolver() = default;
PrimalDualSolver::PrimalDualSolver(PrimalDualSolver&&) noexcept = default;
PrimalDualSolver& PrimalDualSolver::operator=(PrimalDualSolver&&) noexcept =
    default;

void PrimalDualSolver::save_state(util::BinaryWriter& w) const {
  w.size(step_offset_);
  // Compact-mu geometry of the last solve: a restored solver must keep
  // interpreting (and, after a resync, remapping) same-window warm mu
  // vectors exactly like the original would.
  w.size(last_horizon_);
  w.size(last_active_.size());
  for (const auto& cell : last_active_) w.size_vec(cell);
}

void PrimalDualSolver::restore_state(util::BinaryReader& r) {
  step_offset_ = r.size();
  last_horizon_ = r.size();
  last_active_.assign(r.count(), {});
  for (auto& cell : last_active_) cell = r.size_vec();
}

HorizonSolution PrimalDualSolver::solve(const HorizonProblem& problem,
                                        const linalg::Vec* warm_mu,
                                        runtime::DeadlineToken* deadline) {
  MDO_REQUIRE(problem.config != nullptr, "horizon problem: config must be set");
  MDO_REQUIRE((problem.demand != nullptr) != (problem.sparse_demand != nullptr),
              "horizon problem: exactly one demand representation");
  MDO_REQUIRE(problem.horizon() >= 1, "horizon problem: empty window");
  // One solver path: a dense window is converted here, once. The
  // conversion keeps negative and NaN rates, so the check below still sees
  // every poisoned entry.
  model::SparseDemandTrace converted;
  const model::SparseDemandTrace& demand =
      model::sparse_trace(problem.demand_view(), converted);
  if (!demand_finite_nonnegative(demand)) {
    // Corrupted window (NaN/Inf/negative rates): iterating would only smear
    // the poison through mu and the schedules, so return the safe fallback —
    // keep the current cache (no replacement churn) and serve everything
    // from the BS — and let the caller degrade.
    return fallback_solution(problem, solver::SolveStatus::kNonFiniteInput);
  }
  problem.validate();
  const auto& config = *problem.config;
  const std::size_t w = demand.horizon();
  const std::size_t num_sbs = config.num_sbs();
  const std::size_t k_count = config.num_contents;

  // ---- The active-set index structures (shard_core.hpp), built FIRST
  // because the compact mu vector is sized by them. Off the active set mu
  // is provably zero throughout the ascent (marginal init is supported on
  // lambda; off-support the subgradient is -x <= 0 and the projection pins
  // mu at 0), so the compact vector stores exactly the active coordinates
  // and nothing else (DESIGN.md §12).
  ActiveSets sets = build_active_sets(config, demand, problem.initial_cache);
  const std::vector<std::size_t> mu_off = mu_block_offsets(config, w, sets);

  // ---- Marginal BS cost scale: used for both the step size and
  // the marginal initialization of mu. For SBS n at slot t the gradient of
  // f at y = 0 is 2 * a * u_j, with a the omega-weighted total demand. Only
  // stored entries are visited: the skipped terms are exact zeros (they
  // cannot move the nonnegative accumulator), while `entries` counts every
  // (class, content) coordinate. Each write lands at the entry's active-set
  // position (rows and active lists are both content-sorted, so one forward
  // pointer finds it).
  linalg::Vec mu(mu_off.back(), 0.0);
  double mean_marginal = 0.0;
  {
    std::size_t entries = 0;
    for (std::size_t t = 0; t < w; ++t) {
      for (std::size_t n = 0; n < num_sbs; ++n) {
        const auto& sbs = config.sbs[n];
        const auto& cell_demand = demand.slot(t)[n];
        double a = 0.0;
        for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
          double row = 0.0;
          const model::DemandEntry* const end = cell_demand.row_end(m);
          for (const model::DemandEntry* it = cell_demand.row_begin(m);
               it != end; ++it) {
            row += it->rate;
          }
          a += sbs.classes[m].omega_bs * row;
        }
        const std::vector<std::size_t>& al = sets.active[t * num_sbs + n];
        double* block = mu.data() + mu_off[t * num_sbs + n];
        const std::size_t a_count = al.size();
        for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
          std::size_t pos = 0;
          const model::DemandEntry* const end = cell_demand.row_end(m);
          for (const model::DemandEntry* it = cell_demand.row_begin(m);
               it != end; ++it) {
            const double value = 2.0 * a * sbs.classes[m].omega_bs * it->rate;
            mean_marginal += value;
            if (warm_mu == nullptr) {
              while (pos < a_count && al[pos] < it->content) ++pos;
              MDO_CHECK(pos < a_count && al[pos] == it->content,
                        "compact mu: support content missing from active "
                        "set");
              block[m * a_count + pos] = value;
            }
          }
        }
        entries += sbs.num_classes() * k_count;
      }
    }
    mean_marginal /= std::max<std::size_t>(entries, 1);
  }
  if (warm_mu != nullptr) {
    if (last_horizon_ == w && last_active_ != sets.active) {
      // A resync changed the start cache, so the active sets — and with
      // them the compact geometry — moved since the solve that produced
      // this warm mu. Remap by content id: intersection coordinates keep
      // their multiplier, newly active ones start at 0 (the value the
      // ascent invariant gives every coordinate off the old active set),
      // dropped ones vanish.
      MDO_REQUIRE(last_active_.size() == w * num_sbs,
                  "compact warm mu: geometry shape mismatch");
      std::size_t old_off = 0;
      for (std::size_t cell = 0; cell < w * num_sbs; ++cell) {
        const std::size_t n = cell % num_sbs;
        const std::size_t classes = config.sbs[n].num_classes();
        const std::vector<std::size_t>& old_list = last_active_[cell];
        const std::vector<std::size_t>& new_list = sets.active[cell];
        const std::size_t oa = old_list.size();
        const std::size_t na = new_list.size();
        const double* src = warm_mu->data() + old_off;
        double* dst = mu.data() + mu_off[cell];
        std::size_t i = 0;
        for (std::size_t j = 0; j < na; ++j) {
          while (i < oa && old_list[i] < new_list[j]) ++i;
          if (i < oa && old_list[i] == new_list[j]) {
            for (std::size_t m = 0; m < classes; ++m) {
              dst[m * na + j] = src[m * oa + i];
            }
          }
        }
        old_off += classes * oa;
      }
      MDO_REQUIRE(warm_mu->size() == old_off,
                  "compact warm mu: size disagrees with recorded geometry");
    } else {
      // Unchanged geometry (the common same-window replan), or no recorded
      // geometry for this horizon — reachable only through misuse, since
      // controllers hand back a mu this solver produced and the geometry
      // travels with the checkpointed warm state: exact-size copy.
      MDO_REQUIRE(warm_mu->size() == mu.size(), "warm mu size mismatch");
      mu = *warm_mu;
    }
  }
  // The geometry best.mu will describe, recorded only once the solve
  // succeeds: a solve lost to a worker death must leave the previous one
  // in place, or its retry would read the same warm mu against the wrong
  // geometry.
  std::vector<std::vector<std::size_t>> solved_active = sets.active;
  // Warm-started solves resume the step schedule where the previous window
  // stopped (see the solve() comment); cold solves restart at delta_0.
  const DualAscentParams params{
      options_.max_iterations, options_.epsilon,
      std::max(1e-9, 0.5 * mean_marginal),
      warm_mu != nullptr ? step_offset_ : 0};

  // ---- Optional neighbor-demand tilt of P1 (see the option comment):
  // constant per-(n, k, t) reward addends in the P1 layout, computed HERE,
  // serially, from the topology and the window demand — the same values at
  // every thread and shard count. Shipped once to workers at kBegin.
  std::vector<linalg::Vec> neighbor_rewards;
  if (options_.p1_neighbor_price > 0.0 && config.has_neighbor_tier()) {
    // receivers[n] = peers holding a positive-bandwidth fetch link -> n.
    std::vector<std::vector<std::size_t>> receivers(num_sbs);
    for (std::size_t r = 0; r < num_sbs; ++r) {
      for (const model::NeighborLink& link : config.topology.links[r]) {
        if (link.bandwidth > 0.0) receivers[link.peer].push_back(r);
      }
    }
    neighbor_rewards.resize(num_sbs);
    linalg::Vec scratch(k_count);
    for (std::size_t n = 0; n < num_sbs; ++n) {
      if (receivers[n].empty()) continue;  // empty vector = no tilt
      const std::vector<std::size_t>& list = sets.p1_list[n];
      const std::size_t kp = list.size();
      neighbor_rewards[n].assign(w * kp, 0.0);
      for (std::size_t t = 0; t < w; ++t) {
        scratch.assign(k_count, 0.0);
        for (const std::size_t r : receivers[n]) {
          const auto& dem = demand.slot(t)[r];
          for (std::size_t m = 0; m < config.sbs[r].num_classes(); ++m) {
            const model::DemandEntry* const end = dem.row_end(m);
            for (const model::DemandEntry* it = dem.row_begin(m); it != end;
                 ++it) {
              scratch[it->content] += it->rate;
            }
          }
        }
        double* row = neighbor_rewards[n].data() + t * kp;
        for (std::size_t i = 0; i < kp; ++i) {
          row[i] = options_.p1_neighbor_price * scratch[list[i]];
        }
      }
    }
  }
  const ShardInputs inputs{
      .config = problem.config,
      .sparse_demand = &demand,
      .initial_cache = &problem.initial_cache,
      .neighbor_rewards = neighbor_rewards.empty() ? nullptr
                                                   : &neighbor_rewards};

  // ---- Algorithm 1 (dual_ascent.hpp). Every cell of the repaired buffer
  // rewrites exactly its active coordinates (the rest are structural
  // zeros), so it is reused across iterations without re-zeroing.
  auto bounds = [&](const std::vector<double>& p1_objectives,
                    const std::vector<double>& p2_objectives,
                    const model::Schedule& repaired) {
    return DualIterate{
        serial_sum(p1_objectives) + serial_sum(p2_objectives),
        model::schedule_cost(config, model::DemandTraceView(demand), repaired,
                             problem.initial_cache)
            .total()};
  };
  auto size_buffer = [&](model::Schedule& repaired) {
    if (repaired.size() != w) repaired = empty_schedule(config, w);
  };
  HorizonSolution best;
  bool solved = false;
  const std::size_t shards =
      shard::resolved_shard_count(options_.shard_count, num_sbs);
  if (shards > 0) {
    // Worker subprocesses, each running a ShardCore over its SBS range; the
    // schedule is written here from their replies. A worker death aborts
    // the solve before step_offset_ moves, and nothing else a solve reads
    // outlives it — so the supervisor's retry of the same solve is
    // bit-identical to the solve that was lost.
    if (!coordinator_) coordinator_ = std::make_unique<shard::Coordinator>();
    shard::Coordinator& fleet = *coordinator_;
    shard::IterationOutputs out;
    solved =
        fleet.begin(inputs, shards, mu_off, mu) &&
        run_dual_ascent(
            params, deadline,
            [&](bool apply_step, double delta, model::Schedule& repaired)
                -> std::optional<DualIterate> {
              if (!fleet.iterate(apply_step, delta, &out)) return std::nullopt;
              size_buffer(repaired);
              util::parallel_for(0, w * num_sbs, [&](std::size_t cell) {
                const std::size_t t = cell / num_sbs;
                const std::size_t n = cell % num_sbs;
                write_repaired_cell(sets, t, n, out.x[n], out.repair_y[cell],
                                    repaired[t]);
              });
              return bounds(out.p1_objectives, out.p2_objectives, repaired);
            },
            [&](bool apply_step, double delta) {
              return fleet.finish(apply_step, delta, mu);
            },
            best);
  } else {
    // One full-range ShardCore in this process, on the workspace arena.
    ShardCore core;
    core.begin(inputs, ShardOptions{}, bank_, std::move(sets));
    auto step = [&](bool apply_step, double delta) {
      if (apply_step) core.dual_update(delta, mu);
      return true;
    };
    solved = run_dual_ascent(
        params, deadline,
        [&](bool apply_step, double delta, model::Schedule& repaired) {
          step(apply_step, delta);
          core.iterate(mu);
          size_buffer(repaired);
          core.repair(&repaired);
          return std::optional<DualIterate>(
              bounds(core.p1_objectives(), core.p2_objectives(), repaired));
        },
        step, best);
  }
  if (!solved) {
    return fallback_solution(problem, solver::SolveStatus::kWorkerFailure);
  }
  best.mu = std::move(mu);
  step_offset_ = best.iterations;
  last_active_ = std::move(solved_active);
  last_horizon_ = w;
  MDO_CHECK(!best.schedule.empty(), "primal-dual produced no schedule");
  MDO_TRACE("primal-dual: UB=" << best.upper_bound
                               << " LB=" << best.lower_bound
                               << " gap=" << best.gap()
                               << " iters=" << best.iterations);
  return best;
}

}  // namespace mdo::core
