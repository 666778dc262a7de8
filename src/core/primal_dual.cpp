#include "core/primal_dual.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "shard/coordinator.hpp"
#include "solver/subgradient.hpp"
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
        for (const model::DemandEntry* it = sbs_demand.row_begin(m);
             it != sbs_demand.row_end(m); ++it) {
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

/// All-zero window schedule: the repair buffer the dual loops fill.
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

double HorizonSolution::gap() const {
  return (upper_bound - lower_bound) / std::max(std::abs(upper_bound), 1e-12);
}

PrimalDualSolver::PrimalDualSolver(PrimalDualOptions options)
    : options_(options) {
  MDO_REQUIRE(options_.max_iterations >= 1, "need at least one iteration");
  MDO_REQUIRE(options_.epsilon > 0.0, "epsilon must be positive");
  MDO_REQUIRE(options_.step_alpha > 0.0, "step_alpha must be positive");
  MDO_REQUIRE(options_.step_scale >= 0.0, "step_scale must be >= 0");
  MDO_REQUIRE(options_.p1_neighbor_price >= 0.0,
              "p1_neighbor_price must be >= 0");
}

PrimalDualSolver::~PrimalDualSolver() = default;
PrimalDualSolver::PrimalDualSolver(PrimalDualSolver&&) noexcept = default;
PrimalDualSolver& PrimalDualSolver::operator=(PrimalDualSolver&&) noexcept =
    default;

void PrimalDualSolver::advance_window(std::size_t shift) {
  if (shift == 0 || bank_slots_ == 0) return;
  // Ascending t only reads rows > t, which are still the old window's.
  for (std::size_t t = 0; t < bank_slots_; ++t) {
    const std::size_t src = std::min(t + shift, bank_slots_ - 1);
    if (src == t) continue;
    for (std::size_t n = 0; n < bank_sbs_; ++n) {
      CellState& dst = bank_[t * bank_sbs_ + n];
      const CellState& from = bank_[src * bank_sbs_ + n];
      dst.p2.warm_start() = from.p2.y();
      dst.repair.warm_start() = from.repair.y();
    }
  }
}

void PrimalDualSolver::save_state(util::BinaryWriter& w) const {
  w.size(bank_slots_);
  w.size(bank_sbs_);
  w.size(step_offset_);
  w.size(bank_.size());
  for (const CellState& cs : bank_) {
    cs.p2.save_warm_state(w);
    cs.repair.save_warm_state(w);
  }
  // Compact-mu geometry of the last solve: a restored solver must keep
  // interpreting (and, after a resync, remapping) same-window warm mu
  // vectors exactly like the original would.
  w.size(last_horizon_);
  w.size(last_active_.size());
  for (const auto& cell : last_active_) w.size_vec(cell);
}

void PrimalDualSolver::restore_state(util::BinaryReader& r) {
  bank_slots_ = r.size();
  bank_sbs_ = r.size();
  step_offset_ = r.size();
  bank_.assign(r.count(), CellState{});
  for (CellState& cs : bank_) {
    cs.p2.restore_warm_state(r);
    cs.repair.restore_warm_state(r);
  }
  MDO_REQUIRE(bank_.size() == bank_slots_ * bank_sbs_,
              "solver snapshot: bank shape mismatch");
  last_horizon_ = r.size();
  last_active_.assign(r.count(), {});
  for (auto& cell : last_active_) cell = r.size_vec();
}

ShardInputs PrimalDualSolver::Window::inputs() const {
  ShardInputs in;
  in.config = problem->config;
  in.sparse_demand = demand;
  in.initial_cache = &problem->initial_cache;
  in.neighbor_rewards = neighbor_rewards;
  return in;
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
  Window window;
  window.problem = &problem;
  window.demand = &model::sparse_trace(problem.demand_view(), converted);
  const model::SparseDemandTrace& demand = *window.demand;
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
  window.sets = build_active_sets(config, demand, problem.initial_cache);
  window.mu_offsets = mu_block_offsets(config, w, window.sets);
  const ActiveSets& sets = window.sets;
  const std::vector<std::size_t>& mu_off = window.mu_offsets;

  // ---- Marginal BS cost scale: used for both the automatic step size and
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
          for (const model::DemandEntry* it = cell_demand.row_begin(m);
               it != cell_demand.row_end(m); ++it) {
            row += it->rate;
          }
          a += sbs.classes[m].omega_bs * row;
        }
        const std::vector<std::size_t>& al = sets.active[t * num_sbs + n];
        double* block = mu.data() + mu_off[t * num_sbs + n];
        const std::size_t a_count = al.size();
        for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
          std::size_t pos = 0;
          for (const model::DemandEntry* it = cell_demand.row_begin(m);
               it != cell_demand.row_end(m); ++it) {
            const double value = 2.0 * a * sbs.classes[m].omega_bs * it->rate;
            mean_marginal += value;
            if (options_.marginal_initialization && warm_mu == nullptr) {
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
  last_active_ = sets.active;
  last_horizon_ = w;
  window.step_scale = options_.step_scale > 0.0
                          ? options_.step_scale
                          : std::max(1e-9, 0.5 * mean_marginal);
  // Warm-started solves resume the step schedule where the previous window
  // stopped (see the solve() comment); cold solves restart at delta_0.
  window.step_offset = warm_mu != nullptr ? step_offset_ : 0;

  // ---- The persistent warm-start bank (the zero-allocation hot path, also
  // the state a sharded solve ships out and reclaims).
  bank_.resize(w * num_sbs);
  bank_slots_ = w;
  bank_sbs_ = num_sbs;

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
            for (const model::DemandEntry* it = dem.row_begin(m);
                 it != dem.row_end(m); ++it) {
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
  if (!neighbor_rewards.empty()) window.neighbor_rewards = &neighbor_rewards;

  const std::size_t shards =
      shard::resolved_shard_count(options_.shard_count, num_sbs);
  if (shards > 0) {
    return solve_sharded(window, deadline, shards, std::move(mu));
  }
  return solve_in_process(window, deadline, std::move(mu));
}

HorizonSolution PrimalDualSolver::finish_solve(HorizonSolution best,
                                               linalg::Vec mu,
                                               bool deadline_expired) {
  best.mu = std::move(mu);
  step_offset_ = best.iterations;
  best.status = best.gap() <= options_.epsilon
                    ? solver::SolveStatus::kConverged
                : deadline_expired ? solver::SolveStatus::kDeadlineExpired
                                   : solver::SolveStatus::kIterationLimit;
  MDO_CHECK(!best.schedule.empty(), "primal-dual produced no schedule");
  MDO_TRACE("primal-dual: UB=" << best.upper_bound
                               << " LB=" << best.lower_bound
                               << " gap=" << best.gap()
                               << " iters=" << best.iterations);
  return best;
}

HorizonSolution PrimalDualSolver::solve_in_process(
    Window& window, runtime::DeadlineToken* deadline, linalg::Vec mu) {
  const HorizonProblem& problem = *window.problem;
  const auto& config = *problem.config;
  const std::size_t w = window.demand->horizon();
  const model::DemandTraceView demand(*window.demand);

  // One full-range shard, with every reduction kept below in serial index
  // order.
  ShardCore core;
  core.begin(window.inputs(), ShardOptions{options_.load_balancing}, bank_,
             std::move(window.sets));

  HorizonSolution best;
  best.upper_bound = kInf;
  best.lower_bound = -kInf;

  // ---- Repair schedule buffer, reused across dual iterations. Every cell
  // rewrites exactly its active coordinates each iteration (the off-active
  // entries are structurally zero and never touched), so the buffer needs
  // no re-zeroing between iterations. An improved upper bound swaps the
  // buffer into `best` and rebuilds lazily: two allocations per solve
  // instead of one w * N * M * K zero-fill per iteration.
  model::Schedule schedule = empty_schedule(config, w);

  const solver::DiminishingStep step(options_.step_alpha);
  bool deadline_expired = false;
  for (std::size_t iteration = 0; iteration < options_.max_iterations;
       ++iteration) {
    // ---- Deadline poll: once per dual iteration, only after the first
    // iteration completed — the repair pass below guarantees a feasible
    // incumbent exists before the budget can cut the loop short. The poll
    // sits at this serial point (not inside the parallel sections) so the
    // number of polls, and hence a logical after_checks() expiry, is
    // identical at every thread count.
    if (iteration > 0 && deadline != nullptr && deadline->poll()) {
      deadline_expired = true;
      break;
    }
    core.iterate(mu);
    double p1_value = 0.0;
    for (const double value : core.p1_objectives()) p1_value += value;
    double p2_value = 0.0;
    for (const double value : core.p2_objectives()) p2_value += value;

    // ---- Dual value = lower bound (weak duality).
    const double dual_value = p1_value + p2_value;
    best.lower_bound = std::max(best.lower_bound, dual_value);

    // ---- Feasibility repair -> upper bound. P2 with c = 0 and ub = x.
    core.repair(&schedule);
    const model::CostBreakdown cost = model::schedule_cost(
        config, demand, schedule, problem.initial_cache);
    if (cost.total() < best.upper_bound) {
      best.upper_bound = cost.total();
      std::swap(best.schedule, schedule);
      if (schedule.size() != w) schedule = empty_schedule(config, w);
    }

    best.iterations = iteration + 1;
    if (best.gap() <= options_.epsilon) break;

    const double delta =
        window.step_scale * step(window.step_offset + iteration);
    core.dual_update(delta, mu);
  }
  return finish_solve(std::move(best), std::move(mu), deadline_expired);
}

HorizonSolution PrimalDualSolver::solve_sharded(
    const Window& window, runtime::DeadlineToken* deadline,
    std::size_t shards, linalg::Vec mu) {
  const HorizonProblem& problem = *window.problem;
  const auto& config = *problem.config;
  const std::size_t w = window.demand->horizon();
  const std::size_t num_sbs = config.num_sbs();
  const std::size_t k_count = config.num_contents;
  const model::DemandTraceView demand(*window.demand);
  const ActiveSets& sets = window.sets;
  const ShardInputs inputs = window.inputs();

  if (!coordinator_) coordinator_ = std::make_unique<shard::Coordinator>();
  // A worker death anywhere below aborts the solve without touching the
  // warm state: the bank was only READ (at encode time) and is written back
  // only by a successful finish(), and step_offset_ is left alone — so the
  // supervisor's retry of the same solve is bit-identical to the solve that
  // was lost.
  auto fail = [&]() {
    return fallback_solution(problem, solver::SolveStatus::kWorkerFailure);
  };
  if (!coordinator_->begin(inputs, ShardOptions{options_.load_balancing},
                           shards, window.mu_offsets, mu, bank_)) {
    return fail();
  }

  HorizonSolution best;
  best.upper_bound = kInf;
  best.lower_bound = -kInf;
  model::Schedule schedule = empty_schedule(config, w);

  const solver::DiminishingStep step(options_.step_alpha);
  bool deadline_expired = false;
  // The projected step for iteration l is applied lazily: computed here
  // after the gap check, shipped with the NEXT kIterate (workers update
  // their mu slices before solving — each coordinate's update is
  // independent, so slice-local application is bit-identical), or with
  // kEnd when the loop stops with the step still pending. That keeps mu
  // entirely off the per-iteration wire.
  bool pending = false;
  double pending_delta = 0.0;
  shard::IterationOutputs out;
  for (std::size_t iteration = 0; iteration < options_.max_iterations;
       ++iteration) {
    // Same serial-point poll (and poll count) as the in-process loop.
    if (iteration > 0 && deadline != nullptr && deadline->poll()) {
      deadline_expired = true;
      break;
    }
    if (!coordinator_->iterate(pending, pending_delta, &out)) return fail();
    pending = false;
    double p1_value = 0.0;
    for (const double value : out.p1_objectives) p1_value += value;
    double p2_value = 0.0;
    for (const double value : out.p2_objectives) p2_value += value;
    const double dual_value = p1_value + p2_value;
    best.lower_bound = std::max(best.lower_bound, dual_value);

    // ---- Assemble the repaired schedule from the workers' x bits and
    // repaired loads — the schedule-writing half of ShardCore::repair(),
    // driven from the full-range active sets. Pure per-cell writes; the
    // serial cost reduction below is what defines the upper bound.
    util::parallel_for(0, w * num_sbs, [&](std::size_t cell) {
      const std::size_t t = cell / num_sbs;
      const std::size_t n = cell % num_sbs;
      const std::vector<std::size_t>& al = sets.active[cell];
      const std::vector<std::size_t>& map = sets.cell_p1[cell];
      const std::size_t kp = sets.p1_list[n].size();
      const std::size_t classes = config.sbs[n].num_classes();
      const std::size_t a_count = al.size();
      const linalg::Vec& y = out.repair_y[cell];
      linalg::Vec& load = schedule[t].load.sbs_data(n);
      for (std::size_t i = 0; i < a_count; ++i) {
        schedule[t].cache.set(n, al[i], out.x[n][t * kp + map[i]] != 0);
      }
      for (std::size_t m = 0; m < classes; ++m) {
        for (std::size_t i = 0; i < a_count; ++i) {
          load[m * k_count + al[i]] = y[m * a_count + i];
        }
      }
    });
    const model::CostBreakdown cost = model::schedule_cost(
        config, demand, schedule, problem.initial_cache);
    if (cost.total() < best.upper_bound) {
      best.upper_bound = cost.total();
      std::swap(best.schedule, schedule);
      if (schedule.size() != w) schedule = empty_schedule(config, w);
    }

    best.iterations = iteration + 1;
    if (best.gap() <= options_.epsilon) break;

    pending_delta = window.step_scale * step(window.step_offset + iteration);
    pending = true;
  }

  // Close the session: workers apply a still-pending final step (matching
  // the in-process loop, whose dual update has already run when the
  // deadline or the iteration budget stops it) and return the final mu and
  // the warm-start bank to the driver.
  if (!coordinator_->finish(pending, pending_delta, mu, bank_)) return fail();
  return finish_solve(std::move(best), std::move(mu), deadline_expired);
}

}  // namespace mdo::core
