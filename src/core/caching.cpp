#include "core/caching.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "solver/lp.hpp"
#include "solver/mcmf.hpp"
#include "util/error.hpp"

namespace mdo::core {

void CachingSubproblem::validate() const {
  MDO_REQUIRE(num_contents > 0, "P1: need at least one content");
  MDO_REQUIRE(horizon > 0, "P1: need at least one slot");
  MDO_REQUIRE(capacity <= num_contents, "P1: capacity exceeds catalogue");
  MDO_REQUIRE(beta >= 0.0, "P1: beta must be non-negative");
  MDO_REQUIRE(initial.size() == num_contents, "P1: initial state size");
  MDO_REQUIRE(rewards.size() == num_contents * horizon, "P1: rewards size");
  std::size_t initially_cached = 0;
  for (const auto v : initial) {
    MDO_REQUIRE(v == 0 || v == 1, "P1: initial state must be 0/1");
    initially_cached += v;
  }
  MDO_REQUIRE(initially_cached <= capacity,
              "P1: initial state exceeds capacity");
  for (const double r : rewards) {
    MDO_REQUIRE(std::isfinite(r) && r >= 0.0,
                "P1: rewards must be finite and non-negative");
  }
}

double caching_objective(const CachingSubproblem& problem,
                         const std::vector<std::uint8_t>& x) {
  MDO_REQUIRE(x.size() == problem.num_contents * problem.horizon,
              "caching_objective: schedule size mismatch");
  const std::size_t k_count = problem.num_contents;
  double value = 0.0;
  for (std::size_t t = 0; t < problem.horizon; ++t) {
    for (std::size_t k = 0; k < k_count; ++k) {
      const std::uint8_t now = x[t * k_count + k];
      const std::uint8_t before =
          t == 0 ? problem.initial[k] : x[(t - 1) * k_count + k];
      if (now != 0 && before == 0) value += problem.beta;
      if (now != 0) value -= problem.reward(t, k);
    }
  }
  return value;
}

void CachingFlowWorkspace::bind(const CachingSubproblem& problem) {
  problem.validate();
  const std::size_t k_count = problem.num_contents;
  const std::size_t w = problem.horizon;
  num_contents_ = k_count;
  horizon_ = w;
  capacity_ = static_cast<std::int64_t>(problem.capacity);

  // Time-expanded network. C units of "cache slot" flow from the source to
  // the sink; a unit passing through the (k, t) chain means content k is
  // cached during slot t.
  //
  // Nodes: source, sink, pool[0..w] (pool[t] = free at the beginning of
  // slot t; pool[w] feeds the sink), in(k, t) / out(k, t).
  network_ = solver::MinCostFlow(0);
  source_ = network_.add_node();
  sink_ = network_.add_node();
  std::vector<std::size_t> pool(w + 1);
  for (auto& node : pool) node = network_.add_node();

  auto in_node = [&](std::size_t k, std::size_t t) {
    return 2 + (w + 1) + 2 * (t * k_count + k);
  };
  auto out_node = [&](std::size_t k, std::size_t t) {
    return in_node(k, t) + 1;
  };
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t k = 0; k < k_count; ++k) {
      network_.add_node();  // in(k, t)
      network_.add_node();  // out(k, t)
    }
  }

  // Occupancy arcs: one unit through (k, t) collects reward nu[k, t].
  occupancy_arc_.resize(k_count * w);
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t k = 0; k < k_count; ++k) {
      occupancy_arc_[t * k_count + k] = network_.add_arc(
          in_node(k, t), out_node(k, t), 1, -problem.reward(t, k));
    }
  }
  // Pool chain and terminal arcs.
  for (std::size_t t = 0; t < w; ++t) {
    network_.add_arc(pool[t], pool[t + 1], capacity_, 0.0);
  }
  network_.add_arc(pool[w], sink_, capacity_, 0.0);
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t k = 0; k < k_count; ++k) {
      // Insert content k at slot t: pay the replacement cost beta.
      network_.add_arc(pool[t], in_node(k, t), 1, problem.beta);
      // Evict after slot t.
      network_.add_arc(out_node(k, t), pool[t + 1], 1, 0.0);
      // Stay cached into slot t + 1 for free.
      if (t + 1 < w) {
        network_.add_arc(out_node(k, t), in_node(k, t + 1), 1, 0.0);
      }
    }
  }
  // Source: initially cached contents may continue for free or be evicted;
  // the remaining capacity starts in the pool.
  std::int64_t free_slots = capacity_;
  for (std::size_t k = 0; k < k_count; ++k) {
    if (problem.initial[k] == 0) continue;
    const std::size_t carrier = network_.add_node();
    network_.add_arc(source_, carrier, 1, 0.0);
    network_.add_arc(carrier, in_node(k, 0), 1, 0.0);  // keep without charge
    network_.add_arc(carrier, pool[0], 1, 0.0);        // evict immediately
    --free_slots;
  }
  if (free_slots > 0) network_.add_arc(source_, pool[0], free_slots, 0.0);
  bound_ = true;
}

double CachingFlowWorkspace::solve_into(const CachingSubproblem& problem,
                                        std::vector<std::uint8_t>& x) {
  MDO_REQUIRE(bound_, "P1 flow workspace: bind() before solve_into()");
  MDO_REQUIRE(problem.num_contents == num_contents_ &&
                  problem.horizon == horizon_ &&
                  problem.rewards.size() == num_contents_ * horizon_,
              "P1 flow workspace: problem shape changed since bind()");
  network_.reset_flow();
  for (std::size_t i = 0; i < occupancy_arc_.size(); ++i) {
    const double reward = problem.rewards[i];
    MDO_REQUIRE(std::isfinite(reward) && reward >= 0.0,
                "P1: rewards must be finite and non-negative");
    network_.set_arc_cost(occupancy_arc_[i], -reward);
  }

  const auto result = network_.solve(source_, sink_, capacity_);
  MDO_CHECK(result.flow == capacity_,
            "P1 flow: could not route all cache slots (network bug)");

  x.assign(num_contents_ * horizon_, 0);
  for (std::size_t i = 0; i < occupancy_arc_.size(); ++i) {
    x[i] = network_.flow_on(occupancy_arc_[i]) > 0 ? 1 : 0;
  }
  const double objective = caching_objective(problem, x);
  // The flow cost must agree with the schedule's objective.
  MDO_CHECK(std::abs(objective - result.cost) <=
                1e-6 * (1.0 + std::abs(result.cost)),
            "P1 flow: cost mismatch between flow and schedule");
  return objective;
}

CachingSolution solve_caching_flow(const CachingSubproblem& problem) {
  CachingFlowWorkspace workspace;
  workspace.bind(problem);
  CachingSolution solution;
  solution.objective = workspace.solve_into(problem, solution.x);
  return solution;
}

void CachingBank::reset(std::size_t count) {
  p1_.clear();
  p1_.resize(count);
  objectives_.assign(count, 0.0);
  x_.assign(count, {});
}

void CachingBank::bind(std::size_t n, std::size_t num_contents,
                       std::size_t horizon, std::size_t capacity, double beta,
                       std::vector<std::uint8_t> initial) {
  CachingSubproblem& sub = p1_[n].sub;
  sub.num_contents = num_contents;
  sub.horizon = horizon;
  // A caller may restrict P1 to a content list outside which every reward
  // is zero and nothing is initially cached (ShardCore's window union):
  // with beta > 0 the optimum never caches outside it. The flow pushes
  // exactly `capacity` units, surplus ones through the zero-cost pool
  // chain, so clamping capacity to the list only removes pool
  // augmentations and leaves x unchanged.
  sub.capacity = std::min(capacity, num_contents);
  sub.beta = beta;
  sub.initial = std::move(initial);
  sub.rewards.assign(num_contents * horizon, 0.0);
  if (num_contents > 0) p1_[n].flow.bind(sub);
}

linalg::Vec& CachingBank::clear_rewards(std::size_t n) {
  linalg::Vec& rewards = p1_[n].sub.rewards;
  std::fill(rewards.begin(), rewards.end(), 0.0);
  return rewards;
}

void CachingBank::solve(std::size_t n) {
  Entry& entry = p1_[n];
  if (entry.sub.num_contents == 0) {
    // Nothing demanded or cached anywhere in the window: P1 is empty.
    x_[n].clear();
    objectives_[n] = 0.0;
    return;
  }
  objectives_[n] = entry.flow.solve_into(entry.sub, x_[n]);
}

CachingSolution solve_caching_simplex(const CachingSubproblem& problem) {
  problem.validate();
  const std::size_t k_count = problem.num_contents;
  const std::size_t w = problem.horizon;

  // Variables: x[t*K + k] (first K*w) and the linearization p[t*K + k]
  // (next K*w) with p >= x_t - x_{t-1}, exactly the reformulation
  // (20)-(22) used in the proof of Theorem 1.
  const std::size_t count = k_count * w;
  auto lp = solver::LinearProgram::with_vars(2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    lp.objective[i] = -problem.rewards[i];
    lp.upper[i] = 1.0;
    lp.objective[count + i] = problem.beta;
    // p is unbounded above; >= 0 by default bounds.
  }
  for (std::size_t t = 0; t < w; ++t) {
    // Capacity: sum_k x[k, t] <= C. (constraint (1))
    solver::LpConstraint cap;
    cap.relation = solver::Relation::kLessEqual;
    cap.rhs = static_cast<double>(problem.capacity);
    for (std::size_t k = 0; k < k_count; ++k) cap.terms.push_back({t * k_count + k, 1.0});
    lp.add_constraint(std::move(cap));
    // Replacement linearization: p[k, t] - x[k, t] + x[k, t-1] >= 0. (22)
    for (std::size_t k = 0; k < k_count; ++k) {
      solver::LpConstraint rep;
      rep.relation = solver::Relation::kGreaterEqual;
      rep.terms.push_back({count + t * k_count + k, 1.0});
      rep.terms.push_back({t * k_count + k, -1.0});
      if (t == 0) {
        rep.rhs = -static_cast<double>(problem.initial[k]);
      } else {
        rep.rhs = 0.0;
        rep.terms.push_back({(t - 1) * k_count + k, 1.0});
      }
      lp.add_constraint(std::move(rep));
    }
  }

  const auto lp_solution = solver::solve_lp(lp);
  if (lp_solution.status != solver::LpStatus::kOptimal) {
    throw SolverError(std::string("P1 simplex failed: ") +
                      solver::to_string(lp_solution.status));
  }
  CachingSolution solution;
  solution.x.assign(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const double v = lp_solution.x[i];
    // Theorem 1: the vertex must be integral.
    if (std::abs(v - std::round(v)) > 1e-6) {
      throw SolverError("P1 simplex returned a fractional vertex; "
                        "total unimodularity violated (solver bug)");
    }
    solution.x[i] = v > 0.5 ? 1 : 0;
  }
  solution.objective = caching_objective(problem, solution.x);
  return solution;
}

CachingSolution solve_caching_brute_force(const CachingSubproblem& problem) {
  problem.validate();
  const std::size_t cells = problem.num_contents * problem.horizon;
  MDO_REQUIRE(cells <= 20, "brute force limited to 20 (content, slot) cells");

  CachingSolution best;
  best.objective = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> x(cells, 0);
  const std::size_t combos = static_cast<std::size_t>(1) << cells;
  for (std::size_t mask = 0; mask < combos; ++mask) {
    for (std::size_t i = 0; i < cells; ++i) x[i] = (mask >> i) & 1u;
    // Capacity feasibility per slot.
    bool feasible = true;
    for (std::size_t t = 0; t < problem.horizon && feasible; ++t) {
      std::size_t cached = 0;
      for (std::size_t k = 0; k < problem.num_contents; ++k)
        cached += x[t * problem.num_contents + k];
      feasible = cached <= problem.capacity;
    }
    if (!feasible) continue;
    const double value = caching_objective(problem, x);
    if (value < best.objective) {
      best.objective = value;
      best.x = x;
    }
  }
  return best;
}

}  // namespace mdo::core
