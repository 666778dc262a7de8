#include "core/load_balancing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace mdo::core {

namespace {

bool all_finite(const linalg::Vec& v) {
  for (const double value : v) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

/// Insertion moves per entry a warm order may take before repair_order
/// gives up on it and sorts from scratch.
constexpr std::size_t kRepairMovesPerEntry = 8;

/// Sorts a warm `order` ascending. It arrives in the previous call's order
/// with fresh thresholds, which one diminishing mu step leaves nearly
/// sorted, so an insertion pass repairs it in O(n + moves). The pairs are
/// totally ordered (j is unique), so the result is std::sort's, element
/// for element.
void repair_order(std::vector<std::pair<double, std::size_t>>& order) {
  std::size_t moves_left = kRepairMovesPerEntry * order.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::pair<double, std::size_t> entry = order[i];
    std::size_t k = i;
    for (; k > 0 && entry < order[k - 1]; --k) order[k] = order[k - 1];
    order[k] = entry;
    if (i - k > moves_left) {
      std::sort(order.begin(), order.end());
      return;
    }
    moves_left -= i - k;
  }
}

}  // namespace

void P2Workspace::bind_active(const model::SbsConfig& sbs,
                              const model::SparseSbsDemand& demand,
                              const std::vector<std::size_t>& active) {
  MDO_REQUIRE(demand.num_classes() == sbs.num_classes(),
              "P2 workspace: class count mismatch");
  sbs_ = &sbs;
  const std::size_t classes = sbs.num_classes();
  const std::size_t a_count = active.size();
  const std::size_t size = classes * a_count;

  // Every binding starts cold: warm starts live within one binding only.
  y_.clear();

  coeff_.lambda.assign(size, 0.0);
  for (std::size_t m = 0; m < classes; ++m) {
    std::size_t pos = 0;
    const model::DemandEntry* const end = demand.row_end(m);
    for (const model::DemandEntry* it = demand.row_begin(m); it != end; ++it) {
      while (pos < a_count && active[pos] < it->content) ++pos;
      MDO_REQUIRE(pos < a_count && active[pos] == it->content,
                  "P2 workspace: active set must cover the demand support");
      coeff_.lambda[m * a_count + pos] = it->rate;
    }
  }

  coeff_.u.resize(size);
  coeff_.v.resize(size);
  coeff_.a = 0.0;
  exact_applicable_ = true;
  for (std::size_t m = 0; m < classes; ++m) {
    const double omega = sbs.classes[m].omega_bs;
    const double omega_sbs = sbs.classes[m].omega_sbs;
    if (omega_sbs != 0.0) exact_applicable_ = false;
    for (std::size_t i = 0; i < a_count; ++i) {
      const std::size_t j = m * a_count + i;
      coeff_.u[j] = omega * coeff_.lambda[j];
      coeff_.v[j] = omega_sbs * coeff_.lambda[j];
      coeff_.a += coeff_.u[j];
    }
  }
  quad_norm_ =
      linalg::dot(coeff_.u, coeff_.u) + linalg::dot(coeff_.v, coeff_.v);
  bind_finite_ = std::isfinite(sbs.bandwidth) && all_finite(coeff_.lambda);
  coeff_.c.assign(size, 0.0);
  linear_finite_ = true;
  coeff_.ub.assign(size, 1.0);
  upper_finite_ = true;
  has_solution_ = false;

  zero_u_.clear();
  for (std::size_t j = 0; j < size; ++j) {
    if (coeff_.u[j] <= 0.0) zero_u_.push_back(j);
  }
  order_warm_ = false;
}

void P2Workspace::set_linear(const double* begin, const double* end) {
  MDO_REQUIRE(bound(), "P2 workspace: bind() before set_linear()");
  MDO_REQUIRE(static_cast<std::size_t>(end - begin) == coeff_.lambda.size(),
              "P2 workspace: linear size");
  coeff_.c.assign(begin, end);
  linear_finite_ = all_finite(coeff_.c);
  has_solution_ = false;
}

void P2Workspace::set_upper(const linalg::Vec& upper) {
  MDO_REQUIRE(bound(), "P2 workspace: bind() before set_upper()");
  MDO_REQUIRE(upper.size() == coeff_.lambda.size(),
              "P2 workspace: upper size");
  coeff_.ub = upper;
  order_warm_ = false;
  upper_finite_ = all_finite(coeff_.ub);
  if (upper_finite_) {
    // Non-finite bounds are reported via the solve status instead of thrown.
    for (const double b : coeff_.ub) {
      MDO_REQUIRE(b >= 0.0 && b <= 1.0, "P2: upper bounds must be in [0, 1]");
    }
  }
  has_solution_ = false;
}

void P2Workspace::refresh_feasible_set() {
  const std::size_t size = coeff_.lambda.size();
  feasible_.lo.assign(size, 0.0);
  feasible_.hi = coeff_.ub;
  feasible_.weights = coeff_.lambda;
  feasible_.budget = sbs_->bandwidth;
  // Validated once per solve here; the per-iteration projections then use
  // the unchecked project_box_knapsack_into.
  feasible_.validate();
}

void P2Workspace::solve_fista(const LoadBalancingOptions& options,
                              LoadBalancingOutcome& out) {
  const std::size_t size = coeff_.lambda.size();

  double lipschitz = 2.0 * quad_norm_;
  if (lipschitz <= 1e-14) {
    bool c_nonneg = true;
    for (const double cj : coeff_.c) c_nonneg = c_nonneg && cj >= 0.0;
    if (c_nonneg) {
      // Degenerate instance: no weighted demand and c >= 0, so the
      // objective reduces to c . y and y = 0 is optimal.
      y_.assign(size, 0.0);
      out.objective = coeff_.a * coeff_.a;  // == objective at y = 0
      out.iterations = 0;
      out.converged = true;
      out.status = solver::SolveStatus::kConverged;
      has_solution_ = true;
      return;
    }
    lipschitz = 1.0;  // linear objective: any positive step works with PGD
  }

  refresh_feasible_set();

  // [this] captures fit std::function's small-buffer storage: no allocation.
  const solver::ValueGradientFn objective = [this](const linalg::Vec& y,
                                                   linalg::Vec& grad) {
    const auto [u_dot_y, v_dot_y] = linalg::dot_pair(coeff_.u, coeff_.v, y);
    const double bs_term = coeff_.a - u_dot_y;
    const double sbs_term = v_dot_y;
    for (std::size_t j = 0; j < y.size(); ++j) {
      grad[j] = -2.0 * bs_term * coeff_.u[j] + 2.0 * sbs_term * coeff_.v[j] +
                coeff_.c[j];
    }
    const double bs_sq = bs_term * bs_term;
    const double sbs_sq = sbs_term * sbs_term;
    double linear_term = 0.0;
    for (std::size_t j = 0; j < y.size(); ++j) {
      linear_term += coeff_.c[j] * y[j];
    }
    return bs_sq + sbs_sq + linear_term;
  };
  const solver::ProjectionIntoFn project = [this](const linalg::Vec& in,
                                                  linalg::Vec& out_vec) {
    solver::project_box_knapsack_into(in, feasible_, out_vec);
  };

  if (y_.size() != size) y_.assign(size, 0.0);
  first_order_.x = y_;  // warm start (copy-assign reuses capacity)

  solver::FirstOrderOptions fo = options.first_order;
  fo.lipschitz = lipschitz;
  const solver::FirstOrderSummary summary =
      solver::minimize_projected(objective, project, first_order_, fo);

  y_.swap(first_order_.x);
  out.objective = summary.objective_value;
  out.iterations = summary.iterations;
  out.converged = summary.converged;
  out.status = summary.status;
  has_solution_ = true;
}

/// Solves the fixed-theta stationarity system of the exact solver into
/// exact_y_, with the consistent scalar s = u . y. See the header comment
/// for the math. Allocation-free once the scratch buffers reach the instance size.
void P2Workspace::stationary_point(double theta) {
  const std::size_t size = coeff_.u.size();
  exact_y_.assign(size, 0.0);

  // Coordinates with u_j = 0 do not move s: they activate exactly when
  // their linear coefficient (c_j + theta lambda_j) is negative.
  for (const std::size_t j : zero_u_) {
    const double price = coeff_.c[j] + theta * coeff_.lambda[j];
    if (price < 0.0) exact_y_[j] = coeff_.ub[j];
  }
  // Eligible coordinates (u_j > 0, ub_j > 0) activate when phi = 2(a - s)
  // exceeds their threshold t_j = (c_j + theta lambda_j) / u_j. The first
  // call after a binding collects and sorts them; later calls recompute the
  // thresholds in the last call's order and repair it.
  const auto threshold_of = [&](std::size_t j) {
    const double price = coeff_.c[j] + theta * coeff_.lambda[j];
    return price / coeff_.u[j];
  };
  if (order_warm_) {
    for (auto& [threshold, j] : order_) threshold = threshold_of(j);
    repair_order(order_);
  } else {
    order_.clear();
    if (order_.capacity() < size) order_.reserve(size);
    for (std::size_t j = 0; j < size; ++j) {
      if (coeff_.u[j] <= 0.0) continue;   // in zero_u_
      if (coeff_.ub[j] <= 0.0) continue;  // pinned at zero
      order_.push_back({threshold_of(j), j});
    }
    std::sort(order_.begin(), order_.end());
    order_warm_ = true;
  }

  // Group equal thresholds (within a tiny tolerance) so ties are split
  // fractionally rather than flip-flopped. Groups are (begin, end) ranges
  // into the sorted order — no per-group member vectors.
  groups_.clear();
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const double threshold = order_[i].first;
    const std::size_t j = order_[i].second;
    if (groups_.empty() ||
        threshold >
            groups_.back().threshold + 1e-12 * (1.0 + std::abs(threshold))) {
      groups_.push_back({threshold, i, i, 0.0});
    }
    groups_.back().end = i + 1;
    groups_.back().mass += coeff_.u[j] * coeff_.ub[j];
  }

  // Walk the piecewise-linear fixed point G(phi) = phi + 2 s(phi) - 2a.
  const double a2 = 2.0 * coeff_.a;
  double below = 0.0;  // s contribution of groups strictly below phi
  std::size_t solved_group = groups_.size();
  double fraction = 1.0;
  std::size_t active_groups = 0;
  for (std::size_t g = 0; g <= groups_.size(); ++g) {
    const double seg_lo = g == 0 ? -std::numeric_limits<double>::infinity()
                                 : groups_[g - 1].threshold;
    const double seg_hi = g == groups_.size()
                              ? std::numeric_limits<double>::infinity()
                              : groups_[g].threshold;
    // Interior candidate for this segment: s constant = below.
    const double candidate = a2 - 2.0 * below;
    if (candidate > seg_lo && candidate <= seg_hi) {
      active_groups = g;
      solved_group = groups_.size();  // no fractional group
      break;
    }
    if (g == groups_.size()) {
      active_groups = g;  // numerical fallback: everything active
      break;
    }
    // Jump at phi = seg_hi: fractional root if G crosses zero there.
    const double g_minus = seg_hi + 2.0 * below - a2;
    const double g_plus = seg_hi + 2.0 * (below + groups_[g].mass) - a2;
    if (g_minus <= 0.0 && g_plus >= 0.0) {
      const double s_star = (a2 - seg_hi) / 2.0;
      fraction = groups_[g].mass > 0.0
                     ? std::clamp((s_star - below) / groups_[g].mass, 0.0, 1.0)
                     : 0.0;
      solved_group = g;
      active_groups = g;
      break;
    }
    below += groups_[g].mass;
  }

  for (std::size_t g = 0; g < active_groups; ++g) {
    for (std::size_t i = groups_[g].begin; i < groups_[g].end; ++i) {
      const std::size_t j = order_[i].second;
      exact_y_[j] = coeff_.ub[j];
    }
  }
  if (solved_group < groups_.size()) {
    for (std::size_t i = groups_[solved_group].begin;
         i < groups_[solved_group].end; ++i) {
      const std::size_t j = order_[i].second;
      exact_y_[j] = fraction * coeff_.ub[j];
    }
  }
}

namespace {

double load_of(const Coefficients& coeff, const linalg::Vec& y) {
  double load = 0.0;
  for (std::size_t j = 0; j < y.size(); ++j) load += coeff.lambda[j] * y[j];
  return load;
}

}  // namespace

void P2Workspace::solve_exact(LoadBalancingOutcome& out) {
  const double budget = sbs_->bandwidth;
  out.converged = true;
  out.status = solver::SolveStatus::kConverged;

  // theta = 0: bandwidth slack case.
  stationary_point(0.0);
  if (load_of(coeff_, exact_y_) <= budget + 1e-12) {
    y_.swap(exact_y_);
    out.iterations = 1;
  } else {
    // Bisect the bandwidth multiplier; the load is non-increasing in theta.
    double lo = 0.0;
    double hi = 1.0;
    stationary_point(hi);
    while (load_of(coeff_, exact_y_) > budget) {
      hi *= 2.0;
      MDO_CHECK(hi < 1e30, "exact P2: failed to bracket the multiplier");
      stationary_point(hi);
    }
    std::size_t iterations = 1;
    while (hi - lo > 1e-13 * (1.0 + hi)) {
      const double mid = 0.5 * (lo + hi);
      stationary_point(mid);
      if (load_of(coeff_, exact_y_) > budget) lo = mid;
      else hi = mid;
      ++iterations;
    }
    stationary_point(hi);  // feasible side
    y_.swap(exact_y_);
    out.iterations = iterations;

    // At a binding bandwidth row the active set can jump discretely at
    // theta*, leaving unused budget; a short FISTA polish from this
    // (excellent) warm start recovers the fractional boundary point.
    LoadBalancingOptions polish;
    polish.prefer_exact = false;
    polish.first_order.max_iterations = 200;
    polish.first_order.gradient_tolerance = 1e-7;
    LoadBalancingOutcome refined;
    if (inputs_finite()) {
      solve_fista(polish, refined);
    } else {
      y_.assign(coeff_.lambda.size(), 0.0);
    }
    out.iterations += refined.iterations;
  }

  const double bs_term = coeff_.a - linalg::dot(coeff_.u, y_);
  out.objective = bs_term * bs_term + linalg::dot(coeff_.c, y_);
  has_solution_ = true;
}

LoadBalancingOutcome solve_load_balancing(P2Workspace& ws,
                                          const LoadBalancingOptions& options) {
  MDO_REQUIRE(ws.bound(), "P2 workspace: bind() before solve");
  LoadBalancingOutcome out;
  if (!ws.inputs_finite()) {
    // Corrupted rates/multipliers: serve everything from the BS (y = 0 is
    // feasible for every box-knapsack instance) and report via the status.
    ws.y_.assign(ws.coeff_.lambda.size(), 0.0);
    out.status = solver::SolveStatus::kNonFiniteInput;
    out.converged = false;
    ws.has_solution_ = true;
    return out;
  }
  if (options.prefer_exact && ws.exact_applicable_) {
    ws.solve_exact(out);
  } else {
    ws.solve_fista(options, out);
  }
  return out;
}

double load_balancing_objective(const Coefficients& coeff,
                                const linalg::Vec& y) {
  MDO_REQUIRE(y.size() == coeff.lambda.size(), "P2 objective: y size");
  const auto [u_dot_y, v_dot_y] = linalg::dot_pair(coeff.u, coeff.v, y);
  const double bs_term = coeff.a - u_dot_y;
  const double sbs_term = v_dot_y;
  return bs_term * bs_term + sbs_term * sbs_term + linalg::dot(coeff.c, y);
}

model::LoadAllocation optimal_load_for_cache(const model::NetworkConfig& config,
                                             model::SlotDemandView demand,
                                             const model::CacheState& cache) {
  model::SparseSlotDemand storage;
  const model::SparseSlotDemand& slot = model::sparse_slot(demand, storage);
  MDO_REQUIRE(slot.size() == config.num_sbs(),
              "optimal_load_for_cache: demand shape mismatch");
  model::LoadAllocation load(config);  // zero-initialized
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const std::size_t classes = config.sbs[n].num_classes();
    const std::vector<std::size_t> active =
        model::active_contents(slot[n], cache, n);
    // A throwaway workspace per SBS: every solve starts cold.
    P2Workspace ws;
    ws.bind_active(config.sbs[n], slot[n], active);
    linalg::Vec ub(classes * active.size(), 0.0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (!cache.cached(n, active[i])) continue;
      for (std::size_t m = 0; m < classes; ++m) ub[m * active.size() + i] = 1.0;
    }
    ws.set_upper(ub);
    solve_load_balancing(ws, {});
    // Off-active loads are structural zeros of P2: scatter the compact y.
    const std::size_t a_count = active.size();
    linalg::Vec& row = load.sbs_data(n);
    for (std::size_t m = 0; m < classes; ++m) {
      for (std::size_t i = 0; i < a_count; ++i) {
        row[m * config.num_contents + active[i]] = ws.y()[m * a_count + i];
      }
    }
  }
  return load;
}

}  // namespace mdo::core
