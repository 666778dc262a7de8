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
  sbs_weighted_ = false;
  for (std::size_t m = 0; m < classes; ++m) {
    const double omega = sbs.classes[m].omega_bs;
    const double omega_sbs = sbs.classes[m].omega_sbs;
    if (omega_sbs != 0.0) sbs_weighted_ = true;
    for (std::size_t i = 0; i < a_count; ++i) {
      const std::size_t j = m * a_count + i;
      coeff_.u[j] = omega * coeff_.lambda[j];
      coeff_.v[j] = omega_sbs * coeff_.lambda[j];
      coeff_.a += coeff_.u[j];
    }
  }
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

/// Solves the fixed-theta stationarity system of (a - u.y)^2 + linear.y
/// into exact_y_, with the consistent scalar s = u . y. See the header
/// comment for the math. Allocation-free once the scratch buffers reach the
/// instance size.
void P2Workspace::stationary_point(const linalg::Vec& linear, double theta) {
  const std::size_t size = coeff_.u.size();
  ++stationary_points_;
  exact_y_.assign(size, 0.0);

  // Coordinates with u_j = 0 do not move s: they activate exactly when
  // their linear coefficient (c_j + theta lambda_j) is negative.
  for (const std::size_t j : zero_u_) {
    const double price = linear[j] + theta * coeff_.lambda[j];
    if (price < 0.0) exact_y_[j] = coeff_.ub[j];
  }
  // Eligible coordinates (u_j > 0, ub_j > 0) activate when phi = 2(a - s)
  // exceeds their threshold t_j = (c_j + theta lambda_j) / u_j. The first
  // call after a binding collects and sorts them; later calls recompute the
  // thresholds in the last call's order and repair it.
  const auto threshold_of = [&](std::size_t j) {
    const double price = linear[j] + theta * coeff_.lambda[j];
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

/// Writes y = y_hi + alpha (y_lo - y_hi) into `out`, clamped to the box
/// against rounding.
void blend(const linalg::Vec& y_lo, const linalg::Vec& y_hi, double alpha,
           const linalg::Vec& ub, linalg::Vec& out) {
  out.resize(y_lo.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = std::clamp(y_hi[j] + alpha * (y_lo[j] - y_hi[j]), 0.0, ub[j]);
  }
}

}  // namespace

void P2Workspace::solve_bandwidth(const linalg::Vec& linear) {
  const double budget = sbs_->bandwidth;
  // theta = 0: bandwidth slack case.
  stationary_point(linear, 0.0);
  double lo_load = load_of(coeff_, exact_y_);
  if (lo_load <= budget + 1e-12) return;

  // Bisect the bandwidth multiplier; the load is non-increasing in theta.
  // Each end point keeps its solution for the final blend.
  double lo = 0.0;
  double hi = 1.0;
  theta_lo_y_.swap(exact_y_);
  stationary_point(linear, hi);
  double hi_load = load_of(coeff_, exact_y_);
  while (hi_load > budget) {
    lo = hi;
    lo_load = hi_load;
    theta_lo_y_.swap(exact_y_);
    hi *= 2.0;
    MDO_CHECK(hi < 1e30, "exact P2: failed to bracket the multiplier");
    stationary_point(linear, hi);
    hi_load = load_of(coeff_, exact_y_);
  }
  theta_hi_y_.swap(exact_y_);
  while (hi - lo > 1e-13 * (1.0 + hi)) {
    const double mid = 0.5 * (lo + hi);
    stationary_point(linear, mid);
    const double load = load_of(coeff_, exact_y_);
    if (load > budget) {
      lo = mid;
      lo_load = load;
      theta_lo_y_.swap(exact_y_);
    } else {
      hi = mid;
      hi_load = load;
      theta_hi_y_.swap(exact_y_);
    }
  }
  // The load jumps across [lo, hi] when coordinates enter at theta*: the
  // blend with lambda . y = B is a minimizer of the Lagrangian at theta*
  // on which the row is tight (see the header comment).
  blend(theta_lo_y_, theta_hi_y_, (budget - hi_load) / (lo_load - hi_load),
        coeff_.ub, exact_y_);
}

void P2Workspace::solve_sbs_weighted() {
  // h(r) = v . y*(r) for P2_r, whose linear term is c + 2 r v; r = 0 is P2_0
  // on c itself.
  const auto h = [this](double r) {
    for (std::size_t j = 0; j < shifted_c_.size(); ++j) {
      shifted_c_[j] = coeff_.c[j] + 2.0 * r * coeff_.v[j];
    }
    solve_bandwidth(shifted_c_);
    return linalg::dot(coeff_.v, exact_y_);
  };
  shifted_c_.resize(coeff_.c.size());
  solve_bandwidth(coeff_.c);
  // v >= 0 and y >= 0, so h(0) >= 0; h(0) = 0 makes r = 0 the fixed point.
  const double h0 = linalg::dot(coeff_.v, exact_y_);
  if (h0 <= 0.0) return;

  // r - h(r) is increasing, negative at 0 and non-negative at h(0).
  double lo = 0.0;
  double h_lo = h0;
  r_lo_y_.swap(exact_y_);
  double hi = h0;
  double h_hi = h(hi);
  r_hi_y_.swap(exact_y_);
  while (hi - lo > 1e-13 * (1.0 + h0)) {
    const double mid = 0.5 * (lo + hi);
    const double value = h(mid);
    if (value > mid) {
      lo = mid;
      h_lo = value;
      r_lo_y_.swap(exact_y_);
    } else {
      hi = mid;
      h_hi = value;
      r_hi_y_.swap(exact_y_);
    }
  }
  // Blend so that v . y equals the same blend of the end points' r:
  // alpha (h_lo - lo) = (1 - alpha) (hi - h_hi), with h_lo - lo > 0.
  const double above = h_lo - lo;
  const double below = hi - h_hi;
  const double alpha = below / (above + below);
  blend(r_lo_y_, r_hi_y_, alpha, coeff_.ub, exact_y_);
}

LoadBalancingOutcome solve_load_balancing(P2Workspace& ws) {
  MDO_REQUIRE(ws.bound(), "P2 workspace: bind() before solve");
  LoadBalancingOutcome out;
  if (!ws.inputs_finite()) {
    // Corrupted rates/multipliers: serve everything from the BS (y = 0 is
    // feasible for every box-knapsack instance) and report via the status.
    ws.y_.assign(ws.coeff_.lambda.size(), 0.0);
    out.status = solver::SolveStatus::kNonFiniteInput;
    ws.has_solution_ = true;
    return out;
  }
  ws.stationary_points_ = 0;
  if (ws.sbs_weighted_) {
    ws.solve_sbs_weighted();
  } else {
    ws.solve_bandwidth(ws.coeff_.c);
  }
  ws.y_.swap(ws.exact_y_);
  out.iterations = ws.stationary_points_;

  const Coefficients& coeff = ws.coeff_;
  const double bs_term = coeff.a - linalg::dot(coeff.u, ws.y_);
  const double sbs_term = ws.sbs_weighted_ ? linalg::dot(coeff.v, ws.y_) : 0.0;
  out.objective =
      bs_term * bs_term + sbs_term * sbs_term + linalg::dot(coeff.c, ws.y_);
  ws.has_solution_ = true;
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
        model::active_contents(slot[n], cache.cached_contents(n));
    // A throwaway workspace per SBS.
    P2Workspace ws;
    ws.bind_active(config.sbs[n], slot[n], active);
    linalg::Vec ub(classes * active.size(), 0.0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (!cache.cached(n, active[i])) continue;
      for (std::size_t m = 0; m < classes; ++m) ub[m * active.size() + i] = 1.0;
    }
    ws.set_upper(ub);
    solve_load_balancing(ws);
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
