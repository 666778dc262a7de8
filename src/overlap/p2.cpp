#include "overlap/p2.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mdo::overlap {

namespace {

void check_upper_bounds(const linalg::Vec& ub, const OverlapLayout& layout) {
  MDO_REQUIRE(ub.size() == layout.y_size(),
              "overlap set: upper bound size mismatch");
  for (const double b : ub) {
    MDO_REQUIRE(b >= 0.0 && b <= 1.0, "overlap set: ub outside [0, 1]");
  }
}

/// Dot restricted to the coordinates where `coeff` is nonzero. Bit-identical
/// to linalg::dot(coeff, y): the full loop adds coeff[j] * y[j] = +0.0 for
/// every skipped j (both factors nonnegative), which never changes the
/// accumulator.
double sparse_dot(const linalg::Vec& coeff,
                  const std::vector<std::size_t>& active,
                  const linalg::Vec& y) {
  double sum = 0.0;
  for (const std::size_t j : active) sum += coeff[j] * y[j];
  return sum;
}

}  // namespace

void OverlapFeasibleSet::rebind(const OverlapConfig& config,
                                const OverlapLayout& layout,
                                const ClassDemand& demand,
                                const linalg::Vec& ub) {
  config_ = &config;
  layout_ = &layout;
  demand_ = &demand;
  ub_ = ub;
  check_upper_bounds(ub_, layout);
}

void OverlapFeasibleSet::project_bandwidth_family(
    const linalg::Vec& point, linalg::Vec& out,
    ProjectionScratch& scratch) const {
  out = point;
  for (std::size_t n = 0; n < config_->num_sbs(); ++n) {
    const auto& links = layout_->links_of_sbs(n);
    const std::size_t k_count = config_->num_contents;
    // Gather the block.
    solver::BoxKnapsackSet& block = scratch.block;
    block.lo.assign(links.size() * k_count, 0.0);
    block.hi.resize(links.size() * k_count);
    block.weights.resize(links.size() * k_count);
    block.budget = config_->sbs[n].bandwidth;
    linalg::Vec& sub = scratch.block_point;
    sub.resize(links.size() * k_count);
    for (std::size_t i = 0; i < links.size(); ++i) {
      const auto [m, sbs_index] = layout_->link(links[i]);
      (void)sbs_index;
      for (std::size_t k = 0; k < k_count; ++k) {
        const std::size_t flat = layout_->index(links[i], k);
        const std::size_t local = i * k_count + k;
        block.hi[local] = ub_[flat];
        block.weights[local] = demand_->at(m, k);
        sub[local] = point[flat];
      }
    }
    block.validate();
    linalg::Vec& projected = scratch.block_projected;
    projected.resize(sub.size());
    solver::project_box_knapsack_into(sub, block, projected);
    for (std::size_t i = 0; i < links.size(); ++i) {
      for (std::size_t k = 0; k < k_count; ++k) {
        out[layout_->index(links[i], k)] = projected[i * k_count + k];
      }
    }
  }
}

void OverlapFeasibleSet::project_share_family(const linalg::Vec& point,
                                              linalg::Vec& out,
                                              ProjectionScratch& scratch) const {
  out = point;
  for (std::size_t m = 0; m < config_->num_classes(); ++m) {
    const auto& links = layout_->links_of_class(m);
    for (std::size_t k = 0; k < config_->num_contents; ++k) {
      solver::BoxKnapsackSet& row = scratch.row;
      row.lo.assign(links.size(), 0.0);
      row.hi.resize(links.size());
      row.weights.assign(links.size(), 1.0);
      row.budget = 1.0;
      linalg::Vec& sub = scratch.row_point;
      sub.resize(links.size());
      for (std::size_t i = 0; i < links.size(); ++i) {
        const std::size_t flat = layout_->index(links[i], k);
        row.hi[i] = ub_[flat];
        sub[i] = point[flat];
      }
      row.validate();
      linalg::Vec& projected = scratch.row_projected;
      projected.resize(sub.size());
      solver::project_box_knapsack_into(sub, row, projected);
      for (std::size_t i = 0; i < links.size(); ++i) {
        out[layout_->index(links[i], k)] = projected[i];
      }
    }
  }
}

void OverlapFeasibleSet::project_with(const linalg::Vec& point,
                                      linalg::Vec& out,
                                      std::size_t max_iterations, double tol,
                                      ProjectionScratch& scratch) const {
  MDO_REQUIRE(point.size() == ub_.size(), "overlap project: size mismatch");
  // Dykstra's alternating projections between the two exact families.
  scratch.x = point;
  scratch.p.assign(point.size(), 0.0);
  scratch.q.assign(point.size(), 0.0);
  for (std::size_t iteration = 0; iteration < max_iterations; ++iteration) {
    scratch.shifted = scratch.x;
    linalg::axpy(1.0, scratch.p, scratch.shifted);
    project_bandwidth_family(scratch.shifted, scratch.z, scratch);
    for (std::size_t j = 0; j < scratch.p.size(); ++j) {
      scratch.p[j] = scratch.shifted[j] - scratch.z[j];
    }

    scratch.shifted2 = scratch.z;
    linalg::axpy(1.0, scratch.q, scratch.shifted2);
    project_share_family(scratch.shifted2, scratch.next, scratch);
    for (std::size_t j = 0; j < scratch.q.size(); ++j) {
      scratch.q[j] = scratch.shifted2[j] - scratch.next[j];
    }

    double delta = 0.0;
    for (std::size_t j = 0; j < scratch.x.size(); ++j) {
      delta = std::max(delta, std::abs(scratch.next[j] - scratch.x[j]));
    }
    scratch.x = scratch.next;
    if (delta <= tol && contains(scratch.x, 1e-7)) break;
  }
  out = scratch.x;
}

bool OverlapFeasibleSet::contains(const linalg::Vec& y, double tol) const {
  if (y.size() != ub_.size()) return false;
  for (std::size_t j = 0; j < y.size(); ++j) {
    if (y[j] < -tol || y[j] > ub_[j] + tol) return false;
  }
  for (std::size_t n = 0; n < config_->num_sbs(); ++n) {
    double load = 0.0;
    for (const std::size_t id : layout_->links_of_sbs(n)) {
      const auto [m, sbs_index] = layout_->link(id);
      (void)sbs_index;
      for (std::size_t k = 0; k < config_->num_contents; ++k) {
        load += y[layout_->index(id, k)] * demand_->at(m, k);
      }
    }
    if (load > config_->sbs[n].bandwidth + tol) return false;
  }
  for (std::size_t m = 0; m < config_->num_classes(); ++m) {
    for (std::size_t k = 0; k < config_->num_contents; ++k) {
      double total = 0.0;
      for (const std::size_t id : layout_->links_of_class(m)) {
        total += y[layout_->index(id, k)];
      }
      if (total > 1.0 + tol) return false;
    }
  }
  return true;
}

void OverlapP2Workspace::bind(const OverlapConfig& config,
                              const OverlapLayout& layout,
                              const ClassDemand& demand) {
  config_ = &config;
  layout_ = &layout;
  demand_ = &demand;
  const std::size_t size = layout.y_size();

  u_.assign(size, 0.0);
  v_.resize(config.num_sbs());
  for (auto& v : v_) v.assign(size, 0.0);
  for (std::size_t id = 0; id < layout.num_links(); ++id) {
    const auto [m, n] = layout.link(id);
    for (std::size_t k = 0; k < config.num_contents; ++k) {
      const std::size_t j = layout.index(id, k);
      u_[j] = config.classes[m].omega_bs * demand.at(m, k);
      v_[n][j] = layout.link_omega_sbs(id) * demand.at(m, k);
    }
  }
  a_ = 0.0;
  for (std::size_t m = 0; m < config.num_classes(); ++m) {
    double row = 0.0;
    for (std::size_t k = 0; k < config.num_contents; ++k) {
      row += demand.at(m, k);
    }
    a_ += config.classes[m].omega_bs * row;
  }
  lipschitz_ = 2.0 * linalg::dot(u_, u_);
  for (const auto& v : v_) lipschitz_ += 2.0 * linalg::dot(v, v);

  u_active_.clear();
  for (std::size_t j = 0; j < size; ++j) {
    if (u_[j] != 0.0) u_active_.push_back(j);
  }
  v_active_.resize(v_.size());
  for (std::size_t n = 0; n < v_.size(); ++n) {
    v_active_[n].clear();
    for (std::size_t j = 0; j < size; ++j) {
      if (v_[n][j] != 0.0) v_active_[n].push_back(j);
    }
  }

  c_.assign(size, 0.0);
  ub_.assign(size, 1.0);
  y_.clear();
  has_solution_ = false;
}

void OverlapP2Workspace::set_linear(const double* begin, const double* end) {
  MDO_REQUIRE(bound(), "overlap workspace: bind() before set_linear()");
  MDO_REQUIRE(static_cast<std::size_t>(end - begin) == u_.size(),
              "overlap workspace: linear size");
  c_.assign(begin, end);
  has_solution_ = false;
}

void OverlapP2Workspace::set_upper(const linalg::Vec& upper) {
  MDO_REQUIRE(bound(), "overlap workspace: bind() before set_upper()");
  MDO_REQUIRE(upper.size() == u_.size(), "overlap workspace: upper size");
  ub_ = upper;
  has_solution_ = false;
}

double OverlapP2Workspace::objective(const linalg::Vec& y) const {
  MDO_REQUIRE(bound(), "overlap workspace: bind() before objective()");
  MDO_REQUIRE(y.size() == u_.size(), "overlap objective: y size");
  // Off the demand support u_ and v_ are exact zeros: the skipped dot terms
  // are +0.0 (see sparse_dot).
  const double bs_term = a_ - sparse_dot(u_, u_active_, y);
  double value = bs_term * bs_term + linalg::dot(c_, y);
  for (std::size_t n = 0; n < v_.size(); ++n) {
    const double served = sparse_dot(v_[n], v_active_[n], y);
    value += served * served;
  }
  return value;
}

OverlapP2Outcome solve_overlap_load_balancing(OverlapP2Workspace& ws,
                                              const OverlapP2Options& options) {
  MDO_REQUIRE(ws.bound(), "overlap workspace: bind() before solve");
  const std::size_t size = ws.u_.size();

  OverlapP2Outcome out;
  if (ws.lipschitz_ <= 1e-14) {
    ws.y_.assign(size, 0.0);
    out.objective = ws.objective(ws.y_);
    out.converged = true;
    ws.has_solution_ = true;
    return out;
  }

  ws.feasible_.rebind(*ws.config_, *ws.layout_, *ws.demand_, ws.ub_);

  // [&ws] / [&ws, &options] captures fit std::function's small-buffer
  // storage: no allocation.
  const solver::ValueGradientFn objective = [&ws](const linalg::Vec& y,
                                                  linalg::Vec& grad) {
    // Active-coordinate gradient: off the demand support u_ and v_ are
    // exact zeros, so grad there is just c_ (the dense code adds a signed
    // zero, which cannot change it).
    const double bs_term = ws.a_ - sparse_dot(ws.u_, ws.u_active_, y);
    grad = ws.c_;
    for (const std::size_t j : ws.u_active_) {
      grad[j] = -2.0 * bs_term * ws.u_[j] + ws.c_[j];
    }
    for (std::size_t n = 0; n < ws.v_.size(); ++n) {
      const double served = sparse_dot(ws.v_[n], ws.v_active_[n], y);
      if (served != 0.0) {
        for (const std::size_t j : ws.v_active_[n]) {
          grad[j] += 2.0 * served * ws.v_[n][j];
        }
      }
    }
    return ws.objective(y);
  };
  const solver::ProjectionIntoFn project =
      [&ws, &options](const linalg::Vec& in, linalg::Vec& out_vec) {
        ws.feasible_.project_with(in, out_vec, options.dykstra_iterations,
                                  1e-9, ws.projection_);
      };

  if (ws.y_.size() != size) ws.y_.assign(size, 0.0);
  ws.first_order_.x = ws.y_;  // warm start (copy-assign reuses capacity)

  solver::FirstOrderOptions fo = options.first_order;
  fo.lipschitz = ws.lipschitz_;
  const solver::FirstOrderSummary summary =
      solver::minimize_projected(objective, project, ws.first_order_, fo);

  ws.y_.swap(ws.first_order_.x);
  out.objective = summary.objective_value;
  out.iterations = summary.iterations;
  out.converged = summary.converged;
  ws.has_solution_ = true;
  return out;
}

}  // namespace mdo::overlap
