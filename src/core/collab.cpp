#include "core/collab.hpp"

#include <algorithm>
#include <vector>

#include "model/feasibility.hpp"
#include "solver/first_order.hpp"
#include "solver/projection.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mdo::core {

namespace {

/// Relative improvement a group must achieve to be accepted (see the
/// acceptance test in overlay_receiver).
constexpr double kAcceptanceMargin = 1e-9;

/// One offloadable coordinate of receiver n: class m, content k, demand
/// rate lambda > 0, routed through designated source `src`.
struct Candidate {
  std::size_t m = 0;
  std::size_t k = 0;
  double rate = 0.0;
  std::size_t src = 0;
};

/// Runs the overlay for one receiver SBS. Reads every SBS's cache
/// (read-only) and writes only receiver n's neighbor row, so receivers are
/// independent; within the receiver all reductions run serially in index
/// order (DESIGN.md §12).
bool overlay_receiver(const model::NetworkConfig& config,
                      const model::SparseSbsDemand& demand,
                      model::SlotDecision& decision, std::size_t n) {
  const auto& sbs = config.sbs[n];
  const auto& row = config.topology.links[n];
  if (row.empty()) return false;
  model::LoadAllocation& load = decision.load;

  // Collect the positive-rate coordinates in (class, content) order and
  // accumulate the receiver's current weighted BS residual R and neighbor
  // traffic S — the two scalars the squared cost terms are built from.
  std::vector<Candidate> candidates;
  double residual = 0.0;  // R: omega_bs-weighted traffic still on the BS
  double neigh = 0.0;     // S: omega_neigh-weighted neighbor traffic
  for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
    const model::DemandEntry* const end = demand.row_end(m);
    for (const model::DemandEntry* it = demand.row_begin(m); it != end; ++it) {
      const std::size_t k = it->content;
      const double rate = it->rate;
      if (rate <= 0.0) continue;
      const double y = load.at(n, m, k);
      const double z = load.neighbor_at(n, m, k);
      residual += sbs.classes[m].omega_bs * (1.0 - y - z) * rate;
      neigh += sbs.classes[m].omega_neigh * z * rate;
      const std::size_t src =
          model::neighbor_source(config, decision.cache, n, k);
      if (src == config.num_sbs()) continue;
      if (1.0 - y - z <= 0.0) continue;
      candidates.push_back({m, k, rate, src});
    }
  }
  if (candidates.empty()) return false;

  // Partition by designated source link (ascending peer order = ascending
  // row index, since the adjacency row is sorted).
  std::vector<std::vector<std::size_t>> groups(row.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j].peer == candidates[c].src) {
        groups[j].push_back(c);
        break;
      }
    }
  }

  solver::FirstOrderWorkspace ws;
  solver::BoxKnapsackSet set;
  linalg::Vec u, w;
  bool assigned = false;

  // Gauss-Seidel over the link groups: each group sees the residual and
  // neighbor traffic left by the groups before it.
  for (std::size_t j = 0; j < row.size(); ++j) {
    const auto& group = groups[j];
    if (group.empty()) continue;
    const double cap = row[j].bandwidth;
    if (cap <= 0.0) continue;
    const std::size_t dim = group.size();

    u.assign(dim, 0.0);
    w.assign(dim, 0.0);
    set.lo.assign(dim, 0.0);
    set.hi.assign(dim, 0.0);
    set.weights.assign(dim, 0.0);
    set.budget = cap;
    double lipschitz = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const Candidate& c = candidates[group[i]];
      u[i] = sbs.classes[c.m].omega_bs * c.rate;
      w[i] = sbs.classes[c.m].omega_neigh * c.rate;
      set.weights[i] = c.rate;
      set.hi[i] = 1.0 - load.at(n, c.m, c.k) - load.neighbor_at(n, c.m, c.k);
      lipschitz += 2.0 * (u[i] * u[i] + w[i] * w[i]);
    }
    if (lipschitz <= 0.0) continue;

    // min (R - u.y)^2 + (S + w.y)^2 over the box+knapsack set.
    const double r_cur = residual;
    const double s_cur = neigh;
    const auto objective = [&](const linalg::Vec& y, linalg::Vec& grad) {
      double du = 0.0, dw = 0.0;
      for (std::size_t i = 0; i < y.size(); ++i) du += u[i] * y[i];
      for (std::size_t i = 0; i < y.size(); ++i) dw += w[i] * y[i];
      const double rest = r_cur - du;
      const double serv = s_cur + dw;
      for (std::size_t i = 0; i < y.size(); ++i) {
        grad[i] = -2.0 * rest * u[i] + 2.0 * serv * w[i];
      }
      return rest * rest + serv * serv;
    };
    const auto project = [&](const linalg::Vec& in, linalg::Vec& out) {
      solver::project_box_knapsack_into(in, set, out);
    };
    // The default FISTA options converge these tiny (<= active-set-size)
    // problems well below the acceptance margin.
    solver::FirstOrderOptions fo;
    fo.lipschitz = lipschitz;
    ws.x.assign(dim, 0.0);
    minimize_projected(objective, project, ws, fo);

    // Exact post-conditioning: clamp into the box and rescale onto the
    // knapsack budget so feasibility never rests on projection tolerance.
    double link_load = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      ws.x[i] = std::clamp(ws.x[i], 0.0, set.hi[i]);
      link_load += set.weights[i] * ws.x[i];
    }
    if (link_load > cap && link_load > 0.0) {
      const double scale = cap / link_load;
      for (std::size_t i = 0; i < dim; ++i) ws.x[i] *= scale;
    }

    double du = 0.0, dw = 0.0;
    for (std::size_t i = 0; i < dim; ++i) du += u[i] * ws.x[i];
    for (std::size_t i = 0; i < dim; ++i) dw += w[i] * ws.x[i];
    const double before = r_cur * r_cur + s_cur * s_cur;
    const double after =
        (r_cur - du) * (r_cur - du) + (s_cur + dw) * (s_cur + dw);
    // Accept only a strict improvement with margin: the margin absorbs
    // last-ulp re-association in the downstream cost kernels, keeping
    // cooperative <= non-cooperative at full double precision.
    if (!(after + kAcceptanceMargin * (before + 1.0) < before)) {
      continue;
    }
    for (std::size_t i = 0; i < dim; ++i) {
      if (ws.x[i] <= 0.0) continue;
      const Candidate& c = candidates[group[i]];
      load.neighbor_at(n, c.m, c.k) += ws.x[i];
      assigned = true;
    }
    residual = r_cur - du;
    neigh = s_cur + dw;
  }
  return assigned;
}

}  // namespace

bool apply_neighbor_overlay(const model::NetworkConfig& config,
                            model::SlotDemandView demand,
                            model::SlotDecision& decision) {
  if (!config.has_neighbor_tier()) return false;
  model::SparseSlotDemand storage;
  const model::SparseSlotDemand& slot = model::sparse_slot(demand, storage);
  const std::size_t num_sbs = config.num_sbs();
  MDO_REQUIRE(slot.size() == num_sbs,
              "apply_neighbor_overlay: demand shape mismatch");
  decision.load.ensure_neighbor();
  std::vector<std::uint8_t> assigned(num_sbs, 0);
  util::parallel_for(0, num_sbs, [&](std::size_t n) {
    assigned[n] =
        overlay_receiver(config, slot[n], decision, n) ? 1 : 0;
  });
  bool any = false;
  for (const auto flag : assigned) any = any || flag != 0;
  return any;
}

}  // namespace mdo::core
