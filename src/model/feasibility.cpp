#include "model/feasibility.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace mdo::model {

std::size_t neighbor_source(const NetworkConfig& config,
                            const CacheState& cache, std::size_t n,
                            std::size_t k) {
  if (config.topology.links.empty()) return config.num_sbs();
  for (const auto& link : config.topology.links[n]) {
    if (link.bandwidth > 0.0 && cache.cached(link.peer, k)) return link.peer;
  }
  return config.num_sbs();
}

namespace {

/// Index of `peer` in a sorted adjacency row; row.size() when absent.
std::size_t link_index(const std::vector<NeighborLink>& row,
                       std::size_t peer) {
  for (std::size_t j = 0; j < row.size(); ++j) {
    if (row[j].peer == peer) return j;
  }
  return row.size();
}

/// Neighbor-tier violations for receiver SBS n with demand `demand`. Walks
/// the union of the local and neighbor lists per class, the only contents
/// where y or y_neigh can be nonzero.
void check_neighbor_tier(const NetworkConfig& config,
                         const SlotDecision& decision, std::size_t n,
                         double tol, const SparseSbsDemand& demand,
                         std::vector<Violation>& out) {
  const auto& sbs = config.sbs[n];
  const std::vector<NeighborLink>* row =
      config.topology.links.empty() ? nullptr : &config.topology.links[n];
  std::vector<double> link_load(row != nullptr ? row->size() : 0, 0.0);
  const LoadRow& local = decision.load.row(n);
  const LoadRow& neigh = decision.load.neighbor_row(n);
  const std::size_t* const local_k = local.contents().data();
  const std::size_t* const neigh_k = neigh.contents().data();
  for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
    const double* const local_y = local.class_values(m);
    const double* const neigh_z = neigh.class_values(m);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < local.size() || j < neigh.size()) {
      const std::size_t k =
          j == neigh.size() || (i < local.size() && local_k[i] < neigh_k[j])
              ? local_k[i]
              : neigh_k[j];
      const double y = i < local.size() && local_k[i] == k ? local_y[i++] : 0.0;
      const double z = j < neigh.size() && neigh_k[j] == k ? neigh_z[j++] : 0.0;
      if (z < -tol || z > 1.0 + tol) {
        std::ostringstream os;
        os << "SBS " << n << " class " << m << " content " << k
           << ": y_neigh=" << z << " outside [0,1]";
        out.push_back({os.str()});
      }
      if (y + z > 1.0 + tol) {
        std::ostringstream os;
        os << "SBS " << n << " class " << m << " content " << k
           << ": y_local + y_neigh = " << y + z << " exceeds 1";
        out.push_back({os.str()});
      }
      if (z > tol) {
        const std::size_t src =
            neighbor_source(config, decision.cache, n, k);
        if (src == config.num_sbs()) {
          std::ostringstream os;
          os << "SBS " << n << " class " << m << " content " << k
             << ": y_neigh=" << z
             << " but no positive-bandwidth neighbor caches it";
          out.push_back({os.str()});
        } else {
          link_load[link_index(*row, src)] += demand.at(m, k) * z;
        }
      }
    }
  }
  for (std::size_t j = 0; j < link_load.size(); ++j) {
    if (link_load[j] > (*row)[j].bandwidth + tol) {
      std::ostringstream os;
      os << "SBS " << n << " link from SBS " << (*row)[j].peer << ": load "
         << link_load[j] << " exceeds link bandwidth "
         << (*row)[j].bandwidth;
      out.push_back({os.str()});
    }
  }
}

/// Neighbor-tier repair for receiver SBS n: clamp, zero unavailable
/// coordinates, trim y_local + y_neigh to 1, then scale each link down to
/// its cap. Only stored neighbor entries can be nonzero, so only they are
/// visited.
void repair_neighbor_tier(const NetworkConfig& config, SlotDecision& decision,
                          std::size_t n, const SparseSbsDemand& demand) {
  const auto& sbs = config.sbs[n];
  const std::vector<NeighborLink>* row =
      config.topology.links.empty() ? nullptr : &config.topology.links[n];
  std::vector<double> link_load(row != nullptr ? row->size() : 0, 0.0);
  LoadRow& neigh = decision.load.neighbor_row(n);
  const std::size_t* const contents = neigh.contents().data();
  for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
    double* const z_row = neigh.class_values(m);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const std::size_t k = contents[i];
      double& z = z_row[i];
      z = std::clamp(z, 0.0, 1.0);
      if (z == 0.0) continue;
      const std::size_t src = neighbor_source(config, decision.cache, n, k);
      if (src == config.num_sbs()) {
        z = 0.0;
        continue;
      }
      const double y = decision.load.at(n, m, k);
      if (y + z > 1.0) z = 1.0 - y;
      link_load[link_index(*row, src)] += demand.at(m, k) * z;
    }
  }
  // Per-link proportional scale-down, mirroring the (2) repair.
  bool any_overloaded = false;
  std::vector<double> scale(link_load.size(), 1.0);
  for (std::size_t j = 0; j < link_load.size(); ++j) {
    if (link_load[j] > (*row)[j].bandwidth && link_load[j] > 0.0) {
      scale[j] = (*row)[j].bandwidth / link_load[j];
      any_overloaded = true;
    }
  }
  if (!any_overloaded) return;
  for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
    double* const z_row = neigh.class_values(m);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      double& z = z_row[i];
      if (z == 0.0) continue;
      const std::size_t src =
          neighbor_source(config, decision.cache, n, contents[i]);
      if (src == config.num_sbs()) continue;
      z *= scale[link_index(*row, src)];
    }
  }
}

}  // namespace

std::vector<Violation> check_feasibility(const NetworkConfig& config,
                                         SlotDemandView demand,
                                         const SlotDecision& decision,
                                         double tol) {
  // Off the stored lists y = 0, which violates nothing at tol >= 0.
  MDO_REQUIRE(tol >= 0.0, "check_feasibility: tolerance must be >= 0");
  SparseSlotDemand storage;
  const SparseSlotDemand& slot = sparse_slot(demand, storage);
  MDO_REQUIRE(slot.size() == config.num_sbs(), "demand shape mismatch");
  std::vector<Violation> out;
  auto report = [&out](const std::string& text) { out.push_back({text}); };

  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const auto& sbs = config.sbs[n];
    // (1) cache capacity
    const std::size_t cached = decision.cache.count(n);
    if (cached > sbs.cache_capacity) {
      std::ostringstream os;
      os << "SBS " << n << ": " << cached << " items cached, capacity "
         << sbs.cache_capacity;
      report(os.str());
    }
    // (2) bandwidth
    const double load = sbs_load(decision.load, n, slot[n]);
    if (load > sbs.bandwidth + tol) {
      std::ostringstream os;
      os << "SBS " << n << ": load " << load << " exceeds bandwidth "
         << sbs.bandwidth;
      report(os.str());
    }
    // (3) y <= x and (11) bounds, over the stored entries in (class,
    // content) order
    const LoadRow& row = decision.load.row(n);
    MDO_REQUIRE(row.num_classes() == sbs.num_classes(),
                "load shape mismatch");
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      const double* const values = row.class_values(m);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const std::size_t k = row.contents()[i];
        const double y = values[i];
        if (y < -tol || y > 1.0 + tol) {
          std::ostringstream os;
          os << "SBS " << n << " class " << m << " content " << k << ": y="
             << y << " outside [0,1]";
          report(os.str());
        }
        if (y > tol && !decision.cache.cached(n, k)) {
          std::ostringstream os;
          os << "SBS " << n << " class " << m << " content " << k << ": y="
             << y << " but content not cached";
          report(os.str());
        }
      }
    }
    if (decision.load.has_neighbor()) {
      check_neighbor_tier(config, decision, n, tol, slot[n], out);
    }
  }
  return out;
}

bool is_feasible(const NetworkConfig& config, SlotDemandView demand,
                 const SlotDecision& decision, double tol) {
  return check_feasibility(config, demand, decision, tol).empty();
}

void enforce_feasibility(const NetworkConfig& config, SlotDemandView demand,
                         SlotDecision& decision) {
  SparseSlotDemand storage;
  const SparseSlotDemand& slot = sparse_slot(demand, storage);
  MDO_REQUIRE(slot.size() == config.num_sbs(), "demand shape mismatch");
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const auto& sbs = config.sbs[n];
    MDO_REQUIRE(decision.cache.count(n) <= sbs.cache_capacity,
                "cache capacity violated; controllers must respect (1)");
    // Clamp and mask the stored entries; off the list y is already 0.
    LoadRow& row = decision.load.row(n);
    const std::uint8_t* const bits = decision.cache.sbs_bitmap(n).data();
    for (std::size_t m = 0; m < row.num_classes(); ++m) {
      double* const values = row.class_values(m);
      for (std::size_t i = 0; i < row.size(); ++i) {
        values[i] = bits[row.contents()[i]] != 0
                        ? std::clamp(values[i], 0.0, 1.0)
                        : 0.0;
      }
    }
    const double load = sbs_load(decision.load, n, slot[n]);
    if (load > sbs.bandwidth && load > 0.0) {
      const double scale = sbs.bandwidth / load;
      for (double& y : row.values()) y *= scale;
    }
    if (decision.load.has_neighbor()) {
      repair_neighbor_tier(config, decision, n, slot[n]);
    }
  }
}

}  // namespace mdo::model
