#include "model/costs.hpp"

#include "util/error.hpp"

namespace mdo::model {

namespace {

double bs_cost(const NetworkConfig& config, const SparseSlotDemand& slot,
               const LoadAllocation& load) {
  MDO_REQUIRE(slot.size() == config.num_sbs(), "demand shape mismatch");
  const std::size_t k_count = config.num_contents;
  const bool neighbor = load.has_neighbor();
  double total = 0.0;
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const auto& sbs = config.sbs[n];
    const SparseSbsDemand& d = slot[n];
    const double* y = load.sbs_data(n).data();
    const double* z = neighbor ? load.neighbor_data(n).data() : nullptr;
    double weighted = 0.0;
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      // Residual 1 - y_local (- y_neigh when the neighbor bank exists):
      // the subtraction is a separate serial accumulation so the baseline
      // sequence is untouched on bank-free decisions.
      double class_rest = 0.0;
      const DemandEntry* const end = d.row_end(m);
      for (const DemandEntry* it = d.row_begin(m); it != end; ++it) {
        class_rest += (1.0 - y[m * k_count + it->content]) * it->rate;
      }
      if (neighbor) {
        double class_neigh = 0.0;
        for (const DemandEntry* it = d.row_begin(m); it != end; ++it) {
          class_neigh += z[m * k_count + it->content] * it->rate;
        }
        class_rest -= class_neigh;
      }
      weighted += sbs.classes[m].omega_bs * class_rest;
    }
    total += weighted * weighted;
  }
  return total;
}

/// Sum over SBSs of (sum_m weight(m) * sum_k bank[m, k] * lambda[m, k])^2:
/// g_t with the local bank and omega_sbs, \tilde{f}_t with the neighbor
/// bank and omega_neigh.
template <typename BankFn, typename WeightFn>
double served_cost(const NetworkConfig& config, const SparseSlotDemand& slot,
                   BankFn&& bank, WeightFn&& weight) {
  MDO_REQUIRE(slot.size() == config.num_sbs(), "demand shape mismatch");
  const std::size_t k_count = config.num_contents;
  double total = 0.0;
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    const auto& sbs = config.sbs[n];
    const SparseSbsDemand& d = slot[n];
    const double* y = bank(n);
    double weighted = 0.0;
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      double class_served = 0.0;
      const DemandEntry* const end = d.row_end(m);
      for (const DemandEntry* it = d.row_begin(m); it != end; ++it) {
        class_served += y[m * k_count + it->content] * it->rate;
      }
      weighted += weight(sbs.classes[m]) * class_served;
    }
    total += weighted * weighted;
  }
  return total;
}

double sbs_cost(const NetworkConfig& config, const SparseSlotDemand& slot,
                const LoadAllocation& load) {
  return served_cost(
      config, slot, [&](std::size_t n) { return load.sbs_data(n).data(); },
      [](const MuClass& mu) { return mu.omega_sbs; });
}

double neighbor_cost(const NetworkConfig& config, const SparseSlotDemand& slot,
                     const LoadAllocation& load) {
  if (!load.has_neighbor()) return 0.0;
  return served_cost(
      config, slot,
      [&](std::size_t n) { return load.neighbor_data(n).data(); },
      [](const MuClass& mu) { return mu.omega_neigh; });
}

CostBreakdown sparse_slot_cost(const NetworkConfig& config,
                               const SparseSlotDemand& slot,
                               const SlotDecision& decision,
                               const CacheState& previous) {
  CostBreakdown out;
  out.bs = bs_cost(config, slot, decision.load);
  out.sbs = sbs_cost(config, slot, decision.load);
  out.neigh = neighbor_cost(config, slot, decision.load);
  out.replacement = replacement_cost(config, decision.cache, previous);
  return out;
}

}  // namespace

double bs_operating_cost(const NetworkConfig& config, SlotDemandView demand,
                         const LoadAllocation& load) {
  SparseSlotDemand storage;
  return bs_cost(config, sparse_slot(demand, storage), load);
}

double sbs_operating_cost(const NetworkConfig& config, SlotDemandView demand,
                          const LoadAllocation& load) {
  SparseSlotDemand storage;
  return sbs_cost(config, sparse_slot(demand, storage), load);
}

double neighbor_operating_cost(const NetworkConfig& config,
                               SlotDemandView demand,
                               const LoadAllocation& load) {
  if (!load.has_neighbor()) return 0.0;
  SparseSlotDemand storage;
  return neighbor_cost(config, sparse_slot(demand, storage), load);
}

double replacement_cost(const NetworkConfig& config, const CacheState& cache,
                        const CacheState& previous) {
  double total = 0.0;
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    total += config.sbs[n].replacement_beta *
             static_cast<double>(cache.insertions_from(previous, n));
  }
  return total;
}

std::size_t replacement_count(const CacheState& cache,
                              const CacheState& previous) {
  std::size_t total = 0;
  for (std::size_t n = 0; n < cache.num_sbs(); ++n) {
    total += cache.insertions_from(previous, n);
  }
  return total;
}

CostBreakdown& CostBreakdown::operator+=(const CostBreakdown& other) {
  bs += other.bs;
  sbs += other.sbs;
  neigh += other.neigh;
  replacement += other.replacement;
  return *this;
}

CostBreakdown slot_cost(const NetworkConfig& config, SlotDemandView demand,
                        const SlotDecision& decision,
                        const CacheState& previous) {
  SparseSlotDemand storage;
  return sparse_slot_cost(config, sparse_slot(demand, storage), decision,
                          previous);
}

CostBreakdown schedule_cost(const NetworkConfig& config, DemandTraceView trace,
                            const Schedule& schedule,
                            const CacheState& initial_cache) {
  MDO_REQUIRE(trace.valid(), "schedule_cost: empty trace view");
  MDO_REQUIRE(schedule.size() == trace.horizon(),
              "schedule length must match trace horizon");
  CostBreakdown total;
  SparseSlotDemand storage;
  const CacheState* previous = &initial_cache;
  for (std::size_t t = 0; t < schedule.size(); ++t) {
    total += sparse_slot_cost(config, sparse_slot(trace.slot(t), storage),
                              schedule[t], *previous);
    previous = &schedule[t].cache;
  }
  return total;
}

}  // namespace mdo::model
