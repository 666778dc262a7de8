#include "core/shard_core.hpp"

#include <algorithm>
#include <iterator>

#include "model/costs.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace mdo::core {

ActiveSets build_active_sets(const model::NetworkConfig& config,
                             const model::SparseDemandTrace& demand,
                             const model::CacheState& initial_cache) {
  const std::size_t w = demand.horizon();
  const std::size_t num_sbs = config.num_sbs();
  // One bitmap pass per SBS; every cell then merges its support with that
  // list instead of scanning the catalogue.
  std::vector<std::vector<std::size_t>> cached(num_sbs);
  util::parallel_for(0, num_sbs, [&](std::size_t n) {
    cached[n] = initial_cache.cached_contents(n);
  });
  ActiveSets sets;
  sets.active.resize(w * num_sbs);
  util::parallel_for(0, w * num_sbs, [&](std::size_t cell) {
    const std::size_t t = cell / num_sbs;
    const std::size_t n = cell % num_sbs;
    sets.active[cell] = model::active_contents(demand.slot(t)[n], cached[n]);
  });
  sets.p1_list.resize(num_sbs);
  sets.cell_p1.resize(w * num_sbs);
  util::parallel_for(0, num_sbs, [&](std::size_t n) {
    std::vector<std::size_t>& list = sets.p1_list[n];
    std::vector<std::size_t> merged;
    for (std::size_t t = 0; t < w; ++t) {
      const std::vector<std::size_t>& cell = sets.active[t * num_sbs + n];
      merged.clear();
      merged.reserve(list.size() + cell.size());
      std::set_union(list.begin(), list.end(), cell.begin(), cell.end(),
                     std::back_inserter(merged));
      list.swap(merged);
    }
    for (std::size_t t = 0; t < w; ++t) {
      const std::vector<std::size_t>& cell = sets.active[t * num_sbs + n];
      std::vector<std::size_t>& map = sets.cell_p1[t * num_sbs + n];
      map.resize(cell.size());
      std::size_t pos = 0;
      for (std::size_t i = 0; i < cell.size(); ++i) {
        while (pos < list.size() && list[pos] < cell[i]) ++pos;
        MDO_CHECK(pos < list.size() && list[pos] == cell[i],
                  "sparse P1: active content missing from window union");
        map[i] = pos;
      }
    }
  });
  return sets;
}

std::vector<std::size_t> mu_block_offsets(const model::NetworkConfig& config,
                                          std::size_t horizon,
                                          const ActiveSets& sets) {
  const std::size_t num_sbs = config.num_sbs();
  const std::size_t cells = horizon * num_sbs;
  MDO_REQUIRE(sets.active.size() == cells,
              "mu_block_offsets: active sets do not match the horizon");
  std::vector<std::size_t> offsets(cells + 1, 0);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const std::size_t n = cell % num_sbs;
    offsets[cell + 1] = offsets[cell] + config.sbs[n].num_classes() *
                                            sets.active[cell].size();
  }
  return offsets;
}

double marginal_mu(const model::NetworkConfig& config,
                   const model::SparseDemandTrace& demand,
                   const ActiveSets& sets,
                   const std::vector<std::size_t>& offsets, linalg::Vec& mu) {
  const std::size_t num_sbs = config.num_sbs();
  mu.assign(offsets.back(), 0.0);
  double sum = 0.0;
  for (std::size_t cell = 0; cell < demand.horizon() * num_sbs; ++cell) {
    const std::size_t n = cell % num_sbs;
    const model::SbsConfig& sbs = config.sbs[n];
    const model::SparseSbsDemand& cell_demand = demand.slot(cell / num_sbs)[n];
    double a = 0.0;
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      double row = 0.0;
      const model::DemandEntry* const end = cell_demand.row_end(m);
      for (const model::DemandEntry* it = cell_demand.row_begin(m); it != end;
           ++it) {
        row += it->rate;
      }
      a += sbs.classes[m].omega_bs * row;
    }
    // Rows and active lists are both content-sorted, so one forward
    // pointer per row finds each entry's active position.
    const std::vector<std::size_t>& al = sets.active[cell];
    const std::size_t a_count = al.size();
    double* block = mu.data() + offsets[cell];
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      const double omega_bs = sbs.classes[m].omega_bs;
      std::size_t pos = 0;
      const model::DemandEntry* const end = cell_demand.row_end(m);
      for (const model::DemandEntry* it = cell_demand.row_begin(m); it != end;
           ++it) {
        while (pos < a_count && al[pos] < it->content) ++pos;
        MDO_CHECK(pos < a_count && al[pos] == it->content,
                  "compact mu: support content missing from active set");
        const double value = 2.0 * a * omega_bs * it->rate;
        sum += value;
        block[m * a_count + pos] = value;
      }
    }
  }
  return sum;
}

void write_repaired_cell(const ActiveSets& sets, std::size_t t,
                         std::size_t n, const std::vector<std::uint8_t>& x,
                         const linalg::Vec& y, model::SlotDecision& slot) {
  const std::size_t cell = t * sets.p1_list.size() + n;
  const std::vector<std::size_t>& al = sets.active[cell];
  const std::vector<std::size_t>& map = sets.cell_p1[cell];
  const std::uint8_t* bits = x.data() + t * sets.p1_list[n].size();
  const std::size_t a_count = al.size();
  for (std::size_t i = 0; i < a_count; ++i) {
    slot.cache.set(n, al[i], bits[map[i]] != 0);
  }
  linalg::Vec& load = slot.load.sbs_data(n);
  const std::size_t k_count = slot.load.num_contents();
  const std::size_t classes = slot.load.num_classes(n);
  MDO_CHECK(y.size() == classes * a_count,
            "repaired cell: load size disagrees with the active set");
  for (std::size_t m = 0; m < classes; ++m) {
    for (std::size_t i = 0; i < a_count; ++i) {
      load[m * k_count + al[i]] = y[m * a_count + i];
    }
  }
}

CellCost repaired_cell_cost(const model::NetworkConfig& config,
                            const model::SparseDemandTrace& demand,
                            const model::CacheState& initial_cache,
                            const ActiveSets& sets, std::size_t t,
                            std::size_t n,
                            const std::vector<std::uint8_t>& x,
                            const linalg::Vec& y) {
  const std::size_t num_sbs = sets.p1_list.size();
  const std::size_t cell = t * num_sbs + n;
  const std::vector<std::size_t>& al = sets.active[cell];
  const std::size_t a_count = al.size();
  const auto& sbs = config.sbs[n];
  const std::size_t classes = sbs.num_classes();
  MDO_CHECK(y.size() == classes * a_count,
            "repaired cell: load size disagrees with the active set");
  CellCost out;

  // f and g as model::schedule_cost sums them: per class over the stored
  // entries in row order, every one of which is on the active set.
  const model::SparseSbsDemand& d = demand.slot(t)[n];
  double bs = 0.0;
  double served = 0.0;
  for (std::size_t m = 0; m < classes; ++m) {
    const double* ym = y.data() + m * a_count;
    double class_rest = 0.0;
    double class_served = 0.0;
    std::size_t pos = 0;
    const model::DemandEntry* const end = d.row_end(m);
    for (const model::DemandEntry* it = d.row_begin(m); it != end; ++it) {
      while (pos < a_count && al[pos] < it->content) ++pos;
      MDO_CHECK(pos < a_count && al[pos] == it->content,
                "repaired cell: demanded content missing from active set");
      class_rest += (1.0 - ym[pos]) * it->rate;
      class_served += ym[pos] * it->rate;
    }
    bs += sbs.classes[m].omega_bs * class_rest;
    served += sbs.classes[m].omega_sbs * class_served;
  }
  out.bs = bs * bs;
  out.sbs = served * served;

  // h: contents cached at t whose bit at t - 1 is clear. Off its active
  // set a slot caches nothing, whatever the P1 plan says there.
  const std::size_t kp = sets.p1_list[n].size();
  const std::vector<std::size_t>& map = sets.cell_p1[cell];
  const std::uint8_t* bits = x.data() + t * kp;
  if (t == 0) {
    const std::vector<std::uint8_t>& initial = initial_cache.sbs_bitmap(n);
    for (std::size_t i = 0; i < a_count; ++i) {
      if (bits[map[i]] != 0 && initial[al[i]] == 0) ++out.insertions;
    }
    return out;
  }
  const std::vector<std::size_t>& prev_al = sets.active[cell - num_sbs];
  const std::vector<std::size_t>& prev_map = sets.cell_p1[cell - num_sbs];
  const std::uint8_t* prev_bits = bits - kp;
  std::size_t j = 0;
  for (std::size_t i = 0; i < a_count; ++i) {
    if (bits[map[i]] == 0) continue;
    while (j < prev_al.size() && prev_al[j] < al[i]) ++j;
    const bool before = j < prev_al.size() && prev_al[j] == al[i] &&
                        prev_bits[prev_map[j]] != 0;
    if (!before) ++out.insertions;
  }
  return out;
}

double repaired_schedule_cost(const model::NetworkConfig& config,
                              const std::vector<CellCost>& cells) {
  const std::size_t num_sbs = config.num_sbs();
  MDO_CHECK(num_sbs > 0 && cells.size() % num_sbs == 0,
            "repaired cost: partials do not cover whole slots");
  model::CostBreakdown total;
  for (std::size_t cell = 0; cell < cells.size(); cell += num_sbs) {
    model::CostBreakdown slot;
    for (std::size_t n = 0; n < num_sbs; ++n) {
      const CellCost& part = cells[cell + n];
      slot.bs += part.bs;
      slot.sbs += part.sbs;
      slot.replacement += config.sbs[n].replacement_beta *
                          static_cast<double>(part.insertions);
    }
    total += slot;
  }
  return total.total();
}

void ShardCore::begin(const ShardInputs& in, const ShardOptions& /*opts*/,
                      std::vector<CellState>& bank, ActiveSets sets) {
  MDO_REQUIRE(in.config != nullptr && in.initial_cache != nullptr,
              "shard core: config and initial cache must be set");
  MDO_REQUIRE((in.demand != nullptr) != (in.sparse_demand != nullptr),
              "shard core: exactly one demand representation must be set");
  inputs_ = in;
  config_ = in.config;
  if (in.demand != nullptr) {
    inputs_.sparse_demand = &model::sparse_trace(*in.demand, converted_);
    inputs_.demand = nullptr;
    sets = build_active_sets(*config_, *inputs_.sparse_demand,
                             *in.initial_cache);
  }
  const model::SparseDemandTrace& demand = *inputs_.sparse_demand;
  horizon_ = demand.horizon();
  sets_ = std::move(sets);
  bank_ = &bank;
  mu_off_ = mu_block_offsets(*config_, horizon_, sets_);

  const auto& config = *config_;
  const std::size_t w = horizon_;
  const std::size_t num_sbs = config.num_sbs();

  // ---- Per-(slot, SBS) P2 workspaces: coefficients are built once here,
  // the dual loop then only refreshes the mu-dependent linear term (and the
  // repair loop the box upper bound). Each bind starts cold.
  bank.resize(w * num_sbs);
  util::parallel_for(0, w * num_sbs, [&](std::size_t cell) {
    const std::size_t t = cell / num_sbs;
    const std::size_t n = cell % num_sbs;
    CellState& cs = bank[cell];
    cs.p2.bind_active(config.sbs[n], demand.slot(t)[n], sets_.active[cell]);
    cs.repair.bind_active(config.sbs[n], demand.slot(t)[n],
                          sets_.active[cell]);
  });

  // ---- Per-SBS P1 state, reused across dual iterations: the subproblem's
  // shape, parameters and initial cache are fixed for the whole solve, only
  // the rewards (the mu sums) change — so a flow network is built at most
  // once, by the first solve the idle certificate does not settle, and
  // merely re-priced after that. P1 is restricted to the
  // window's content union: everything outside has zero reward in every
  // slot and is not initially cached (CachingBank::bind says why x stays
  // the same).
  p1_.reset(num_sbs);
  util::parallel_for(0, num_sbs, [&](std::size_t n) {
    const std::vector<std::size_t>& list = sets_.p1_list[n];
    const std::size_t kp = list.size();
    const std::vector<std::uint8_t>& bitmap =
        inputs_.initial_cache->sbs_bitmap(n);
    std::vector<std::uint8_t> initial(kp, 0);
    for (std::size_t i = 0; i < kp; ++i) initial[i] = bitmap[list[i]];
    p1_.bind(n, kp, w, config.sbs[n].cache_capacity,
             config.sbs[n].replacement_beta, std::move(initial));
  });

  p2_objectives_.assign(w * num_sbs, 0.0);
  cell_costs_.assign(w * num_sbs, CellCost{});
}

void ShardCore::iterate(const linalg::Vec& mu) {
  const auto& config = *config_;
  const std::size_t w = horizon_;
  const std::size_t num_sbs = config.num_sbs();
  std::vector<CellState>& bank = *bank_;
  MDO_REQUIRE(mu.size() == mu_off_.back(),
              "shard core: compact mu size mismatch");

  // ---- P1 + P2, ONE fused task-pool submission per dual iteration. The
  // first num_sbs tasks are P1 (caching per SBS under rewards
  // nu = sum_m mu), the rest P2 (load balancing per cell with linear term
  // mu). The two families are independent within an iteration — P2 reads
  // mu, not x, and repair is a separate call — so batching them amortizes
  // dispatch overhead at large N without reordering any arithmetic: each
  // task writes only its own slot, and the driver's reductions still run
  // serially in global index order (bit-identical at any thread count).
  util::parallel_for(0, num_sbs + w * num_sbs, [&](std::size_t task) {
    if (task < num_sbs) {
      const std::size_t n = task;
      linalg::Vec& rewards = p1_.clear_rewards(n);
      const std::size_t classes = config.sbs[n].num_classes();
      const std::size_t kp = p1_.num_contents(n);
      for (std::size_t t = 0; t < w; ++t) {
        // Contiguous reads straight out of the cell's compact block.
        const std::vector<std::size_t>& map = sets_.cell_p1[t * num_sbs + n];
        const double* block = mu.data() + mu_off_[t * num_sbs + n];
        const std::size_t a_count = map.size();
        for (std::size_t m = 0; m < classes; ++m) {
          for (std::size_t i = 0; i < a_count; ++i) {
            rewards[t * kp + map[i]] += block[m * a_count + i];
          }
        }
      }
      // Constant neighbor-demand tilt (ShardInputs::neighbor_rewards):
      // added AFTER the mu sums, serially within this SBS's task, so the
      // addition order is independent of thread and shard counts.
      if (inputs_.neighbor_rewards != nullptr) {
        const linalg::Vec& tilt = (*inputs_.neighbor_rewards)[n];
        if (!tilt.empty()) {
          MDO_CHECK(tilt.size() == rewards.size(),
                    "shard core: neighbor reward layout mismatch");
          for (std::size_t j = 0; j < tilt.size(); ++j) {
            rewards[j] += tilt[j];
          }
        }
      }
      p1_.solve(n);
      return;
    }
    const std::size_t cell = task - num_sbs;
    CellState& cs = bank[cell];
    // The compact block IS the bound workspace's coefficient layout
    // (class-major over active positions): a straight contiguous copy.
    cs.p2.set_linear(mu.data() + mu_off_[cell], mu.data() + mu_off_[cell + 1]);
    p2_objectives_[cell] = solve_load_balancing(cs.p2).objective;
  });
}

void ShardCore::repair(model::Schedule* schedule) {
  const auto& config = *config_;
  const std::size_t w = horizon_;
  const std::size_t num_sbs = config.num_sbs();
  std::vector<CellState>& bank = *bank_;

  // ---- Feasibility repair -> upper bound. P2 with c = 0 and ub = x.
  // Cells are independent per (slot, SBS): every cell touches only SBS n
  // of slot t (CacheState and LoadAllocation store one vector per SBS).
  util::parallel_for(0, w * num_sbs, [&](std::size_t cell) {
    const std::size_t t = cell / num_sbs;
    const std::size_t n = cell % num_sbs;
    CellState& cs = bank[cell];
    const std::size_t classes = config.sbs[n].num_classes();
    const std::vector<std::size_t>& map = sets_.cell_p1[cell];
    const std::size_t kp = p1_.num_contents(n);
    const std::size_t a_count = map.size();
    linalg::Vec& ub = cs.ub;
    ub.assign(classes * a_count, 0.0);
    for (std::size_t i = 0; i < a_count; ++i) {
      if (p1_.x()[n][t * kp + map[i]] == 0) continue;
      for (std::size_t m = 0; m < classes; ++m) ub[m * a_count + i] = 1.0;
    }
    // Unchanged-x fast path: the workspace still holds the solution for
    // this exact upper bound (the skip is valid only within one solve —
    // begin() invalidated any previous window's solution).
    if (!cs.repair.has_solution() || ub != cs.repair.upper()) {
      cs.repair.set_upper(ub);
      solve_load_balancing(cs.repair);
    }
    if (schedule != nullptr) {
      write_repaired_cell(sets_, t, n, p1_.x()[n], cs.repair.y(),
                          (*schedule)[t]);
      cell_costs_[cell] =
          repaired_cell_cost(config, *inputs_.sparse_demand,
                             *inputs_.initial_cache, sets_, t, n,
                             p1_.x()[n], cs.repair.y());
    }
  });
}

void ShardCore::dual_update(double delta, linalg::Vec& mu) {
  std::vector<CellState>& bank = *bank_;

  // ---- Projected subgradient ascent on mu: g = y - x (17). Only active
  // coordinates exist (compact layout); off the active set y = 0 and
  // x = 0, so a full-catalogue update would compute max(0, mu + 0) = 0
  // there. Every coordinate updates independently of all others, so a
  // worker applying this to its slice produces the same values as the
  // full-range update — no cross-shard state is involved — and cells
  // update in parallel (each owns a disjoint mu range). x comes from the
  // repair's upper bound, which is the cell's P1 bits laid out exactly
  // like its mu block.
  util::parallel_for(0, bank.size(), [&](std::size_t cell) {
    const CellState& cs = bank[cell];
    const std::size_t size = mu_off_[cell + 1] - mu_off_[cell];
    MDO_CHECK(cs.ub.size() == size && cs.p2.y().size() == size,
              "shard core: dual_update() needs iterate() and repair()");
    linalg::dual_ascent_project(mu.data() + mu_off_[cell], cs.p2.y().data(),
                                cs.ub.data(), delta, size);
  });
}

}  // namespace mdo::core
