// Shard-local core of the primal-dual decomposition (Algorithm 1).
//
// The Lagrangian separates per SBS — P1 per SBS over the window, P2/repair
// per (slot, SBS) — so a contiguous range of SBSs can be solved by an
// independent "shard" that owns its P1 flow networks, its P2 workspace bank
// and its slice of the multipliers. ShardCore is that unit of work:
//
//   begin()        binds the shard to a window problem (its NetworkConfig
//                  slice, demand window, initial cache and workspace bank),
//   iterate(mu)    runs one dual iteration's P1 + P2 passes,
//   repair()       re-solves P2 with ub = x for the feasible incumbent,
//   dual_update()  applies the projected subgradient step to mu (lazily:
//                  before the next iterate(), or at the end of the solve).
//
// There is one solver path: every window is solved on its per-(slot, SBS)
// active sets with the compact mu layout. A dense window is converted once
// at the boundary (model::sparse_trace), which is lossless.
//
// The in-process solver runs ONE full-range ShardCore; the process-level
// coordinator (src/shard/) runs one ShardCore per worker subprocess over a
// slice config; core::run_dual_ascent drives both. write_repaired_cell
// writes the repaired schedule and repaired_cell_cost its cost partials,
// from repair() in process and from the workers' replies when sharded.
// The thread pool still parallelizes inside a shard, and every
// floating-point accumulation across cells that determines the result
// (P1/P2 sums, the repaired cost, bounds) stays OUTSIDE this class, in the
// solver that runs the shards, in canonical serial index order: a cell
// computes only its own partials — that is the determinism argument for
// both thread- and shard-count invariance (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/caching.hpp"
#include "core/load_balancing.hpp"
#include "linalg/vec.hpp"
#include "model/decision.hpp"
#include "model/demand.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"

namespace mdo::core {

/// Per-(slot, SBS) solver state (cell = t * num_sbs + n). A bank of these
/// is kept across solves only as an allocation arena: begin() re-binds
/// every cell cold, so no solve reads another's state.
struct CellState {
  P2Workspace p2;      // dual-iteration P2 (linear term = mu)
  P2Workspace repair;  // feasibility repair (c = 0, ub = x)
  linalg::Vec ub;      // repair upper bound: x on the compact mu layout
};

/// Active-set index structures, deterministic functions of (demand window,
/// initial cache): per-cell active sets (support union cached), the per-SBS
/// sorted union over the window (P1's restricted content list), and the
/// per-cell map from active position to P1 position. Built identically by
/// the in-process solver, by each worker over its slice, and by the
/// coordinator's driver over the full range (which needs them to derive
/// cache bits and scatter repair loads from the wire blocks).
struct ActiveSets {
  std::vector<std::vector<std::size_t>> active;   // per cell
  std::vector<std::vector<std::size_t>> p1_list;  // per SBS, sorted union
  std::vector<std::vector<std::size_t>> cell_p1;  // per cell, into p1_list[n]
};

ActiveSets build_active_sets(const model::NetworkConfig& config,
                             const model::SparseDemandTrace& demand,
                             const model::CacheState& initial_cache);

/// Block offsets of the compact mu vector: cell = t * num_sbs + n owns the
/// half-open range [offsets[cell], offsets[cell + 1]), which holds its
/// M_n x |active[cell]| multipliers in (class-major, active-position) order
/// — the per-cell block layout the shard wire ships. offsets.back() is the
/// vector's total size. A deterministic function of (config, horizon,
/// sets), so the solver, the coordinator and every worker (over its slice)
/// derive identical geometry independently.
std::vector<std::size_t> mu_block_offsets(const model::NetworkConfig& config,
                                          std::size_t horizon,
                                          const ActiveSets& sets);

/// Fills `mu` (resized to the `offsets` layout) with the initial
/// multipliers of every solve: the marginal BS cost 2 * a * omega_bs[m] *
/// lambda at each support entry of cell (t, n), where a = sum_m
/// omega_bs[m] * (class m's total rate) is the cell's own, and 0 at the
/// rest of the active set. Every value depends on its cell alone, so the
/// in-process solver and each shard worker (over its slice) compute the
/// same bits independently. Returns the values' sum, accumulated in (t, n,
/// m, entry) order, from which the solver derives its step scale.
double marginal_mu(const model::NetworkConfig& config,
                   const model::SparseDemandTrace& demand,
                   const ActiveSets& sets,
                   const std::vector<std::size_t>& offsets, linalg::Vec& mu);

/// Writes the repaired cell (t, n) into `slot`: each active content's cache
/// bit from the SBS's P1 plan `x` ([t * kp + i] over p1_list[n]), and SBS
/// n's load row as a copy of the compact repaired `y` (the same
/// class-major layout over the active set), keeping the columns that are
/// not +0.0 (LoadRow::assign_nonzero): with ub = x those are at most the
/// cached ones. Off-active cache bits are structural zeros and stay
/// untouched, so a reused slot built by LoadAllocation(config) needs no
/// clearing.
void write_repaired_cell(const ActiveSets& sets, std::size_t t,
                         std::size_t n, const std::vector<std::uint8_t>& x,
                         const linalg::Vec& y, model::SlotDecision& slot);

/// One repaired cell's share of model::schedule_cost: f_t's term
/// (sum_m omega_bs * sum_k (1 - y) * lambda)^2, g_t's term
/// (sum_m omega_sbs * sum_k y * lambda)^2, and the number of contents the
/// cell inserts (cached at t and not at t - 1). The repaired schedule never
/// carries a neighbor bank, so the cell has no \tilde{f}_t term.
struct CellCost {
  double bs = 0.0;
  double sbs = 0.0;
  std::size_t insertions = 0;
};

/// The cost partials of the cell write_repaired_cell writes from the same
/// `x` and `y`, computed on the active set with the arithmetic of
/// model::schedule_cost. The written schedule caches content k at slot t
/// only where k is in active[cell], so the previous slot's bit also needs
/// k in active[cell - num_sbs]; slot 0 compares with `initial_cache`.
CellCost repaired_cell_cost(const model::NetworkConfig& config,
                            const model::SparseDemandTrace& demand,
                            const model::CacheState& initial_cache,
                            const ActiveSets& sets, std::size_t t,
                            std::size_t n,
                            const std::vector<std::uint8_t>& x,
                            const linalg::Vec& y);

/// model::schedule_cost(...).total() of the repaired schedule, reduced from
/// its cells' partials ([t * num_sbs + n]) in the order schedule_cost nests
/// them: per slot the SBS sums, then the slots, then the components.
double repaired_schedule_cost(const model::NetworkConfig& config,
                              const std::vector<CellCost>& cells);

/// Empty: P2 has no options. Kept only for the ShardCore::begin signature
/// that perfbench calls.
struct ShardOptions {};

/// Non-owning window problem handed to a shard. In a worker subprocess the
/// config/demand/cache are the deserialized slice; in-process they are the
/// full-range originals. Exactly one demand pointer is set; a dense window
/// is converted by begin().
struct ShardInputs {
  const model::NetworkConfig* config = nullptr;
  const model::DemandTrace* demand = nullptr;
  const model::SparseDemandTrace* sparse_demand = nullptr;
  const model::CacheState* initial_cache = nullptr;
  /// Optional P1 neighbor-demand reward addends (DESIGN.md §13): per SBS a
  /// vector in the P1 rewards layout ([t * kp + i] over the restricted
  /// content list), computed serially by the solver from the topology and
  /// the window demand and added to sub.rewards each iteration. Constants
  /// of the solve — they never change between dual iterations — so workers
  /// receive their slice once at kBegin. Null or per-SBS empty vectors mean
  /// no tilt (the default).
  const std::vector<linalg::Vec>* neighbor_rewards = nullptr;
};

class ShardCore {
 public:
  /// Binds the shard to a window problem. `bank` (cell = t * num_sbs + n,
  /// resized here) must outlive the shard's use; begin() re-binds its
  /// workspaces cold to the new window, keeping only their buffers. `sets`
  /// must be the structures build_active_sets returns for these inputs
  /// (moved in so the in-process solver, which also needs them, builds them
  /// once). For a dense `in.demand` the window is converted here and `sets`
  /// is ignored: begin() builds them from the converted window.
  void begin(const ShardInputs& in, const ShardOptions& opts,
             std::vector<CellState>& bank, ActiveSets sets);

  /// One dual iteration's P1 (caching per SBS under rewards nu = sum_m mu)
  /// and P2 (load balancing per cell with linear term mu) passes, batched
  /// into a SINGLE task-pool submission (P1 and P2 are independent within
  /// an iteration — repair is a separate call — so one fused parallel_for
  /// amortizes dispatch at large N). Each task writes only its own slot;
  /// no reductions happen here. `mu` is compact (mu_offsets() geometry).
  void iterate(const linalg::Vec& mu);

  /// Feasibility repair for the current x: P2 with c = 0 and ub = x per
  /// cell. When `schedule` is non-null (the in-process solve), every cell
  /// is written into it with write_repaired_cell (slots sized for this
  /// shard's config) and its cost partials into cell_costs(); a worker
  /// passes null and ships x and the repaired y instead, and the
  /// coordinating solver writes the schedule and the partials from the
  /// reply with the same functions. The repaired y stays in
  /// bank[cell].repair either way.
  void repair(model::Schedule* schedule);

  /// Projected subgradient ascent on mu: g = y - x (17), coordinatewise
  /// max(0, mu + delta * g), for the x and y of the last iterate(); reads
  /// x through the repair's upper bound, so repair() must come between.
  /// Each coordinate's update is independent, so workers apply it to their
  /// slice with values bit-identical to the full-range update, and cells
  /// update in parallel (disjoint mu ranges).
  void dual_update(double delta, linalg::Vec& mu);

  // Per-index outputs of the last iterate(); the driver reduces them
  // serially in global index order.
  const std::vector<double>& p1_objectives() const {
    return p1_.objectives();
  }
  const std::vector<double>& p2_objectives() const { return p2_objectives_; }
  /// Per cell: the partials of the last repair(schedule) (CellCost).
  const std::vector<CellCost>& cell_costs() const { return cell_costs_; }
  /// Per SBS: the P1 schedule, [t * kp + i] over the restricted list.
  const std::vector<std::vector<std::uint8_t>>& x() const { return p1_.x(); }
  /// Compact block offsets (cells + 1 entries).
  const std::vector<std::size_t>& mu_offsets() const { return mu_off_; }

 private:
  const model::NetworkConfig* config_ = nullptr;
  ShardInputs inputs_;
  std::size_t horizon_ = 0;
  model::SparseDemandTrace converted_;  // a dense input's window
  std::vector<std::size_t> mu_off_;
  ActiveSets sets_;
  std::vector<CellState>* bank_ = nullptr;
  CachingBank p1_;
  std::vector<double> p2_objectives_;
  std::vector<CellCost> cell_costs_;
};

}  // namespace mdo::core
