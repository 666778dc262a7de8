// Process-level exchange layer of the primal-dual decomposition
// (DESIGN.md §11).
//
// The Coordinator forks one worker subprocess per shard, hands each a
// contiguous SBS range over a socketpair (wire.hpp framing), and drives the
// per-iteration exchange: every floating-point REDUCTION stays on the
// driver, in the exact global serial index order of the in-process solver,
// so results are bitwise-equal at any shard count. Workers persist across
// horizon solves, but a solve reads nothing a worker kept from an earlier
// one (each kBegin binds cold), so a respawned worker needs only the next
// kBegin to be bit-identical; any send/recv failure tears the whole fleet
// down and surfaces as a recoverable solver failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/shard_core.hpp"
#include "linalg/vec.hpp"

namespace mdo::shard {

/// shard_count sentinel: force the in-process path regardless of the
/// MDO_SHARDS environment variable.
inline constexpr std::size_t kShardsInProcess = static_cast<std::size_t>(-1);

/// Shard count actually used for a solve: kShardsInProcess -> 0 (in
/// process); 0 -> the MDO_SHARDS environment variable (unset / unparsable /
/// 0 also mean in-process); the result is clamped to num_sbs.
std::size_t resolved_shard_count(std::size_t option, std::size_t num_sbs);

/// Re-arms the MDO_SHARD_KILL_AT directive (it normally fires once per
/// process). Tests use this to crash a worker in several solves in a row.
void rearm_kill_directive();

/// One iterate round, reassembled into the driver's global index space.
struct IterationOutputs {
  std::vector<double> p1_objectives;          // [n], global SBS order
  std::vector<double> p2_objectives;          // [t * N + n]
  std::vector<std::vector<std::uint8_t>> x;   // per global SBS, [t * kp + i]
  std::vector<linalg::Vec> repair_y;          // per global cell [t * N + n]
};

class Coordinator {
 public:
  Coordinator() = default;
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Opens a solve session over `shards` workers (spawning or resizing the
  /// fleet as needed) and ships each its slice of the problem; each worker
  /// derives its slice's initial mu (core::marginal_mu). `in` carries the
  /// sparse window; `mu_offsets` is the full-range compact geometry that
  /// finish() scatters the final mu blocks by. The referenced structures
  /// must outlive the session (they are the solver's solve-scope state).
  /// False on any worker failure; the fleet is then already torn down.
  bool begin(const core::ShardInputs& in, std::size_t shards,
             const std::vector<std::size_t>& mu_offsets);

  /// One dual iteration: workers apply the previous projected step (when
  /// `apply_prev` — delta_{l-1} computed driver-side) and solve P1/P2 +
  /// repair; replies are reassembled into `out` in global index order.
  bool iterate(bool apply_prev, double delta, IterationOutputs* out);

  /// Closes the session: workers apply the final pending step (when
  /// `apply_final`) and return their mu blocks, which are scattered back
  /// into the driver's `mu`. Workers stay alive for the next solve.
  bool finish(bool apply_final, double delta, linalg::Vec& mu);

  /// Worker count of the current fleet (0 before the first begin()).
  std::size_t num_workers() const { return workers_.size(); }

 private:
  struct Worker {
    int fd = -1;
    int pid = -1;
  };

  bool ensure_workers(std::size_t shards);
  bool spawn_worker(Worker* out) const;
  void teardown();

  std::vector<Worker> workers_;

  // Session state, valid between begin() and finish().
  const core::ShardInputs* in_ = nullptr;
  const std::vector<std::size_t>* mu_offsets_ = nullptr;  // compact geometry
  std::vector<std::size_t> offsets_;  // shard s covers [offsets_[s], offsets_[s+1])
};

}  // namespace mdo::shard
