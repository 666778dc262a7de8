// Minimum-cost flow via successive shortest paths with node potentials.
//
// This is the exact engine behind the caching subproblem P1: Theorem 1 of
// the paper shows P1's constraint matrix is totally unimodular, and the
// time-expanded cache-slot network built in core/caching.cpp realizes that
// structure as a flow problem, so C_n shortest-path augmentations return the
// integral optimum directly. Costs are real-valued (they come from Lagrange
// multipliers); capacities are integral.
//
// Requirements: no negative-cost cycle may be reachable (our networks are
// DAGs, which trivially satisfies this; successive-shortest-path invariants
// keep the residual graph cycle-free in cost). Each augmentation runs SPFA,
// which handles the real-valued, possibly negative arc costs exactly.
//
// Storage is flat (DESIGN.md §8): one array of residual arcs, forward and
// reverse interleaved, and a CSR adjacency that solve() rebuilds after the
// topology changed. Each node lists its arcs in arc-id order, which is the
// order they were added in, and SPFA relaxes them in that order: that order
// is the tie-break contract between equal-cost shortest paths, so it fixes
// which optimal flow comes out.
#pragma once

#include <cstdint>
#include <vector>

namespace mdo::solver {

class MinCostFlow {
 public:
  /// Creates a network with `num_nodes` nodes (indices 0..num_nodes-1).
  explicit MinCostFlow(std::size_t num_nodes);

  /// Adds one more node; returns its index.
  std::size_t add_node();

  /// Adds a directed arc; returns an arc id usable with flow_on(). Ids are
  /// consecutive from 0 in the order arcs are added. Capacity must be
  /// non-negative.
  std::size_t add_arc(std::size_t from, std::size_t to, std::int64_t capacity,
                      double cost);

  /// Reserves room for `nodes` nodes and `arcs` arcs, so a build of that
  /// size allocates once per buffer.
  void reserve(std::size_t nodes, std::size_t arcs);

  /// Removes every node and arc, keeping the buffers for the next build.
  void clear();

  struct Result {
    std::int64_t flow = 0;  // units actually sent (<= requested)
    double cost = 0.0;      // total cost of the flow sent
  };

  /// Sends up to `max_flow` units from `source` to `sink` at minimum cost.
  /// Augmentation stops early when the sink becomes unreachable, so
  /// Result::flow can be less than max_flow (the caller decides whether
  /// that is an error).
  ///
  /// NOTE: minimizes cost **for the flow value it achieves**; with
  /// free (zero-cost) bypass arcs in the network this equals the min-cost
  /// flow of any value up to max_flow, which is how core/caching.cpp uses it.
  Result solve(std::size_t source, std::size_t sink, std::int64_t max_flow);

  /// Flow currently routed on the arc with the given id.
  std::int64_t flow_on(std::size_t arc_id) const;

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_arcs() const { return original_capacity_.size(); }

  /// Resets all flows to zero (keeps the network).
  void reset_flow();

  /// Re-prices an existing arc (forward cost = `cost`, reverse = -cost).
  /// Only meaningful on a flow-free network — call reset_flow() first —
  /// because residual costs of routed flow would become inconsistent.
  /// This is what lets core/caching.cpp reuse one time-expanded network
  /// across dual iterations that only change the rewards.
  void set_arc_cost(std::size_t arc_id, double cost);

 private:
  /// Residual arc. Arc id a is stored at 2a (forward) and its reverse at
  /// 2a + 1, so the reverse of index i is i ^ 1 and the tail of i is the
  /// head of i ^ 1.
  struct Arc {
    std::size_t to;
    std::int64_t capacity;  // residual capacity
    double cost;
  };

  /// Counting sort of the arc indices by tail node, in index order.
  void build_adjacency();
  bool shortest_path(std::size_t source);

  std::size_t num_nodes_ = 0;
  std::vector<Arc> arcs_;                        // forward/backward interleaved
  std::vector<std::int64_t> original_capacity_;  // per public arc id

  // CSR adjacency: node v's arc indices are adjacent_[first_arc_[v] ..
  // first_arc_[v + 1]). Rebuilt by solve() when adjacency_stale_.
  std::vector<std::size_t> first_arc_;
  std::vector<std::size_t> adjacent_;
  bool adjacency_stale_ = true;

  // SPFA scratch, reused across augmentations and solve() calls so the
  // inner loop stays allocation-free once the buffers reach network size.
  std::vector<double> dist_;
  std::vector<std::size_t> prev_arc_;
  std::vector<char> in_queue_;
  std::vector<std::size_t> fifo_;  // circular buffer, capacity num_nodes + 1
};

}  // namespace mdo::solver
