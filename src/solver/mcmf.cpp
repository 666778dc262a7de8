#include "solver/mcmf.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace mdo::solver {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoArc = static_cast<std::size_t>(-1);
}  // namespace

MinCostFlow::MinCostFlow(std::size_t num_nodes) : num_nodes_(num_nodes) {}

std::size_t MinCostFlow::add_node() {
  adjacency_stale_ = true;
  return num_nodes_++;
}

std::size_t MinCostFlow::add_arc(std::size_t from, std::size_t to,
                                 std::int64_t capacity, double cost) {
  MDO_REQUIRE(from < num_nodes_ && to < num_nodes_,
              "arc endpoint out of range");
  MDO_REQUIRE(capacity >= 0, "arc capacity must be non-negative");
  arcs_.push_back({to, capacity, cost});
  arcs_.push_back({from, 0, -cost});
  original_capacity_.push_back(capacity);
  adjacency_stale_ = true;
  return original_capacity_.size() - 1;
}

void MinCostFlow::reserve(std::size_t nodes, std::size_t arcs) {
  arcs_.reserve(2 * arcs);
  original_capacity_.reserve(arcs);
  first_arc_.reserve(nodes + 1);
  adjacent_.reserve(2 * arcs);
}

void MinCostFlow::clear() {
  num_nodes_ = 0;
  arcs_.clear();
  original_capacity_.clear();
  adjacency_stale_ = true;
}

std::int64_t MinCostFlow::flow_on(std::size_t arc_id) const {
  MDO_REQUIRE(arc_id < original_capacity_.size(), "unknown arc id");
  // Flow equals the residual capacity of the reverse arc.
  return arcs_[arc_id * 2 + 1].capacity;
}

void MinCostFlow::reset_flow() {
  for (std::size_t id = 0; id < original_capacity_.size(); ++id) {
    arcs_[id * 2].capacity = original_capacity_[id];
    arcs_[id * 2 + 1].capacity = 0;
  }
}

void MinCostFlow::set_arc_cost(std::size_t arc_id, double cost) {
  MDO_REQUIRE(arc_id < original_capacity_.size(), "unknown arc id");
  MDO_REQUIRE(arcs_[arc_id * 2 + 1].capacity == 0,
              "set_arc_cost: arc carries flow (reset_flow() first)");
  arcs_[arc_id * 2].cost = cost;
  arcs_[arc_id * 2 + 1].cost = -cost;
}

void MinCostFlow::build_adjacency() {
  const std::size_t n = num_nodes_;
  const std::size_t m = arcs_.size();
  // Count each node's arcs one slot ahead, prefix-sum to start offsets,
  // then place every index at its tail's cursor. Visiting the indices in
  // ascending order keeps each node's arcs in arc-id (insertion) order.
  first_arc_.assign(n + 1, 0);
  for (std::size_t i = 0; i < m; ++i) ++first_arc_[arcs_[i ^ 1].to + 1];
  for (std::size_t v = 0; v < n; ++v) first_arc_[v + 1] += first_arc_[v];
  adjacent_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    adjacent_[first_arc_[arcs_[i ^ 1].to]++] = i;
  }
  // The cursors now hold each node's end offset: shift them back to starts.
  for (std::size_t v = n; v > 0; --v) first_arc_[v] = first_arc_[v - 1];
  first_arc_[0] = 0;
  adjacency_stale_ = false;
}

bool MinCostFlow::shortest_path(std::size_t source) {
  const std::size_t n = num_nodes_;
  dist_.assign(n, kInf);
  prev_arc_.assign(n, kNoArc);
  dist_[source] = 0.0;
  // SPFA (queue-based Bellman-Ford). Successive-shortest-path invariants
  // guarantee the residual graph has no negative cycle, so this terminates;
  // the relaxation limit turns a violated invariant into a diagnosable
  // error instead of an infinite loop. The in_queue_ guard keeps at most n
  // nodes enqueued, so a circular buffer of n + 1 slots never overflows.
  in_queue_.assign(n, 0);
  fifo_.resize(n + 1);
  std::size_t head = 0;
  std::size_t tail = 0;
  auto push = [&](std::size_t v) {
    fifo_[tail] = v;
    tail = tail + 1 == fifo_.size() ? 0 : tail + 1;
  };
  push(source);
  in_queue_[source] = 1;
  std::size_t relaxations = 0;
  const std::size_t relaxation_limit = n * arcs_.size() + 64;
  while (head != tail) {
    const std::size_t u = fifo_[head];
    head = head + 1 == fifo_.size() ? 0 : head + 1;
    in_queue_[u] = 0;
    const std::size_t end = first_arc_[u + 1];
    for (std::size_t pos = first_arc_[u]; pos < end; ++pos) {
      const std::size_t arc_id = adjacent_[pos];
      const Arc& arc = arcs_[arc_id];
      if (arc.capacity <= 0) continue;
      const double candidate = dist_[u] + arc.cost;
      if (candidate < dist_[arc.to] - 1e-12) {
        dist_[arc.to] = candidate;
        prev_arc_[arc.to] = arc_id;
        if (!in_queue_[arc.to]) {
          push(arc.to);
          in_queue_[arc.to] = 1;
        }
        if (++relaxations > relaxation_limit) {
          throw SolverError(
              "min-cost flow: negative cycle suspected (relaxation limit)");
        }
      }
    }
  }
  return true;
}

MinCostFlow::Result MinCostFlow::solve(std::size_t source, std::size_t sink,
                                       std::int64_t max_flow) {
  MDO_REQUIRE(source < num_nodes_ && sink < num_nodes_,
              "source/sink out of range");
  MDO_REQUIRE(max_flow >= 0, "max_flow must be non-negative");
  Result result;
  if (max_flow == 0 || source == sink) return result;
  if (adjacency_stale_) build_adjacency();

  while (result.flow < max_flow) {
    shortest_path(source);
    if (dist_[sink] >= kInf) break;  // no more augmenting paths

    // Bottleneck along the path.
    std::int64_t push = max_flow - result.flow;
    for (std::size_t v = sink; v != source;) {
      const std::size_t arc_id = prev_arc_[v];
      push = std::min(push, arcs_[arc_id].capacity);
      v = arcs_[arc_id ^ 1].to;
    }
    MDO_CHECK(push > 0, "augmenting path with zero bottleneck");

    // Apply the augmentation.
    double path_cost = 0.0;
    for (std::size_t v = sink; v != source;) {
      const std::size_t arc_id = prev_arc_[v];
      Arc& arc = arcs_[arc_id];
      arc.capacity -= push;
      arcs_[arc_id ^ 1].capacity += push;
      path_cost += arc.cost;
      v = arcs_[arc_id ^ 1].to;
    }
    result.flow += push;
    result.cost += path_cost * static_cast<double>(push);
  }
  return result;
}

}  // namespace mdo::solver
