// Unit tests for the min-cost-flow solver, and a frozen reference: the
// vector-of-vectors solver the flat one replaced must route the same flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/caching.hpp"
#include "core/primal_dual.hpp"
#include "core/shard_core.hpp"
#include "shard/coordinator.hpp"
#include "solver/mcmf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/zipf.hpp"

namespace mdo::solver {
namespace {

TEST(Mcmf, SimplePathRoutesAllFlow) {
  MinCostFlow net(3);
  const auto a = net.add_arc(0, 1, 5, 2.0);
  const auto b = net.add_arc(1, 2, 5, 3.0);
  const auto result = net.solve(0, 2, 4);
  EXPECT_EQ(result.flow, 4);
  EXPECT_DOUBLE_EQ(result.cost, 4 * 5.0);
  EXPECT_EQ(net.flow_on(a), 4);
  EXPECT_EQ(net.flow_on(b), 4);
}

TEST(Mcmf, PrefersCheaperParallelPath) {
  MinCostFlow net(2);
  const auto cheap = net.add_arc(0, 1, 3, 1.0);
  const auto expensive = net.add_arc(0, 1, 10, 4.0);
  const auto result = net.solve(0, 1, 5);
  EXPECT_EQ(result.flow, 5);
  EXPECT_DOUBLE_EQ(result.cost, 3 * 1.0 + 2 * 4.0);
  EXPECT_EQ(net.flow_on(cheap), 3);
  EXPECT_EQ(net.flow_on(expensive), 2);
}

TEST(Mcmf, StopsWhenSinkUnreachable) {
  MinCostFlow net(3);
  net.add_arc(0, 1, 2, 1.0);
  net.add_arc(1, 2, 1, 1.0);  // bottleneck
  const auto result = net.solve(0, 2, 5);
  EXPECT_EQ(result.flow, 1);
}

TEST(Mcmf, HandlesNegativeCosts) {
  // A negative-cost detour should be taken.
  MinCostFlow net(3);
  net.add_arc(0, 2, 1, 0.0);
  net.add_arc(0, 1, 1, -5.0);
  net.add_arc(1, 2, 1, 0.0);
  const auto result = net.solve(0, 2, 2);
  EXPECT_EQ(result.flow, 2);
  EXPECT_DOUBLE_EQ(result.cost, -5.0);
}

TEST(Mcmf, ReroutesThroughResidualArcs) {
  // Classic example where the second augmentation must cancel flow on the
  // first path to stay optimal.
  MinCostFlow net(4);
  net.add_arc(0, 1, 1, 1.0);
  net.add_arc(0, 2, 1, 5.0);
  net.add_arc(1, 2, 1, -4.0);
  net.add_arc(1, 3, 1, 5.0);
  net.add_arc(2, 3, 1, 1.0);
  const auto result = net.solve(0, 3, 2);
  EXPECT_EQ(result.flow, 2);
  // The first augmentation takes 0->1->2->3 (cost -2); the only way to
  // route the second unit is 0->2, cancel 1->2 through its residual (+4),
  // then 1->3: cost 14. Net flow: 0->1->3 and 0->2->3, total cost 12.
  EXPECT_DOUBLE_EQ(result.cost, 12.0);
}

TEST(Mcmf, ZeroFlowRequest) {
  MinCostFlow net(2);
  net.add_arc(0, 1, 1, 1.0);
  const auto result = net.solve(0, 1, 0);
  EXPECT_EQ(result.flow, 0);
  EXPECT_DOUBLE_EQ(result.cost, 0.0);
}

TEST(Mcmf, SourceEqualsSink) {
  MinCostFlow net(1);
  const auto result = net.solve(0, 0, 5);
  EXPECT_EQ(result.flow, 0);
}

TEST(Mcmf, ResetFlowRestoresCapacities) {
  MinCostFlow net(2);
  const auto arc = net.add_arc(0, 1, 3, 1.0);
  net.solve(0, 1, 3);
  EXPECT_EQ(net.flow_on(arc), 3);
  net.reset_flow();
  EXPECT_EQ(net.flow_on(arc), 0);
  const auto result = net.solve(0, 1, 2);
  EXPECT_EQ(result.flow, 2);
}

TEST(Mcmf, ValidatesArguments) {
  MinCostFlow net(2);
  EXPECT_THROW(net.add_arc(0, 5, 1, 0.0), InvalidArgument);
  EXPECT_THROW(net.add_arc(0, 1, -1, 0.0), InvalidArgument);
  net.add_arc(0, 1, 1, 0.0);
  EXPECT_THROW(net.flow_on(7), InvalidArgument);
  EXPECT_THROW(net.solve(0, 9, 1), InvalidArgument);
}

TEST(Mcmf, AddNodeGrowsGraph) {
  MinCostFlow net(1);
  const auto node = net.add_node();
  EXPECT_EQ(node, 1u);
  EXPECT_EQ(net.num_nodes(), 2u);
  net.add_arc(0, node, 1, 1.0);
  EXPECT_EQ(net.num_arcs(), 1u);
}

/// Property: flow conservation holds at every intermediate node and the
/// reported cost equals the sum over arcs of flow * cost.
class McmfRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McmfRandomTest, ConservationAndCostConsistency) {
  Rng rng(GetParam());
  const std::size_t nodes = 6;
  MinCostFlow net(nodes);
  struct ArcInfo {
    std::size_t id, from, to;
    double cost;
  };
  std::vector<ArcInfo> arcs;
  // Forward (low -> high) arcs only: a DAG cannot contain negative cycles,
  // matching the structure of the caching networks this solver serves.
  for (std::size_t from = 0; from < nodes; ++from) {
    for (std::size_t to = from + 1; to < nodes; ++to) {
      if (!rng.bernoulli(0.6)) continue;
      const auto cap = rng.uniform_int(0, 4);
      const double cost = rng.uniform(-2.0, 8.0);
      arcs.push_back({net.add_arc(from, to, cap, cost), from, to, cost});
    }
  }
  const auto result = net.solve(0, nodes - 1, 6);
  ASSERT_GE(result.flow, 0);

  std::vector<std::int64_t> balance(nodes, 0);
  double cost = 0.0;
  for (const auto& arc : arcs) {
    const auto f = net.flow_on(arc.id);
    EXPECT_GE(f, 0);
    balance[arc.from] -= f;
    balance[arc.to] += f;
    cost += static_cast<double>(f) * arc.cost;
  }
  EXPECT_EQ(balance[0], -result.flow);
  EXPECT_EQ(balance[nodes - 1], result.flow);
  for (std::size_t v = 1; v + 1 < nodes; ++v) EXPECT_EQ(balance[v], 0);
  EXPECT_NEAR(cost, result.cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, McmfRandomTest,
                         ::testing::Range<std::uint64_t>(1, 26));

// ----------------------------------------------------- frozen reference ----
//
// The solver as it was before its adjacency became flat: one std::vector of
// arc indices per node, copied verbatim. The flat solver must return the same
// Result and route the same flow on every arc, bit for bit, because P1 has
// ties and the order SPFA relaxes a node's arcs in decides which optimal
// flow comes out.
namespace frozen {

class MinCostFlow {
 public:
  /// Creates a network with `num_nodes` nodes (indices 0..num_nodes-1).
  explicit MinCostFlow(std::size_t num_nodes);

  /// Adds one more node; returns its index.
  std::size_t add_node();

  /// Adds a directed arc; returns an arc id usable with flow_on().
  /// Capacity must be non-negative.
  std::size_t add_arc(std::size_t from, std::size_t to, std::int64_t capacity,
                      double cost);

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

  std::size_t num_nodes() const { return graph_.size(); }
  std::size_t num_arcs() const { return arcs_.size() / 2; }

  /// Resets all flows to zero (keeps the network).
  void reset_flow();

  /// Re-prices an existing arc (forward cost = `cost`, reverse = -cost).
  /// Only meaningful on a flow-free network — call reset_flow() first —
  /// because residual costs of routed flow would become inconsistent.
  /// This is what lets core/caching.cpp reuse one time-expanded network
  /// across dual iterations that only change the rewards.
  void set_arc_cost(std::size_t arc_id, double cost);

 private:
  struct Arc {
    std::size_t to;
    std::int64_t capacity;  // residual capacity
    double cost;
    std::size_t reverse;  // index of the reverse arc in arcs_
  };

  bool shortest_path(std::size_t source);

  std::vector<Arc> arcs_;                     // forward/backward interleaved
  std::vector<std::vector<std::size_t>> graph_;  // node -> arc indices
  std::vector<std::int64_t> original_capacity_;  // per public arc id

  // SPFA scratch, reused across augmentations and solve() calls so the
  // inner loop stays allocation-free once the buffers reach network size.
  std::vector<double> dist_;
  std::vector<std::size_t> prev_arc_;
  std::vector<char> in_queue_;
  std::vector<std::size_t> fifo_;  // circular buffer, capacity num_nodes + 1
};

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoArc = static_cast<std::size_t>(-1);
}  // namespace

MinCostFlow::MinCostFlow(std::size_t num_nodes) : graph_(num_nodes) {}

std::size_t MinCostFlow::add_node() {
  graph_.emplace_back();
  return graph_.size() - 1;
}

std::size_t MinCostFlow::add_arc(std::size_t from, std::size_t to,
                                 std::int64_t capacity, double cost) {
  MDO_REQUIRE(from < graph_.size() && to < graph_.size(),
              "arc endpoint out of range");
  MDO_REQUIRE(capacity >= 0, "arc capacity must be non-negative");
  const std::size_t fwd = arcs_.size();
  arcs_.push_back({to, capacity, cost, fwd + 1});
  arcs_.push_back({from, 0, -cost, fwd});
  graph_[from].push_back(fwd);
  graph_[to].push_back(fwd + 1);
  original_capacity_.push_back(capacity);
  return fwd / 2;
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

bool MinCostFlow::shortest_path(std::size_t source) {
  const std::size_t n = graph_.size();
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
    for (const std::size_t arc_id : graph_[u]) {
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
  MDO_REQUIRE(source < graph_.size() && sink < graph_.size(),
              "source/sink out of range");
  MDO_REQUIRE(max_flow >= 0, "max_flow must be non-negative");
  Result result;
  if (max_flow == 0 || source == sink) return result;

  while (result.flow < max_flow) {
    shortest_path(source);
    if (dist_[sink] >= kInf) break;  // no more augmenting paths

    // Bottleneck along the path.
    std::int64_t push = max_flow - result.flow;
    for (std::size_t v = sink; v != source;) {
      const Arc& arc = arcs_[prev_arc_[v]];
      push = std::min(push, arc.capacity);
      v = arcs_[arc.reverse].to;
    }
    MDO_CHECK(push > 0, "augmenting path with zero bottleneck");

    // Apply the augmentation.
    double path_cost = 0.0;
    for (std::size_t v = sink; v != source;) {
      Arc& arc = arcs_[prev_arc_[v]];
      arc.capacity -= push;
      arcs_[arc.reverse].capacity += push;
      path_cost += arc.cost;
      v = arcs_[arc.reverse].to;
    }
    result.flow += push;
    result.cost += path_cost * static_cast<double>(push);
  }
  return result;
}

}  // namespace frozen

/// Where the P1 network of a CachingSubproblem keeps its terminals.
struct P1Network {
  std::size_t source = 0;
  std::size_t sink = 0;
  std::int64_t capacity = 0;
};

/// Builds P1's time-expanded network into an empty `net`, node for node and
/// arc for arc in the order core::CachingFlowWorkspace::bind adds them
/// (occupancy arc of cell t * K + k has id t * K + k).
template <class Network>
P1Network build_p1_network(Network& net, const core::CachingSubproblem& p) {
  const std::size_t k_count = p.num_contents;
  const std::size_t w = p.horizon;
  P1Network out;
  out.capacity = static_cast<std::int64_t>(p.capacity);
  out.source = net.add_node();
  out.sink = net.add_node();
  std::vector<std::size_t> pool(w + 1);
  for (auto& node : pool) node = net.add_node();
  auto in_node = [&](std::size_t k, std::size_t t) {
    return 2 + (w + 1) + 2 * (t * k_count + k);
  };
  auto out_node = [&](std::size_t k, std::size_t t) {
    return in_node(k, t) + 1;
  };
  for (std::size_t i = 0; i < 2 * k_count * w; ++i) net.add_node();
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t k = 0; k < k_count; ++k) {
      net.add_arc(in_node(k, t), out_node(k, t), 1, -p.reward(t, k));
    }
  }
  for (std::size_t t = 0; t < w; ++t) {
    net.add_arc(pool[t], pool[t + 1], out.capacity, 0.0);
  }
  net.add_arc(pool[w], out.sink, out.capacity, 0.0);
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t k = 0; k < k_count; ++k) {
      net.add_arc(pool[t], in_node(k, t), 1, p.beta);
      net.add_arc(out_node(k, t), pool[t + 1], 1, 0.0);
      if (t + 1 < w) net.add_arc(out_node(k, t), in_node(k, t + 1), 1, 0.0);
    }
  }
  std::int64_t free_slots = out.capacity;
  for (std::size_t k = 0; k < k_count; ++k) {
    if (p.initial[k] == 0) continue;
    const std::size_t carrier = net.add_node();
    net.add_arc(out.source, carrier, 1, 0.0);
    net.add_arc(carrier, in_node(k, 0), 1, 0.0);
    net.add_arc(carrier, pool[0], 1, 0.0);
    --free_slots;
  }
  if (free_slots > 0) net.add_arc(out.source, pool[0], free_slots, 0.0);
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The two solvers' Results and per-arc flows are bitwise equal.
void expect_same_flows(const frozen::MinCostFlow& want,
                       const frozen::MinCostFlow::Result& want_result,
                       const MinCostFlow& got,
                       const MinCostFlow::Result& got_result) {
  EXPECT_EQ(got_result.flow, want_result.flow);
  EXPECT_EQ(bits(got_result.cost), bits(want_result.cost))
      << got_result.cost << " vs " << want_result.cost;
  ASSERT_EQ(got.num_arcs(), want.num_arcs());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  std::size_t differing = 0;
  for (std::size_t id = 0; id < want.num_arcs(); ++id) {
    differing += got.flow_on(id) != want.flow_on(id) ? 1 : 0;
  }
  EXPECT_EQ(differing, 0u) << "arcs with a different flow";
}

/// Solves `p` on both solvers, then re-prices the occupancy arcs with each
/// of `repricings` (the dual loop's pattern) and solves again, comparing
/// every solve. Returns the number of occupancy arcs that carried flow.
std::size_t expect_same_p1_flows(
    const core::CachingSubproblem& p,
    const std::vector<linalg::Vec>& repricings = {}) {
  frozen::MinCostFlow want(0);
  MinCostFlow got(0);
  const P1Network terminals = build_p1_network(want, p);
  build_p1_network(got, p);
  // The production builder, re-priced the same way, must read the same
  // plan off the occupancy arcs.
  core::CachingSubproblem priced = p;
  core::CachingFlowWorkspace workspace;
  workspace.bind(priced);
  std::vector<std::uint8_t> x;
  const std::size_t cells = p.num_contents * p.horizon;
  std::size_t occupied = 0;
  for (std::size_t round = 0; round <= repricings.size(); ++round) {
    if (round > 0) {
      priced.rewards = repricings[round - 1];
      want.reset_flow();
      got.reset_flow();
      for (std::size_t i = 0; i < cells; ++i) {
        want.set_arc_cost(i, -priced.rewards[i]);
        got.set_arc_cost(i, -priced.rewards[i]);
      }
    }
    const auto want_result =
        want.solve(terminals.source, terminals.sink, terminals.capacity);
    const auto got_result =
        got.solve(terminals.source, terminals.sink, terminals.capacity);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_same_flows(want, want_result, got, got_result);
    workspace.solve_into(priced, x);
    if (x.size() != cells) {
      ADD_FAILURE() << "plan size " << x.size() << ", want " << cells;
      return occupied;
    }
    for (std::size_t i = 0; i < cells; ++i) {
      EXPECT_EQ(x[i], want.flow_on(i) > 0 ? 1 : 0) << "cell " << i;
      occupied += x[i];
    }
  }
  return occupied;
}

/// Random P1 shapes with small integer rewards and beta, so equal-cost
/// paths are common, at capacities 0, 1, a middle value and the whole
/// catalogue, from random initial caches.
class McmfFrozenP1Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McmfFrozenP1Test, FlatNetworkMatchesVectorOfVectors) {
  Rng rng(GetParam() * 101 + 9);
  const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 11));
  const std::size_t w = 1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  const std::size_t middle =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k)));
  std::size_t occupied = 0;
  for (const std::size_t capacity :
       {std::size_t{0}, std::size_t{1}, middle, k}) {
    core::CachingSubproblem p;
    p.num_contents = k;
    p.horizon = w;
    p.capacity = capacity;
    p.beta = static_cast<double>(rng.uniform_int(0, 3));
    p.initial.assign(k, 0);
    std::size_t cached = 0;
    for (std::size_t c = 0; c < k && cached < capacity; ++c) {
      if (rng.bernoulli(0.4)) {
        p.initial[c] = 1;
        ++cached;
      }
    }
    auto integer_rewards = [&] {
      linalg::Vec rewards(k * w);
      for (auto& r : rewards) r = static_cast<double>(rng.uniform_int(0, 4));
      return rewards;
    };
    p.rewards = integer_rewards();
    SCOPED_TRACE("K " + std::to_string(k) + ", w " + std::to_string(w) +
                 ", capacity " + std::to_string(capacity));
    occupied += expect_same_p1_flows(p, {integer_rewards(), integer_rewards()});
  }
  RecordProperty("occupied_arcs", static_cast<int>(occupied));
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, McmfFrozenP1Test,
                         ::testing::Range<std::uint64_t>(1, 61));

/// Random DAGs with integer costs (ties) and capacities: the general
/// network, not just P1's shape.
class McmfFrozenDagTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McmfFrozenDagTest, FlatNetworkMatchesVectorOfVectors) {
  Rng rng(GetParam() * 7 + 1);
  const std::size_t nodes = 3 + static_cast<std::size_t>(rng.uniform_int(0, 9));
  frozen::MinCostFlow want(nodes);
  MinCostFlow got(nodes);
  for (std::size_t from = 0; from < nodes; ++from) {
    for (std::size_t to = from + 1; to < nodes; ++to) {
      // Parallel arcs too: a node may hold two arcs to the same head.
      const auto copies = rng.uniform_int(0, 2);
      for (std::int64_t c = 0; c < copies; ++c) {
        const auto cap = rng.uniform_int(0, 3);
        const double cost = static_cast<double>(rng.uniform_int(-2, 3));
        want.add_arc(from, to, cap, cost);
        got.add_arc(from, to, cap, cost);
      }
    }
  }
  const auto demand = rng.uniform_int(0, 8);
  const auto want_result = want.solve(0, nodes - 1, demand);
  const auto got_result = got.solve(0, nodes - 1, demand);
  expect_same_flows(want, want_result, got, got_result);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, McmfFrozenDagTest,
                         ::testing::Range<std::uint64_t>(1, 41));

/// The restricted networks ShardCore builds on a truncated sparse window
/// (N = 8, K = 2000 cut at the Zipf rate of rank 0.02 K, w = 8), priced by
/// the window's final multipliers and by their rounding to whole units of
/// beta. The sparse perfbench workloads cache nothing, so their ledgers
/// cannot see these P1 bits.
TEST(McmfFrozenReference, TruncatedSparseWindowNetworks) {
  constexpr std::size_t kWindow = 8;
  workload::PaperScenario scenario;
  scenario.num_sbs = 8;
  scenario.num_contents = 2000;
  scenario.classes_per_sbs = 2;
  scenario.horizon = kWindow + 1;
  scenario.beta = 0.005;  // per-slot rewards here are ~0.01
  scenario.seed = 5;
  scenario.workload.min_rate = workload::zipf_mandelbrot_pmf(
      scenario.num_contents, scenario.workload.zipf_alpha,
      scenario.workload.zipf_q)[scenario.num_contents / 50];
  const auto instance = scenario.build_sparse();
  const model::NetworkConfig& config = instance.config;
  auto window_from = [&](std::size_t first) {
    model::SparseDemandTrace window;
    for (std::size_t t = first; t < first + kWindow; ++t) {
      window.push_back(instance.sparse_demand.slot(t));
    }
    return window;
  };

  // The second window starts from the first plan's cache, so P1 has
  // initially cached contents.
  core::PrimalDualOptions options;
  options.shard_count = shard::kShardsInProcess;
  core::PrimalDualSolver solver(options);
  const model::SparseDemandTrace first = window_from(0);
  core::HorizonProblem problem;
  problem.config = &config;
  problem.sparse_demand = &first;
  problem.initial_cache = instance.initial_cache;
  const model::CacheState start = solver.solve(problem).schedule.front().cache;
  const model::SparseDemandTrace second = window_from(1);
  problem.sparse_demand = &second;
  problem.initial_cache = start;
  const core::HorizonSolution solution = solver.solve(problem);

  const core::ActiveSets sets =
      core::build_active_sets(config, second, start);
  const std::vector<std::size_t> offsets =
      core::mu_block_offsets(config, kWindow, sets);
  ASSERT_EQ(solution.mu.size(), offsets.back());
  const std::size_t num_sbs = config.num_sbs();
  std::size_t occupied = 0;
  std::size_t initially_cached = 0;
  for (std::size_t n = 0; n < num_sbs; ++n) {
    const std::vector<std::size_t>& list = sets.p1_list[n];
    const std::size_t kp = list.size();
    if (kp == 0) continue;
    core::CachingSubproblem p;
    p.num_contents = kp;
    p.horizon = kWindow;
    p.capacity = std::min(config.sbs[n].cache_capacity, kp);
    p.beta = config.sbs[n].replacement_beta;
    p.initial.assign(kp, 0);
    for (std::size_t i = 0; i < kp; ++i) {
      p.initial[i] = start.cached(n, list[i]) ? 1 : 0;
      initially_cached += p.initial[i];
    }
    // ShardCore::iterate's reward sums: nu = sum over classes of mu.
    p.rewards.assign(kp * kWindow, 0.0);
    const std::size_t classes = config.sbs[n].num_classes();
    for (std::size_t t = 0; t < kWindow; ++t) {
      const std::size_t cell = t * num_sbs + n;
      const std::vector<std::size_t>& map = sets.cell_p1[cell];
      for (std::size_t m = 0; m < classes; ++m) {
        for (std::size_t i = 0; i < map.size(); ++i) {
          p.rewards[t * kp + map[i]] +=
              solution.mu[offsets[cell] + m * map.size() + i];
        }
      }
    }
    SCOPED_TRACE("SBS " + std::to_string(n) + ", K' " + std::to_string(kp));
    occupied += expect_same_p1_flows(p);
    // Its integer twin, rewards in units of beta: many equal-cost paths.
    core::CachingSubproblem ties = p;
    ties.beta = 1.0;
    for (auto& r : ties.rewards) r = std::round(r / p.beta);
    occupied += expect_same_p1_flows(ties);
  }
  RecordProperty("occupied_cells", static_cast<int>(occupied));
  RecordProperty("initially_cached", static_cast<int>(initially_cached));
  EXPECT_GT(occupied, 0u) << "beta must be low enough that P1 caches";
  EXPECT_GT(initially_cached, 0u) << "the second window must start cached";
}

/// solve() rebuilds the adjacency after the topology changed: an arc or a
/// node added after a solve is seen by the next one.
TEST(McmfFrozenReference, AddArcAfterSolve) {
  frozen::MinCostFlow want(4);
  MinCostFlow got(4);
  auto both_arc = [&](std::size_t from, std::size_t to, std::int64_t cap,
                      double cost) {
    want.add_arc(from, to, cap, cost);
    got.add_arc(from, to, cap, cost);
  };
  both_arc(0, 1, 2, 1.0);
  both_arc(1, 3, 2, 1.0);
  both_arc(0, 2, 1, 2.0);
  both_arc(2, 3, 1, 0.0);
  auto want_result = want.solve(0, 3, 3);
  auto got_result = got.solve(0, 3, 3);
  expect_same_flows(want, want_result, got, got_result);

  // A cheaper route through a new node, and a new arc out of an old one.
  want.reset_flow();
  got.reset_flow();
  const std::size_t extra = want.add_node();
  ASSERT_EQ(got.add_node(), extra);
  both_arc(0, extra, 2, -1.0);
  both_arc(extra, 3, 2, 0.0);
  both_arc(1, 2, 1, -3.0);
  want_result = want.solve(0, 3, 5);
  got_result = got.solve(0, 3, 5);
  expect_same_flows(want, want_result, got, got_result);
  EXPECT_EQ(got.flow_on(4), 2);  // the new route is used
}

}  // namespace
}  // namespace mdo::solver
