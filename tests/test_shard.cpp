// Tests for the process-level shard subsystem (DESIGN.md §11): the
// checksummed wire format, the sparse-demand binary codecs it embeds, the
// coordinator's shard-count resolution, and the headline guarantees —
// solving with MDO_SHARDS/shard_count in {1, 2, N} is bitwise-equal to the
// in-process solver, worker death is recovered by a bit-identical retry,
// and a solver with sharding off is bitwise-transparent.
//
// The fork-based tests are skipped under ThreadSanitizer: the worker
// children run the thread pool after fork(), which TSan instrumentation
// does not support. The wire/codec tests still run there.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/primal_dual.hpp"
#include "model/sparse_demand_io.hpp"
#include "online/chc.hpp"
#include "online/rhc.hpp"
#include "runtime/deadline.hpp"
#include "runtime/supervisor.hpp"
#include "shard/coordinator.hpp"
#include "shard/wire.hpp"
#include "tsan_skip.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo {
namespace {

// ---- Scenario / comparison helpers ---------------------------------------

model::ProblemInstance shard_instance(bool sparse, std::size_t num_sbs = 5,
                                      std::size_t horizon = 4) {
  workload::PaperScenario scenario;
  scenario.num_sbs = num_sbs;
  scenario.num_contents = 8;
  scenario.classes_per_sbs = 3;
  scenario.horizon = horizon;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 4.0;
  scenario.beta = 2.0;
  scenario.seed = 11;
  if (sparse) {
    // Truncate so the sparse active sets genuinely differ from the full
    // catalogue (the compact wire blocks then carry real gather/scatter).
    scenario.workload.min_rate = 0.05;
    return scenario.build_sparse();
  }
  return scenario.build();
}

core::HorizonProblem as_problem(const model::ProblemInstance& instance) {
  core::HorizonProblem problem;
  problem.config = &instance.config;
  if (instance.use_sparse_demand) {
    problem.sparse_demand = &instance.sparse_demand;
  } else {
    problem.demand = &instance.demand;
  }
  problem.initial_cache = instance.initial_cache;
  return problem;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bitwise_equal(const core::HorizonSolution& a,
                          const core::HorizonSolution& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(bits(a.upper_bound), bits(b.upper_bound));
  EXPECT_EQ(bits(a.lower_bound), bits(b.lower_bound));
  ASSERT_EQ(a.mu.size(), b.mu.size());
  for (std::size_t i = 0; i < a.mu.size(); ++i) {
    ASSERT_EQ(bits(a.mu[i]), bits(b.mu[i])) << "mu[" << i << "]";
  }
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t t = 0; t < a.schedule.size(); ++t) {
    EXPECT_EQ(a.schedule[t].cache, b.schedule[t].cache) << "slot " << t;
    for (std::size_t n = 0; n < a.schedule[t].cache.num_sbs(); ++n) {
      const auto& ya = a.schedule[t].load.sbs_data(n);
      const auto& yb = b.schedule[t].load.sbs_data(n);
      ASSERT_EQ(ya.size(), yb.size());
      for (std::size_t j = 0; j < ya.size(); ++j) {
        ASSERT_EQ(bits(ya[j]), bits(yb[j]))
            << "slot " << t << " sbs " << n << " y[" << j << "]";
      }
    }
  }
}

void expect_decisions_equal(const model::SlotDecision& a,
                            const model::SlotDecision& b) {
  EXPECT_EQ(a.cache, b.cache);
  for (std::size_t n = 0; n < a.cache.num_sbs(); ++n) {
    const auto& ya = a.load.sbs_data(n);
    const auto& yb = b.load.sbs_data(n);
    ASSERT_EQ(ya.size(), yb.size());
    for (std::size_t j = 0; j < ya.size(); ++j) {
      ASSERT_EQ(bits(ya[j]), bits(yb[j])) << "sbs " << n << " y[" << j << "]";
    }
  }
}

core::PrimalDualOptions solver_options(std::size_t shard_count) {
  core::PrimalDualOptions options;
  options.max_iterations = 12;
  options.shard_count = shard_count;
  return options;
}

/// Saves/restores an environment variable around a test body.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* value = std::getenv(name)) {
      saved_ = value;
      had_value_ = true;
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }
  void unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

// ---- Wire format ----------------------------------------------------------

TEST(ShardWire, FrameRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(shard::send_frame(fds[0], shard::MessageType::kIterate,
                                payload));
  shard::MessageType type;
  std::vector<std::uint8_t> received;
  ASSERT_TRUE(shard::recv_frame(fds[1], &type, &received));
  EXPECT_EQ(type, shard::MessageType::kIterate);
  EXPECT_EQ(received, payload);

  // Empty payloads frame fine too (kShutdown has no body).
  ASSERT_TRUE(shard::send_frame(fds[0], shard::MessageType::kShutdown, {}));
  ASSERT_TRUE(shard::recv_frame(fds[1], &type, &received));
  EXPECT_EQ(type, shard::MessageType::kShutdown);
  EXPECT_TRUE(received.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

/// Captures the raw bytes of one encoded frame.
std::vector<std::uint8_t> raw_frame(const std::vector<std::uint8_t>& payload) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(shard::send_frame(fds[0], shard::MessageType::kBegin, payload));
  constexpr std::size_t kHeader = 8 + 4 + 8 + 8;
  std::vector<std::uint8_t> raw(kHeader + payload.size());
  std::size_t got = 0;
  while (got < raw.size()) {
    const ssize_t n = ::recv(fds[1], raw.data() + got, raw.size() - got, 0);
    EXPECT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  ::close(fds[1]);
  return raw;
}

void expect_frame_rejected(const std::vector<std::uint8_t>& raw) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[0], raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  ::close(fds[0]);  // EOF after the bytes: any retry reads fail cleanly
  shard::MessageType type;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(shard::recv_frame(fds[1], &type, &payload));
  ::close(fds[1]);
}

TEST(ShardWire, CorruptionIsRejected) {
  const std::vector<std::uint8_t> payload = {10, 20, 30, 40, 50};
  const std::vector<std::uint8_t> clean = raw_frame(payload);

  // Sanity: the untouched bytes decode.
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::send(fds[0], clean.data(), clean.size(), 0),
              static_cast<ssize_t>(clean.size()));
    shard::MessageType type;
    std::vector<std::uint8_t> body;
    EXPECT_TRUE(shard::recv_frame(fds[1], &type, &body));
    EXPECT_EQ(body, payload);
    ::close(fds[0]);
    ::close(fds[1]);
  }

  auto flipped = [&](std::size_t index) {
    std::vector<std::uint8_t> bad = clean;
    bad[index] ^= 0x01;
    return bad;
  };
  expect_frame_rejected(flipped(0));                  // magic
  expect_frame_rejected(flipped(9));                  // type (-> 257)
  expect_frame_rejected(flipped(20));                 // checksum
  expect_frame_rejected(flipped(clean.size() - 1));   // payload byte

  // Truncation (peer died mid-frame) reads as failure, not garbage.
  std::vector<std::uint8_t> truncated(clean.begin(),
                                      clean.begin() + clean.size() / 2);
  expect_frame_rejected(truncated);
}

// ---- Shard-count resolution ------------------------------------------------

TEST(ShardCoordinator, ResolvedShardCount) {
  ScopedEnv env("MDO_SHARDS");
  env.unset();
  EXPECT_EQ(shard::resolved_shard_count(shard::kShardsInProcess, 8), 0u);
  EXPECT_EQ(shard::resolved_shard_count(0, 8), 0u);
  EXPECT_EQ(shard::resolved_shard_count(3, 8), 3u);
  EXPECT_EQ(shard::resolved_shard_count(10, 4), 4u);  // clamped to num_sbs

  env.set("2");
  EXPECT_EQ(shard::resolved_shard_count(0, 8), 2u);
  // The env var only fills in an unset option; explicit values win, and the
  // in-process sentinel ignores it entirely.
  EXPECT_EQ(shard::resolved_shard_count(5, 8), 5u);
  EXPECT_EQ(shard::resolved_shard_count(shard::kShardsInProcess, 8), 0u);

  env.set("not-a-number");
  EXPECT_EQ(shard::resolved_shard_count(0, 8), 0u);
  env.set("12x");
  EXPECT_EQ(shard::resolved_shard_count(0, 8), 0u);
}

// ---- Sparse demand binary codecs -------------------------------------------

TEST(SparseDemandIo, WriterReaderRoundTrip) {
  const auto instance = shard_instance(/*sparse=*/true, 4, 6);
  util::BinaryWriter w;
  model::write_sparse_trace(w, instance.sparse_demand);
  util::BinaryReader r(w.bytes());
  const model::SparseDemandTrace loaded = model::read_sparse_trace(r);
  EXPECT_TRUE(loaded == instance.sparse_demand);
  EXPECT_TRUE(r.exhausted());
}

TEST(SparseDemandIo, SingleSbsRoundTrip) {
  const auto instance = shard_instance(/*sparse=*/true, 2, 2);
  const model::SparseSbsDemand& block = instance.sparse_demand.slot(0)[1];
  util::BinaryWriter w;
  model::write_sparse_demand(w, block);
  util::BinaryReader r(w.bytes());
  EXPECT_TRUE(model::read_sparse_demand(r) == block);
}

TEST(SparseDemandIo, FileRoundTripAndCorruption) {
  const auto instance = shard_instance(/*sparse=*/true, 3, 5);
  const std::string path =
      ::testing::TempDir() + "/mdo_sparse_trace_roundtrip.bin";
  model::save_sparse_trace(path, instance.sparse_demand);
  EXPECT_TRUE(model::load_sparse_trace(path) == instance.sparse_demand);

  // Flip one payload byte: the checksum must catch it.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() - 3] ^= 0x10;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW(model::load_sparse_trace(path), InvalidArgument);
  std::remove(path.c_str());
}

// ---- Bitwise equality across shard counts ----------------------------------

void expect_shard_counts_bitwise_equal(bool sparse) {
  const auto instance = shard_instance(sparse);
  const auto problem = as_problem(instance);
  core::PrimalDualSolver reference(solver_options(shard::kShardsInProcess));
  const auto in_process = reference.solve(problem);
  ASSERT_NE(in_process.status, solver::SolveStatus::kWorkerFailure);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   instance.config.num_sbs()}) {
    core::PrimalDualSolver solver(solver_options(shards));
    const auto sharded = solver.solve(problem);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_bitwise_equal(sharded, in_process);
  }
}

TEST(ShardSolve, DenseBitwiseEqualAcrossShardCounts) {
  MDO_SKIP_IF_TSAN();
  expect_shard_counts_bitwise_equal(/*sparse=*/false);
}

TEST(ShardSolve, SparseBitwiseEqualAcrossShardCounts) {
  MDO_SKIP_IF_TSAN();
  expect_shard_counts_bitwise_equal(/*sparse=*/true);
}

// ---- The three exits of the dual-ascent loop -------------------------------
//
// Every backend runs the same loop, which applies the projected step
// lazily: a step still pending when the loop stops is applied on the way
// out. A deadline exit after L iterations and an iteration-cap exit at L
// must therefore leave the same multipliers, and a backend that dropped
// the pending step on one exit would differ here.

/// Shard counts every loop-exit test covers: in process, one worker, two
/// workers. Worker subprocesses are left out under ThreadSanitizer.
std::vector<std::size_t> loop_shard_counts() {
#ifdef MDO_SHARD_TESTS_TSAN
  return {shard::kShardsInProcess};
#else
  return {shard::kShardsInProcess, std::size_t{1}, std::size_t{2}};
#endif
}

/// Options whose gap exit cannot fire (no reachable gap is below
/// epsilon), so the loop ends on the iteration cap or on the deadline.
core::PrimalDualOptions exit_options(std::size_t shard_count,
                                     std::size_t max_iterations) {
  core::PrimalDualOptions options = solver_options(shard_count);
  options.max_iterations = max_iterations;
  options.epsilon = 1e-16;
  return options;
}

/// Solves with a deadline that expires after `iterations` dual iterations
/// and an iteration cap far above that.
core::HorizonSolution deadline_stopped(const core::HorizonProblem& problem,
                                       std::size_t shard_count,
                                       std::size_t iterations) {
  auto token = runtime::DeadlineToken::after_checks(iterations - 1);
  return core::PrimalDualSolver(exit_options(shard_count, 100))
      .solve(problem, nullptr, &token);
}

TEST(ShardSolve, DeadlineExitMatchesIterationCapBitwise) {
  MDO_SKIP_IF_TSAN();
  constexpr std::size_t kIterations = 5;
  const auto instance = shard_instance(/*sparse=*/true);
  const auto problem = as_problem(instance);
  for (const std::size_t shards : loop_shard_counts()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto capped =
        core::PrimalDualSolver(exit_options(shards, kIterations))
            .solve(problem);
    ASSERT_EQ(capped.status, solver::SolveStatus::kIterationLimit);
    auto stopped = deadline_stopped(problem, shards, kIterations);
    ASSERT_EQ(stopped.status, solver::SolveStatus::kDeadlineExpired);
    EXPECT_EQ(stopped.iterations, kIterations);
    stopped.status = capped.status;  // the one field that may differ
    expect_bitwise_equal(stopped, capped);
  }
}

TEST(ShardSolve, DeadlineStoppedBitwiseEqualAcrossShardCounts) {
  MDO_SKIP_IF_TSAN();
  const auto instance = shard_instance(/*sparse=*/true);
  const auto problem = as_problem(instance);
  const auto in_process = deadline_stopped(problem, shard::kShardsInProcess, 3);
  ASSERT_EQ(in_process.status, solver::SolveStatus::kDeadlineExpired);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   instance.config.num_sbs()}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_bitwise_equal(deadline_stopped(problem, shards, 3), in_process);
  }
}

TEST(ShardSolve, GapConvergedBitwiseEqualAcrossShardCounts) {
  MDO_SKIP_IF_TSAN();
  const auto instance = shard_instance(/*sparse=*/true);
  const auto problem = as_problem(instance);
  auto options = [](std::size_t shards) {
    core::PrimalDualOptions loose = solver_options(shards);
    loose.max_iterations = 100;
    // This instance's relative gap first drops below 4% at the fifth
    // iteration, so the loop stops on the gap after four steps.
    loose.epsilon = 0.04;
    return loose;
  };
  const auto in_process =
      core::PrimalDualSolver(options(shard::kShardsInProcess)).solve(problem);
  ASSERT_EQ(in_process.status, solver::SolveStatus::kConverged);
  EXPECT_EQ(in_process.iterations, 5u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   instance.config.num_sbs()}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_bitwise_equal(core::PrimalDualSolver(options(shards)).solve(problem),
                         in_process);
  }
}

TEST(ShardSolve, DenseWindowMatchesItsSparseConversionBitwise) {
  MDO_SKIP_IF_TSAN();
  // The solver converts a dense window once at its boundary: handing it the
  // dense window or that window's from_dense conversion must give the same
  // bits — schedules, bounds, status and compact mu — at every thread and
  // shard count.
  const auto instance = shard_instance(/*sparse=*/false);
  const auto& config = instance.config;
  struct Case {
    const char* name;
    model::DemandTrace demand;
    model::CacheState cache;
  };
  std::vector<Case> cases;
  cases.push_back({"full support", instance.demand, instance.initial_cache});
  // A pre-horizon FHC plan: every slot carries zero demand. With an empty
  // cache every active set is empty; with a cached content the sets hold
  // only that content.
  model::DemandTrace zeros;
  for (std::size_t t = 0; t < 3; ++t) {
    zeros.push_back(model::make_zero_slot_demand(config));
  }
  cases.push_back({"all-zero window", zeros, model::CacheState(config)});
  model::CacheState pinned(config);
  pinned.set(1, 3, true);
  cases.push_back({"all-zero window, cached content", zeros, pinned});
  // Content 7 loses its demand at SBS 0 but stays cached there: a
  // cached-only coordinate inside otherwise full active sets.
  model::DemandTrace drained = instance.demand;
  for (std::size_t t = 0; t < drained.horizon(); ++t) {
    for (std::size_t m = 0; m < config.sbs[0].num_classes(); ++m) {
      drained.slot(t)[0].at(m, 7) = 0.0;
    }
  }
  model::CacheState cached_only(config);
  cached_only.set(0, 7, true);
  cases.push_back({"cached-only content", drained, cached_only});

  for (const Case& c : cases) {
    const model::SparseDemandTrace sparse =
        model::SparseDemandTrace::from_dense(c.demand);
    core::HorizonProblem dense_problem;
    dense_problem.config = &config;
    dense_problem.demand = &c.demand;
    dense_problem.initial_cache = c.cache;
    core::HorizonProblem sparse_problem = dense_problem;
    sparse_problem.demand = nullptr;
    sparse_problem.sparse_demand = &sparse;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t shards :
           {shard::kShardsInProcess, std::size_t{2}}) {
        SCOPED_TRACE(std::string(c.name) + " threads=" +
                     std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        util::ThreadPool::set_global_threads(threads);
        const auto from_dense =
            core::PrimalDualSolver(solver_options(shards)).solve(dense_problem);
        const auto from_sparse =
            core::PrimalDualSolver(solver_options(shards))
                .solve(sparse_problem);
        EXPECT_NE(from_dense.status, solver::SolveStatus::kWorkerFailure);
        expect_bitwise_equal(from_dense, from_sparse);
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

/// Regression: a truncated-catalogue warm-start blob (shipped until
/// MDOSHRD5) was only tens of bytes yet stored num_contents as a scalar
/// field. The reader used to bound every size() against the payload
/// length, so any catalogue larger than the blob itself was rejected as
/// corrupt, every sharded solve fell back to kWorkerFailure, and only
/// small-K tests could pass. The shape stays as a guard: a catalogue far
/// larger than the per-cell payloads.
TEST(ShardSolve, CatalogueLargerThanWarmBlobBitwiseEqual) {
  MDO_SKIP_IF_TSAN();
  workload::PaperScenario scenario;
  scenario.num_sbs = 6;
  scenario.num_contents = 300;  // far above any compact blob's byte count
  scenario.classes_per_sbs = 2;
  scenario.horizon = 4;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 4.0;
  scenario.beta = 2.0;
  scenario.seed = 11;
  scenario.workload.min_rate = 0.05;  // aggressive truncation: tiny blobs
  const auto instance = scenario.build_sparse();
  const auto problem = as_problem(instance);
  const auto in_process =
      core::PrimalDualSolver(solver_options(shard::kShardsInProcess))
          .solve(problem);
  ASSERT_NE(in_process.status, solver::SolveStatus::kWorkerFailure);
  core::PrimalDualSolver sharded(solver_options(2));
  const auto solution = sharded.solve(problem);
  ASSERT_NE(solution.status, solver::SolveStatus::kWorkerFailure);
  expect_bitwise_equal(solution, in_process);
}

TEST(ShardSolve, EnvRoutingMatchesInProcess) {
  MDO_SKIP_IF_TSAN();
  const auto instance = shard_instance(/*sparse=*/false);
  const auto problem = as_problem(instance);
  const auto in_process =
      core::PrimalDualSolver(solver_options(shard::kShardsInProcess))
          .solve(problem);
  ScopedEnv env("MDO_SHARDS");
  env.set("2");
  core::PrimalDualSolver solver(solver_options(/*shard_count=*/0));
  expect_bitwise_equal(solver.solve(problem), in_process);
}

/// A solve depends only on its problem (and the warm mu, null here), not
/// on what the same solver solved before: one solver fed a sequence of
/// windows — slide by 1, jump past the last horizon, shrink, grow — must
/// give exactly a fresh solver's answer on every window. Each window plans
/// from the previous plan's first cache, as RHC does, so the active sets
/// move too. At omega_sbs_factor > 0 every P2 runs FISTA, which reads the
/// warm y; at 0 the exact path ignores it.
TEST(ShardSolve, SolvesDoNotDependOnSolverHistory) {
  MDO_SKIP_IF_TSAN();
  for (const double omega_sbs_factor : {0.0, 0.3}) {
    workload::PaperScenario scenario;
    scenario.num_sbs = 4;
    scenario.num_contents = 8;
    scenario.classes_per_sbs = 3;
    scenario.horizon = 8;
    scenario.cache_capacity = 2;
    scenario.bandwidth = 4.0;
    scenario.beta = 2.0;
    scenario.seed = 11;
    scenario.omega_sbs_factor = omega_sbs_factor;
    scenario.workload.min_rate = 0.05;
    const auto instance = scenario.build_sparse();
    for (const std::size_t shards :
         {shard::kShardsInProcess, std::size_t{2}}) {
      core::PrimalDualSolver reused(solver_options(shards));
      model::CacheState start = instance.initial_cache;
      const std::pair<std::size_t, std::size_t> windows[] = {
          {0, 3}, {1, 3}, {5, 3}, {6, 2}, {2, 4}, {3, 4}};
      for (const auto& [first, length] : windows) {
        model::SparseDemandTrace window;
        for (std::size_t t = first; t < first + length; ++t) {
          window.push_back(instance.sparse_demand.slot(t));
        }
        core::HorizonProblem problem;
        problem.config = &instance.config;
        problem.sparse_demand = &window;
        problem.initial_cache = start;
        const auto got = reused.solve(problem);
        const auto want =
            core::PrimalDualSolver(solver_options(shards)).solve(problem);
        SCOPED_TRACE("omega_sbs_factor " + std::to_string(omega_sbs_factor) +
                     (shards == shard::kShardsInProcess ? " in process"
                                                        : " 2 shards") +
                     " window [" + std::to_string(first) + ", " +
                     std::to_string(first + length) + ")");
        ASSERT_NE(got.status, solver::SolveStatus::kWorkerFailure);
        expect_bitwise_equal(got, want);
        start = got.schedule.front().cache;
      }
    }
  }
}

TEST(ShardSolve, ControllersBitwiseAcrossShardCounts) {
  MDO_SKIP_IF_TSAN();
  const auto instance = shard_instance(/*sparse=*/false, 5, 8);
  const workload::PerfectPredictor predictor(instance.demand);
  for (const bool chc : {false, true}) {
    std::vector<std::unique_ptr<online::Controller>> variants;
    for (const std::size_t shards :
         {shard::kShardsInProcess, std::size_t{2}}) {
      if (chc) {
        variants.push_back(std::make_unique<online::ChcController>(
            /*window=*/3, /*commit=*/2, solver_options(shards)));
      } else {
        variants.push_back(std::make_unique<online::RhcController>(
            /*window=*/3, solver_options(shards)));
      }
    }
    for (auto& controller : variants) controller->reset(instance);
    for (std::size_t t = 0; t < instance.horizon(); ++t) {
      online::DecisionContext ctx;
      ctx.slot = t;
      ctx.predictor = &predictor;
      const model::SlotDecision a = variants[0]->decide(ctx);
      const model::SlotDecision b = variants[1]->decide(ctx);
      SCOPED_TRACE((chc ? "CHC slot " : "RHC slot ") + std::to_string(t));
      expect_decisions_equal(a, b);
      variants[0]->observe(t, a);
      variants[1]->observe(t, b);
    }
  }
}

// ---- Worker death and supervised recovery ----------------------------------

TEST(ShardSolve, WorkerDeathFallsBackAndRetriesBitIdentical) {
  MDO_SKIP_IF_TSAN();
  const auto instance = shard_instance(/*sparse=*/false);
  const auto problem = as_problem(instance);
  const auto reference =
      core::PrimalDualSolver(solver_options(shard::kShardsInProcess))
          .solve(problem);

  ScopedEnv env("MDO_SHARD_KILL_AT");
  env.set("1");
  shard::rearm_kill_directive();
  core::PrimalDualSolver solver(solver_options(2));
  const auto failed = solver.solve(problem);
  EXPECT_EQ(failed.status, solver::SolveStatus::kWorkerFailure);
  EXPECT_EQ(failed.upper_bound,
            std::numeric_limits<double>::infinity());
  ASSERT_EQ(failed.schedule.size(), problem.horizon());
  for (const auto& slot : failed.schedule) {
    EXPECT_EQ(slot.cache, problem.initial_cache);  // safe carry-over
  }

  // The directive fired once; the same solver's next solve respawns the
  // fleet and lands the original result.
  const auto retried = solver.solve(problem);
  expect_bitwise_equal(retried, reference);
}

/// A same-window replan from a moved start cache remaps its warm mu by the
/// previous solve's active sets. A worker death in that replan must leave
/// those sets in place, so the retry remaps exactly like the lost solve.
TEST(ShardSolve, WorkerDeathInRemappedWarmReplanRetriesBitIdentical) {
  MDO_SKIP_IF_TSAN();
  workload::PaperScenario scenario;
  scenario.num_sbs = 4;
  scenario.num_contents = 40;
  scenario.classes_per_sbs = 2;
  scenario.horizon = 4;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 4.0;
  scenario.beta = 2.0;
  scenario.seed = 11;
  scenario.workload.min_rate = 0.05;
  const auto instance = scenario.build_sparse();
  const auto first = as_problem(instance);
  core::PrimalDualSolver in_process(solver_options(shard::kShardsInProcess));
  const auto planned = in_process.solve(first);
  // Cache the catalogue's tail, which the truncated demand leaves out of
  // the support, so the replan's active sets grow.
  core::HorizonProblem replan = first;
  replan.initial_cache = model::CacheState(instance.config);
  const std::size_t k_count = instance.config.num_contents;
  for (std::size_t n = 0; n < instance.config.num_sbs(); ++n) {
    replan.initial_cache.set(n, k_count - 1, true);
    replan.initial_cache.set(n, k_count - 2, true);
  }
  ASSERT_NE(core::build_active_sets(instance.config, instance.sparse_demand,
                                    replan.initial_cache)
                .active,
            core::build_active_sets(instance.config, instance.sparse_demand,
                                    first.initial_cache)
                .active);
  const auto reference = in_process.solve(replan, &planned.mu);

  core::PrimalDualSolver solver(solver_options(2));
  const auto warm = solver.solve(first);
  expect_bitwise_equal(warm, planned);
  ScopedEnv env("MDO_SHARD_KILL_AT");
  env.set("0");
  shard::rearm_kill_directive();
  const auto failed = solver.solve(replan, &warm.mu);
  EXPECT_EQ(failed.status, solver::SolveStatus::kWorkerFailure);
  const auto retried = solver.solve(replan, &warm.mu);
  expect_bitwise_equal(retried, reference);
}

TEST(ShardSupervision, SupervisedSolveRecoversFromWorkerDeath) {
  MDO_SKIP_IF_TSAN();
  const auto instance = shard_instance(/*sparse=*/true);
  const auto problem = as_problem(instance);
  const auto reference =
      core::PrimalDualSolver(solver_options(shard::kShardsInProcess))
          .solve(problem);

  ScopedEnv env("MDO_SHARD_KILL_AT");
  env.set("0");
  shard::rearm_kill_directive();
  core::PrimalDualSolver solver(solver_options(2));
  runtime::SupervisionLog log;
  const auto solution = runtime::supervised_solve(
      solver, problem, nullptr, nullptr, &log, /*slot=*/3,
      /*min_horizon=*/1);
  expect_bitwise_equal(solution, reference);

  // Typed event stream: one failure, one retry, one recovery — and the
  // retry ran the FULL horizon (worker failures never truncate).
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].kind, runtime::SupervisionEventKind::kSolveFailure);
  EXPECT_EQ(log.events[0].status, solver::SolveStatus::kWorkerFailure);
  EXPECT_EQ(log.events[1].kind, runtime::SupervisionEventKind::kRetry);
  EXPECT_EQ(log.events[1].attempt, 1u);
  EXPECT_EQ(log.events[1].horizon, problem.horizon());
  EXPECT_EQ(log.events[2].kind, runtime::SupervisionEventKind::kRecovered);
  EXPECT_EQ(log.events[2].slot, 3u);
  EXPECT_EQ(log.solve_failures, 1u);
  EXPECT_EQ(log.retries, 1u);
  EXPECT_EQ(log.recoveries, 1u);
}

}  // namespace
}  // namespace mdo
