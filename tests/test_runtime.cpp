// Tests for the runtime supervision subsystem: deadline tokens, anytime
// solver semantics, the supervised retry-with-backoff escalation, and the
// crash-consistent checkpoint file layer (framing, checksums, atomic
// replacement).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/primal_dual.hpp"
#include "model/feasibility.hpp"
#include "overlap/primal_dual.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/deadline.hpp"
#include "runtime/supervisor.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "workload/scenario.hpp"

namespace mdo {
namespace {

model::ProblemInstance small_instance(std::uint64_t seed = 3,
                                      std::size_t horizon = 4) {
  workload::PaperScenario scenario;
  scenario.seed = seed;
  scenario.num_contents = 6;
  scenario.classes_per_sbs = 3;
  scenario.horizon = horizon;
  scenario.cache_capacity = 2;
  scenario.bandwidth = 3.0;
  scenario.beta = 2.0;
  return scenario.build();
}

core::HorizonProblem as_problem(const model::ProblemInstance& instance) {
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.demand = &instance.demand;
  problem.initial_cache = instance.initial_cache;
  return problem;
}

/// Options that cannot converge within the iteration cap: every solve runs
/// the full dual loop, so a logical deadline always fires predictably.
core::PrimalDualOptions tight_options(std::size_t max_iterations = 12) {
  core::PrimalDualOptions options;
  options.max_iterations = max_iterations;
  // Unreachable for subgradient ascent on instances whose cache-coupling
  // constraint binds (the solver requires epsilon > 0): every solve runs
  // the full dual loop, never stopping on the gap.
  options.epsilon = 1e-16;
  return options;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// ---- DeadlineToken -------------------------------------------------------

TEST(DeadlineToken, UnlimitedNeverExpires) {
  runtime::DeadlineToken token;
  EXPECT_FALSE(token.active());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.expired());
}

TEST(DeadlineToken, ChecksBudgetAdmitsExactlyThatManyPolls) {
  auto token = runtime::DeadlineToken::after_checks(3);
  EXPECT_TRUE(token.active());
  EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.expired());  // budget spent but not yet reported
  EXPECT_TRUE(token.poll());
  EXPECT_TRUE(token.expired());
  EXPECT_TRUE(token.poll());  // sticky
}

TEST(DeadlineToken, ZeroChecksExpiresOnFirstPoll) {
  auto token = runtime::DeadlineToken::after_checks(0);
  EXPECT_TRUE(token.poll());
  EXPECT_TRUE(token.expired());
}

TEST(DeadlineToken, NonPositiveSecondsExpireImmediately) {
  auto token = runtime::DeadlineToken::after_seconds(0.0);
  EXPECT_TRUE(token.active());
  EXPECT_TRUE(token.poll());
  auto negative = runtime::DeadlineToken::after_seconds(-1.0);
  EXPECT_TRUE(negative.poll());
}

TEST(DeadlineToken, GenerousWallClockDoesNotExpire) {
  auto token = runtime::DeadlineToken::after_seconds(3600.0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.expired());
}

TEST(DeadlineToken, ExpiredIsNonConsuming) {
  auto token = runtime::DeadlineToken::after_checks(1);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.poll());  // the one budgeted poll still passes
}

// ---- Anytime solver semantics -------------------------------------------

TEST(AnytimeSolve, DeadlineExpiryReturnsFeasibleIncumbent) {
  const auto instance = small_instance(7);
  const auto problem = as_problem(instance);
  core::PrimalDualSolver solver(tight_options());
  auto token = runtime::DeadlineToken::after_checks(0);
  const auto solution = solver.solve(problem, nullptr, &token);
  EXPECT_EQ(solution.status, solver::SolveStatus::kDeadlineExpired);
  EXPECT_EQ(solution.iterations, 1u);  // one full iteration before expiry
  EXPECT_TRUE(std::isfinite(solution.upper_bound));
  ASSERT_EQ(solution.schedule.size(), instance.horizon());
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    EXPECT_TRUE(model::is_feasible(instance.config, instance.demand.slot(t),
                                   solution.schedule[t], 1e-5))
        << "slot " << t;
  }
}

TEST(AnytimeSolve, ChecksBudgetBoundsIterations) {
  const auto instance = small_instance(8);
  const auto problem = as_problem(instance);
  for (const std::uint64_t checks : {0ULL, 1ULL, 3ULL}) {
    core::PrimalDualSolver solver(tight_options());
    auto token = runtime::DeadlineToken::after_checks(checks);
    const auto solution = solver.solve(problem, nullptr, &token);
    EXPECT_EQ(solution.status, solver::SolveStatus::kDeadlineExpired);
    EXPECT_EQ(solution.iterations, checks + 1);
  }
}

TEST(AnytimeSolve, IncumbentNoBetterThanFullSolve) {
  const auto instance = small_instance(9);
  const auto problem = as_problem(instance);
  core::PrimalDualSolver full(tight_options());
  const auto complete = full.solve(problem);
  core::PrimalDualSolver limited(tight_options());
  auto token = runtime::DeadlineToken::after_checks(0);
  const auto truncated = limited.solve(problem, nullptr, &token);
  // The incumbent is the best-so-far: more iterations can only improve it.
  EXPECT_GE(truncated.upper_bound, complete.upper_bound - 1e-12);
}

TEST(AnytimeSolve, NullAndUnlimitedTokensAreBitIdentical) {
  const auto instance = small_instance(10);
  const auto problem = as_problem(instance);
  core::PrimalDualSolver plain(tight_options());
  const auto baseline = plain.solve(problem);
  core::PrimalDualSolver tokened(tight_options());
  runtime::DeadlineToken unlimited;
  const auto with_token = tokened.solve(problem, nullptr, &unlimited);
  EXPECT_EQ(baseline.status, with_token.status);
  EXPECT_EQ(baseline.iterations, with_token.iterations);
  EXPECT_EQ(baseline.upper_bound, with_token.upper_bound);
  EXPECT_EQ(baseline.lower_bound, with_token.lower_bound);
  EXPECT_EQ(baseline.mu, with_token.mu);
}

/// The overlap suite's small cell: two SBSs; class 0 reaches both,
/// classes 1/2 reach one each.
overlap::OverlapConfig small_overlap_config() {
  overlap::OverlapConfig config;
  config.num_contents = 3;
  config.sbs = {
      overlap::SbsParams{.cache_capacity = 1, .bandwidth = 2.0,
                         .replacement_beta = 1.0},
      overlap::SbsParams{.cache_capacity = 1, .bandwidth = 1.5,
                         .replacement_beta = 2.0}};
  config.classes = {
      overlap::OverlapMuClass{.omega_bs = 1.0, .neighbors = {0, 1},
                              .omega_sbs = {0.0, 0.0}},
      overlap::OverlapMuClass{.omega_bs = 0.7, .neighbors = {0},
                              .omega_sbs = {0.0}},
      overlap::OverlapMuClass{.omega_bs = 0.4, .neighbors = {1},
                              .omega_sbs = {0.0}},
  };
  return config;
}

/// A three-slot window on the small cell. Holds the config and layout the
/// problem points to, so it is neither copied nor moved.
struct OverlapWindow {
  overlap::OverlapConfig config = small_overlap_config();
  overlap::OverlapLayout layout{config};
  overlap::OverlapHorizonProblem problem;

  OverlapWindow() {
    problem.config = &config;
    problem.layout = &layout;
    Rng rng(11);
    for (std::size_t t = 0; t < 3; ++t) {
      overlap::ClassDemand demand(config.num_classes(), config.num_contents);
      for (auto& v : demand.data()) v = rng.uniform(0.0, 2.0);
      problem.demand.push_back(std::move(demand));
    }
    problem.initial = overlap::empty_cache(config);
  }
  OverlapWindow(const OverlapWindow&) = delete;
  OverlapWindow& operator=(const OverlapWindow&) = delete;
};

overlap::OverlapPrimalDualOptions overlap_tight_options(
    std::size_t max_iterations) {
  overlap::OverlapPrimalDualOptions options;
  options.max_iterations = max_iterations;
  options.epsilon = 1e-16;  // unreachable; see tight_options()
  return options;
}

TEST(AnytimeSolve, OverlapSolverHonorsDeadline) {
  const OverlapWindow window;
  overlap::OverlapPrimalDualSolver solver(overlap_tight_options(12));
  auto token = runtime::DeadlineToken::after_checks(1);
  const auto solution = solver.solve(window.problem, nullptr, &token);
  EXPECT_EQ(solution.status, solver::SolveStatus::kDeadlineExpired);
  EXPECT_EQ(solution.iterations, 2u);
  EXPECT_TRUE(std::isfinite(solution.upper_bound));
}

TEST(AnytimeSolve, OverlapDeadlineExitMatchesIterationCapBitwise) {
  // The loop applies a step still pending when it stops, on every exit:
  // stopping on the deadline after L iterations leaves the same bits as
  // stopping on a cap of L.
  constexpr std::size_t kIterations = 5;
  const OverlapWindow window;
  const auto capped = overlap::OverlapPrimalDualSolver(
                          overlap_tight_options(kIterations))
                          .solve(window.problem);
  ASSERT_EQ(capped.status, solver::SolveStatus::kIterationLimit);
  auto token = runtime::DeadlineToken::after_checks(kIterations - 1);
  const auto stopped = overlap::OverlapPrimalDualSolver(
                           overlap_tight_options(100))
                           .solve(window.problem, nullptr, &token);
  ASSERT_EQ(stopped.status, solver::SolveStatus::kDeadlineExpired);
  EXPECT_EQ(stopped.iterations, capped.iterations);
  EXPECT_EQ(bits(stopped.upper_bound), bits(capped.upper_bound));
  EXPECT_EQ(bits(stopped.lower_bound), bits(capped.lower_bound));
  ASSERT_EQ(stopped.mu.size(), capped.mu.size());
  for (std::size_t i = 0; i < capped.mu.size(); ++i) {
    EXPECT_EQ(bits(stopped.mu[i]), bits(capped.mu[i])) << "mu[" << i << "]";
  }
  ASSERT_EQ(stopped.schedule.size(), capped.schedule.size());
  for (std::size_t t = 0; t < capped.schedule.size(); ++t) {
    EXPECT_EQ(stopped.schedule[t].cache, capped.schedule[t].cache);
    ASSERT_EQ(stopped.schedule[t].y.size(), capped.schedule[t].y.size());
    for (std::size_t j = 0; j < capped.schedule[t].y.size(); ++j) {
      EXPECT_EQ(bits(stopped.schedule[t].y[j]), bits(capped.schedule[t].y[j]))
          << "slot " << t << " y[" << j << "]";
    }
  }
}

// ---- Supervised escalation ----------------------------------------------

TEST(Supervisor, CleanSolveEmitsNoEvents) {
  const auto instance = small_instance(12);
  const auto problem = as_problem(instance);
  core::PrimalDualSolver supervised(tight_options());
  runtime::SupervisionLog log;
  const auto a = runtime::supervised_solve(supervised, problem, nullptr,
                                           nullptr, &log, /*slot=*/0,
                                           /*min_horizon=*/1);
  EXPECT_TRUE(log.events.empty());
  core::PrimalDualSolver plain(tight_options());
  const auto b = plain.solve(problem);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.mu, b.mu);
}

TEST(Supervisor, DeadlineExpiryIsLoggedNotRetried) {
  const auto instance = small_instance(13);
  const auto problem = as_problem(instance);
  core::PrimalDualSolver solver(tight_options());
  runtime::SupervisionLog log;
  auto token = runtime::DeadlineToken::after_checks(0);
  const auto solution = runtime::supervised_solve(
      solver, problem, nullptr, &token, &log, /*slot=*/4,
      /*min_horizon=*/1);
  EXPECT_EQ(solution.status, solver::SolveStatus::kDeadlineExpired);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].kind, runtime::SupervisionEventKind::kDeadlineExpired);
  EXPECT_EQ(log.events[0].slot, 4u);
  EXPECT_EQ(log.events[0].attempt, 0u);
  EXPECT_EQ(log.deadline_expirations, 1u);
  EXPECT_EQ(log.retries, 0u);  // anytime is the mitigation — no retry
}

/// Poisons the tail slot of the window with NaN demand: the primary solve
/// fails (kNonFiniteInput) but a halved-horizon retry excises the poison.
/// Owns the poisoned trace the problem references (the problem only views
/// demand, so the mutated copy must live somewhere).
struct TailPoisonedProblem {
  model::DemandTrace demand;
  core::HorizonProblem problem;
  explicit TailPoisonedProblem(const model::ProblemInstance& instance) {
    demand = instance.demand;
    demand.slot(demand.horizon() - 1)[0].at(0, 0) =
        std::numeric_limits<double>::quiet_NaN();
    problem = as_problem(instance);
    problem.demand = &demand;
  }
};

TEST(Supervisor, TruncatedRetryRecoversFromPoisonedTail) {
  const auto instance = small_instance(14);
  const TailPoisonedProblem owned(instance);
  const auto& problem = owned.problem;
  core::PrimalDualSolver solver(tight_options());
  runtime::SupervisionLog log;
  const auto solution = runtime::supervised_solve(
      solver, problem, nullptr, nullptr, &log, /*slot=*/0,
      /*min_horizon=*/1);
  // Horizon 4, halved to 2 on attempt 1: the NaN tail slot is gone.
  EXPECT_NE(solution.status, solver::SolveStatus::kNonFiniteInput);
  EXPECT_TRUE(std::isfinite(solution.upper_bound));
  EXPECT_EQ(solution.schedule.size(), 2u);
  ASSERT_GE(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].kind, runtime::SupervisionEventKind::kSolveFailure);
  EXPECT_EQ(log.events[1].kind, runtime::SupervisionEventKind::kRetry);
  EXPECT_EQ(log.events[1].attempt, 1u);
  EXPECT_EQ(log.events[1].horizon, 2u);
  EXPECT_EQ(log.events.back().kind,
            runtime::SupervisionEventKind::kRecovered);
  EXPECT_EQ(log.solve_failures, 1u);
  EXPECT_EQ(log.recoveries, 1u);
}

TEST(Supervisor, ExhaustionReturnsSafeFallback) {
  const auto instance = small_instance(15);
  // Poison the FIRST slot: no truncation can excise it.
  model::DemandTrace demand = instance.demand;
  demand.slot(0)[0].at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  core::HorizonProblem problem = as_problem(instance);
  problem.demand = &demand;
  core::PrimalDualSolver solver(tight_options());
  runtime::SupervisionLog log;
  const auto solution = runtime::supervised_solve(
      solver, problem, nullptr, nullptr, &log, /*slot=*/0,
      /*min_horizon=*/1);
  EXPECT_EQ(solution.status, solver::SolveStatus::kNonFiniteInput);
  EXPECT_EQ(solution.schedule.size(), instance.horizon());
  // The retry ladder: two retries, the horizon halving 4 -> 2 -> 1.
  ASSERT_EQ(log.events.size(), 4u);
  EXPECT_EQ(log.events[0].kind, runtime::SupervisionEventKind::kSolveFailure);
  EXPECT_EQ(log.events[1].kind, runtime::SupervisionEventKind::kRetry);
  EXPECT_EQ(log.events[1].attempt, 1u);
  EXPECT_EQ(log.events[1].horizon, 2u);
  EXPECT_EQ(log.events[2].kind, runtime::SupervisionEventKind::kRetry);
  EXPECT_EQ(log.events[2].attempt, 2u);
  EXPECT_EQ(log.events[2].horizon, 1u);
  EXPECT_EQ(log.retries, 2u);
  EXPECT_EQ(log.events.back().kind,
            runtime::SupervisionEventKind::kExhausted);
  EXPECT_EQ(log.events.back().attempt, 2u);
  EXPECT_EQ(log.recoveries, 0u);
}

TEST(Supervisor, ExhaustionReportsLastAttemptRun) {
  const auto instance = small_instance(15);
  model::DemandTrace demand = instance.demand;
  demand.slot(0)[0].at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  core::HorizonProblem problem = as_problem(instance);
  problem.demand = &demand;
  core::PrimalDualSolver solver(tight_options());
  runtime::SupervisionLog log;
  const auto solution = runtime::supervised_solve(
      solver, problem, nullptr, nullptr, &log, /*slot=*/0,
      /*min_horizon=*/2);
  // Horizon 4 halves to the floor 2 on attempt 1; attempt 2 would solve
  // the same 2-slot prefix again, so the ladder stops after one retry.
  EXPECT_EQ(solution.status, solver::SolveStatus::kNonFiniteInput);
  EXPECT_EQ(log.retries, 1u);
  EXPECT_EQ(log.events.back().kind,
            runtime::SupervisionEventKind::kExhausted);
  EXPECT_EQ(log.events.back().attempt, 1u);
  EXPECT_EQ(log.events.back().horizon, 2u);
}

TEST(Supervisor, MinHorizonFloorsTruncation) {
  const auto instance = small_instance(16);
  const TailPoisonedProblem owned(instance);
  const auto& problem = owned.problem;
  core::PrimalDualSolver solver(tight_options());
  runtime::SupervisionLog log;
  const auto solution = runtime::supervised_solve(
      solver, problem, nullptr, nullptr, &log, /*slot=*/0,
      /*min_horizon=*/3);
  // Horizon 4 halves to 2 < floor 3, so the retry solves exactly 3 slots —
  // which excises the poisoned slot 3 and recovers.
  for (const auto& event : log.events) {
    if (event.kind == runtime::SupervisionEventKind::kRetry) {
      EXPECT_GE(event.horizon, 3u);
    }
  }
  EXPECT_EQ(solution.schedule.size(), 3u);
  EXPECT_TRUE(std::isfinite(solution.upper_bound));
}

TEST(Supervisor, NullLogDisablesRetries) {
  const auto instance = small_instance(17);
  const TailPoisonedProblem owned(instance);
  const auto& problem = owned.problem;
  core::PrimalDualSolver supervised(tight_options());
  const auto a = runtime::supervised_solve(supervised, problem, nullptr,
                                           nullptr, nullptr, /*slot=*/0,
                                           /*min_horizon=*/1);
  // Without a log the call is exactly one plain solve: same fallback.
  core::PrimalDualSolver plain(tight_options());
  const auto b = plain.solve(problem);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.status, solver::SolveStatus::kNonFiniteInput);
  EXPECT_EQ(a.schedule.size(), b.schedule.size());
}

// ---- Checksum ------------------------------------------------------------

TEST(Checksum, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(util::fnv1a64(nullptr, 0), util::kFnvOffsetBasis);
}

TEST(Checksum, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> bytes(128, 0xAB);
  const std::uint64_t clean = util::fnv1a64(bytes);
  bytes[57] ^= 0x01;
  EXPECT_NE(util::fnv1a64(bytes), clean);
}

TEST(Checksum, StableAcrossCalls) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  EXPECT_EQ(util::fnv1a64(bytes), util::fnv1a64(bytes));
}

// ---- Atomic file replacement --------------------------------------------

TEST(AtomicFile, RoundTripsBytes) {
  const std::string path = temp_path("atomic_roundtrip.bin");
  const std::vector<std::uint8_t> bytes = {0, 255, 7, 42, 0, 1};
  util::write_file_atomic(path, bytes);
  EXPECT_EQ(util::read_file_bytes(path), bytes);
  std::remove(path.c_str());
}

TEST(AtomicFile, ReplacesExistingFileAndLeavesNoTemp) {
  const std::string path = temp_path("atomic_replace.bin");
  util::write_file_atomic(path, {1, 2, 3});
  util::write_file_atomic(path, {9, 9});
  EXPECT_EQ(util::read_file_bytes(path), (std::vector<std::uint8_t>{9, 9}));
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

// ---- Checkpoint file framing --------------------------------------------

TEST(CheckpointFile, RoundTripsPayload) {
  const std::string path = temp_path("ckpt_roundtrip.ckpt");
  util::BinaryWriter w;
  w.str("hello");
  w.f64(3.14159);
  w.size_vec({1, 2, 3});
  const std::vector<std::uint8_t> payload = w.bytes();
  runtime::write_checkpoint_file(path, payload);
  EXPECT_EQ(runtime::read_checkpoint_file(path), payload);
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsMissingFile) {
  EXPECT_THROW(runtime::read_checkpoint_file(temp_path("no_such.ckpt")),
               InvalidArgument);
}

TEST(CheckpointFile, RejectsTruncation) {
  const std::string path = temp_path("ckpt_truncated.ckpt");
  runtime::write_checkpoint_file(path, std::vector<std::uint8_t>(64, 7));
  std::vector<std::uint8_t> bytes = util::read_file_bytes(path);
  bytes.resize(bytes.size() - 10);
  util::write_file_atomic(path, bytes);
  EXPECT_THROW(runtime::read_checkpoint_file(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsBitFlip) {
  const std::string path = temp_path("ckpt_corrupt.ckpt");
  runtime::write_checkpoint_file(path, std::vector<std::uint8_t>(64, 7));
  std::vector<std::uint8_t> bytes = util::read_file_bytes(path);
  bytes.back() ^= 0x10;  // payload corruption, size intact
  util::write_file_atomic(path, bytes);
  EXPECT_THROW(runtime::read_checkpoint_file(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsWrongMagicAndVersion) {
  const std::string path = temp_path("ckpt_magic.ckpt");
  runtime::write_checkpoint_file(path, std::vector<std::uint8_t>(16, 1));
  std::vector<std::uint8_t> bytes = util::read_file_bytes(path);
  {
    auto garbled = bytes;
    garbled[0] = 'X';
    util::write_file_atomic(path, garbled);
    EXPECT_THROW(runtime::read_checkpoint_file(path), InvalidArgument);
  }
  // The version field (u32, little-endian) follows the 8-byte magic: a
  // future version and the older ones (3, whose solver state carries the
  // P2 warm-start bank; 2, whose RHC snapshot layout predates the planner)
  // are all rejected.
  for (const std::uint8_t version :
       {std::uint8_t{0xFF}, std::uint8_t{3}, std::uint8_t{2}}) {
    auto other = bytes;
    other[8] = version;
    util::write_file_atomic(path, other);
    EXPECT_THROW(runtime::read_checkpoint_file(path), InvalidArgument)
        << "version " << int{version};
  }
  std::remove(path.c_str());
}

// ---- Serialization primitives -------------------------------------------

TEST(Serialize, RoundTripsEveryPrimitive) {
  util::BinaryWriter w;
  w.u8(200);
  w.u32(0xDEADBEEF);
  w.u64(~0ULL);
  w.i64(-12345);
  w.size(42);  // size() counts are sanity-checked against the payload length
  w.boolean(true);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.str("mdo");
  w.f64_vec(std::vector<double>{1.5, -2.5});
  w.size_vec({});
  const auto payload = w.take();

  util::BinaryReader r(payload);
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_EQ(r.i64(), -12345);
  EXPECT_EQ(r.size(), 42u);
  EXPECT_TRUE(r.boolean());
  const double negative_zero = r.f64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));  // bit-exact, not value-equal
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.str(), "mdo");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.5, -2.5}));
  EXPECT_TRUE(r.size_vec().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, ReaderThrowsOnTruncation) {
  util::BinaryWriter w;
  w.u64(7);
  auto payload = w.take();
  payload.pop_back();
  util::BinaryReader r(payload);
  EXPECT_THROW(r.u64(), InvalidArgument);
}

TEST(Serialize, ReaderRejectsOversizedDeclaredLength) {
  util::BinaryWriter w;
  w.size(1000000);  // declared vector length far beyond the payload
  const auto payload = w.take();
  util::BinaryReader r(payload);
  EXPECT_THROW(r.f64_vec(), InvalidArgument);
}

}  // namespace
}  // namespace mdo
