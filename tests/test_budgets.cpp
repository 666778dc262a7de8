// Deterministic budgets: quantities a performance change may only lower.
//
// Each ceiling below is written in the test with the state it was measured
// at. A change that lowers a quantity lowers its ceiling in the same change;
// raising one loosens the gate and needs its own declared reason.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "core/primal_dual.hpp"
#include "shard/wire.hpp"
#include "tsan_skip.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"
#include "workload/zipf.hpp"

namespace mdo {
namespace {

/// Coordinator-side bytes (frame header + payload) of one message type.
std::uint64_t wire_bytes(shard::MessageType type) {
  const auto index = static_cast<std::size_t>(type);
  return shard::wire_stats().sent[index] + shard::wire_stats().received[index];
}

// A small sparse_n64 shape: N = 8, K = 2000 truncated to the Zipf head,
// RHC windows of w = 4 over 2 shard workers, each window planned from the
// previous plan's first cache.
TEST(Budgets, ShardWireBytesPerSolve) {
  MDO_SKIP_IF_TSAN();
  constexpr std::size_t kWindow = 4;
  constexpr std::size_t kSolves = 4;
  workload::PaperScenario scenario;
  scenario.num_sbs = 8;
  scenario.num_contents = 2000;
  scenario.classes_per_sbs = 2;
  scenario.horizon = kWindow + kSolves - 1;
  scenario.seed = 7;
  scenario.workload.min_rate = workload::zipf_mandelbrot_pmf(
      scenario.num_contents, scenario.workload.zipf_alpha,
      scenario.workload.zipf_q)[scenario.num_contents / 50];
  const auto instance = scenario.build_sparse();
  const workload::PerfectPredictor predictor(instance.sparse_demand);

  core::PrimalDualOptions options;
  options.shard_count = 2;
  core::PrimalDualSolver solver(options);
  model::SparseDemandTrace window;
  core::HorizonProblem problem;
  problem.config = &instance.config;
  problem.sparse_demand = &window;
  problem.initial_cache = instance.initial_cache;
  shard::reset_wire_stats();
  for (std::size_t tau = 0; tau < kSolves; ++tau) {
    window = predictor.predict_window_sparse(tau, kWindow);
    const core::HorizonSolution solution = solver.solve(problem);
    ASSERT_NE(solution.status, solver::SolveStatus::kWorkerFailure)
        << "tau " << tau;
    problem.initial_cache = solution.schedule.front().cache;
  }
  const std::uint64_t begin =
      wire_bytes(shard::MessageType::kBegin) / kSolves;
  const std::uint64_t end_reply =
      wire_bytes(shard::MessageType::kEndReply) / kSolves;

  // Measured with the MDOSHRD5 protocol, whose kBegin and kEndReply carry
  // no P2 warm-start blobs. MDOSHRD4, which did, sent 231360 and 185864.
  constexpr std::uint64_t kBeginCeiling = 122960;
  constexpr std::uint64_t kEndReplyCeiling = 46116;
  EXPECT_LE(begin, kBeginCeiling);
  EXPECT_LE(end_reply, kEndReplyCeiling);
  RecordProperty("begin_bytes_per_solve", static_cast<int>(begin));
  RecordProperty("end_reply_bytes_per_solve", static_cast<int>(end_reply));
}

}  // namespace
}  // namespace mdo
