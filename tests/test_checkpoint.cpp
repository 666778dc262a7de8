// Crash-consistent checkpoint/resume: the kill-at-slot-t / resume matrix.
//
// For every checkpointable controller (RHC, FHC, CHC, AFHC, Robust-wrapped)
// the simulator is killed at a slot boundary, resumed from the last cadence
// checkpoint, and the completed run must be BIT-identical to an
// uninterrupted one — costs, replacement counts, and the full executed
// schedule. The suite re-runs under MDO_THREADS=4 (see tests/CMakeLists.txt),
// so the equality also proves thread-count invariance of the restored state.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "online/chc.hpp"
#include "online/baselines.hpp"
#include "online/fhc.hpp"
#include "online/rhc.hpp"
#include "online/robust_controller.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"
#include "workload/ema_predictor.hpp"
#include "workload/predictor.hpp"
#include "workload/scenario.hpp"

namespace mdo {
namespace {

model::ProblemInstance checkpoint_instance(std::uint64_t seed = 21,
                                           std::size_t horizon = 12) {
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

core::PrimalDualOptions fast_options() {
  core::PrimalDualOptions options;
  options.max_iterations = 6;
  return options;
}

/// Never converges (the gap cannot reach 1e-16 under subgradient ascent
/// when the cache-coupling constraint binds), so a checks-budget expires on
/// every slot — the supervision log fills deterministically.
core::PrimalDualOptions stubborn_options() {
  core::PrimalDualOptions options;
  options.max_iterations = 6;
  options.epsilon = 1e-16;
  return options;
}

/// A named controller factory; fresh controllers per run so no state leaks
/// between the interrupted and the reference runs.
struct ControllerCase {
  std::string label;
  std::function<std::unique_ptr<online::Controller>()> make;
};

std::vector<ControllerCase> controller_matrix() {
  std::vector<ControllerCase> cases;
  cases.push_back({"rhc", [] {
                     return std::make_unique<online::RhcController>(
                         4, fast_options());
                   }});
  cases.push_back({"fhc", [] {
                     return std::make_unique<online::FhcController>(
                         4, 2, 0, fast_options());
                   }});
  cases.push_back({"chc", [] {
                     return std::make_unique<online::ChcController>(
                         4, 2, fast_options());
                   }});
  cases.push_back(
      {"afhc", [] { return online::ChcController::afhc(3, fast_options()); }});
  return cases;
}

std::string temp_ckpt(const std::string& name) {
  return testing::TempDir() + "ckpt_" + name + ".bin";
}

void expect_results_identical(const sim::SimulationResult& a,
                              const sim::SimulationResult& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t t = 0; t < a.slots.size(); ++t) {
    EXPECT_EQ(a.slots[t].cost.bs, b.slots[t].cost.bs) << "slot " << t;
    EXPECT_EQ(a.slots[t].cost.sbs, b.slots[t].cost.sbs) << "slot " << t;
    EXPECT_EQ(a.slots[t].cost.replacement, b.slots[t].cost.replacement)
        << "slot " << t;
    EXPECT_EQ(a.slots[t].replacements, b.slots[t].replacements) << "slot " << t;
    EXPECT_EQ(a.slots[t].demand_total, b.slots[t].demand_total) << "slot " << t;
    EXPECT_EQ(a.slots[t].sbs_served, b.slots[t].sbs_served) << "slot " << t;
  }
  EXPECT_EQ(a.total.bs, b.total.bs);
  EXPECT_EQ(a.total.sbs, b.total.sbs);
  EXPECT_EQ(a.total.replacement, b.total.replacement);
  EXPECT_EQ(a.total_replacements, b.total_replacements);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t t = 0; t < a.schedule.size(); ++t) {
    EXPECT_TRUE(a.schedule[t].cache == b.schedule[t].cache) << "slot " << t;
    for (std::size_t n = 0; n < a.schedule[t].load.num_sbs(); ++n) {
      EXPECT_EQ(a.schedule[t].load.sbs_data(n), b.schedule[t].load.sbs_data(n))
          << "slot " << t << " sbs " << n;
    }
  }
}

/// Kill at `halt_slot` with checkpoints every `every` slots, resume, and
/// compare against the uninterrupted reference bit for bit.
void run_kill_resume(const ControllerCase& cc, std::size_t every,
                     std::size_t halt_slot) {
  const auto instance = checkpoint_instance();
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = temp_ckpt(cc.label + "_" + std::to_string(every) +
                                     "_" + std::to_string(halt_slot));
  std::remove(path.c_str());

  sim::SimulatorOptions reference_options;
  reference_options.record_schedule = true;
  const sim::Simulator reference_sim(instance, predictor, reference_options);
  auto reference_controller = cc.make();
  const auto reference = reference_sim.run(*reference_controller);

  sim::SimulatorOptions crash_options = reference_options;
  crash_options.checkpoint_path = path;
  crash_options.checkpoint_every = every;
  crash_options.halt_after_slot = halt_slot;
  {
    const sim::Simulator crashing(instance, predictor, crash_options);
    auto victim = cc.make();
    crashing.run(*victim);  // dies at the slot boundary, result discarded
  }

  sim::SimulatorOptions resume_options = reference_options;
  resume_options.checkpoint_path = path;
  resume_options.checkpoint_every = every;
  resume_options.resume = true;
  const sim::Simulator resuming(instance, predictor, resume_options);
  auto survivor = cc.make();
  const auto resumed = resuming.run(*survivor);

  expect_results_identical(reference, resumed);
  std::remove(path.c_str());
}

TEST(Checkpoint, KillResumeMatrixIsBitIdentical) {
  for (const auto& cc : controller_matrix()) {
    SCOPED_TRACE(cc.label);
    // Kill on a checkpoint boundary and mid-interval (replay needed).
    run_kill_resume(cc, /*every=*/3, /*halt_slot=*/5);
    run_kill_resume(cc, /*every=*/4, /*halt_slot=*/6);
  }
}

TEST(Checkpoint, RobustWrappedControllerResumes) {
  const auto instance = checkpoint_instance(22);
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = temp_ckpt("robust");
  std::remove(path.c_str());

  const auto make = [] {
    auto inner = std::make_unique<online::RhcController>(4, fast_options());
    struct Owned final : online::Controller {
      std::unique_ptr<online::RhcController> rhc;
      online::RobustController robust;
      explicit Owned(std::unique_ptr<online::RhcController> c)
          : rhc(std::move(c)), robust(*rhc) {}
      std::string name() const override { return robust.name(); }
      void reset(const model::ProblemInstance& i) override { robust.reset(i); }
      model::SlotDecision decide(const online::DecisionContext& ctx) override {
        return robust.decide(ctx);
      }
      void observe(std::size_t t, const model::SlotDecision& d) override {
        robust.observe(t, d);
      }
      bool supports_checkpoint() const override {
        return robust.supports_checkpoint();
      }
      void save_state(util::BinaryWriter& w) const override {
        robust.save_state(w);
      }
      void restore_state(util::BinaryReader& r) override {
        robust.restore_state(r);
      }
    };
    return std::make_unique<Owned>(std::move(inner));
  };

  sim::SimulatorOptions options;
  options.record_schedule = true;
  const sim::Simulator reference_sim(instance, predictor, options);
  auto reference_controller = make();
  const auto reference = reference_sim.run(*reference_controller);

  auto crash_options = options;
  crash_options.checkpoint_path = path;
  crash_options.checkpoint_every = 3;
  crash_options.halt_after_slot = 7;
  {
    const sim::Simulator crashing(instance, predictor, crash_options);
    auto victim = make();
    crashing.run(*victim);
  }
  auto resume_options = options;
  resume_options.checkpoint_path = path;
  resume_options.checkpoint_every = 3;
  resume_options.resume = true;
  const sim::Simulator resuming(instance, predictor, resume_options);
  auto survivor = make();
  const auto resumed = resuming.run(*survivor);

  expect_results_identical(reference, resumed);
  std::remove(path.c_str());
}

TEST(Checkpoint, CheckpointingItselfIsTransparent) {
  const auto instance = checkpoint_instance(23);
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = temp_ckpt("transparent");
  std::remove(path.c_str());

  sim::SimulatorOptions plain_options;
  plain_options.record_schedule = true;
  const sim::Simulator plain(instance, predictor, plain_options);
  online::RhcController a(4, fast_options());
  const auto without = plain.run(a);

  auto ckpt_options = plain_options;
  ckpt_options.checkpoint_path = path;
  ckpt_options.checkpoint_every = 2;
  const sim::Simulator checkpointing(instance, predictor, ckpt_options);
  online::RhcController b(4, fast_options());
  const auto with = checkpointing.run(b);

  expect_results_identical(without, with);
  std::remove(path.c_str());
}

TEST(Checkpoint, EmaPredictorStateResumes) {
  const auto instance = checkpoint_instance(24);
  const workload::EmaPredictor predictor(instance.demand, 0.3);
  const std::string path = temp_ckpt("ema");
  std::remove(path.c_str());

  sim::SimulatorOptions options;
  options.record_schedule = true;
  const sim::Simulator reference_sim(instance, predictor, options);
  online::RhcController reference_controller(4, fast_options());
  const auto reference = reference_sim.run(reference_controller);

  auto crash_options = options;
  crash_options.checkpoint_path = path;
  crash_options.checkpoint_every = 3;
  crash_options.halt_after_slot = 6;
  {
    const sim::Simulator crashing(instance, predictor, crash_options);
    online::RhcController victim(4, fast_options());
    crashing.run(victim);
  }
  auto resume_options = options;
  resume_options.checkpoint_path = path;
  resume_options.checkpoint_every = 3;
  resume_options.resume = true;
  const sim::Simulator resuming(instance, predictor, resume_options);
  online::RhcController survivor(4, fast_options());
  const auto resumed = resuming.run(survivor);

  expect_results_identical(reference, resumed);
  std::remove(path.c_str());
}

TEST(Checkpoint, SupervisionLogResumes) {
  const auto instance = checkpoint_instance(25);
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = temp_ckpt("supervision");
  std::remove(path.c_str());

  // A one-iteration logical budget expires every slot: the log fills
  // deterministically and must survive the crash.
  sim::SimulatorOptions options;
  options.record_schedule = true;
  options.decision_budget_checks = 1;

  runtime::SupervisionLog reference_log;
  auto reference_options = options;
  reference_options.supervision = &reference_log;
  const sim::Simulator reference_sim(instance, predictor, reference_options);
  online::RhcController reference_controller(4, stubborn_options());
  const auto reference = reference_sim.run(reference_controller);
  ASSERT_EQ(reference_log.deadline_expirations, instance.horizon());

  runtime::SupervisionLog crash_log;
  auto crash_options = options;
  crash_options.supervision = &crash_log;
  crash_options.checkpoint_path = path;
  crash_options.checkpoint_every = 3;
  crash_options.halt_after_slot = 7;
  {
    const sim::Simulator crashing(instance, predictor, crash_options);
    online::RhcController victim(4, stubborn_options());
    crashing.run(victim);
  }

  runtime::SupervisionLog resumed_log;
  auto resume_options = options;
  resume_options.supervision = &resumed_log;
  resume_options.checkpoint_path = path;
  resume_options.checkpoint_every = 3;
  resume_options.resume = true;
  const sim::Simulator resuming(instance, predictor, resume_options);
  online::RhcController survivor(4, stubborn_options());
  const auto resumed = resuming.run(survivor);

  expect_results_identical(reference, resumed);
  ASSERT_EQ(resumed_log.events.size(), reference_log.events.size());
  for (std::size_t i = 0; i < reference_log.events.size(); ++i) {
    EXPECT_EQ(resumed_log.events[i].slot, reference_log.events[i].slot);
    EXPECT_EQ(resumed_log.events[i].kind, reference_log.events[i].kind);
    EXPECT_EQ(resumed_log.events[i].gap, reference_log.events[i].gap);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptSnapshotFallsBackToColdStart) {
  const auto instance = checkpoint_instance(26);
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = temp_ckpt("corrupt");
  std::remove(path.c_str());

  sim::SimulatorOptions options;
  options.record_schedule = true;
  options.checkpoint_path = path;
  options.checkpoint_every = 3;
  {
    auto crash_options = options;
    crash_options.halt_after_slot = 6;
    const sim::Simulator crashing(instance, predictor, crash_options);
    online::RhcController victim(4, fast_options());
    crashing.run(victim);
  }
  // Flip a payload bit: the checksum must reject it and resume cold.
  auto bytes = util::read_file_bytes(path);
  bytes.back() ^= 0x40;
  util::write_file_atomic(path, bytes);

  auto resume_options = options;
  resume_options.resume = true;
  const sim::Simulator resuming(instance, predictor, resume_options);
  online::RhcController survivor(4, fast_options());
  const auto resumed = resuming.run(survivor);

  const sim::Simulator reference_sim(
      instance, predictor,
      [] {
        sim::SimulatorOptions o;
        o.record_schedule = true;
        return o;
      }());
  online::RhcController reference_controller(4, fast_options());
  const auto reference = reference_sim.run(reference_controller);
  expect_results_identical(reference, resumed);
  std::remove(path.c_str());
}

TEST(Checkpoint, WrongControllerSnapshotIsRejected) {
  const auto instance = checkpoint_instance(27);
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = temp_ckpt("wrong_controller");
  std::remove(path.c_str());

  sim::SimulatorOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every = 2;
  {
    auto crash_options = options;
    crash_options.halt_after_slot = 5;
    const sim::Simulator crashing(instance, predictor, crash_options);
    online::RhcController rhc(4, fast_options());
    crashing.run(rhc);
  }
  // Resuming a CHC run from an RHC snapshot must cold-start, not blend.
  auto resume_options = options;
  resume_options.resume = true;
  const sim::Simulator resuming(instance, predictor, resume_options);
  online::ChcController chc(4, 2, fast_options());
  const auto resumed = resuming.run(chc);

  const sim::Simulator reference_sim(instance, predictor);
  online::ChcController reference(4, 2, fast_options());
  const auto expected = reference_sim.run(reference);
  EXPECT_EQ(resumed.total.bs, expected.total.bs);
  EXPECT_EQ(resumed.total.sbs, expected.total.sbs);
  EXPECT_EQ(resumed.total.replacement, expected.total.replacement);
  std::remove(path.c_str());
}

TEST(Checkpoint, UnsupportedControllerIsRejectedUpfront) {
  const auto instance = checkpoint_instance(28);
  const workload::PerfectPredictor predictor(instance.demand);
  sim::SimulatorOptions options;
  options.checkpoint_path = temp_ckpt("unsupported");
  const sim::Simulator simulator(instance, predictor, options);
  online::LrfuController lrfu;
  EXPECT_THROW(simulator.run(lrfu), InvalidArgument);
}

/// A load snapshot whose SBS 0 row is written field by field: its list
/// count and ids, then its values count and values. Every other SBS has an
/// empty row, and there is no neighbor bank.
std::vector<std::uint8_t> load_payload(const model::NetworkConfig& config,
                                       std::size_t list_count,
                                       const std::vector<std::size_t>& ids,
                                       std::size_t values_count,
                                       std::size_t values_written) {
  util::BinaryWriter w;
  w.size(config.num_sbs());
  w.size(config.num_contents);
  w.size(list_count);
  for (const std::size_t k : ids) w.size(k);
  w.size(values_count);
  for (std::size_t i = 0; i < values_written; ++i) w.f64(0.5);
  for (std::size_t n = 1; n < config.num_sbs(); ++n) {
    w.size(0);
    w.size(0);
  }
  w.boolean(false);
  return w.take();
}

TEST(Checkpoint, LoadRowsRoundTripBitwise) {
  const auto instance = checkpoint_instance();
  const model::NetworkConfig& config = instance.config;
  model::LoadAllocation load(config);
  load.ensure_neighbor();
  const std::size_t classes = config.sbs[0].num_classes();
  const std::vector<std::size_t> contents = {0, 3, 5};
  linalg::Vec values(classes * contents.size(), 0.25);
  values[1] = -0.0;
  values[2] = 1.5;
  load.row(0).assign(contents, values);
  load.neighbor_row(0).assign(std::vector<std::size_t>{4},
                              linalg::Vec(config.sbs[0].num_classes(), 0.125));
  util::BinaryWriter w;
  runtime::write_load(w, load);
  util::BinaryReader r(w.bytes());
  const model::LoadAllocation restored = runtime::read_load(r, config);
  EXPECT_TRUE(r.exhausted());
  ASSERT_TRUE(restored.has_neighbor());
  for (std::size_t n = 0; n < config.num_sbs(); ++n) {
    for (const bool neighbor : {false, true}) {
      const model::LoadRow& a = neighbor ? load.neighbor_row(n) : load.row(n);
      const model::LoadRow& b =
          neighbor ? restored.neighbor_row(n) : restored.row(n);
      ASSERT_TRUE(std::equal(a.contents().begin(), a.contents().end(),
                             b.contents().begin(), b.contents().end()));
      ASSERT_EQ(a.values().size(), b.values().size());
      for (std::size_t i = 0; i < a.values().size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.values()[i]),
                  std::bit_cast<std::uint64_t>(b.values()[i]));
      }
    }
  }
}

TEST(Checkpoint, MalformedLoadRowsAreRejected) {
  const auto instance = checkpoint_instance();
  const model::NetworkConfig& config = instance.config;
  const std::size_t classes = config.sbs[0].num_classes();
  const std::size_t k_count = config.num_contents;
  auto decode = [&](const std::vector<std::uint8_t>& bytes) {
    util::BinaryReader r(bytes);
    return runtime::read_load(r, config);
  };
  // Well formed: ids ascending and < K, M x |list| values.
  EXPECT_NO_THROW(decode(load_payload(config, 2, {1, 4}, 2 * classes,
                                      2 * classes)));
  // Unsorted and duplicate ids.
  EXPECT_THROW(decode(load_payload(config, 2, {4, 1}, 2 * classes,
                                   2 * classes)),
               InvalidArgument);
  EXPECT_THROW(decode(load_payload(config, 2, {3, 3}, 2 * classes,
                                   2 * classes)),
               InvalidArgument);
  // An id outside the catalogue.
  EXPECT_THROW(decode(load_payload(config, 2, {1, k_count}, 2 * classes,
                                   2 * classes)),
               InvalidArgument);
  // A values count other than M x |list|.
  EXPECT_THROW(decode(load_payload(config, 2, {1, 4}, 2 * classes - 1,
                                   2 * classes - 1)),
               InvalidArgument);
  // Inflated counts: rejected by the count() guard before any allocation.
  EXPECT_THROW(decode(load_payload(config, std::size_t{1} << 60, {}, 0, 0)),
               InvalidArgument);
  EXPECT_THROW(decode(load_payload(config, 1, {2}, std::size_t{1} << 60, 0)),
               InvalidArgument);
}

TEST(Checkpoint, Version5FileIsRejectedAndResumesCold) {
  const auto instance = checkpoint_instance(29);
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = temp_ckpt("version5");
  std::remove(path.c_str());

  sim::SimulatorOptions options;
  options.record_schedule = true;
  options.checkpoint_path = path;
  options.checkpoint_every = 3;
  {
    auto crash_options = options;
    crash_options.halt_after_slot = 6;
    const sim::Simulator crashing(instance, predictor, crash_options);
    online::RhcController victim(4, fast_options());
    crashing.run(victim);
  }
  // The frame is magic (8 bytes), then the little-endian u32 version: a
  // file of the dense-row format version 5 is unsupported.
  ASSERT_EQ(runtime::kCheckpointFormatVersion, 6u);
  auto bytes = util::read_file_bytes(path);
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] = 5;
  util::write_file_atomic(path, bytes);
  EXPECT_THROW(runtime::read_checkpoint_file(path), InvalidArgument);

  auto resume_options = options;
  resume_options.resume = true;
  const sim::Simulator resuming(instance, predictor, resume_options);
  online::RhcController survivor(4, fast_options());
  const auto resumed = resuming.run(survivor);

  sim::SimulatorOptions reference_options;
  reference_options.record_schedule = true;
  const sim::Simulator reference_sim(instance, predictor, reference_options);
  online::RhcController reference_controller(4, fast_options());
  expect_results_identical(reference_sim.run(reference_controller), resumed);
  std::remove(path.c_str());
}

TEST(Checkpoint, ExperimentSanitizesSchemeFileNames) {
  EXPECT_EQ(sim::checkpoint_file_name("RHC(w=10)"), "RHC_w_10_.ckpt");
  EXPECT_EQ(sim::checkpoint_file_name("CHC(w=10,r=5)"), "CHC_w_10_r_5_.ckpt");
  EXPECT_EQ(sim::checkpoint_file_name("plain-name_1.2"), "plain-name_1.2.ckpt");
}

#ifdef __unix__
TEST(Checkpoint, SurvivesAbruptProcessDeath) {
  const auto instance = checkpoint_instance(29);
  const workload::PerfectPredictor predictor(instance.demand);
  const std::string path = temp_ckpt("process_death");
  std::remove(path.c_str());

  sim::SimulatorOptions options;
  options.record_schedule = true;
  options.checkpoint_path = path;
  options.checkpoint_every = 3;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: first forget the parent's thread pool, whose threads do not
    // exist here (a solve could wait on them forever), and run serially:
    // results do not depend on the thread count, and ThreadSanitizer
    // refuses to start threads in the child of a multi-threaded fork.
    // Then run part of the horizon and die without unwinding —
    // destructors, flushes, and atexit handlers never run, exactly like a
    // crash. The checkpoint on disk must still be complete and valid.
    util::ThreadPool::reset_global_after_fork();
    util::ThreadPool::set_global_threads(1);
    auto crash_options = options;
    crash_options.halt_after_slot = 7;
    const sim::Simulator crashing(instance, predictor, crash_options);
    online::RhcController victim(4, fast_options());
    crashing.run(victim);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  auto resume_options = options;
  resume_options.resume = true;
  const sim::Simulator resuming(instance, predictor, resume_options);
  online::RhcController survivor(4, fast_options());
  const auto resumed = resuming.run(survivor);

  sim::SimulatorOptions plain;
  plain.record_schedule = true;
  const sim::Simulator reference_sim(instance, predictor, plain);
  online::RhcController reference(4, fast_options());
  expect_results_identical(reference_sim.run(reference), resumed);
  std::remove(path.c_str());
}
#endif  // __unix__

}  // namespace
}  // namespace mdo
