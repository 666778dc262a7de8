#include "shard/worker.hpp"

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/shard_core.hpp"
#include "linalg/vec.hpp"
#include "model/decision.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"
#include "shard/wire.hpp"
#include "util/serialize.hpp"

namespace mdo::shard {

namespace {

/// One bound kBegin session; rebuilt per solve.
struct WorkerSession {
  model::NetworkConfig config;
  model::SparseDemandTrace demand;
  model::CacheState initial_cache;
  /// Per local SBS: P1 neighbor-reward addends (empty = no tilt).
  std::vector<linalg::Vec> neighbor_rewards;
  /// Slice mu: the compact block concatenation (mu_block_offsets over
  /// `config`), starting at the slice's marginal initialization.
  linalg::Vec mu;
  /// Workspace arena, kept across kBegins for its buffers; begin() binds
  /// every cell cold.
  std::vector<core::CellState> bank;
  core::ShardCore core;
  std::int64_t die_at_iteration = -1;
  std::size_t iterates = 0;
  bool bound = false;
};

void bind_session(WorkerSession& s, BeginMessage msg) {
  s.die_at_iteration = msg.die_at_iteration;
  s.iterates = 0;

  s.config.num_contents = msg.num_contents;
  s.config.sbs = std::move(msg.sbs);
  const std::size_t num_sbs = s.config.num_sbs();
  const std::size_t w = msg.horizon;

  s.demand.clear();
  for (model::SparseSlotDemand& slot : msg.slots) {
    s.demand.push_back(std::move(slot));
  }

  s.initial_cache = model::CacheState(s.config);
  for (std::size_t n = 0; n < num_sbs; ++n) {
    for (std::size_t k = 0; k < msg.num_contents; ++k) {
      if (msg.initial_cache[n][k] != 0) s.initial_cache.set(n, k, true);
    }
  }

  core::ShardInputs inputs;
  inputs.config = &s.config;
  inputs.initial_cache = &s.initial_cache;
  inputs.sparse_demand = &s.demand;
  s.neighbor_rewards = std::move(msg.neighbor_rewards);
  inputs.neighbor_rewards = &s.neighbor_rewards;

  // Active sets first: the slice's mu and the kEnd blocks are laid out on
  // them. They are the same deterministic function of (demand, cache) the
  // driver evaluates, and every initial value depends on its cell alone,
  // so the slice's marginal mu equals the driver's at these cells.
  core::ActiveSets sets =
      core::build_active_sets(s.config, s.demand, s.initial_cache);
  core::marginal_mu(s.config, s.demand, sets,
                    core::mu_block_offsets(s.config, w, sets), s.mu);

  s.core.begin(inputs, core::ShardOptions{}, s.bank, std::move(sets));
  s.bound = true;
}

IterateReply run_iterate(WorkerSession& s) {
  s.core.iterate(s.mu);
  s.core.repair(nullptr);
  const std::size_t cells = s.bank.size();
  IterateReply reply;
  reply.p1_objectives = s.core.p1_objectives();
  reply.p2_objectives = s.core.p2_objectives();
  reply.x = s.core.x();
  reply.repair_y.reserve(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    reply.repair_y.push_back(s.bank[cell].repair.y());
  }
  return reply;
}

EndReply run_end(const WorkerSession& s) {
  // Compact storage already holds the wire blocks: sub-span copies.
  const std::vector<std::size_t>& off = s.core.mu_offsets();
  EndReply reply;
  reply.mu_blocks.reserve(s.bank.size());
  for (std::size_t cell = 0; cell < s.bank.size(); ++cell) {
    reply.mu_blocks.emplace_back(
        s.mu.begin() + static_cast<std::ptrdiff_t>(off[cell]),
        s.mu.begin() + static_cast<std::ptrdiff_t>(off[cell + 1]));
  }
  return reply;
}

}  // namespace

int worker_main(int fd) {
  WorkerSession session;
  std::vector<std::uint8_t> payload;
  for (;;) {
    MessageType type;
    if (!recv_frame(fd, &type, &payload)) return 0;  // coordinator gone
    try {
      util::BinaryReader r(payload);
      switch (type) {
        case MessageType::kBegin: {
          bind_session(session, decode_begin(r));
          util::BinaryWriter ack;
          if (!send_frame(fd, MessageType::kBeginAck, ack.bytes())) return 0;
          break;
        }
        case MessageType::kIterate: {
          if (!session.bound) return 1;
          const bool apply_prev = r.boolean();
          const double delta = r.f64();
          if (apply_prev) session.core.dual_update(delta, session.mu);
          if (session.die_at_iteration >= 0 &&
              static_cast<std::int64_t>(session.iterates) ==
                  session.die_at_iteration) {
            _exit(17);  // simulated mid-solve crash (MDO_SHARD_KILL_AT)
          }
          ++session.iterates;
          const IterateReply reply = run_iterate(session);
          util::BinaryWriter w;
          encode_iterate_reply(w, reply);
          if (!send_frame(fd, MessageType::kIterateReply, w.bytes())) return 0;
          break;
        }
        case MessageType::kEnd: {
          if (!session.bound) return 1;
          const bool apply_final = r.boolean();
          const double delta = r.f64();
          if (apply_final) session.core.dual_update(delta, session.mu);
          const EndReply reply = run_end(session);
          util::BinaryWriter w;
          encode_end_reply(w, reply);
          if (!send_frame(fd, MessageType::kEndReply, w.bytes())) return 0;
          session.bound = false;
          break;
        }
        case MessageType::kShutdown:
          return 0;
        default:
          return 1;  // protocol violation
      }
    } catch (const std::exception& e) {
      // A malformed message (or any solver invariant tripping on shipped
      // state) must read as a clean worker failure on the coordinator side,
      // not a std::terminate with half-written replies.
      std::fprintf(stderr, "[shard worker] fatal: %s\n", e.what());
      return 3;
    }
  }
}

}  // namespace mdo::shard
