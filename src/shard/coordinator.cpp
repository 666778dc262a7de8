#include "shard/coordinator.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>

#include "shard/wire.hpp"
#include "shard/worker.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace mdo::shard {

namespace {

/// The MDO_SHARD_KILL_AT directive fires once per process (a respawned
/// worker must not be killed again, or retries could never succeed).
std::atomic<bool> g_kill_consumed{false};

std::int64_t consume_kill_directive() {
  const char* env = std::getenv("MDO_SHARD_KILL_AT");
  if (env == nullptr) return -1;
  char* parse_end = nullptr;
  const unsigned long parsed = std::strtoul(env, &parse_end, 10);
  if (parse_end == env || *parse_end != '\0') return -1;
  if (g_kill_consumed.exchange(true)) return -1;
  return static_cast<std::int64_t>(parsed);
}

}  // namespace

void rearm_kill_directive() { g_kill_consumed.store(false); }

std::size_t resolved_shard_count(std::size_t option, std::size_t num_sbs) {
  std::size_t shards = option;
  if (shards == kShardsInProcess) return 0;
  if (shards == 0) {
    if (const char* env = std::getenv("MDO_SHARDS")) {
      char* parse_end = nullptr;
      const unsigned long parsed = std::strtoul(env, &parse_end, 10);
      if (parse_end != env && *parse_end == '\0') {
        shards = static_cast<std::size_t>(parsed);
      }
    }
  }
  return std::min(shards, num_sbs);
}

Coordinator::~Coordinator() {
  const std::vector<std::uint8_t> empty;
  for (Worker& w : workers_) {
    if (w.fd >= 0) {
      send_frame(w.fd, MessageType::kShutdown, empty);
      ::close(w.fd);
      w.fd = -1;
    }
  }
  for (Worker& w : workers_) {
    if (w.pid > 0) {
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  workers_.clear();
}

bool Coordinator::spawn_worker(Worker* out) const {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: drop every parent-side descriptor (including siblings', so a
    // sibling's death is visible to the coordinator as EOF) and forget the
    // inherited thread pool — its workers do not exist here.
    ::close(fds[0]);
    for (const Worker& other : workers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    util::ThreadPool::reset_global_after_fork();
    int code = 1;
    try {
      code = worker_main(fds[1]);
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }
  ::close(fds[1]);
  out->fd = fds[0];
  out->pid = static_cast<int>(pid);
  return true;
}

bool Coordinator::ensure_workers(std::size_t shards) {
  if (workers_.size() == shards) return true;
  teardown();
  workers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    Worker w;
    if (!spawn_worker(&w)) {
      teardown();
      return false;
    }
    workers_.push_back(w);
  }
  return true;
}

void Coordinator::teardown() {
  for (Worker& w : workers_) {
    if (w.pid > 0) ::kill(w.pid, SIGKILL);
    if (w.fd >= 0) ::close(w.fd);
  }
  for (Worker& w : workers_) {
    if (w.pid > 0) {
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  workers_.clear();
  in_ = nullptr;
  mu_offsets_ = nullptr;
  offsets_.clear();
}

bool Coordinator::begin(const core::ShardInputs& in, std::size_t shards,
                        const std::vector<std::size_t>& mu_offsets) {
  const std::size_t num_sbs = in.config->num_sbs();
  if (shards == 0 || shards > num_sbs) return false;
  if (!ensure_workers(shards)) return false;
  in_ = &in;
  mu_offsets_ = &mu_offsets;
  offsets_.assign(shards + 1, 0);
  const std::size_t base = num_sbs / shards;
  const std::size_t rem = num_sbs % shards;
  for (std::size_t s = 0; s < shards; ++s) {
    offsets_[s + 1] = offsets_[s] + base + (s < rem ? 1 : 0);
  }
  const std::int64_t die_at = consume_kill_directive();
  for (std::size_t s = 0; s < shards; ++s) {
    util::BinaryWriter w;
    encode_begin(w, in, offsets_[s], offsets_[s + 1], s == 0 ? die_at : -1);
    if (!send_frame(workers_[s].fd, MessageType::kBegin, w.bytes())) {
      teardown();
      return false;
    }
  }
  std::vector<std::uint8_t> payload;
  for (std::size_t s = 0; s < shards; ++s) {
    MessageType type;
    if (!recv_frame(workers_[s].fd, &type, &payload) ||
        type != MessageType::kBeginAck) {
      teardown();
      return false;
    }
  }
  return true;
}

bool Coordinator::iterate(bool apply_prev, double delta,
                          IterationOutputs* out) {
  if (workers_.empty() || in_ == nullptr) return false;
  util::BinaryWriter req;
  req.boolean(apply_prev);
  req.f64(delta);
  for (const Worker& w : workers_) {
    if (!send_frame(w.fd, MessageType::kIterate, req.bytes())) {
      teardown();
      return false;
    }
  }
  const std::size_t num_sbs = in_->config->num_sbs();
  const std::size_t horizon = in_->sparse_demand->horizon();
  out->p1_objectives.assign(num_sbs, 0.0);
  out->p2_objectives.assign(horizon * num_sbs, 0.0);
  out->x.assign(num_sbs, {});
  out->repair_y.assign(horizon * num_sbs, {});
  std::vector<std::uint8_t> payload;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    MessageType type;
    if (!recv_frame(workers_[s].fd, &type, &payload) ||
        type != MessageType::kIterateReply) {
      teardown();
      return false;
    }
    const std::size_t off = offsets_[s];
    const std::size_t count = offsets_[s + 1] - off;
    try {
      util::BinaryReader r(payload);
      IterateReply reply = decode_iterate_reply(r);
      if (reply.p1_objectives.size() != count || reply.x.size() != count ||
          reply.p2_objectives.size() != horizon * count ||
          reply.repair_y.size() != horizon * count) {
        teardown();
        return false;
      }
      for (std::size_t ln = 0; ln < count; ++ln) {
        out->p1_objectives[off + ln] = reply.p1_objectives[ln];
        out->x[off + ln] = std::move(reply.x[ln]);
      }
      for (std::size_t t = 0; t < horizon; ++t) {
        for (std::size_t ln = 0; ln < count; ++ln) {
          out->p2_objectives[t * num_sbs + off + ln] =
              reply.p2_objectives[t * count + ln];
          out->repair_y[t * num_sbs + off + ln] =
              std::move(reply.repair_y[t * count + ln]);
        }
      }
    } catch (...) {
      teardown();
      return false;
    }
  }
  return true;
}

bool Coordinator::finish(bool apply_final, double delta, linalg::Vec& mu) {
  if (workers_.empty() || in_ == nullptr) return false;
  util::BinaryWriter req;
  req.boolean(apply_final);
  req.f64(delta);
  for (const Worker& w : workers_) {
    if (!send_frame(w.fd, MessageType::kEnd, req.bytes())) {
      teardown();
      return false;
    }
  }
  const std::size_t num_sbs = in_->config->num_sbs();
  const std::size_t horizon = in_->sparse_demand->horizon();
  std::vector<std::uint8_t> payload;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    MessageType type;
    if (!recv_frame(workers_[s].fd, &type, &payload) ||
        type != MessageType::kEndReply) {
      teardown();
      return false;
    }
    const std::size_t off = offsets_[s];
    const std::size_t count = offsets_[s + 1] - off;
    try {
      util::BinaryReader r(payload);
      EndReply reply = decode_end_reply(r);
      if (reply.mu_blocks.size() != horizon * count) {
        teardown();
        return false;
      }
      for (std::size_t cell = 0; cell < horizon * count; ++cell) {
        const std::size_t t = cell / count;
        const std::size_t n = off + cell % count;
        const linalg::Vec& block = reply.mu_blocks[cell];
        // The wire block IS the stored compact block — straight copy.
        const std::size_t first = (*mu_offsets_)[t * num_sbs + n];
        const std::size_t last = (*mu_offsets_)[t * num_sbs + n + 1];
        if (block.size() != last - first) {
          teardown();
          return false;
        }
        std::copy(block.begin(), block.end(),
                  mu.begin() + static_cast<std::ptrdiff_t>(first));
      }
    } catch (...) {
      teardown();
      return false;
    }
  }
  in_ = nullptr;
  mu_offsets_ = nullptr;
  return true;
}

}  // namespace mdo::shard
