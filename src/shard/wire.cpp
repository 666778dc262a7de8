#include "shard/wire.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "model/sparse_demand_io.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mdo::shard {

namespace {

constexpr char kMagic[8] = {'M', 'D', 'O', 'S', 'H', 'R', 'D', '5'};
constexpr std::size_t kHeaderSize = sizeof(kMagic) + 4 + 8 + 8;
/// Sanity cap: no legitimate frame approaches this (kBegin carries sparse
/// demand and compact mu, MBs even at N=1024/K=10^4 full support).
constexpr std::uint64_t kMaxPayload = 1ULL << 36;

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t got = ::recv(fd, data, size, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF: peer died
    data += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

WireStats g_wire_stats;

}  // namespace

std::uint64_t WireStats::total_sent() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : sent) total += b;
  return total;
}

std::uint64_t WireStats::total_received() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : received) total += b;
  return total;
}

const WireStats& wire_stats() { return g_wire_stats; }

void reset_wire_stats() { g_wire_stats = WireStats{}; }

bool send_frame(int fd, MessageType type,
                const std::vector<std::uint8_t>& payload) {
  util::BinaryWriter header;
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(static_cast<std::uint32_t>(type));
  header.u64(static_cast<std::uint64_t>(payload.size()));
  header.u64(util::fnv1a64(payload.data(), payload.size()));
  g_wire_stats.sent[static_cast<std::size_t>(type)] +=
      kHeaderSize + payload.size();
  if (!send_all(fd, header.bytes().data(), header.bytes().size())) return false;
  return send_all(fd, payload.data(), payload.size());
}

bool recv_frame(int fd, MessageType* type,
                std::vector<std::uint8_t>* payload) {
  std::uint8_t raw[kHeaderSize];
  if (!recv_all(fd, raw, kHeaderSize)) return false;
  util::BinaryReader header(raw, kHeaderSize);
  char magic[8];
  for (char& c : magic) c = static_cast<char>(header.u8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic) - 1) != 0) return false;
  if (magic[7] != kMagic[7]) {
    // A well-formed frame of another protocol version (a stale worker
    // binary): reject it CLEANLY — the caller tears the session down and
    // reports SolveStatus::kWorkerFailure — instead of letting it read as
    // random corruption further in.
    MDO_WARN("shard wire: peer speaks protocol version '"
             << magic[7] << "', this build speaks '" << kMagic[7] << "'");
    return false;
  }
  const std::uint32_t raw_type = header.u32();
  if (raw_type < static_cast<std::uint32_t>(MessageType::kBegin) ||
      raw_type > static_cast<std::uint32_t>(MessageType::kShutdown)) {
    return false;
  }
  const std::uint64_t size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (size > kMaxPayload) return false;
  payload->resize(static_cast<std::size_t>(size));
  if (!recv_all(fd, payload->data(), payload->size())) return false;
  if (util::fnv1a64(payload->data(), payload->size()) != checksum) {
    return false;
  }
  *type = static_cast<MessageType>(raw_type);
  g_wire_stats.received[raw_type] += kHeaderSize + payload->size();
  return true;
}

namespace {

void write_sbs_config(util::BinaryWriter& w, const model::SbsConfig& sbs) {
  w.size(sbs.cache_capacity);
  w.f64(sbs.bandwidth);
  w.f64(sbs.replacement_beta);
  w.size(sbs.classes.size());
  for (const model::MuClass& mu_class : sbs.classes) {
    w.f64(mu_class.omega_bs);
    w.f64(mu_class.omega_sbs);
    w.f64(mu_class.omega_neigh);
  }
}

model::SbsConfig read_sbs_config(util::BinaryReader& r) {
  model::SbsConfig sbs;
  sbs.cache_capacity = r.size();
  sbs.bandwidth = r.f64();
  sbs.replacement_beta = r.f64();
  sbs.classes.resize(r.count());
  for (model::MuClass& mu_class : sbs.classes) {
    mu_class.omega_bs = r.f64();
    mu_class.omega_sbs = r.f64();
    mu_class.omega_neigh = r.f64();
  }
  return sbs;
}

}  // namespace

void encode_begin(util::BinaryWriter& w, const core::ShardInputs& in,
                  std::size_t sbs_begin, std::size_t sbs_end,
                  const std::vector<std::size_t>& mu_offsets,
                  const linalg::Vec& mu, std::size_t num_sbs_total,
                  std::int64_t die_at_iteration) {
  MDO_REQUIRE(in.sparse_demand != nullptr,
              "shard wire: kBegin ships a sparse demand window");
  const std::size_t horizon = in.sparse_demand->horizon();
  w.size(in.config->num_contents);
  w.size(horizon);
  w.i64(die_at_iteration);
  w.size(sbs_end - sbs_begin);
  for (std::size_t n = sbs_begin; n < sbs_end; ++n) {
    write_sbs_config(w, in.config->sbs[n]);
  }
  for (std::size_t n = sbs_begin; n < sbs_end; ++n) {
    w.u8_vec(in.initial_cache->sbs_bitmap(n));
  }
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t n = sbs_begin; n < sbs_end; ++n) {
      model::write_sparse_demand(w, in.sparse_demand->slot(t)[n]);
    }
  }
  // Optional P1 neighbor-demand rewards (ShardInputs::neighbor_rewards):
  // constants of the solve, shipped once here; an empty vector per SBS (or
  // a null driver-side pointer) means no tilt for that SBS.
  for (std::size_t n = sbs_begin; n < sbs_end; ++n) {
    if (in.neighbor_rewards != nullptr) {
      w.f64_vec((*in.neighbor_rewards)[n]);
    } else {
      w.f64_vec(linalg::Vec{});
    }
  }
  // mu blocks: the cell's compact active-coordinate span (the stored and
  // wire layouts coincide, so no gather happens).
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t n = sbs_begin; n < sbs_end; ++n) {
      const std::size_t cell = t * num_sbs_total + n;
      const std::size_t first = mu_offsets[cell];
      const std::size_t last = mu_offsets[cell + 1];
      w.size(last - first);
      for (std::size_t j = first; j < last; ++j) w.f64(mu[j]);
    }
  }
}

BeginMessage decode_begin(util::BinaryReader& r) {
  BeginMessage msg;
  msg.num_contents = r.size();
  msg.horizon = r.size();
  msg.die_at_iteration = r.i64();
  const std::size_t num_sbs = r.count();
  msg.sbs.reserve(num_sbs);
  for (std::size_t n = 0; n < num_sbs; ++n) {
    msg.sbs.push_back(read_sbs_config(r));
  }
  msg.initial_cache.reserve(num_sbs);
  for (std::size_t n = 0; n < num_sbs; ++n) {
    msg.initial_cache.push_back(r.u8_vec());
    MDO_REQUIRE(msg.initial_cache.back().size() == msg.num_contents,
                "shard wire: cache bitmap size mismatch");
  }
  for (std::size_t t = 0; t < msg.horizon; ++t) {
    model::SparseSlotDemand slot;
    slot.reserve(num_sbs);
    for (std::size_t n = 0; n < num_sbs; ++n) {
      slot.push_back(model::read_sparse_demand(r));
    }
    msg.slots.push_back(std::move(slot));
  }
  msg.neighbor_rewards.reserve(num_sbs);
  for (std::size_t n = 0; n < num_sbs; ++n) {
    msg.neighbor_rewards.push_back(r.f64_vec_as<linalg::Vec>());
  }
  msg.mu_blocks.reserve(msg.horizon * num_sbs);
  for (std::size_t cell = 0; cell < msg.horizon * num_sbs; ++cell) {
    msg.mu_blocks.push_back(r.f64_vec_as<linalg::Vec>());
  }
  MDO_REQUIRE(r.exhausted(), "shard wire: kBegin payload has trailing bytes");
  return msg;
}

void encode_iterate_reply(util::BinaryWriter& w, const IterateReply& reply) {
  w.f64_vec(reply.p1_objectives);
  w.f64_vec(reply.p2_objectives);
  w.size(reply.x.size());
  for (const auto& x : reply.x) w.u8_vec(x);
  w.size(reply.repair_y.size());
  for (const auto& y : reply.repair_y) w.f64_vec(y);
}

IterateReply decode_iterate_reply(util::BinaryReader& r) {
  IterateReply reply;
  reply.p1_objectives = r.f64_vec();
  reply.p2_objectives = r.f64_vec();
  reply.x.resize(r.count());
  for (auto& x : reply.x) x = r.u8_vec();
  reply.repair_y.resize(r.count());
  for (auto& y : reply.repair_y) y = r.f64_vec_as<linalg::Vec>();
  MDO_REQUIRE(r.exhausted(),
              "shard wire: kIterateReply payload has trailing bytes");
  return reply;
}

void encode_end_reply(util::BinaryWriter& w, const EndReply& reply) {
  w.size(reply.mu_blocks.size());
  for (const auto& block : reply.mu_blocks) w.f64_vec(block);
}

EndReply decode_end_reply(util::BinaryReader& r) {
  EndReply reply;
  reply.mu_blocks.resize(r.count());
  for (auto& block : reply.mu_blocks) block = r.f64_vec_as<linalg::Vec>();
  MDO_REQUIRE(r.exhausted(),
              "shard wire: kEndReply payload has trailing bytes");
  return reply;
}

}  // namespace mdo::shard
