// Versioned, checksummed wire format of the shard RPC (DESIGN.md §11).
//
// Every message is one frame on a SOCK_STREAM socketpair:
//
//   magic "MDOSHRD5" (8) | type u32 | payload size u64 | FNV-1a64 u64 | payload
//
// — the same framing discipline as the "MDOCKPT1" checkpoint files
// (runtime/checkpoint), rebuilt here on util::BinaryWriter/fnv1a64 because
// mdo_core cannot link the runtime layer. The magic's last byte is the
// protocol version ("...D5" since kBegin and kEndReply carry no warm-start
// blobs — every solve binds its P2 workspaces cold; "...D4" dropped the
// shard options — a shard solves P2 at the defaults; "...D3" made the
// solver one path:
// kBegin carries only sparse demand and compact mu blocks; "...D2" added
// omega_neigh and the per-SBS neighbor-reward blocks; "...D1" before); a
// frame whose first seven bytes match but whose version differs
// is rejected CLEANLY — recv_frame warns and returns false, surfacing as
// SolveStatus::kWorkerFailure — rather than reading as checksum corruption.
// Any other framing failure (bad magic, size, checksum) is
// indistinguishable from a dead peer: recv_frame returns false and the
// caller treats the worker as failed. Payload values round-trip bit-exactly
// (doubles as IEEE-754 bit patterns), which is what makes the sharded solve
// bitwise-equal to the in-process one.
//
// Per-solve protocol (driver -> worker):
//   kBegin        slice config + sparse demand window + initial cache
//                 + neighbor-reward blocks + compact mu blocks
//                                               -> kBeginAck
//   kIterate      {apply_prev_dual_step, delta} -> kIterateReply
//                 {per-SBS P1 objectives/x, per-cell P2 objectives,
//                  per-cell repaired y}
//   kEnd          {apply_final_dual_step, delta} -> kEndReply
//                 {per-cell mu blocks}
//   kShutdown     clean worker exit, no reply
//
// The dual update runs WORKER-side (each coordinate's projected step is
// independent, so slice-local updates produce bit-identical values), which
// keeps mu and the P2 y vectors off the per-iteration wire entirely: an
// iterate round-trip ships 17 bytes down and only objectives + x bits +
// compact repaired loads up.
#pragma once

#include <cstdint>
#include <vector>

#include "core/shard_core.hpp"
#include "linalg/vec.hpp"
#include "model/decision.hpp"
#include "model/network.hpp"
#include "model/sparse_demand.hpp"
#include "util/serialize.hpp"

namespace mdo::shard {

enum class MessageType : std::uint32_t {
  kBegin = 1,
  kBeginAck = 2,
  kIterate = 3,
  kIterateReply = 4,
  kEnd = 5,
  kEndReply = 6,
  kShutdown = 7,
};

/// Writes one frame; false when the peer is gone (EPIPE et al.).
bool send_frame(int fd, MessageType type,
                const std::vector<std::uint8_t>& payload);

/// Reads one frame; false on EOF, error, or a corrupted header/payload.
bool recv_frame(int fd, MessageType* type, std::vector<std::uint8_t>* payload);

/// Process-local wire traffic counters (header + payload bytes), indexed by
/// MessageType value. Maintained by send_frame/recv_frame so benches can
/// report exact per-solve frame sizes (e.g. the kEndReply mu traffic the
/// compact layout shrinks). Wire I/O is single-threaded within a process
/// (the coordinator loop / the worker loop), so plain counters suffice.
struct WireStats {
  /// [type] -> bytes, slot 0 unused (types start at kBegin = 1).
  std::uint64_t sent[8] = {};
  std::uint64_t received[8] = {};

  std::uint64_t total_sent() const;
  std::uint64_t total_received() const;
};

const WireStats& wire_stats();
void reset_wire_stats();

/// kBegin payload, decoded worker-side. The coordinator never materializes
/// this struct — encode_begin() writes the slices straight from the
/// driver's full-range structures.
struct BeginMessage {
  std::size_t num_contents = 0;
  std::size_t horizon = 0;
  std::vector<model::SbsConfig> sbs;  // the contiguous slice
  /// Per local SBS: cached-content bitmap, size num_contents.
  std::vector<std::vector<std::uint8_t>> initial_cache;
  std::vector<model::SparseSlotDemand> slots;  // [t][local n]
  /// Per local SBS: P1 neighbor-reward addends in the P1 rewards layout
  /// (ShardInputs::neighbor_rewards); empty = no tilt for that SBS.
  std::vector<linalg::Vec> neighbor_rewards;
  /// Per local cell (t-major): initial mu at the cell's active coordinates,
  /// [m * a_count + i].
  std::vector<linalg::Vec> mu_blocks;
  /// Test hook: _exit before replying to this 0-based iterate index.
  std::int64_t die_at_iteration = -1;
};

/// Encodes the kBegin payload for SBS range [sbs_begin, sbs_end) of the
/// solver's full problem; `in` carries the sparse window. `mu` is the
/// compact vector with the full-range `mu_offsets` geometry (cell =
/// t * num_sbs_total + n), so each cell's block is written as a direct
/// span — no gather.
void encode_begin(util::BinaryWriter& w, const core::ShardInputs& in,
                  std::size_t sbs_begin, std::size_t sbs_end,
                  const std::vector<std::size_t>& mu_offsets,
                  const linalg::Vec& mu, std::size_t num_sbs_total,
                  std::int64_t die_at_iteration);
BeginMessage decode_begin(util::BinaryReader& r);

struct IterateReply {
  std::vector<double> p1_objectives;         // per local SBS
  std::vector<double> p2_objectives;         // per local cell (t-major)
  std::vector<std::vector<std::uint8_t>> x;  // per local SBS, [t * kp + i]
  std::vector<linalg::Vec> repair_y;         // per local cell (compact)
};

void encode_iterate_reply(util::BinaryWriter& w, const IterateReply& reply);
IterateReply decode_iterate_reply(util::BinaryReader& r);

struct EndReply {
  std::vector<linalg::Vec> mu_blocks;  // per local cell
};

void encode_end_reply(util::BinaryWriter& w, const EndReply& reply);
EndReply decode_end_reply(util::BinaryReader& r);

}  // namespace mdo::shard
