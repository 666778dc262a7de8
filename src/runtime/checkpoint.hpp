// Crash-consistent checkpoint files and model-state codecs.
//
// A checkpoint is a single binary file:
//
//   magic "MDOCKPT1" | u32 format version | u64 payload size |
//   u64 FNV-1a checksum of the payload | payload bytes
//
// written through util::write_file_atomic (tmp + rename), so a crash at any
// instant leaves either the previous complete checkpoint or the new one —
// never a torn file. read_checkpoint_file() verifies magic, version,
// declared size, and checksum before handing out the payload; a truncated
// or bit-flipped file is rejected with InvalidArgument and the caller falls
// back to a cold start instead of resuming from garbage.
//
// The payload itself is produced by the component being snapshotted (the
// simulator composes: run header, accumulated records, controller blob —
// see sim/simulator.hpp). This header also provides the codecs for the
// model types every controller snapshot needs (CacheState, LoadAllocation,
// SlotDecision, Schedule); shapes are validated against the config on read
// so a snapshot from a different instance cannot be restored silently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/decision.hpp"
#include "model/network.hpp"
#include "util/serialize.hpp"

namespace mdo::runtime {

/// Version 6: a LoadAllocation is written as its compact rows (per SBS
/// the sorted content list, then the class-major values). Version 5 wrote
/// dense M x K rows and is rejected as unsupported (a cold start). Since
/// version 5 an FHC planner snapshots only its plan bookkeeping — no
/// same-window warm mu and no solver section, because a solve reads only
/// its window.
inline constexpr std::uint32_t kCheckpointFormatVersion = 6;

/// Frames `payload` (version + size + checksum) and atomically replaces
/// `path` with it.
void write_checkpoint_file(const std::string& path,
                           const std::vector<std::uint8_t>& payload);

/// Reads and verifies a checkpoint file; returns the payload. Throws
/// InvalidArgument on a missing file, bad magic, unsupported version,
/// size mismatch (truncation), or checksum mismatch (corruption).
std::vector<std::uint8_t> read_checkpoint_file(const std::string& path);

// ---- Model-state codecs (bit-exact round trips). -------------------------

void write_cache(util::BinaryWriter& w, const model::CacheState& cache);
/// Restores a cache written by write_cache; the snapshot's shape must
/// match `config` exactly.
model::CacheState read_cache(util::BinaryReader& r,
                             const model::NetworkConfig& config);

/// Writes each SBS's compact row (LoadRow): its content list, then its
/// values; the neighbor bank's rows follow when present.
void write_load(util::BinaryWriter& w, const model::LoadAllocation& load);
/// Restores a load written by write_load. Throws InvalidArgument, before
/// any allocation larger than the payload, on a shape mismatch, an
/// inflated count, unsorted or duplicate content ids, an id >= K, or a
/// values count other than M x |list|.
model::LoadAllocation read_load(util::BinaryReader& r,
                                const model::NetworkConfig& config);

void write_decision(util::BinaryWriter& w, const model::SlotDecision& decision);
model::SlotDecision read_decision(util::BinaryReader& r,
                                  const model::NetworkConfig& config);

void write_schedule(util::BinaryWriter& w, const model::Schedule& schedule);
model::Schedule read_schedule(util::BinaryReader& r,
                              const model::NetworkConfig& config);

}  // namespace mdo::runtime
