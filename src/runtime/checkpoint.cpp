#include "runtime/checkpoint.hpp"

#include <cstring>

#include "linalg/vec.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace mdo::runtime {

namespace {
constexpr char kMagic[8] = {'M', 'D', 'O', 'C', 'K', 'P', 'T', '1'};
}  // namespace

void write_checkpoint_file(const std::string& path,
                           const std::vector<std::uint8_t>& payload) {
  util::BinaryWriter w;
  for (const char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kCheckpointFormatVersion);
  w.u64(payload.size());
  w.u64(util::fnv1a64(payload));
  w.u8_vec(payload);  // length-prefixed: double-checks the size on read
  util::write_file_atomic(path, w.bytes());
}

std::vector<std::uint8_t> read_checkpoint_file(const std::string& path) {
  const std::vector<std::uint8_t> bytes = util::read_file_bytes(path);
  util::BinaryReader r(bytes);
  char magic[8];
  for (char& c : magic) c = static_cast<char>(r.u8());
  MDO_REQUIRE(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
              "checkpoint " + path + ": bad magic (not a checkpoint file?)");
  const std::uint32_t version = r.u32();
  MDO_REQUIRE(version == kCheckpointFormatVersion,
              "checkpoint " + path + ": unsupported format version " +
                  std::to_string(version));
  const std::uint64_t declared_size = r.u64();
  const std::uint64_t checksum = r.u64();
  const std::vector<std::uint8_t> payload = r.u8_vec();
  MDO_REQUIRE(payload.size() == declared_size && r.exhausted(),
              "checkpoint " + path + ": truncated or oversized payload");
  MDO_REQUIRE(util::fnv1a64(payload) == checksum,
              "checkpoint " + path + ": checksum mismatch (corrupted)");
  return payload;
}

void write_cache(util::BinaryWriter& w, const model::CacheState& cache) {
  w.size(cache.num_sbs());
  w.size(cache.num_contents());
  for (std::size_t n = 0; n < cache.num_sbs(); ++n) {
    w.u8_vec(cache.sbs_bitmap(n));
  }
}

model::CacheState read_cache(util::BinaryReader& r,
                             const model::NetworkConfig& config) {
  const std::size_t num_sbs = r.size();
  const std::size_t num_contents = r.size();
  MDO_REQUIRE(num_sbs == config.num_sbs() &&
                  num_contents == config.num_contents,
              "cache snapshot: shape mismatch against the instance config");
  model::CacheState cache(config);
  for (std::size_t n = 0; n < num_sbs; ++n) {
    const std::vector<std::uint8_t> bitmap = r.u8_vec();
    MDO_REQUIRE(bitmap.size() == num_contents,
                "cache snapshot: bitmap length mismatch");
    for (std::size_t k = 0; k < num_contents; ++k) {
      if (bitmap[k] != 0) cache.set(n, k, true);
    }
  }
  return cache;
}

namespace {

void write_row(util::BinaryWriter& w, const model::LoadRow& row) {
  w.size(row.size());
  for (const std::size_t k : row.contents()) w.size(k);
  w.size(row.values().size());
  for (const double value : row.values()) w.f64(value);
}

/// Decodes a row written by write_row into `row`, whose shape comes from
/// the config. Both counts are count()-guarded, and LoadRow::assign
/// rejects unsorted, duplicate or out-of-catalogue ids and a values count
/// other than classes x contents with InvalidArgument.
void read_row(util::BinaryReader& r, model::LoadRow& row) {
  const std::vector<std::size_t> contents = r.size_vec();
  const linalg::Vec values = r.f64_vec_as<linalg::Vec>();
  row.assign(contents, values);
}

}  // namespace

void write_load(util::BinaryWriter& w, const model::LoadAllocation& load) {
  w.size(load.num_sbs());
  w.size(load.num_contents());
  for (std::size_t n = 0; n < load.num_sbs(); ++n) write_row(w, load.row(n));
  w.boolean(load.has_neighbor());
  if (load.has_neighbor()) {
    for (std::size_t n = 0; n < load.num_sbs(); ++n) {
      write_row(w, load.neighbor_row(n));
    }
  }
}

model::LoadAllocation read_load(util::BinaryReader& r,
                                const model::NetworkConfig& config) {
  const std::size_t num_sbs = r.size();
  const std::size_t num_contents = r.size();
  MDO_REQUIRE(num_sbs == config.num_sbs() &&
                  num_contents == config.num_contents,
              "load snapshot: shape mismatch against the instance config");
  model::LoadAllocation load(config);
  for (std::size_t n = 0; n < num_sbs; ++n) read_row(r, load.row(n));
  if (r.boolean()) {
    load.ensure_neighbor();
    for (std::size_t n = 0; n < num_sbs; ++n) {
      read_row(r, load.neighbor_row(n));
    }
  }
  return load;
}

void write_decision(util::BinaryWriter& w,
                    const model::SlotDecision& decision) {
  write_cache(w, decision.cache);
  write_load(w, decision.load);
}

model::SlotDecision read_decision(util::BinaryReader& r,
                                  const model::NetworkConfig& config) {
  model::SlotDecision decision;
  decision.cache = read_cache(r, config);
  decision.load = read_load(r, config);
  return decision;
}

void write_schedule(util::BinaryWriter& w, const model::Schedule& schedule) {
  w.size(schedule.size());
  for (const auto& decision : schedule) write_decision(w, decision);
}

model::Schedule read_schedule(util::BinaryReader& r,
                              const model::NetworkConfig& config) {
  const std::size_t count = r.count();
  model::Schedule schedule;
  schedule.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    schedule.push_back(read_decision(r, config));
  }
  return schedule;
}

}  // namespace mdo::runtime
