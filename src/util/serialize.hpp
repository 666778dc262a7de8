// Binary serialization primitives for checkpointing.
//
// Checkpoint payloads (runtime/checkpoint.hpp) must restore *bit-identical*
// state: a resumed run has to reproduce the uninterrupted trajectory exactly.
// Doubles therefore round-trip through their IEEE-754 bit pattern (bit_cast),
// never through text formatting, and all integers are written as fixed-width
// little-endian so snapshots are portable across hosts.
//
// BinaryReader is adversarial by construction: every read bounds-checks the
// buffer and throws util-level errors on truncation, so a torn or corrupted
// snapshot is rejected instead of silently restoring garbage.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mdo::util {

/// Appends fixed-width little-endian values to a byte buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t value) { bytes_.push_back(value); }

  void u32(std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes_.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  }

  void u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes_.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  }

  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }

  void size(std::size_t value) { u64(static_cast<std::uint64_t>(value)); }

  void boolean(bool value) { u8(value ? 1 : 0); }

  /// Exact IEEE-754 bit pattern; NaN payloads and signed zeros round-trip.
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  void str(const std::string& value) {
    size(value.size());
    bytes_.insert(bytes_.end(), value.begin(), value.end());
  }

  template <class Alloc>
  void f64_vec(const std::vector<double, Alloc>& values) {
    size(values.size());
    for (const double v : values) f64(v);
  }

  void size_vec(const std::vector<std::size_t>& values) {
    size(values.size());
    for (const std::size_t v : values) size(v);
  }

  void u8_vec(const std::vector<std::uint8_t>& values) {
    size(values.size());
    bytes_.insert(bytes_.end(), values.begin(), values.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Reads values written by BinaryWriter; throws InvalidArgument on any
/// attempt to read past the end of the buffer (truncated snapshot).
class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes.data()), size_(bytes.size()) {}
  BinaryReader(const std::uint8_t* bytes, std::size_t size)
      : bytes_(bytes), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<std::uint32_t>(bytes_[pos_++]) << shift;
    }
    return value;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      value |= static_cast<std::uint64_t>(bytes_[pos_++]) << shift;
    }
    return value;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// A scalar std::size_t VALUE (a dimension, an id, a counter). No bound
  /// against the payload: a short payload may legitimately store
  /// num_contents = 10^4. Use count() for element counts that gate reads
  /// or allocations.
  std::size_t size() { return static_cast<std::size_t>(u64()); }

  /// An element COUNT for data that follows in this payload. Every element
  /// occupies at least one byte, so a count exceeding the remaining bytes
  /// is corruption — rejecting it here bounds allocations before they
  /// happen.
  std::size_t count() {
    const std::uint64_t value = u64();
    MDO_REQUIRE(value <= static_cast<std::uint64_t>(size_ - pos_),
                "snapshot declares more elements than the payload holds");
    return static_cast<std::size_t>(value);
  }

  bool boolean() {
    const std::uint8_t value = u8();
    MDO_REQUIRE(value <= 1, "snapshot boolean field is not 0/1");
    return value != 0;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::size_t n = count();
    need(n);
    std::string value(reinterpret_cast<const char*>(bytes_ + pos_), n);
    pos_ += n;
    return value;
  }

  std::vector<double> f64_vec() { return f64_vec_as<std::vector<double>>(); }

  /// f64_vec into any double container with resize()/operator[] — used to
  /// restore directly into linalg::Vec (aligned allocator) without a copy.
  /// count()-guarded like every other element read.
  template <class Vector>
  Vector f64_vec_as() {
    const std::size_t n = count();
    need(n * 8);  // n <= remaining bytes, so n * 8 cannot overflow
    Vector values;
    values.resize(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = f64();
    return values;
  }

  std::vector<std::size_t> size_vec() {
    const std::size_t n = count();
    need(n * 8);
    std::vector<std::size_t> values(n);
    for (auto& v : values) v = size();
    return values;
  }

  std::vector<std::uint8_t> u8_vec() {
    const std::size_t n = count();
    need(n);
    std::vector<std::uint8_t> values(bytes_ + pos_, bytes_ + pos_ + n);
    pos_ += n;
    return values;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::size_t count) const {
    MDO_REQUIRE(count <= size_ - pos_,
                "snapshot truncated: read past end of payload");
  }

  const std::uint8_t* bytes_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace mdo::util
