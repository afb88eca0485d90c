// Minimal bounds-checked binary (de)serialization helpers.
//
// Fixed-width little-endian encoding; doubles as IEEE-754 bit patterns.
// Writers append to a std::string; readers return Status on truncated or
// malformed input instead of crashing (snapshots may come from disk).
// Checksum/CheckedPayload are the one integrity check of every blob the
// repo writes: snapshots, checkpoints and journal records.

#ifndef RL0_UTIL_SERIALIZE_H_
#define RL0_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "rl0/util/rng.h"
#include "rl0/util/status.h"

namespace rl0 {

/// Appends fixed-width values to a byte buffer.
class BinaryWriter {
 public:
  /// Creates a writer appending to `out` (not owned; must outlive).
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }

  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }

  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }

  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  void PutBytes(const void* data, size_t n) { PutRaw(data, n); }

  /// Appends a point's coordinates (a Point or PointView: anything with
  /// data() and dim()) as consecutive doubles.
  template <typename PointLike>
  void PutPoint(const PointLike& p) {
    PutRaw(p.data(), p.dim() * sizeof(double));
  }

 private:
  void PutRaw(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }

  std::string* out_;
};

/// Consumes fixed-width values from a byte buffer with bounds checks.
class BinaryReader {
 public:
  /// Creates a reader over `data` (not owned; must outlive).
  explicit BinaryReader(const std::string& data) : data_(data) {}

  Status GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetDouble(double* v) { return GetRaw(v, sizeof(*v)); }

  Status GetBytes(void* out, size_t n) { return GetRaw(out, n); }

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }

  /// OK iff every byte was consumed (trailing garbage check).
  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument("trailing bytes in snapshot");
    }
    return Status::OK();
  }

 private:
  Status GetRaw(void* out, size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::InvalidArgument("snapshot truncated");
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const std::string& data_;
  size_t pos_ = 0;
};

/// FNV-1a over `length` bytes, finalized with SplitMix64 — detects any
/// corruption of a blob, not just fields covered by structural checks.
inline uint64_t Checksum(const char* data, size_t length) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < length; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return SplitMix64(h);
}

/// Verifies a blob's trailing Checksum (over everything before it) and
/// returns the payload prefix.
inline Result<std::string> CheckedPayload(const std::string& blob) {
  if (blob.size() < sizeof(uint64_t)) {
    return Status::InvalidArgument("blob too small");
  }
  const size_t payload_size = blob.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, blob.data() + payload_size, sizeof(stored));
  if (Checksum(blob.data(), payload_size) != stored) {
    return Status::InvalidArgument("checksum mismatch");
  }
  return blob.substr(0, payload_size);
}

}  // namespace rl0

#endif  // RL0_UTIL_SERIALIZE_H_
