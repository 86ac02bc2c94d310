// Flat binary serialization for tracker snapshots.
//
// The lazy layer's CheckpointedLog checkpoints tracker state every N
// interactions and restores it on historical queries, so the format
// optimizes for write/restore speed over portability: little-endian
// host layout, memcpy of trivially copyable values (padded tuple types
// go through the field-wise helpers in core/buffer_io.h instead).
// Snapshots live and die inside one process; they are not an
// interchange format.
#ifndef TINPROV_UTIL_SERIALIZE_H_
#define TINPROV_UTIL_SERIALIZE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace tinprov {

/// Appends trivially copyable values to a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Append(const T& value) {
    AppendSpan(&value, 1);
  }

  /// Raw span of `count` values with no length prefix — for arrays whose
  /// length is fixed by the tracker's configuration (e.g. per-vertex
  /// balances of a known vertex count).
  template <typename T>
  void AppendSpan(const T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter handles trivially copyable types only");
    if (count > 0) std::memcpy(Extend(count * sizeof(T)), values,
                               count * sizeof(T));
  }

  /// Grows the output by `bytes` and returns the start of the new tail,
  /// which the caller must fill (or give back with Unextend). The list
  /// codecs (core/buffer_io.h) write every vertex's list through one
  /// such tail instead of one append per field; a caller that reserved
  /// the output beforehand pays no reallocation either.
  uint8_t* Extend(size_t bytes) {
    const size_t offset = out_->size();
    out_->resize(offset + bytes);
    return out_->data() + offset;
  }

  /// Gives back the last `bytes` bytes of an Extend() the caller did not
  /// fill after all.
  void Unextend(size_t bytes) { out_->resize(out_->size() - bytes); }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked reader over a byte span produced by ByteWriter. Every
/// accessor returns InvalidArgument instead of reading past the end, so
/// truncated or mismatched snapshots fail loudly.
class ByteReader {
 public:
  /// A null `data` reads as empty whatever `size` claims, so callers
  /// handing over a buffer they never filled get InvalidArgument from
  /// the first Read instead of a null dereference.
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(data == nullptr ? 0 : size) {}

  size_t remaining() const { return size_ - pos_; }

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteReader handles trivially copyable types only");
    return ReadSpan(out, 1);
  }

  template <typename T>
  Status ReadSpan(T* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteReader handles trivially copyable types only");
    if (count > remaining() / sizeof(T)) {
      return Status::InvalidArgument(
          "snapshot truncated: need " + std::to_string(count * sizeof(T)) +
          " bytes, have " + std::to_string(remaining()));
    }
    std::memcpy(out, data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return Status::Ok();
  }

  /// Hands out the next `bytes` bytes in place and steps past them; the
  /// caller has already checked `bytes <= remaining()` (a list codec
  /// checks its whole byte length once, then decodes from the pointer).
  const uint8_t* Take(size_t bytes) {
    assert(bytes <= remaining());
    const uint8_t* at = data_ + pos_;
    pos_ += bytes;
    return at;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tinprov

#endif  // TINPROV_UTIL_SERIALIZE_H_
