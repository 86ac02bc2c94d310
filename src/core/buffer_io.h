// Field-wise serialization of the provenance tuple types.
//
// ProvPair and ProvTriple carry alignment padding, so memcpy-ing whole
// structs would leak indeterminate bytes into snapshots and break the
// save -> restore -> save byte-equality contract of Tracker::SaveState.
// These helpers write each field individually: the wire image is a pure
// function of the logical state.
//
// A list is its uint64_t entry count followed by the entries, and a
// tracker writes one list per vertex back to back. The list codecs work
// a whole block at a time: the writer extends its output once for all
// lists and encodes through a pointer, and the reader checks each
// list's byte length once against what remains, then decodes from a
// pointer into storage the container sized once. That keeps an epoch
// publish (save + restore of every vertex's list) close to the cost of
// copying its bytes, with no per-field append or Status.
#ifndef TINPROV_CORE_BUFFER_IO_H_
#define TINPROV_CORE_BUFFER_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "util/serialize.h"

namespace tinprov {

inline constexpr size_t WireSize(const ProvPair&) {
  return sizeof(VertexId) + sizeof(double);
}

inline constexpr size_t WireSize(const ProvTriple&) {
  return sizeof(VertexId) + sizeof(Timestamp) + sizeof(double);
}

/// Encodes one entry at `out`; returns the byte after it.
inline uint8_t* EncodeEntry(const ProvPair& entry, uint8_t* out) {
  std::memcpy(out, &entry.origin, sizeof(entry.origin));
  out += sizeof(entry.origin);
  std::memcpy(out, &entry.quantity, sizeof(entry.quantity));
  return out + sizeof(entry.quantity);
}

inline uint8_t* EncodeEntry(const ProvTriple& entry, uint8_t* out) {
  std::memcpy(out, &entry.origin, sizeof(entry.origin));
  out += sizeof(entry.origin);
  std::memcpy(out, &entry.birth, sizeof(entry.birth));
  out += sizeof(entry.birth);
  std::memcpy(out, &entry.quantity, sizeof(entry.quantity));
  return out + sizeof(entry.quantity);
}

/// Decodes one entry from `in`; returns the byte after it.
inline const uint8_t* DecodeEntry(const uint8_t* in, ProvPair* entry) {
  std::memcpy(&entry->origin, in, sizeof(entry->origin));
  in += sizeof(entry->origin);
  std::memcpy(&entry->quantity, in, sizeof(entry->quantity));
  return in + sizeof(entry->quantity);
}

inline const uint8_t* DecodeEntry(const uint8_t* in, ProvTriple* entry) {
  std::memcpy(&entry->origin, in, sizeof(entry->origin));
  in += sizeof(entry->origin);
  std::memcpy(&entry->birth, in, sizeof(entry->birth));
  in += sizeof(entry->birth);
  std::memcpy(&entry->quantity, in, sizeof(entry->quantity));
  return in + sizeof(entry->quantity);
}

/// Writes a block of consecutive lists of T — one per vertex — through
/// one output extension. The constructor's entry total sizes the block;
/// a short total only costs an extra extension and a long one is given
/// back when the writer goes out of scope, so the image is right either
/// way. Callers pass the count they maintain (num_entries_). Nothing
/// else may write to `writer` while this one is alive.
template <typename T>
class EntryListWriter {
 public:
  EntryListWriter(ByteWriter* writer, size_t num_lists, size_t total_entries)
      : writer_(writer),
        room_(num_lists * sizeof(uint64_t) + total_entries * WireSize(T{})),
        out_(writer->Extend(room_)) {}

  EntryListWriter(const EntryListWriter&) = delete;
  EntryListWriter& operator=(const EntryListWriter&) = delete;

  ~EntryListWriter() { writer_->Unextend(room_); }

  /// Starts a list; exactly `count` Add() calls must follow.
  void BeginList(size_t count) {
    const size_t need = sizeof(uint64_t) + count * WireSize(T{});
    if (need > room_) {
      out_ = writer_->Extend(need - room_) - room_;
      room_ = need;
    }
    room_ -= need;
    const uint64_t prefix = count;
    std::memcpy(out_, &prefix, sizeof(prefix));
    out_ += sizeof(prefix);
  }

  void Add(const T& entry) { out_ = EncodeEntry(entry, out_); }

 private:
  ByteWriter* writer_;
  size_t room_;  // bytes extended but not yet claimed by a list
  uint8_t* out_;
};

/// Reads a block of `num_lists` lists of T written by EntryListWriter.
/// Each list's byte length is checked once against the remaining bytes,
/// so a corrupted count can demand neither memory nor reads beyond the
/// snapshot; then `fill(i, count, entries)` decodes list i's `count`
/// entries from `entries` (DecodeEntry) into storage it sizes once.
template <typename T, typename Fill>
Status ReadEntryLists(ByteReader* reader, size_t num_lists, const Fill& fill) {
  for (size_t i = 0; i < num_lists; ++i) {
    uint64_t count = 0;
    if (reader->remaining() < sizeof(count)) {
      return Status::InvalidArgument(
          "snapshot truncated: entry list " + std::to_string(i) + " of " +
          std::to_string(num_lists) + " is missing");
    }
    std::memcpy(&count, reader->Take(sizeof(count)), sizeof(count));
    if (count > reader->remaining() / WireSize(T{})) {
      return Status::InvalidArgument(
          "snapshot truncated: entry vector of " + std::to_string(count) +
          " entries exceeds the remaining bytes");
    }
    const size_t n = static_cast<size_t>(count);
    fill(i, n, reader->Take(n * WireSize(T{})));
  }
  return Status::Ok();
}

}  // namespace tinprov

#endif  // TINPROV_CORE_BUFFER_IO_H_
