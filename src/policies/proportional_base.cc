#include "policies/proportional_base.h"

#include <algorithm>
#include <typeinfo>

#include "core/buffer_io.h"
#include "obs/metrics.h"
#include "util/simd.h"

namespace tinprov {

static_assert(sizeof(ProvPair) == 16 && alignof(ProvPair) == 8,
              "the sparse merge kernels assume the 16-byte "
              "{origin, pad, quantity} ProvPair layout");

void MergeScaled(SparseVector* dst, const SparseVector& src,
                 double fraction) {
  if (fraction == 0.0 || src.empty()) return;
  if (dst->empty()) {
    dst->reserve(src.size());
    for (const ProvPair& entry : src) {
      dst->push_back({entry.origin, entry.quantity * fraction});
    }
    return;
  }

  // Pass 1: count src origins missing from dst.
  size_t extra = 0;
  {
    size_t i = 0;
    size_t j = 0;
    while (j < src.size()) {
      if (i == dst->size() || src[j].origin < (*dst)[i].origin) {
        ++extra;
        ++j;
      } else if ((*dst)[i].origin < src[j].origin) {
        ++i;
      } else {
        ++i;
        ++j;
      }
    }
  }

  // Pass 2: merge backwards in place so no temporary list is needed.
  const size_t old_size = dst->size();
  dst->resize(old_size + extra);
  size_t i = old_size;      // one past the last unmerged dst entry
  size_t j = src.size();    // one past the last unmerged src entry
  size_t k = dst->size();   // one past the next write slot
  while (j > 0) {
    if (i > 0 && (*dst)[i - 1].origin == src[j - 1].origin) {
      (*dst)[--k] = {src[j - 1].origin,
                     (*dst)[i - 1].quantity + src[j - 1].quantity * fraction};
      --i;
      --j;
    } else if (i > 0 && (*dst)[i - 1].origin > src[j - 1].origin) {
      (*dst)[--k] = (*dst)[--i];
    } else {
      (*dst)[--k] = {src[j - 1].origin, src[j - 1].quantity * fraction};
      --j;
    }
  }
  // Remaining dst entries (i of them) are already in their final slots.
}

void MergeScaledInto(SparseVector* out, const SparseVector& a,
                     const SparseVector& b, double fraction) {
  out->ResizeUninitialized(a.size() + b.size());
  const size_t merged = simd::GallopMergeScaled(
      out->data(), a.data(), a.size(), b.data(), b.size(), fraction);
  out->ResizeUninitialized(merged);
}

Status SparseProportionalBase::Process(const Interaction& interaction) {
  auto deficit = CheckAndComputeDeficit(interaction, totals_);
  if (!deficit.ok()) return deficit.status();
  TINPROV_COUNTER_ADD("tracker.interactions", 1);
  SparseVector& src_buffer = buffers_[interaction.src];
  if (*deficit > 0.0) {
    OnGenerated(interaction.src, *deficit);
    if (AttributeGeneration(interaction.src)) {
      const ProvPair entry{GenerationLabel(interaction.src), *deficit};
      // The label filter (sharded replay) skips only the store of a
      // non-owned label, after the subclass hooks and with the
      // attributed total still credited below, so hook state (e.g.
      // Selective's tracked_generated) and the attributed total evolve
      // in every shard exactly as in the sequential tracker.
      if (label_mask_ == nullptr || (entry.origin < label_mask_size_ &&
                                     label_mask_[entry.origin] != 0)) {
        // Insert the newly generated share at its sorted position.
        auto it = std::lower_bound(src_buffer.begin(), src_buffer.end(),
                                   entry.origin,
                                   [](const ProvPair& p, VertexId origin) {
                                     return p.origin < origin;
                                   });
        if (it != src_buffer.end() && it->origin == entry.origin) {
          it->quantity += entry.quantity;
        } else {
          if (src_buffer.empty()) ++num_nonempty_;
          src_buffer.insert(it, entry);
          ++num_entries_;
        }
      }
      attributed_generated_ += *deficit;
    }
    totals_[interaction.src] += *deficit;
  }

  if (interaction.quantity == 0.0 ||
      interaction.src == interaction.dst) {
    // Nothing moves, or a pro-rata transfer to oneself leaves the
    // breakdown unchanged; either way the interaction still counts for
    // the post-interaction hooks (window positions advance).
    AfterInteraction(interaction);
    return Status::Ok();
  }

  const double fraction =
      std::min(1.0, interaction.quantity / totals_[interaction.src]);
  SparseVector& dst_buffer = buffers_[interaction.dst];
  const size_t dst_before = dst_buffer.size();
  const bool dst_was_empty = dst_buffer.empty();
  if (fraction >= 1.0) {
    // Whole-buffer move: into an empty destination it is a pointer swap;
    // otherwise merge at full strength, then drop the source. Either way
    // the tuples only change owner, so num_entries_ is debited for the
    // source and re-credited by the final destination delta. Any alpha
    // residue moves implicitly with the balance.
    num_entries_ -= src_buffer.size();
    if (!src_buffer.empty()) --num_nonempty_;
    if (dst_buffer.empty()) {
      dst_buffer.swap(src_buffer);
    } else if (!src_buffer.empty()) {
      MergeScaledInto(&scratch_, dst_buffer, src_buffer, 1.0);
      dst_buffer.swap(scratch_);
      src_buffer.clear();
    }
  } else if (!src_buffer.empty()) {
    MergeScaledInto(&scratch_, dst_buffer, src_buffer, fraction);
    dst_buffer.swap(scratch_);
    simd::ScalePairsInPlace(src_buffer.data(), 1.0 - fraction,
                            src_buffer.size());
  }
  // Bound both lists' capacity to their live tuples: a whole-buffer
  // move leaves the source empty (or holding the destination's old
  // block), and a merge hands the destination the scratch block, sized
  // for the unmerged sum. Without this every list keeps its high-water
  // block and the footprint tracks history rather than live
  // provenance.
  src_buffer.ShrinkIfSparse();
  dst_buffer.ShrinkIfSparse();
  if (dst_was_empty && !dst_buffer.empty()) ++num_nonempty_;
  num_entries_ += dst_buffer.size() - dst_before;
  totals_[interaction.src] -= interaction.quantity;
  totals_[interaction.dst] += interaction.quantity;
  TINPROV_HISTOGRAM_OBSERVE("tracker.list_len", dst_buffer.size());
  AfterInteraction(interaction);
  return Status::Ok();
}

namespace {

/// Appends v's full provenance list, label-sorted, to `out`, built from
/// label shards whose lists hold disjoint label slices (see
/// RestrictLabels). A pure interleave by label — no arithmetic — so
/// the result is deterministic and bit-identical to the unrestricted
/// tracker's list. `cursor` is scratch, resized as needed.
void InterleaveLabelSlices(
    const std::vector<std::unique_ptr<SparseProportionalBase>>& shards,
    VertexId v, std::vector<ProvPair>* out, std::vector<size_t>* cursor) {
  // Repeated min-head selection: shard counts are small, and the slices
  // are disjoint, so ties are impossible.
  const size_t count = shards.size();
  cursor->assign(count, 0);
  size_t total_len = 0;
  for (const auto& shard : shards) total_len += shard->EntriesOf(v).size();
  out->reserve(out->size() + total_len);
  for (size_t picked = 0; picked < total_len; ++picked) {
    size_t best = count;
    VertexId best_origin = kInvalidVertex;
    for (size_t s = 0; s < count; ++s) {
      const SparseVector& list = shards[s]->EntriesOf(v);
      if ((*cursor)[s] < list.size() &&
          (best == count || list[(*cursor)[s]].origin < best_origin)) {
        best = s;
        best_origin = list[(*cursor)[s]].origin;
      }
    }
    out->push_back(shards[best]->EntriesOf(v)[(*cursor)[best]]);
    ++(*cursor)[best];
  }
}

}  // namespace

Status SparseProportionalBase::AdoptLabelShards(
    const std::vector<std::unique_ptr<SparseProportionalBase>>& shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("no shards to adopt");
  }
  if (num_entries_ != 0 || total_generated_ != 0.0) {
    return Status::FailedPrecondition(
        "adopting tracker must be freshly constructed");
  }
  for (const auto& shard : shards) {
    if (shard == nullptr || typeid(*shard) != typeid(*this) ||
        shard->totals_.size() != totals_.size()) {
      return Status::InvalidArgument(
          "shard tracker missing or of a different type/shape");
    }
  }
  std::vector<ProvPair> merged;
  std::vector<size_t> cursor;
  for (VertexId v = 0; v < totals_.size(); ++v) {
    merged.clear();
    InterleaveLabelSlices(shards, v, &merged, &cursor);
    buffers_[v].assign(merged.data(), merged.data() + merged.size());
    num_entries_ += merged.size();
    if (!merged.empty()) ++num_nonempty_;
  }
  const SparseProportionalBase& replica = *shards[0];
  totals_ = replica.totals_;
  total_generated_ = replica.total_generated_;
  attributed_generated_ = replica.attributed_generated_;
  // Aux state (window position, selective stats, ...) is replicated
  // too; round-trip shard 0's through the snapshot hooks so every
  // subclass adopts it without a dedicated virtual.
  std::vector<uint8_t> aux;
  ByteWriter writer(&aux);
  replica.SaveAuxState(&writer);
  ByteReader reader(aux.data(), aux.size());
  Status status = RestoreAuxState(&reader);
  if (!status.ok()) return status;
  if (reader.remaining() != 0) {
    return Status::Internal("aux state adoption left trailing bytes");
  }
  return Status::Ok();
}

Buffer SparseProportionalBase::Provenance(VertexId v) const {
  Buffer result;
  result.total = totals_[v];
  const SparseVector& buffer = buffers_[v];
  result.entries.assign(buffer.begin(), buffer.end());
  return result;
}

size_t SparseProportionalBase::MemoryUsage() const {
  return num_entries_ * sizeof(ProvPair) +
         totals_.capacity() * sizeof(double) + AuxiliaryBytes();
}

size_t SparseProportionalBase::MemoryBytes() const {
  // Real reservations, not stored tuples: the pool holds every list's
  // backing storage (including scratch_ and freed blocks awaiting
  // reuse), so pool bytes + the per-vertex arrays is the allocator-level
  // footprint the logical MemoryUsage() deliberately excludes.
  return pool_.bytes_reserved() + totals_.capacity() * sizeof(double) +
         buffers_.capacity() * sizeof(SparseVector) + AuxiliaryBytes();
}

void SparseProportionalBase::PublishMetrics() const {
  TINPROV_GAUGE_SET("memory.pool_bytes", PoolBytesReserved());
  TINPROV_GAUGE_SET("tracker.alpha_residue", AlphaResidue());
  TINPROV_GAUGE_SET("tracker.entries", num_entries());
}

void SparseProportionalBase::ReserveEntries(size_t count) {
  pool_.Reserve(count * sizeof(ProvPair));
}

void SparseProportionalBase::ReserveHint(const DatasetStats& stats) {
  // Every interaction adds at most one brand-new tuple (merges only
  // copy existing origins between lists), so standing tuples are
  // bounded by the stream length; a soft cap keeps a mis-scaled hint
  // from pinning memory, since the arena grows on demand anyway. An
  // unknown stream length (0) reserves nothing — open-ended streams
  // grow the arena on demand.
  constexpr size_t kMaxHintEntries = (size_t{8} << 20) / sizeof(ProvPair);
  ReserveEntries(std::min(stats.num_interactions, kMaxHintEntries));
}

void SparseProportionalBase::SaveStateBody(ByteWriter* writer) const {
  writer->AppendSpan(totals_.data(), totals_.size());
  writer->AppendSpan(&attributed_generated_, 1);
  {
    EntryListWriter<ProvPair> lists(writer, buffers_.size(), num_entries_);
    for (const SparseVector& buffer : buffers_) {
      lists.BeginList(buffer.size());
      for (const ProvPair& entry : buffer) lists.Add(entry);
    }
  }
  SaveAuxState(writer);
}

Status SparseProportionalBase::RestoreStateBody(ByteReader* reader) {
  Status status = reader->ReadSpan(totals_.data(), totals_.size());
  if (!status.ok()) return status;
  status = reader->ReadSpan(&attributed_generated_, 1);
  if (!status.ok()) return status;
  num_entries_ = 0;
  num_nonempty_ = 0;
  status = ReadEntryLists<ProvPair>(
      reader, buffers_.size(),
      [this](size_t v, size_t count, const uint8_t* in) {
        SparseVector& buffer = buffers_[v];
        // Sized like a fresh tracker's list: a list that must grow gives
        // its block back first, so the new one is exactly `count` (not
        // doubled), and one whose block the new contents leave mostly
        // idle shrinks by the same hysteresis rule as Process().
        if (count > buffer.capacity()) {
          buffer.clear();
          buffer.ShrinkIfSparse();
        }
        buffer.ResizeUninitialized(count);
        for (ProvPair& entry : buffer) in = DecodeEntry(in, &entry);
        buffer.ShrinkIfSparse();
        num_entries_ += count;
        if (count > 0) ++num_nonempty_;
      });
  if (!status.ok()) return status;
  return RestoreAuxState(reader);
}

void SparseProportionalBase::ClearAllEntries() {
  // Emptied lists hand their blocks back to the pool, so a window reset
  // leaves no capacity behind; refilling lists draw recycled blocks.
  for (SparseVector& buffer : buffers_) {
    buffer.clear();
    buffer.ShrinkIfSparse();
  }
  num_entries_ = 0;
  num_nonempty_ = 0;
  attributed_generated_ = 0.0;
}

}  // namespace tinprov
