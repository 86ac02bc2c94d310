// The sparse pro-rata replay kernel shared by the exact proportional
// policy (Section 4.3) and the scalable/ layer (Sections 5.2-5.3).
//
// SparseProportionalBase implements the full Process() loop — deficit
// generation, sorted insert, and the merge transfer — with three
// customisation points: how generated quantity is labelled (grouped
// tracking), whether it is attributed at all (selective tracking), and
// a post-interaction hook (window resets, budget shrinking). With the
// default hooks it is exactly the paper's proportional policy.
//
// Performance architecture: every tracker owns a NodePool (util/pool.h)
// that backs all of its provenance lists and a reusable merge scratch,
// so the per-interaction transfer is a single gallop-merge pass
// (util/simd.h) whose storage churn is served by the pool's free lists,
// not malloc. After every transfer both lists apply PooledVec's
// hysteresis shrink, so reserved capacity stays within a small factor
// of the live tuples instead of each list's high-water mark.
// ReserveHint() pre-sizes the pool from dataset stats.
//
// Subclasses may under-attribute: a vertex's entry sum is <= its
// buffered total, and the difference is the unattributed residue the
// paper calls alpha. Balances themselves are always exact — scalable
// tracking trades provenance detail for memory, never conservation of
// flow.
#ifndef TINPROV_POLICIES_PROPORTIONAL_BASE_H_
#define TINPROV_POLICIES_PROPORTIONAL_BASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "policies/tracker.h"
#include "util/pool.h"

namespace tinprov {

/// Origin-sorted provenance list, storage-backed by its tracker's pool
/// (heap-backed when default-constructed, e.g. in tests).
using SparseVector = PooledVec<ProvPair>;

/// dst += fraction * src, merging by origin; both vectors stay sorted.
/// Reference two-pass in-place implementation, kept as the semantic
/// spec for the merge (tests compare the gallop kernel against it) and
/// as the pre-PR baseline that bench_micro's BM_SparseMergeReference
/// measures. The replay loop itself uses MergeScaledInto.
void MergeScaled(SparseVector* dst, const SparseVector& src, double fraction);

/// out = a + fraction * b (merged by origin, sorted). `out` is resized
/// to the merged length; its previous contents are discarded. out must
/// be distinct from both inputs. This is the production merge: one
/// forward gallop-merge pass into pooled scratch storage.
void MergeScaledInto(SparseVector* out, const SparseVector& a,
                     const SparseVector& b, double fraction);

class SparseProportionalBase : public Tracker {
 public:
  Status Process(const Interaction& interaction) final;
  double BufferTotal(VertexId v) const override { return totals_[v]; }
  Buffer Provenance(VertexId v) const override;
  size_t MemoryUsage() const override;
  size_t MemoryBytes() const override;
  void PublishMetrics() const override;
  using Tracker::ReserveHint;  // keep the Tin convenience form visible
  void ReserveHint(const DatasetStats& stats) override;

  /// Provenance tuples currently stored across all vertices.
  size_t num_entries() const { return num_entries_; }

  /// Vertices whose provenance list is non-empty, maintained
  /// incrementally so Figure 6's average-list-length probe is O(1).
  size_t num_nonempty() const { return num_nonempty_; }

  /// Restricts the lists to generation labels with mask[label] != 0:
  /// quantity generated under any other label still raises balances
  /// and the attributed total — both are replicated state every shard
  /// keeps exactly as the unrestricted tracker does — but is never
  /// stored. `mask` (of `size` labels) is borrowed and must outlive the
  /// tracker; nullptr lifts the restriction. This is the sharded-replay
  /// hook (src/parallel/sharded_replay.h): the pro-rata transfer is
  /// linear per label, so a shard that owns a label subset replays the
  /// full log and reproduces exactly that subset of every list,
  /// bit-for-bit, and AdoptLabelShards reassembles the full tracker.
  void RestrictLabels(const uint8_t* mask, size_t size) {
    label_mask_ = mask;
    label_mask_size_ = size;
  }

  /// Read-only view of v's provenance list; AdoptLabelShards merges
  /// these across label shards.
  const SparseVector& EntriesOf(VertexId v) const { return buffers_[v]; }

  /// Pre-sizes the pool for about `count` standing tuples.
  void ReserveEntries(size_t count);

  /// Bytes the backing pool obtained from the system allocator —
  /// allocator-level footprint, distinct from the logical MemoryUsage().
  size_t PoolBytesReserved() const { return pool_.bytes_reserved(); }

  /// Builds this freshly constructed tracker from label shards:
  /// trackers of this one's type and configuration that each processed
  /// the same stream under RestrictLabels over disjoint label sets.
  /// Each vertex's list becomes the label interleave of its shard
  /// slices; balances, total_generated, the attributed total and aux
  /// state are replicated in every shard and come from shard 0, so the
  /// caller must have checked that the shards agree (the sharded replay
  /// engine does). On success this tracker is bit-identical to one
  /// that processed the stream itself — snapshots, further Process()
  /// calls and queries cannot tell the difference.
  Status AdoptLabelShards(
      const std::vector<std::unique_ptr<SparseProportionalBase>>& shards);

  /// The paper's alpha: generated quantity whose provenance is NOT
  /// recorded in any list (declined attribution, window resets, budget
  /// shrinks). Maintained incrementally — the standing attributed
  /// quantity is credited at insert time and debited when tuples are
  /// dropped; pro-rata transfers only move tuples between lists, so
  /// they leave it unchanged. Zero for the exact policy. A label shard
  /// (RestrictLabels) reports the unrestricted tracker's value: labels
  /// it does not store are another shard's lists, not alpha.
  double AlphaResidue() const {
    return total_generated() - attributed_generated_;
  }

 protected:
  explicit SparseProportionalBase(size_t num_vertices)
      : Tracker(num_vertices),
        buffers_(num_vertices, SparseVector(&pool_)),
        totals_(num_vertices, 0.0),
        scratch_(&pool_) {}

  /// Label recorded for quantity generated at `src`. The default keeps
  /// the vertex itself; GroupedTracker maps it to a group id. Labels
  /// form their own id space — lists stay sorted by label, and the
  /// merge merges by label exactly as it merges by origin.
  virtual VertexId GenerationLabel(VertexId src) const { return src; }

  /// Whether generation at `src` is attributed at all. When false the
  /// deficit still raises the balance but joins the alpha residue.
  virtual bool AttributeGeneration(VertexId /*src*/) const { return true; }

  /// Called once per deficit-generating interaction with the generated
  /// quantity, before the attribution filter is consulted.
  virtual void OnGenerated(VertexId /*src*/, double /*quantity*/) {}

  /// Called after every successfully applied interaction.
  virtual void AfterInteraction(const Interaction& /*interaction*/) {}

  /// Drops every stored tuple and returns the lists' blocks to the
  /// pool, leaving balances intact (the window reset): all attributed
  /// quantity collapses into alpha. O(|V|).
  void ClearAllEntries();

  /// Standing bytes of subclass-owned per-vertex state (group maps,
  /// tracked-set masks, shrink counters), added into MemoryUsage().
  virtual size_t AuxiliaryBytes() const { return 0; }

  /// Snapshot framing for the shared buffers/totals lives here; the
  /// scalable subclasses append their own mutable state (window
  /// position, shrink counters, ...) through these hooks. Configuration
  /// (window size, tracked set, group map) is a constructor concern and
  /// is deliberately not serialized.
  void SaveStateBody(ByteWriter* writer) const final;
  Status RestoreStateBody(ByteReader* reader) final;
  virtual void SaveAuxState(ByteWriter* /*writer*/) const {}
  virtual Status RestoreAuxState(ByteReader* /*reader*/) {
    return Status::Ok();
  }

  /// Debits AlphaResidue()'s attributed side when a subclass drops
  /// stored tuples without a full reset (budget shrinking).
  void NoteAttributedDropped(double quantity) {
    attributed_generated_ -= quantity;
  }

  // Declaration order is a destruction contract: buffers_ and scratch_
  // return their storage to pool_, so the pool must be destroyed last
  // (i.e. declared first).
  NodePool pool_;
  std::vector<SparseVector> buffers_;
  std::vector<double> totals_;
  SparseVector scratch_;
  size_t num_entries_ = 0;
  size_t num_nonempty_ = 0;
  /// Standing attributed quantity: every deficit that reached a list,
  /// minus everything dropped since. See AlphaResidue().
  double attributed_generated_ = 0.0;

 private:
  const uint8_t* label_mask_ = nullptr;
  size_t label_mask_size_ = 0;
};

}  // namespace tinprov

#endif  // TINPROV_POLICIES_PROPORTIONAL_BASE_H_
