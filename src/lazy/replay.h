// Replay-on-demand provenance (paper Section 8 future work; Ariadne's
// "replay lazy" strategy). The eager trackers pay per interaction and
// hold standing per-vertex state; this engine pays per query instead:
// it holds only a reference to the immutable Tin and, for each query,
// constructs a fresh tracker and replays the relevant interactions
// through it. Three query shapes:
//   - Provenance(v): full replay of the whole log;
//   - Provenance(v, t): replay of the historical prefix with
//     timestamps <= t;
//   - ProvenanceSliced(v): replay of only v's backward temporal
//     influence cone — the subset of interactions that can affect v's
//     final buffer, found by a reverse traversal over
//     Tin::VertexInteractions respecting timestamps.
// All three return exactly what the corresponding eager tracker would
// (bit-exact, since the surviving interactions are applied in the same
// order to identical fresh state).
#ifndef TINPROV_LAZY_REPLAY_H_
#define TINPROV_LAZY_REPLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/buffer.h"
#include "core/tin.h"
#include "core/types.h"
#include "policies/tracker.h"
#include "util/status.h"

namespace tinprov {

/// Per-query replay cost, for the eager-vs-lazy crossover accounting of
/// bench_lazy.
struct ReplayStats {
  /// Interactions fed through the per-query tracker.
  size_t interactions_replayed = 0;
  /// Vertices whose history the query had to reconstruct: the influence
  /// cone for sliced queries, all of them for full/prefix replays.
  size_t cone_vertices = 0;
};

/// Number of interactions with timestamp <= t — the historical replay
/// prefix of the lazy engine.
size_t PrefixLength(const Tin& tin, Timestamp t);

/// Indices (into tin.interactions(), ascending and therefore in time
/// order) of the interactions in `v`'s backward temporal influence
/// cone. A vertex u joins the cone with a time bound T when some cone
/// vertex receives quantity from u at time T; every interaction
/// touching u at or before T is then replayed, because outflows reshape
/// u's buffer composition and inflows recursively pull their own
/// sources into the cone. Replaying exactly this closure in global time
/// order reproduces v's final buffer bit-exactly.
/// `cone_vertices` (optional) receives the number of cone vertices.
/// An out-of-range `v` yields an empty cone.
std::vector<uint32_t> BackwardInfluenceCone(const Tin& tin, VertexId v,
                                            size_t* cone_vertices);

class LazyReplayEngine {
 public:
  /// Replays through fresh CreateTracker(kind, ...) instances.
  LazyReplayEngine(const Tin& tin, PolicyKind kind);

  /// Replays through whatever `factory` builds — any policy or scalable
  /// tracker (see TrackerRegistry::Factory()). Note that sliced
  /// replay assumes a tracker's behaviour at a vertex depends only on
  /// the histories of cone vertices; WindowedTracker's global reset
  /// counter violates that, so only full/prefix replay is exact for it.
  LazyReplayEngine(const Tin& tin, TrackerFactory factory);

  /// Provenance of `v` after the whole log, via full replay.
  StatusOr<Buffer> Provenance(VertexId v);

  /// Provenance of `v` at historical time `t` (inclusive), via prefix
  /// replay. Times before the first interaction yield an empty buffer.
  StatusOr<Buffer> Provenance(VertexId v, Timestamp t);

  /// Provenance of `v` after the whole log, replaying only v's backward
  /// temporal influence cone. Exact for every PolicyKind and for the
  /// vertex-local scalable trackers (Selective/Grouped/Budget); NOT for
  /// WindowedTracker, whose global reset counter sees a different
  /// interaction count under slicing — use Provenance() there.
  StatusOr<Buffer> ProvenanceSliced(VertexId v);

  /// Cost of the most recent successful query.
  const ReplayStats& last_stats() const { return last_stats_; }

 private:
  StatusOr<Buffer> ReplayPrefix(VertexId v, size_t prefix);
  StatusOr<std::unique_ptr<Tracker>> MakeTracker() const;

  const Tin* tin_;
  TrackerFactory factory_;
  ReplayStats last_stats_;
};

}  // namespace tinprov

#endif  // TINPROV_LAZY_REPLAY_H_
