#ifndef STORYPIVOT_CORE_REFINER_H_
#define STORYPIVOT_CORE_REFINER_H_

#include <cstdint>
#include <vector>

#include "core/aligner.h"
#include "core/similarity.h"
#include "core/story_set.h"
#include "storage/snippet_store.h"

namespace storypivot {

/// Knobs of the story-refinement step (Fig. 1d).
struct RefinementConfig {
  /// A snippet is relocated when the target story scores at least this
  /// much higher than its current story.
  double margin = 0.05;
  /// Snippet-pair counterpart detection thresholds (reused from alignment
  /// semantics): similarity and time tolerance for cross-source
  /// counterparts.
  double pair_threshold = 0.45;
  Timestamp pair_tolerance = 3 * kSecondsPerDay;
  /// After relocations, stories that lost snippets are checked for
  /// connectivity and split into connected components when they fall
  /// apart.
  bool split_check = true;
  /// Connectivity edges require at least this similarity...
  double split_edge_threshold = 0.25;
  /// ...within this time distance.
  Timestamp split_edge_window = 14 * kSecondsPerDay;
};

/// What a refinement pass did.
struct RefinementStats {
  int snippets_moved = 0;
  int stories_created = 0;
  int stories_split = 0;
  uint64_t conflicts_examined = 0;
};

/// An exact record of the primitive story-set mutations one refinement
/// pass EXECUTED (skipped candidate moves are not recorded), in
/// execution order, with every assigned story id explicit. Replaying a
/// journal against partitions in the pre-refinement state reproduces
/// the post-refinement state bit for bit — without re-running any
/// similarity scoring. The determinism tests compare the journals of
/// runs with different thread counts entry for entry.
struct RefinementJournal {
  /// One executed relocation: `snippet` left story `from` for story
  /// `to` (freshly created by this move when `created`).
  struct Move {
    SourceId source = 0;
    SnippetId snippet = 0;
    StoryId from = kInvalidStoryId;
    StoryId to = kInvalidStoryId;
    bool created = false;
  };
  /// One executed split of `story` into `components`, which received
  /// `assigned` ids (assigned[0] == story; components pre-sorted by
  /// earliest member id, exactly as executed).
  struct Split {
    SourceId source = 0;
    StoryId story = kInvalidStoryId;
    std::vector<std::vector<SnippetId>> components;
    std::vector<StoryId> assigned;
  };
  struct Entry {
    enum class Kind : uint8_t { kMove = 0, kSplit = 1 };
    Kind kind = Kind::kMove;
    Move move;
    Split split;
  };
  std::vector<Entry> entries;
};

/// Resolves conflicts between story identification and story alignment:
/// when a snippet's cross-source counterpart lives in a *different*
/// integrated story, identification likely mis-assigned one of them
/// (Fig. 1: v14 sits in c11 although its counterpart's story aligned into
/// c'3). The refiner relocates such snippets into the same-source story of
/// the counterpart's integrated story when the similarity margin supports
/// it, propagating alignment decisions back into the per-source story
/// sets (§2.3).
class StoryRefiner {
 public:
  StoryRefiner(const SimilarityModel* model, RefinementConfig config)
      : model_(model), config_(config) {}

  StoryRefiner(const StoryRefiner&) = delete;
  StoryRefiner& operator=(const StoryRefiner&) = delete;

  /// Runs one refinement pass over all partitions, using `alignment` as
  /// the evidence. Mutates the per-source story sets. The alignment result
  /// becomes stale afterwards; callers re-align if they need fresh
  /// integrated stories. When `journal` is non-null, every executed
  /// primitive is appended to it (see RefinementJournal). With a non-null
  /// `pool`, the counterpart search runs on it (FindCounterparts); the
  /// outcome does not depend on the thread count.
  RefinementStats Refine(const std::vector<StorySet*>& partitions,
                         const AlignmentResult& alignment,
                         const SnippetStore& store,
                         StoryId* next_story_id,
                         RefinementJournal* journal = nullptr,
                         ThreadPool* pool = nullptr) const;

  /// Splits `story_id` into connected components under the configured
  /// edge threshold/window if it is no longer connected. Returns the
  /// number of additional stories created (0 when still connected).
  /// An executed split is appended to `journal` when non-null.
  int SplitIfDisconnected(StorySet* partition, StoryId story_id,
                          const SnippetStore& store,
                          StoryId* next_story_id,
                          RefinementJournal* journal = nullptr) const;

  const RefinementConfig& config() const { return config_; }

 private:
  const SimilarityModel* model_;
  RefinementConfig config_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_REFINER_H_
