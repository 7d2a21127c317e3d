#ifndef STORYPIVOT_SEARCH_STORY_VIEW_H_
#define STORYPIVOT_SEARCH_STORY_VIEW_H_

#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "core/story_set.h"
#include "model/ids.h"
#include "model/time.h"
#include "search/postings_index.h"
#include "search/query_pipeline.h"
#include "search/ranker.h"
#include "text/gazetteer.h"
#include "text/vocabulary.h"

namespace storypivot::search {

/// The exact slice of engine state ranked and boolean queries read. A
/// corpus borrows the partitions it points at and is only valid while
/// they are (for a live engine, until the next mutation; for a
/// ReadSnapshot, for the snapshot's lifetime).
struct StoryCorpus {
  /// All partitions, ordered by source id (what engine.partitions()
  /// returns).
  std::vector<const StorySet*> partitions;
  /// Dense source-id -> partition directory (nullptr gaps), sized
  /// next_source — the per-posting hot-path lookup.
  std::vector<const StorySet*> partition_of;
  /// Total stories across partitions (BM25's N denominator input).
  size_t total_stories = 0;
  /// Engine-wide story id bound, sizing dense per-story directories.
  StoryId next_story = 0;

  [[nodiscard]] const StorySet* partition(SourceId source) const {
    return source < partition_of.size() ? partition_of[source] : nullptr;
  }
};

/// Builds the corpus over `partitions` (ordered by source id): the live
/// engine's own (`engine.partitions()`) or a snapshot's frozen copies of
/// them. Story totals and id bounds come from `engine`, so callers must
/// hold its serial role (DESIGN.md §13).
[[nodiscard]] StoryCorpus CorpusView(const StoryPivotEngine& engine,
                                     std::vector<const StorySet*> partitions);

/// Ranks the stories matching `query` by story-level BM25, returning the
/// top k (score descending, ties by ascending story id — story ids are
/// engine-unique, so the order is total and deterministic).
///
/// Scoring model (DESIGN.md §11): the ranked document is the story;
/// tf(t, S) sums the term frequencies of S's member snippets (exact —
/// annotation weights are small integers), the story length dl(S) is the
/// sum of S's aggregate entity+keyword weights, and idf comes from
/// snippet-level document frequencies (incrementally maintained, stable
/// under story merges/splits). Evaluation is term-at-a-time over the
/// postings lists with a MaxScore-style bound: per-term contributions
/// are capped by idf*(k1+1) (tf saturation), so once the k-th best
/// accumulated score exceeds the summed bounds of the unprocessed terms,
/// stories not yet seen are provably outside the top k and are never
/// admitted — no per-story state is materialized for them.
///
/// Implemented in ranker.cc beside RankStoriesScan; StoryView::Search is
/// its only caller.
[[nodiscard]] std::vector<StoryHit> RankStories(const PostingsIndex& index,
                                                const StoryCorpus& corpus,
                                                const ParsedQuery& query,
                                                const SearchOptions& options);

/// The one query surface of the paper's exploration modules (§4.2):
/// free-text parsing, ranked BM25 search, and the entity, keyword,
/// event-type and time-range story lookups StoryQuery::Find* route
/// through. Live reads (SearchEngine::view) and pinned-epoch reads
/// (ReadSnapshot::view) both answer through this class, so the two are
/// identical on equal state by construction (DESIGN.md §11, §14).
///
/// A view borrows everything it reads — the corpus's partitions, the
/// postings index and the text state — and is valid only while they
/// are: for a live engine until the next mutation, for a snapshot for
/// the snapshot's lifetime. Reads are const and may run concurrently
/// with each other.
class StoryView final : public StoryIndex {
 public:
  StoryView(StoryCorpus corpus, const PostingsIndex& index,
            const text::Gazetteer& gazetteer,
            const text::Vocabulary& entities,
            const text::Vocabulary& keywords);

  /// Canonicalizes a free-text query against the view's text state (see
  /// ParseQuery).
  [[nodiscard]] ParsedQuery Parse(std::string_view query) const;

  /// Ranks an already-parsed query (see RankStories).
  [[nodiscard]] std::vector<StoryHit> Search(
      const ParsedQuery& query, const SearchOptions& options = {}) const;

  // StoryIndex. The term lookups resolve postings to the snippets'
  // *current* stories (postings are snippet-granular; DESIGN.md §11);
  // the time-range lookup walks the partitions, because a story's span
  // can cover a window none of its snippets falls into. All return
  // distinct (source, story) pairs sorted ascending.
  [[nodiscard]] std::vector<std::pair<SourceId, StoryId>> StoriesWithEntity(
      text::TermId term) const override;
  [[nodiscard]] std::vector<std::pair<SourceId, StoryId>> StoriesWithKeyword(
      text::TermId term) const override;
  [[nodiscard]] std::vector<std::pair<SourceId, StoryId>>
  StoriesWithEventType(std::string_view event_type) const override;
  [[nodiscard]] std::vector<std::pair<SourceId, StoryId>> StoriesInTimeRange(
      Timestamp begin, Timestamp end) const override;

  [[nodiscard]] const PostingsIndex& index() const { return *index_; }
  [[nodiscard]] const StoryCorpus& corpus() const { return corpus_; }

 private:
  StoryCorpus corpus_;
  const PostingsIndex* index_;
  const text::Gazetteer* gazetteer_;
  const text::Vocabulary* entities_;
  const text::Vocabulary* keywords_;
};

}  // namespace storypivot::search

#endif  // STORYPIVOT_SEARCH_STORY_VIEW_H_
