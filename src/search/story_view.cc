#include "search/story_view.h"

#include <algorithm>

namespace storypivot::search {

namespace {

/// Resolves a postings list to the distinct (source, story) pairs its
/// snippets currently belong to, sorted ascending. Snippets whose source
/// or story assignment is gone resolve to nothing. `postings` may be
/// nullptr (empty result).
std::vector<std::pair<SourceId, StoryId>> ResolvePostingsToStories(
    const std::vector<Posting>* postings, const StoryCorpus& corpus) {
  std::vector<std::pair<SourceId, StoryId>> out;
  if (postings == nullptr) return out;
  out.reserve(postings->size());
  for (const Posting& posting : *postings) {
    const StorySet* partition = corpus.partition(posting.source);
    if (partition == nullptr) continue;
    const StoryId story = partition->StoryOf(posting.snippet);
    if (story == kInvalidStoryId) continue;
    out.emplace_back(posting.source, story);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Distinct (source, story) pairs whose story span intersects the
/// inclusive window [begin, end], sorted ascending.
std::vector<std::pair<SourceId, StoryId>> StoriesIntersecting(
    const StoryCorpus& corpus, Timestamp begin, Timestamp end) {
  std::vector<std::pair<SourceId, StoryId>> out;
  for (const StorySet* partition : corpus.partitions) {
    for (const auto& [id, story] : partition->stories()) {
      if (story.start_time() <= end && story.end_time() >= begin) {
        out.emplace_back(partition->source(), id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

StoryCorpus CorpusView(const StoryPivotEngine& engine,
                       std::vector<const StorySet*> partitions) {
  StoryCorpus corpus;
  corpus.partitions = std::move(partitions);
  corpus.total_stories = engine.TotalStories();
  const StoryPivotEngine::IdCounters counters = engine.id_counters();
  corpus.next_story = counters.next_story;
  corpus.partition_of.assign(counters.next_source, nullptr);
  for (const StorySet* part : corpus.partitions) {
    if (part->source() < corpus.partition_of.size()) {
      corpus.partition_of[part->source()] = part;
    }
  }
  return corpus;
}

StoryView::StoryView(StoryCorpus corpus, const PostingsIndex& index,
                     const text::Gazetteer& gazetteer,
                     const text::Vocabulary& entities,
                     const text::Vocabulary& keywords)
    : corpus_(std::move(corpus)),
      index_(&index),
      gazetteer_(&gazetteer),
      entities_(&entities),
      keywords_(&keywords) {}

ParsedQuery StoryView::Parse(std::string_view query) const {
  return ParseQuery(*gazetteer_, *entities_, *keywords_, *index_, query);
}

std::vector<StoryHit> StoryView::Search(const ParsedQuery& query,
                                        const SearchOptions& options) const {
  return RankStories(*index_, corpus_, query, options);
}

std::vector<std::pair<SourceId, StoryId>> StoryView::StoriesWithEntity(
    text::TermId term) const {
  return ResolvePostingsToStories(index_->Postings(Field::kEntity, term),
                                  corpus_);
}

std::vector<std::pair<SourceId, StoryId>> StoryView::StoriesWithKeyword(
    text::TermId term) const {
  return ResolvePostingsToStories(index_->Postings(Field::kKeyword, term),
                                  corpus_);
}

std::vector<std::pair<SourceId, StoryId>> StoryView::StoriesWithEventType(
    std::string_view event_type) const {
  return ResolvePostingsToStories(index_->EventTypePostings(event_type),
                                  corpus_);
}

std::vector<std::pair<SourceId, StoryId>> StoryView::StoriesInTimeRange(
    Timestamp begin, Timestamp end) const {
  return StoriesIntersecting(corpus_, begin, end);
}

}  // namespace storypivot::search
