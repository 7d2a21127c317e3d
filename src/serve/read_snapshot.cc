#include "serve/read_snapshot.h"

#include "model/story.h"
#include "storage/temporal_index.h"

namespace storypivot::serve {

namespace {

/// Builds a fresh TextState from the live engine: vocabularies clone by
/// re-interning in id order (ids are dense and stable), the gazetteer by
/// replaying its registration-order alias journal against the cloned
/// entity vocabulary — the same rebuild path core/snapshot uses for
/// persistence.
std::shared_ptr<const TextState> BuildTextState(
    const StoryPivotEngine& engine) {
  auto state = std::make_shared<TextState>();
  const text::Vocabulary& entities = engine.entity_vocabulary();
  for (text::TermId id = 0; id < entities.size(); ++id) {
    state->entity_vocab.Intern(entities.TermOf(id));
  }
  const text::Vocabulary& keywords = engine.keyword_vocabulary();
  for (text::TermId id = 0; id < keywords.size(); ++id) {
    state->keyword_vocab.Intern(keywords.TermOf(id));
  }
  state->gazetteer = std::make_unique<text::Gazetteer>(&state->entity_vocab);
  for (const auto& [entity, alias] : engine.gazetteer().aliases()) {
    state->gazetteer->AddAlias(entity, alias);
  }
  return state;
}

std::vector<const StorySet*> PointersTo(const std::vector<StorySet>& parts) {
  std::vector<const StorySet*> pointers;
  pointers.reserve(parts.size());
  for (const StorySet& part : parts) pointers.push_back(&part);
  return pointers;
}

}  // namespace

std::shared_ptr<const TextState> CaptureContext::GetOrRebuild(
    const StoryPivotEngine& engine) {
  const size_t entities = engine.entity_vocabulary().size();
  const size_t keywords = engine.keyword_vocabulary().size();
  const size_t aliases = engine.gazetteer().aliases().size();
  // Vocabularies and the alias journal are append-only within an engine
  // lifetime, so unchanged sizes imply unchanged content. A reopened
  // engine gets a fresh ServingEngine — and hence a fresh context — so
  // recovery that discards unacked text state cannot alias a stale
  // cache.
  if (cached_ == nullptr || entities != entity_size_ ||
      keywords != keyword_size_ || aliases != alias_count_) {
    cached_ = BuildTextState(engine);
    entity_size_ = entities;
    keyword_size_ = keywords;
    alias_count_ = aliases;
  }
  return cached_;
}

ReadSnapshot::ReadSnapshot(const StoryPivotEngine& engine,
                           std::shared_ptr<const TextState> text,
                           search::PostingsIndex index,
                           std::vector<StorySet> partitions)
    : text_(std::move(text)),
      index_(std::move(index)),
      partitions_(std::move(partitions)),
      sources_(engine.sources()),
      // Pointers into the final partitions_ vector, so they stay valid
      // for the snapshot's lifetime.
      view_(search::CorpusView(engine, PointersTo(partitions_)), index_,
            *text_->gazetteer, text_->entity_vocab, text_->keyword_vocab) {}

std::unique_ptr<ReadSnapshot> ReadSnapshot::Capture(
    const StoryPivotEngine& engine, const search::PostingsIndex& index,
    CaptureContext* context) {
  // Partitions: O(1) frozen shares per partition header, not contents.
  std::vector<const StorySet*> live = engine.partitions();  // splint: allow(full-scan)
  std::vector<StorySet> parts;
  parts.reserve(live.size());
  for (const StorySet* part : live) {
    parts.push_back(part->Freeze());
  }
  // Private constructor, so no make_unique.
  return std::unique_ptr<ReadSnapshot>(
      new ReadSnapshot(engine, context->GetOrRebuild(engine), index.Freeze(),
                       std::move(parts)));
}

std::unique_ptr<ReadSnapshot> ReadSnapshot::Capture(
    const StoryPivotEngine& engine, const search::PostingsIndex& index) {
  CaptureContext context;
  return Capture(engine, index, &context);
}

size_t ReadSnapshot::ApproxBytes() const {
  size_t bytes = index_.num_postings() * sizeof(search::Posting);
  for (const StorySet& part : partitions_) {
    bytes += part.num_snippets() *
             (sizeof(TemporalIndex::Entry) + sizeof(SnippetId) +
              sizeof(StoryId));
    bytes += part.stories().size() * sizeof(Story);
    bytes += part.entity_index().num_postings() * sizeof(SnippetId);
  }
  return bytes;
}

}  // namespace storypivot::serve
