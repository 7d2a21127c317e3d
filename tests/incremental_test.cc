#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/engine.h"
#include "core/incremental.h"
#include "datagen/corpus.h"
#include "util/logging.h"

namespace storypivot {
namespace {

datagen::Corpus SmallCorpus(uint64_t seed = 77) {
  datagen::CorpusConfig config;
  config.seed = seed;
  config.num_sources = 5;
  config.num_stories = 14;
  config.target_num_snippets = 900;
  return datagen::CorpusGenerator(config).Generate();
}

std::unique_ptr<StoryPivotEngine> MakeEngine(const datagen::Corpus& corpus,
                                             bool incremental) {
  EngineConfig config;
  config.incremental_alignment = incremental;
  auto engine = std::make_unique<StoryPivotEngine>(config);
  SP_CHECK(engine
               ->ImportVocabularies(*corpus.entity_vocabulary,
                                    *corpus.keyword_vocabulary)
               .ok());
  for (const SourceInfo& s : corpus.sources) engine->RegisterSource(s.name);
  return engine;
}

void Feed(StoryPivotEngine& engine, const datagen::Corpus& corpus,
          size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < corpus.snippets.size(); ++i) {
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    SP_CHECK_OK(engine.AddSnippet(std::move(copy)));
  }
}

/// Canonical form of an alignment: the set of integrated stories, each as
/// a sorted set of snippet ids. Integrated story *ids* are allowed to
/// differ between the two aligners.
std::set<std::vector<SnippetId>> Canonical(const AlignmentResult& result) {
  std::set<std::vector<SnippetId>> out;
  for (const IntegratedStory& story : result.stories) {
    std::vector<SnippetId> ids(story.merged.snippets().begin(),
                               story.merged.snippets().end());
    std::sort(ids.begin(), ids.end());
    out.insert(std::move(ids));
  }
  return out;
}

TEST(IncrementalAlignmentTest, MatchesBatchAfterBulkIngest) {
  datagen::Corpus corpus = SmallCorpus();
  auto batch = MakeEngine(corpus, /*incremental=*/false);
  auto incremental = MakeEngine(corpus, /*incremental=*/true);
  Feed(*batch, corpus, 0, corpus.snippets.size());
  Feed(*incremental, corpus, 0, corpus.snippets.size());
  EXPECT_EQ(Canonical(batch->Align()), Canonical(incremental->Align()));
}

TEST(IncrementalAlignmentTest, LshModeWorksWithFewerThanSixtyFourHashes) {
  // Regression: the incremental aligner's LSH index was fixed at 16 x 4
  // bands, so a 32-hash sketch aborted the first Align().
  datagen::Corpus corpus = SmallCorpus();
  EngineConfig config;
  config.alignment.sketch_hashes = 32;
  config.alignment.lsh_min_stories = 0;
  std::unique_ptr<StoryPivotEngine> engines[2];
  for (bool incremental : {false, true}) {
    config.incremental_alignment = incremental;
    auto& engine = engines[incremental ? 1 : 0];
    engine = std::make_unique<StoryPivotEngine>(config);
    SP_CHECK_OK(engine->ImportVocabularies(*corpus.entity_vocabulary,
                                           *corpus.keyword_vocabulary));
    for (const SourceInfo& s : corpus.sources) engine->RegisterSource(s.name);
    Feed(*engine, corpus, 0, 400);
  }
  const AlignmentResult& incremental = engines[1]->Align();
  EXPECT_EQ(incremental.integrated_of.size(), 400u);
  EXPECT_LT(incremental.stories.size(), engines[1]->TotalStories());
  EXPECT_EQ(Canonical(engines[0]->Align()), Canonical(incremental));
}

TEST(IncrementalAlignmentTest, MatchesBatchUnderInterleavedAligns) {
  datagen::Corpus corpus = SmallCorpus(78);
  auto batch = MakeEngine(corpus, false);
  auto incremental = MakeEngine(corpus, true);
  const size_t n = corpus.snippets.size();
  for (int phase = 1; phase <= 5; ++phase) {
    size_t begin = n * (phase - 1) / 5;
    size_t end = n * phase / 5;
    Feed(*batch, corpus, begin, end);
    Feed(*incremental, corpus, begin, end);
    // The incremental engine aligns every phase (exercising the dirty
    // path); batch aligns fresh each time.
    EXPECT_EQ(Canonical(batch->Align()), Canonical(incremental->Align()))
        << "phase " << phase;
  }
}

TEST(IncrementalAlignmentTest, RolesMatchBatch) {
  datagen::Corpus corpus = SmallCorpus(79);
  auto batch = MakeEngine(corpus, false);
  auto incremental = MakeEngine(corpus, true);
  Feed(*batch, corpus, 0, 400);
  Feed(*incremental, corpus, 0, 400);
  incremental->Align();  // Prime the graph.
  Feed(*batch, corpus, 400, 600);
  Feed(*incremental, corpus, 400, 600);
  const AlignmentResult& a = batch->Align();
  const AlignmentResult& b = incremental->Align();
  ASSERT_EQ(a.roles.size(), b.roles.size());
  for (const auto& [sid, role] : a.roles) {
    auto it = b.roles.find(sid);
    ASSERT_NE(it, b.roles.end());
    EXPECT_EQ(it->second, role);
  }
}

TEST(IncrementalAlignmentTest, MatchesBatchAfterRemovals) {
  datagen::Corpus corpus = SmallCorpus(80);
  auto batch = MakeEngine(corpus, false);
  auto incremental = MakeEngine(corpus, true);
  Feed(*batch, corpus, 0, 600);
  Feed(*incremental, corpus, 0, 600);
  incremental->Align();

  // Remove every 7th stored snippet from both engines.
  std::vector<SnippetId> ids;
  batch->store().ForEach(
      [&](const Snippet& snippet) { ids.push_back(snippet.id); });
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); i += 7) {
    ASSERT_TRUE(batch->RemoveSnippet(ids[i]).ok());
    ASSERT_TRUE(incremental->RemoveSnippet(ids[i]).ok());
  }
  EXPECT_EQ(Canonical(batch->Align()), Canonical(incremental->Align()));
}

TEST(IncrementalAlignmentTest, MatchesBatchAfterSourceRemoval) {
  datagen::Corpus corpus = SmallCorpus(81);
  auto batch = MakeEngine(corpus, false);
  auto incremental = MakeEngine(corpus, true);
  Feed(*batch, corpus, 0, 500);
  Feed(*incremental, corpus, 0, 500);
  incremental->Align();
  ASSERT_TRUE(batch->RemoveSource(2).ok());
  ASSERT_TRUE(incremental->RemoveSource(2).ok());
  EXPECT_EQ(Canonical(batch->Align()), Canonical(incremental->Align()));
}

TEST(IncrementalAlignmentTest, MatchesBatchAfterRefine) {
  datagen::Corpus corpus = SmallCorpus(82);
  auto batch = MakeEngine(corpus, false);
  auto incremental = MakeEngine(corpus, true);
  Feed(*batch, corpus, 0, 700);
  Feed(*incremental, corpus, 0, 700);
  batch->Refine();
  incremental->Refine();
  EXPECT_EQ(Canonical(batch->alignment()),
            Canonical(incremental->alignment()));
}

TEST(IncrementalAlignmentTest, SecondAlignDoesLittleWork) {
  datagen::Corpus corpus = SmallCorpus(83);
  auto engine = MakeEngine(corpus, true);
  Feed(*engine, corpus, 0, 800);

  IncrementalAligner probe(&engine->similarity(),
                           engine->config().alignment);
  StoryId next = 1 << 20;
  probe.Update(engine->partitions(), engine->store(), {}, &next);
  uint64_t first_pass = probe.pairs_scored();
  // No mutations: a second update with an empty dirty set scores nothing.
  probe.Update(engine->partitions(), engine->store(), {}, &next);
  EXPECT_EQ(probe.pairs_scored(), first_pass);
}

TEST(IncrementalAlignmentTest, DirtyUpdateScoresOnlyNeighborhood) {
  datagen::Corpus corpus = SmallCorpus(84);
  auto engine = MakeEngine(corpus, true);
  Feed(*engine, corpus, 0, 800);
  engine->Align();

  // One more snippet dirties at most a couple of stories; the next Align
  // must score far fewer pairs than a from-scratch alignment would.
  IncrementalAligner probe(&engine->similarity(),
                           engine->config().alignment);
  StoryId next = 1 << 20;
  probe.Update(engine->partitions(), engine->store(), {}, &next);
  uint64_t full_cost = probe.pairs_scored();

  Snippet extra = corpus.snippets[800];
  extra.id = kInvalidSnippetId;
  SP_CHECK_OK(engine->AddSnippet(std::move(extra)));
  uint64_t before = probe.pairs_scored();
  // Find the story the new snippet landed in.
  std::vector<std::pair<SourceId, StoryId>> dirty;
  for (const StorySet* partition : engine->partitions()) {
    for (const auto& [id, story] : partition->stories()) {
      // Conservative: mark the partition's stories dirty only if changed.
      (void)id;
    }
  }
  // Use the engine-tracked path instead: its own Align already cleared
  // dirt, so emulate with the known source/story of the last snippet.
  const Snippet* last = nullptr;
  engine->store().ForEach([&](const Snippet& snippet) {
    if (last == nullptr || snippet.id > last->id) last = &snippet;
  });
  ASSERT_NE(last, nullptr);
  dirty.push_back({last->source,
                   engine->partition(last->source)->StoryOf(last->id)});
  probe.Update(engine->partitions(), engine->store(), dirty, &next);
  uint64_t delta = probe.pairs_scored() - before;
  EXPECT_LT(delta, full_cost / 4)
      << "incremental update must be much cheaper than full alignment";
}

TEST(IncrementalAlignmentTest, InvalidateForcesFullRecompute) {
  datagen::Corpus corpus = SmallCorpus(85);
  auto engine = MakeEngine(corpus, true);
  Feed(*engine, corpus, 0, 400);
  IncrementalAligner probe(&engine->similarity(),
                           engine->config().alignment);
  StoryId next = 1 << 20;
  AlignmentResult first =
      probe.Update(engine->partitions(), engine->store(), {}, &next);
  probe.Invalidate();
  EXPECT_EQ(probe.num_nodes(), 0u);
  AlignmentResult second =
      probe.Update(engine->partitions(), engine->store(), {}, &next);
  EXPECT_EQ(Canonical(first), Canonical(second));
}

}  // namespace
}  // namespace storypivot
