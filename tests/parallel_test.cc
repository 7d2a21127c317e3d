// Serial-vs-parallel equivalence for the engine's internal parallel
// paths (DESIGN.md §9): batch ingestion via AddSnippets, alignment pair
// scoring and the refinement counterpart search must produce
// bit-identical results for every thread count, and a failed batch must
// leave no trace (all-or-nothing).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/refiner.h"
#include "datagen/corpus.h"
#include "model/time.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace storypivot {
namespace {

Snippet MakeSnippet(SourceId source, Timestamp ts,
                    std::vector<std::pair<text::TermId, double>> entities,
                    std::vector<std::pair<text::TermId, double>> keywords) {
  Snippet s;
  s.source = source;
  s.timestamp = ts;
  s.entities = text::TermVector::FromEntries(std::move(entities));
  s.keywords = text::TermVector::FromEntries(std::move(keywords));
  return s;
}

datagen::Corpus TestCorpus() {
  datagen::CorpusConfig config;
  config.seed = 11;
  config.num_sources = 6;
  config.num_stories = 24;
  config.target_num_snippets = 900;
  return datagen::CorpusGenerator(config).Generate();
}

std::unique_ptr<StoryPivotEngine> MakeEngine(const datagen::Corpus& corpus,
                                             size_t num_threads,
                                             bool sketches) {
  EngineConfig config;
  config.num_threads = num_threads;
  config.use_sketches = sketches;
  auto engine = std::make_unique<StoryPivotEngine>(config);
  SP_CHECK_OK(engine->ImportVocabularies(*corpus.entity_vocabulary,
                                         *corpus.keyword_vocabulary));
  for (const SourceInfo& s : corpus.sources) engine->RegisterSource(s.name);
  return engine;
}

/// Feeds the corpus through AddSnippets in fixed-size batches.
void FeedBatched(StoryPivotEngine* engine, const datagen::Corpus& corpus,
                 size_t batch_size) {
  std::vector<Snippet> batch;
  for (const Snippet& snippet : corpus.snippets) {
    batch.push_back(snippet);
    if (batch.size() == batch_size) {
      SP_CHECK_OK(engine->AddSnippets(std::move(batch)));
      batch.clear();
    }
  }
  if (!batch.empty()) SP_CHECK_OK(engine->AddSnippets(std::move(batch)));
}

/// Exact per-source assignment: (source, snippet, story) triples, sorted.
/// Story ids are included verbatim — the determinism contract is
/// bit-identical state, not merely isomorphic clusterings.
std::vector<std::tuple<SourceId, SnippetId, StoryId>> PartitionFingerprint(
    const StoryPivotEngine& engine) {
  std::vector<std::tuple<SourceId, SnippetId, StoryId>> out;
  for (const SourceInfo& info : engine.sources()) {
    const StorySet* partition = engine.partition(info.id);
    SP_CHECK(partition != nullptr);
    for (const auto& [ts, sid] : partition->snippet_times().entries()) {
      out.emplace_back(info.id, sid, partition->StoryOf(sid));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectIdenticalAlignment(const AlignmentResult& a,
                              const AlignmentResult& b) {
  ASSERT_EQ(a.stories.size(), b.stories.size());
  for (size_t i = 0; i < a.stories.size(); ++i) {
    EXPECT_EQ(a.stories[i].id, b.stories[i].id) << "story " << i;
    EXPECT_EQ(a.stories[i].members, b.stories[i].members) << "story " << i;
  }
  EXPECT_EQ(a.integrated_of, b.integrated_of);
  EXPECT_EQ(a.roles, b.roles);
  EXPECT_EQ(a.counterpart, b.counterpart);
  EXPECT_EQ(a.member_index, b.member_index);
  EXPECT_EQ(a.num_pairs_scored, b.num_pairs_scored);
}

class ParallelEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(ParallelEquivalence, BatchIngestIsThreadCountInvariant) {
  const bool sketches = GetParam();
  datagen::Corpus corpus = TestCorpus();
  auto serial = MakeEngine(corpus, /*num_threads=*/1, sketches);
  auto parallel = MakeEngine(corpus, /*num_threads=*/4, sketches);
  FeedBatched(serial.get(), corpus, /*batch_size=*/128);
  FeedBatched(parallel.get(), corpus, /*batch_size=*/128);

  EXPECT_EQ(PartitionFingerprint(*serial), PartitionFingerprint(*parallel));
  EXPECT_EQ(serial->TotalStories(), parallel->TotalStories());
  EXPECT_EQ(serial->stats().snippets_ingested,
            parallel->stats().snippets_ingested);
  EXPECT_EQ(serial->document_frequency().num_documents(),
            parallel->document_frequency().num_documents());

  // The downstream alignment (itself parallel in one engine) must agree
  // in every field.
  ExpectIdenticalAlignment(serial->Align(), parallel->Align());
}

INSTANTIATE_TEST_SUITE_P(Sketches, ParallelEquivalence,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithSketches" : "Plain";
                         });

TEST(ParallelAlignTest, MatchesSerialOnIdenticalState) {
  // Both engines ingest identically (one snippet at a time); only the
  // alignment pass differs in thread count.
  datagen::Corpus corpus = TestCorpus();
  auto serial = MakeEngine(corpus, /*num_threads=*/1, /*sketches=*/false);
  auto parallel = MakeEngine(corpus, /*num_threads=*/4, /*sketches=*/false);
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    SP_CHECK_OK(serial->AddSnippet(std::move(copy)));
    copy = snippet;
    SP_CHECK_OK(parallel->AddSnippet(std::move(copy)));
  }
  ASSERT_EQ(PartitionFingerprint(*serial), PartitionFingerprint(*parallel));
  ExpectIdenticalAlignment(serial->Align(), parallel->Align());
}

TEST(ParallelClassifyTest, RolesMatchAcrossThreadCountsAndPerStory) {
  // Role classification is one grouped counterpart search over every
  // integrated story; its roles and counterparts must not depend on the
  // thread count, and must equal classifying each story on its own.
  datagen::Corpus corpus = TestCorpus();
  auto engine = MakeEngine(corpus, /*num_threads=*/1, /*sketches=*/false);
  FeedBatched(engine.get(), corpus, /*batch_size=*/128);
  const AlignmentResult& aligned = engine->Align();
  const size_t largest =
      std::max_element(aligned.stories.begin(), aligned.stories.end(),
                       [](const IntegratedStory& a, const IntegratedStory& b) {
                         return a.merged.size() < b.merged.size();
                       })
          ->merged.size();
  ASSERT_GT(largest, 100u) << "one story must hold many of the pairs";

  std::unordered_map<SnippetId, SnippetRole> roles;
  std::unordered_map<SnippetId, SnippetId> counterpart;
  for (const IntegratedStory& story : aligned.stories) {
    ClassifyIntegratedStory(engine->similarity(), engine->config().alignment,
                            engine->store(), story, &roles, &counterpart);
  }
  ASSERT_EQ(roles.size(), engine->store().size());
  ASSERT_FALSE(counterpart.empty());

  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    AlignmentResult result = aligned;
    ClassifySnippetRoles(engine->similarity(), engine->config().alignment,
                         engine->store(), &result, &pool);
    EXPECT_EQ(result.roles, roles) << threads << " threads";
    EXPECT_EQ(result.counterpart, counterpart) << threads << " threads";
  }
}

/// Runs StoryRefiner::Refine on frozen copies of `engine`'s partitions
/// with a journal, leaving the engine itself untouched.
RefinementJournal JournalOfRefine(const StoryPivotEngine& engine,
                                  size_t num_threads) {
  std::vector<StorySet> copies;
  copies.reserve(engine.sources().size());
  std::vector<StorySet*> partitions;
  for (const StorySet* partition : engine.partitions()) {
    copies.push_back(partition->Freeze());
    partitions.push_back(&copies.back());
  }
  StoryRefiner refiner(&engine.similarity(), engine.config().refinement);
  ThreadPool pool(num_threads);
  StoryId cursor = engine.id_counters().next_story;
  RefinementJournal journal;
  refiner.Refine(partitions, engine.alignment(), engine.store(), &cursor,
                 &journal, &pool);
  return journal;
}

void ExpectIdenticalJournal(const RefinementJournal& a,
                            const RefinementJournal& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const RefinementJournal::Entry& x = a.entries[i];
    const RefinementJournal::Entry& y = b.entries[i];
    ASSERT_EQ(x.kind, y.kind) << "entry " << i;
    if (x.kind == RefinementJournal::Entry::Kind::kMove) {
      EXPECT_EQ(x.move.source, y.move.source) << "entry " << i;
      EXPECT_EQ(x.move.snippet, y.move.snippet) << "entry " << i;
      EXPECT_EQ(x.move.from, y.move.from) << "entry " << i;
      EXPECT_EQ(x.move.to, y.move.to) << "entry " << i;
      EXPECT_EQ(x.move.created, y.move.created) << "entry " << i;
    } else {
      EXPECT_EQ(x.split.source, y.split.source) << "entry " << i;
      EXPECT_EQ(x.split.story, y.split.story) << "entry " << i;
      EXPECT_EQ(x.split.components, y.split.components) << "entry " << i;
      EXPECT_EQ(x.split.assigned, y.split.assigned) << "entry " << i;
    }
  }
}

TEST(ParallelRefineTest, MatchesSerialOnIdenticalState) {
  // Both engines ingest and align identically; Refine's counterpart
  // search then runs on 1 and 4 threads.
  datagen::Corpus corpus = TestCorpus();
  auto serial = MakeEngine(corpus, /*num_threads=*/1, /*sketches=*/false);
  auto parallel = MakeEngine(corpus, /*num_threads=*/4, /*sketches=*/false);
  FeedBatched(serial.get(), corpus, /*batch_size=*/128);
  FeedBatched(parallel.get(), corpus, /*batch_size=*/128);
  ExpectIdenticalAlignment(serial->Align(), parallel->Align());

  const RefinementJournal serial_journal = JournalOfRefine(*serial, 1);
  const RefinementJournal parallel_journal = JournalOfRefine(*parallel, 4);
  ASSERT_FALSE(serial_journal.entries.empty())
      << "the corpus must make refinement move snippets";
  ExpectIdenticalJournal(serial_journal, parallel_journal);

  const uint64_t serial_before = serial->similarity().num_comparisons();
  const uint64_t parallel_before = parallel->similarity().num_comparisons();
  const RefinementStats serial_stats = serial->Refine();
  const RefinementStats parallel_stats = parallel->Refine();
  EXPECT_EQ(serial_stats.snippets_moved, parallel_stats.snippets_moved);
  EXPECT_EQ(serial_stats.stories_created, parallel_stats.stories_created);
  EXPECT_EQ(serial_stats.stories_split, parallel_stats.stories_split);
  EXPECT_EQ(serial_stats.conflicts_examined,
            parallel_stats.conflicts_examined);
  EXPECT_EQ(serial->similarity().num_comparisons() - serial_before,
            parallel->similarity().num_comparisons() - parallel_before);
  EXPECT_EQ(PartitionFingerprint(*serial), PartitionFingerprint(*parallel));
  ExpectIdenticalAlignment(serial->alignment(), parallel->alignment());
}

TEST(AddSnippetsTest, EmptyBatchIsNoOp) {
  StoryPivotEngine engine;
  Result<std::vector<SnippetId>> ids = engine.AddSnippets({});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids.value().empty());
  EXPECT_EQ(engine.stats().snippets_ingested, 0u);
}

TEST(AddSnippetsTest, UnregisteredSourceRejectsWholeBatch) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  std::vector<Snippet> batch;
  batch.push_back(MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}}));
  batch.push_back(MakeSnippet(src + 7, 10, {{0, 1.0}}, {{5, 1.0}}));
  Result<std::vector<SnippetId>> ids = engine.AddSnippets(std::move(batch));
  EXPECT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument);
  // Upfront validation: the valid leading snippet was not ingested.
  EXPECT_EQ(engine.store().size(), 0u);
  EXPECT_EQ(engine.document_frequency().num_documents(), 0);
  EXPECT_EQ(engine.stats().snippets_ingested, 0u);
  EXPECT_EQ(engine.TotalStories(), 0u);
}

TEST(AddSnippetsTest, MidBatchFailureRollsBackEverything) {
  // Regression for the all-or-nothing contract: a store collision in the
  // middle of a batch (duplicate explicit ids) must unwind the snippets
  // and document-frequency rows already written for the batch, leaving
  // pre-batch state untouched.
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  SnippetId keep =
      engine.AddSnippet(MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}})).value();
  const int64_t df_before = engine.document_frequency().num_documents();
  const size_t stories_before = engine.TotalStories();
  const uint64_t ingested_before = engine.stats().snippets_ingested;

  std::vector<Snippet> batch;
  batch.push_back(MakeSnippet(src, 10, {{1, 1.0}}, {{6, 1.0}}));
  batch.back().id = 500;
  batch.push_back(MakeSnippet(src, 20, {{2, 1.0}}, {{7, 1.0}}));
  batch.back().id = 501;
  batch.push_back(MakeSnippet(src, 30, {{3, 1.0}}, {{8, 1.0}}));
  batch.back().id = 500;  // Collides with the first batch member.
  Result<std::vector<SnippetId>> ids = engine.AddSnippets(std::move(batch));
  EXPECT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), StatusCode::kAlreadyExists);

  EXPECT_EQ(engine.store().size(), 1u);
  EXPECT_NE(engine.store().Find(keep), nullptr);
  EXPECT_EQ(engine.store().Find(500), nullptr);
  EXPECT_EQ(engine.store().Find(501), nullptr);
  EXPECT_EQ(engine.document_frequency().num_documents(), df_before);
  EXPECT_EQ(engine.TotalStories(), stories_before);
  EXPECT_EQ(engine.stats().snippets_ingested, ingested_before);
  // The engine remains fully usable after the rollback.
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(src, 40, {{0, 1.0}}, {{5, 1.0}})));
  EXPECT_EQ(engine.store().size(), 2u);
}

}  // namespace
}  // namespace storypivot
