#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/aligner.h"
#include "core/similarity.h"
#include "datagen/corpus.h"
#include "model/snippet.h"
#include "model/story.h"
#include "model/time.h"
#include "text/tfidf.h"
#include "util/thread_pool.h"

namespace storypivot {
namespace {

Snippet MakeSnippet(SnippetId id, Timestamp ts,
                    std::vector<std::pair<text::TermId, double>> entities,
                    std::vector<std::pair<text::TermId, double>> keywords) {
  Snippet s;
  s.id = id;
  s.source = 0;
  s.timestamp = ts;
  s.entities = text::TermVector::FromEntries(std::move(entities));
  s.keywords = text::TermVector::FromEntries(std::move(keywords));
  return s;
}

TEST(SimilarityModelTest, IdenticalSnippetsScoreMaximally) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}, {1, 1.0}}, {{5, 2.0}});
  double s = model.SnippetSimilarity(a, a);
  EXPECT_NEAR(s, model.config().entity_weight + model.config().keyword_weight,
              1e-9);
}

TEST(SimilarityModelTest, DisjointSnippetsScoreZero) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}});
  Snippet b = MakeSnippet(2, 0, {{1, 1.0}}, {{6, 1.0}});
  EXPECT_DOUBLE_EQ(model.SnippetSimilarity(a, b), 0.0);
}

TEST(SimilarityModelTest, SymmetricAndBounded) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 2.0}, {1, 1.0}}, {{5, 1.0}, {6, 2.0}});
  Snippet b = MakeSnippet(2, 0, {{0, 1.0}, {2, 1.0}}, {{5, 2.0}, {9, 1.0}});
  double ab = model.SnippetSimilarity(a, b);
  double ba = model.SnippetSimilarity(b, a);
  EXPECT_DOUBLE_EQ(ab, ba);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

TEST(SimilarityModelTest, EntityWeightControlsContribution) {
  SimilarityConfig entity_only;
  entity_only.entity_weight = 1.0;
  entity_only.keyword_weight = 0.0;
  SimilarityConfig keyword_only;
  keyword_only.entity_weight = 0.0;
  keyword_only.keyword_weight = 1.0;
  SimilarityModel em(entity_only, nullptr);
  SimilarityModel km(keyword_only, nullptr);

  Snippet shared_entities = MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}});
  Snippet also_entities = MakeSnippet(2, 0, {{0, 1.0}}, {{6, 1.0}});
  EXPECT_GT(em.SnippetSimilarity(shared_entities, also_entities), 0.9);
  EXPECT_DOUBLE_EQ(km.SnippetSimilarity(shared_entities, also_entities), 0.0);
}

TEST(SimilarityModelTest, IdfDownweightsUbiquitousKeywords) {
  text::DocumentFrequency df;
  // Term 5 appears everywhere; term 6 is rare.
  for (int i = 0; i < 50; ++i) {
    df.AddDocument(text::TermVector::FromEntries({{5, 1.0}}));
  }
  df.AddDocument(text::TermVector::FromEntries({{6, 1.0}}));
  SimilarityConfig config;
  config.entity_weight = 0.0;
  config.keyword_weight = 1.0;
  SimilarityModel model(config, &df);

  Snippet common_a = MakeSnippet(1, 0, {}, {{5, 1.0}, {7, 1.0}});
  Snippet common_b = MakeSnippet(2, 0, {}, {{5, 1.0}, {8, 1.0}});
  Snippet rare_a = MakeSnippet(3, 0, {}, {{6, 1.0}, {7, 1.0}});
  Snippet rare_b = MakeSnippet(4, 0, {}, {{6, 1.0}, {8, 1.0}});
  // Sharing a rare keyword is worth more than sharing a stopword-like one.
  EXPECT_GT(model.SnippetSimilarity(rare_a, rare_b),
            model.SnippetSimilarity(common_a, common_b));
}

TEST(SimilarityModelTest, SnippetStorySimilarityScalesWithStorySize) {
  SimilarityModel model({}, nullptr);
  Snippet probe = MakeSnippet(9, 0, {{0, 1.0}}, {{5, 1.0}});
  Story story(1);
  story.AddSnippet(MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}}));
  double one = model.SnippetStorySimilarity(probe, story);
  // Add more snippets with the same content: similarity must not collapse.
  story.AddSnippet(MakeSnippet(2, 10, {{0, 1.0}}, {{5, 1.0}}));
  story.AddSnippet(MakeSnippet(3, 20, {{0, 1.0}}, {{5, 1.0}}));
  double three = model.SnippetStorySimilarity(probe, story);
  EXPECT_NEAR(one, three, 0.05);
  EXPECT_GT(three, 0.5);
}

TEST(SimilarityModelTest, StorySimilarityIdentityAndDisjoint) {
  SimilarityModel model({}, nullptr);
  Story a(1), b(2);
  a.AddSnippet(MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}}));
  b.AddSnippet(MakeSnippet(2, 0, {{9, 1.0}}, {{8, 1.0}}));
  EXPECT_GT(model.StorySimilarity(a, a), 0.9);
  EXPECT_DOUBLE_EQ(model.StorySimilarity(a, b), 0.0);
}

TEST(SimilarityModelTest, CountsComparisons) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}}, {});
  EXPECT_EQ(model.num_comparisons(), 0u);
  model.SnippetSimilarity(a, a);
  model.SnippetSimilarity(a, a);
  EXPECT_EQ(model.num_comparisons(), 2u);
  model.ResetCounters();
  EXPECT_EQ(model.num_comparisons(), 0u);
}

// ----------------------- Prepared keywords and counterparts ----------------

/// A small generated corpus with syndicated wire copy: exact duplicates
/// across sources, so counterpart searches meet tied scores.
datagen::Corpus OracleCorpus() {
  datagen::CorpusConfig config;
  config.seed = 5;
  config.num_sources = 4;
  config.num_stories = 8;
  config.target_num_snippets = 400;
  config.syndication_rate = 0.3;
  return datagen::CorpusGenerator(config).Generate();
}

text::DocumentFrequency FrequenciesOf(const datagen::Corpus& corpus) {
  text::DocumentFrequency df;
  for (const Snippet& s : corpus.snippets) df.AddDocument(s.keywords);
  return df;
}

/// Counts the pairs whose prepared score differs in any bit from
/// SnippetSimilarity.
size_t PreparedMismatches(const SimilarityModel& model,
                          const std::vector<Snippet>& snippets) {
  std::vector<PreparedKeywords> prepared;
  for (const Snippet& s : snippets) {
    prepared.push_back(model.PrepareKeywords(s.keywords));
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < snippets.size(); ++i) {
    for (size_t j = 0; j < snippets.size(); ++j) {
      const double expected =
          model.SnippetSimilarity(snippets[i], snippets[j]);
      const double actual = model.PreparedSnippetSimilarity(
          snippets[i], prepared[i], snippets[j], prepared[j]);
      if (std::bit_cast<uint64_t>(expected) !=
          std::bit_cast<uint64_t>(actual)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

TEST(PreparedKeywordsTest, BitIdenticalToSnippetSimilarity) {
  datagen::Corpus corpus = OracleCorpus();
  text::DocumentFrequency df = FrequenciesOf(corpus);
  std::vector<Snippet> sample(corpus.snippets.begin(),
                              corpus.snippets.begin() + 150);
  SimilarityConfig idf_off;
  idf_off.use_idf = false;

  SimilarityModel with_idf({}, &df);
  SimilarityModel without_idf(idf_off, &df);
  SimilarityModel no_frequencies({}, nullptr);
  EXPECT_EQ(PreparedMismatches(with_idf, sample), 0u);
  EXPECT_EQ(PreparedMismatches(without_idf, sample), 0u);
  EXPECT_EQ(PreparedMismatches(no_frequencies, sample), 0u);
}

TEST(PreparedKeywordsTest, PreparedScoresAreNotCounted) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}}, {{5, 2.0}});
  PreparedKeywords prepared = model.PrepareKeywords(a.keywords);
  model.PreparedSnippetSimilarity(a, prepared, a, prepared);
  EXPECT_EQ(model.num_comparisons(), 0u);
  model.CountComparisons(3);
  EXPECT_EQ(model.num_comparisons(), 3u);
}

/// The pair loop FindCounterparts replaced, scoring with SnippetSimilarity
/// and keeping the first maximum per snippet.
std::vector<size_t> NaiveCounterparts(
    const SimilarityModel& model, const std::vector<const Snippet*>& snippets,
    Timestamp tolerance, double threshold, size_t* ties) {
  std::vector<size_t> best(snippets.size(), kNoCounterpart);
  std::vector<double> best_score(snippets.size(), 0.0);
  for (size_t i = 0; i < snippets.size(); ++i) {
    for (size_t j = i + 1; j < snippets.size(); ++j) {
      const Snippet& a = *snippets[i];
      const Snippet& b = *snippets[j];
      if (b.timestamp - a.timestamp > tolerance) break;
      if (a.source == b.source) continue;
      double s = model.SnippetSimilarity(a, b);
      if (s < threshold) continue;
      for (auto [x, y] : {std::pair{i, j}, std::pair{j, i}}) {
        if (best[x] != kNoCounterpart && s == best_score[x]) ++*ties;
        if (best[x] == kNoCounterpart || s > best_score[x]) {
          best[x] = y;
          best_score[x] = s;
        }
      }
    }
  }
  return best;
}

TEST(FindCounterpartsTest, MatchesNaiveLoopIncludingTies) {
  datagen::Corpus corpus = OracleCorpus();
  text::DocumentFrequency df = FrequenciesOf(corpus);
  std::vector<const Snippet*> snippets;
  for (const Snippet& s : corpus.snippets) snippets.push_back(&s);
  std::sort(snippets.begin(), snippets.end(),
            [](const Snippet* a, const Snippet* b) {
              if (a->timestamp != b->timestamp) {
                return a->timestamp < b->timestamp;
              }
              return a->id < b->id;
            });
  const Timestamp tolerance = 3 * kSecondsPerDay;
  const double threshold = 0.45;

  SimilarityModel model({}, &df);
  size_t ties = 0;
  const std::vector<size_t> naive =
      NaiveCounterparts(model, snippets, tolerance, threshold, &ties);
  const uint64_t naive_comparisons = model.num_comparisons();
  ASSERT_GT(ties, 0u) << "the corpus must exercise the tie-break";
  ASSERT_GT(std::count_if(naive.begin(), naive.end(),
                          [](size_t k) { return k != kNoCounterpart; }),
            0);

  model.ResetCounters();
  EXPECT_EQ(FindCounterparts(model, snippets, tolerance, threshold), naive);
  EXPECT_EQ(model.num_comparisons(), naive_comparisons);

  ThreadPool pool(4);
  model.ResetCounters();
  EXPECT_EQ(FindCounterparts(model, snippets, tolerance, threshold, &pool),
            naive);
  EXPECT_EQ(model.num_comparisons(), naive_comparisons);
}

TEST(FindCounterpartsTest, EmptyAndSingleSourceInputs) {
  SimilarityModel model({}, nullptr);
  EXPECT_TRUE(FindCounterparts(model, {}, 100, 0.1).empty());
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}});
  Snippet b = MakeSnippet(2, 10, {{0, 1.0}}, {{5, 1.0}});
  EXPECT_EQ(FindCounterparts(model, {&a, &b}, 100, 0.1),
            (std::vector<size_t>{kNoCounterpart, kNoCounterpart}));
  b.source = 1;
  EXPECT_EQ(FindCounterparts(model, {&a, &b}, 100, 0.1),
            (std::vector<size_t>{1, 0}));
  EXPECT_EQ(model.num_comparisons(), 1u);
}

// ---------------------------- TemporalAffinity -----------------------------

TEST(TemporalAffinityTest, OverlappingIntervalsScoreOne) {
  EXPECT_DOUBLE_EQ(
      SimilarityModel::TemporalAffinity(0, 100, 50, 150, 10), 1.0);
  // Touching intervals also count as overlapping.
  EXPECT_DOUBLE_EQ(
      SimilarityModel::TemporalAffinity(0, 100, 100, 150, 10), 1.0);
}

TEST(TemporalAffinityTest, GapDecaysLinearly) {
  EXPECT_NEAR(SimilarityModel::TemporalAffinity(0, 100, 105, 150, 10), 0.5,
              1e-12);
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 100, 110, 150, 10),
                   0.0);
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 100, 200, 300, 10),
                   0.0);
}

TEST(TemporalAffinityTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 10, 14, 20, 8),
                   SimilarityModel::TemporalAffinity(14, 20, 0, 10, 8));
}

TEST(TemporalAffinityTest, ZeroToleranceIsHardCutoff) {
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 10, 11, 20, 0), 0.0);
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 10, 5, 20, 0), 1.0);
}

}  // namespace
}  // namespace storypivot
