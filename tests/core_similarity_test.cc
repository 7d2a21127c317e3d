#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "core/aligner.h"
#include "core/similarity.h"
#include "datagen/corpus.h"
#include "model/snippet.h"
#include "model/story.h"
#include "model/time.h"
#include "text/tfidf.h"
#include "util/rng.h"
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

TEST(FindCounterpartsTest, GroupedSearchEqualsOneCallPerGroup) {
  // Groups laid end to end, each in time order on its own; the first
  // group holds most of the pairs, the way one large integrated story
  // does in role classification.
  datagen::Corpus corpus = OracleCorpus();
  text::DocumentFrequency df = FrequenciesOf(corpus);
  std::vector<std::vector<const Snippet*>> groups(5);
  for (size_t i = 0; i < corpus.snippets.size(); ++i) {
    groups[i < 300 ? 0 : 1 + i % 4].push_back(&corpus.snippets[i]);
  }
  groups.push_back({});  // An empty group changes nothing.
  groups.push_back({&corpus.snippets[0]});
  std::vector<const Snippet*> all;
  std::vector<size_t> group_end;
  for (std::vector<const Snippet*>& group : groups) {
    std::sort(group.begin(), group.end(),
              [](const Snippet* a, const Snippet* b) {
                return a->timestamp < b->timestamp;
              });
    all.insert(all.end(), group.begin(), group.end());
    group_end.resize(all.size(), all.size());
  }
  const Timestamp tolerance = 3 * kSecondsPerDay;
  const double threshold = 0.45;

  SimilarityModel model({}, &df);
  std::vector<size_t> expected;
  for (const std::vector<const Snippet*>& group : groups) {
    const size_t offset = expected.size();
    for (size_t best : FindCounterparts(model, group, tolerance, threshold)) {
      expected.push_back(best == kNoCounterpart ? kNoCounterpart
                                                : offset + best);
    }
  }
  const uint64_t expected_comparisons = model.num_comparisons();
  ASSERT_GT(expected_comparisons, 0u);

  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    model.ResetCounters();
    EXPECT_EQ(FindCounterparts(model, all, tolerance, threshold, &pool,
                               &group_end),
              expected)
        << threads << " threads";
    EXPECT_EQ(model.num_comparisons(), expected_comparisons)
        << threads << " threads";
  }
}

// ------------------- Table lookups and scaled Jaccard ----------------------

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// DocumentFrequency::Idf as written before the IDF table existed.
double FormulaIdf(const text::DocumentFrequency& df, text::TermId term) {
  double n = static_cast<double>(df.num_documents());
  double f = static_cast<double>(df.FrequencyOf(term));
  return std::log((n + 1.0) / (f + 1.0)) + 1.0;
}

TEST(IdfTableTest, TableEqualsFormulaIncludingUnseenTerms) {
  datagen::Corpus corpus = OracleCorpus();
  text::DocumentFrequency df = FrequenciesOf(corpus);
  const text::TermId past_end =
      static_cast<text::TermId>(corpus.keyword_vocabulary->size() + 50);
  EXPECT_FALSE(df.idf_table_valid());
  std::vector<double> before;
  for (text::TermId t = 0; t < past_end; ++t) before.push_back(df.Idf(t));

  df.BuildIdfTable();
  ASSERT_TRUE(df.idf_table_valid());
  size_t mismatches = 0;
  for (text::TermId t = 0; t < past_end; ++t) {
    if (!SameBits(df.Idf(t), before[t]) ||
        !SameBits(df.Idf(t), FormulaIdf(df, t))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // A term no document has seen reads the unseen value.
  EXPECT_TRUE(SameBits(df.Idf(1u << 30), FormulaIdf(df, 1u << 30)));
}

TEST(IdfTableTest, MutationInvalidatesTheTable) {
  datagen::Corpus corpus = OracleCorpus();
  text::DocumentFrequency df = FrequenciesOf(corpus);
  df.BuildIdfTable();
  const text::TermId term = corpus.snippets[0].keywords.entries()[0].first;
  const double stale = df.Idf(term);

  // A new document moves N (and this term's frequency): the stale table
  // must not answer.
  df.AddDocument(corpus.snippets[0].keywords);
  EXPECT_FALSE(df.idf_table_valid());
  EXPECT_FALSE(SameBits(df.Idf(term), stale));
  EXPECT_TRUE(SameBits(df.Idf(term), FormulaIdf(df, term)));
  // A term first seen after the table was built.
  const text::TermId fresh = 1u << 20;
  df.AddDocument(text::TermVector::FromEntries({{fresh, 1.0}}));
  EXPECT_TRUE(SameBits(df.Idf(fresh), FormulaIdf(df, fresh)));
  df.BuildIdfTable();
  EXPECT_TRUE(SameBits(df.Idf(fresh), FormulaIdf(df, fresh)));
  EXPECT_TRUE(SameBits(df.Idf(term), FormulaIdf(df, term)));

  df.RemoveDocument(corpus.snippets[0].keywords);
  EXPECT_FALSE(df.idf_table_valid());
  EXPECT_TRUE(SameBits(df.Idf(term), FormulaIdf(df, term)));
  // Rebuilding a valid table is a no-op; rebuilding a stale one refreshes.
  df.BuildIdfTable();
  df.BuildIdfTable();
  EXPECT_TRUE(SameBits(df.Idf(term), FormulaIdf(df, term)));
}

TEST(SublinearTfTest, TableEqualsLogarithm) {
  size_t mismatches = 0;
  for (size_t k = 1; k < 3 * text::kSublinearTfTableSize; ++k) {
    const double count = static_cast<double>(k);
    if (!SameBits(text::SublinearTf(count), 1.0 + std::log(count))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  for (double count : {0.25, 0.5, 1.5, 2.000001, 7.75, 1023.5, 1e9 + 0.5}) {
    EXPECT_TRUE(SameBits(text::SublinearTf(count), 1.0 + std::log(count)))
        << count;
  }
  EXPECT_EQ(text::SublinearTf(0.0), 0.0);
  EXPECT_EQ(text::SublinearTf(-3.0), 0.0);
}

text::TermVector RandomVector(Pcg32* rng, uint32_t max_terms) {
  std::vector<text::TermVector::Entry> entries;
  const uint32_t n = rng->NextBounded(max_terms + 1);
  for (uint32_t i = 0; i < n; ++i) {
    entries.push_back({static_cast<text::TermId>(rng->NextBounded(60)),
                       static_cast<double>(1 + rng->NextBounded(9))});
  }
  return text::TermVector::FromEntries(std::move(entries));
}

TEST(ScaledWeightedJaccardTest, EqualsMergeThenWeightedJaccard) {
  Pcg32 rng(17);
  size_t mismatches = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const text::TermVector a = RandomVector(&rng, 12);
    const text::TermVector b = RandomVector(&rng, 40);
    const double scale_a =
        trial % 3 == 0 ? 1.0 : 1.0 / (1 + rng.NextBounded(50));
    const double scale_b = 1.0 / (1 + rng.NextBounded(500));
    text::TermVector sa, sb;
    sa.Merge(a, scale_a);
    sb.Merge(b, scale_b);
    if (!SameBits(a.ScaledWeightedJaccard(scale_a, b, scale_b),
                  sa.WeightedJaccard(sb))) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// SnippetStorySimilarity and StorySimilarity as written before the IDF
/// and TF tables and the scaled Jaccard: scaled copies through Merge, and
/// two logarithms per keyword weight.
class ReferenceModel {
 public:
  ReferenceModel(const SimilarityConfig& config,
                 const text::DocumentFrequency* df)
      : config_(config), df_(df) {}

  double SnippetStory(const Snippet& snippet, const Story& story) const {
    double scale =
        story.empty() ? 1.0 : 1.0 / static_cast<double>(story.size());
    text::TermVector scaled;
    scaled.Merge(story.entities(), scale);
    return Blend(snippet.entities.WeightedJaccard(scaled),
                 IdfCosine(snippet.keywords, story.keywords()));
  }

  double StoryStory(const Story& a, const Story& b) const {
    double scale_a = a.empty() ? 1.0 : 1.0 / static_cast<double>(a.size());
    double scale_b = b.empty() ? 1.0 : 1.0 / static_cast<double>(b.size());
    text::TermVector ea, eb;
    ea.Merge(a.entities(), scale_a);
    eb.Merge(b.entities(), scale_b);
    return Blend(ea.WeightedJaccard(eb),
                 IdfCosine(a.keywords(), b.keywords()));
  }

 private:
  double Weight(text::TermId term, double count) const {
    double w = count > 0.0 ? 1.0 + std::log(count) : 0.0;
    if (config_.use_idf && df_ != nullptr) w *= FormulaIdf(*df_, term);
    return w;
  }

  double IdfCosine(const text::TermVector& a,
                   const text::TermVector& b) const {
    double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
    const auto& ea = a.entries();
    const auto& eb = b.entries();
    size_t i = 0, j = 0;
    while (i < ea.size() || j < eb.size()) {
      if (j >= eb.size() || (i < ea.size() && ea[i].first < eb[j].first)) {
        double w = Weight(ea[i].first, ea[i].second);
        norm_a += w * w;
        ++i;
      } else if (i >= ea.size() || eb[j].first < ea[i].first) {
        double w = Weight(eb[j].first, eb[j].second);
        norm_b += w * w;
        ++j;
      } else {
        double wa = Weight(ea[i].first, ea[i].second);
        double wb = Weight(eb[j].first, eb[j].second);
        dot += wa * wb;
        norm_a += wa * wa;
        norm_b += wb * wb;
        ++i;
        ++j;
      }
    }
    if (norm_a <= 1e-12 || norm_b <= 1e-12) return 0.0;
    return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
  }

  double Blend(double entity_sim, double keyword_sim) const {
    return config_.entity_weight * entity_sim +
           config_.keyword_weight * keyword_sim;
  }

  SimilarityConfig config_;
  const text::DocumentFrequency* df_;
};

/// Counts the snippet-story and story-story scores whose bits differ
/// from the reference, over the corpus' ground-truth stories.
size_t StoryScoreMismatches(const SimilarityModel& model,
                            const ReferenceModel& reference,
                            const std::vector<Story>& stories,
                            const std::vector<Snippet>& probes) {
  size_t mismatches = 0;
  for (const Story& a : stories) {
    for (const Story& b : stories) {
      if (!SameBits(model.StorySimilarity(a, b), reference.StoryStory(a, b))) {
        ++mismatches;
      }
    }
    for (const Snippet& probe : probes) {
      if (!SameBits(model.SnippetStorySimilarity(probe, a),
                    reference.SnippetStory(probe, a))) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

TEST(StoryScoresTest, BitIdenticalToReferenceImplementation) {
  datagen::Corpus corpus = OracleCorpus();
  text::DocumentFrequency df = FrequenciesOf(corpus);
  // Ground-truth stories, one empty story, and one whose keyword counts
  // lie past the TF table or are fractional.
  std::map<int64_t, Story> by_truth;
  for (const Snippet& s : corpus.snippets) {
    auto [it, inserted] = by_truth.try_emplace(s.truth_story, 0);
    it->second.AddSnippet(s);
  }
  std::vector<Story> stories;
  for (auto& [truth, story] : by_truth) stories.push_back(std::move(story));
  stories.emplace_back(0);
  const Snippet& first = corpus.snippets[0];
  Snippet heavy = MakeSnippet(0, 0, {{first.entities.entries()[0].first, 3.0}},
                              {{first.keywords.entries()[0].first, 1500.0},
                               {first.keywords.entries().back().first, 2.5}});
  stories.emplace_back(0).AddSnippet(heavy);
  std::vector<Snippet> probes(corpus.snippets.begin(),
                              corpus.snippets.begin() + 40);
  probes.push_back(heavy);

  SimilarityConfig idf_off;
  idf_off.use_idf = false;
  for (const SimilarityConfig& config : {SimilarityConfig{}, idf_off}) {
    SimilarityModel model(config, &df);
    ReferenceModel reference(config, &df);
    EXPECT_EQ(StoryScoreMismatches(model, reference, stories, probes), 0u);
    df.BuildIdfTable();
    EXPECT_EQ(StoryScoreMismatches(model, reference, stories, probes), 0u);
    df.AddDocument(corpus.snippets[1].keywords);  // Stale table.
    EXPECT_EQ(StoryScoreMismatches(model, reference, stories, probes), 0u);
  }
  SimilarityModel no_frequencies({}, nullptr);
  ReferenceModel no_frequencies_reference({}, nullptr);
  EXPECT_EQ(StoryScoreMismatches(no_frequencies, no_frequencies_reference,
                                 stories, probes),
            0u);
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
