#ifndef STORYPIVOT_CORE_SIMILARITY_H_
#define STORYPIVOT_CORE_SIMILARITY_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "model/snippet.h"
#include "model/story.h"
#include "text/term_vector.h"
#include "text/tfidf.h"

namespace storypivot {

/// Weights and thresholds of the snippet/story similarity model shared by
/// story identification, alignment and refinement.
struct SimilarityConfig {
  /// Weight of entity overlap (weighted Jaccard over entity histograms).
  double entity_weight = 0.55;
  /// Weight of keyword similarity (IDF-weighted cosine).
  double keyword_weight = 0.45;
  /// Use corpus IDF statistics to weigh keywords; when false, plain
  /// sublinear-TF cosine is used.
  bool use_idf = true;
  /// A snippet joins its best story when the blended score reaches this.
  double assign_threshold = 0.30;
  /// Two existing stories bridged by one snippet merge when both score at
  /// least this (incremental merge, §2.2 / incremental record linkage).
  double merge_threshold = 0.55;
  /// Blend between the best member-snippet score (1 - blend) and the
  /// story-centroid score (blend) when scoring a snippet against a story.
  double centroid_blend = 0.3;
};

/// A keyword vector with its IdfCosine weights and squared norm computed
/// once, for passes that score one snippet against many others while the
/// document frequencies stay fixed (refinement, role classification).
struct PreparedKeywords {
  /// (term, (1 + ln tf) * idf) in ascending term order.
  std::vector<std::pair<text::TermId, double>> weights;
  /// Sum of squared weights, accumulated in term order.
  double norm_sq = 0.0;
};

/// Stateless scoring functions over snippets and stories, parameterised by
/// a SimilarityConfig and backed by streaming document-frequency
/// statistics. Counts every pairwise comparison so benches can report the
/// work done by each identification mode.
///
/// No score takes a logarithm or allocates on the engine's detect path:
/// keyword IDFs come from the DocumentFrequency table the engine builds
/// before each read phase (batch identification, Align, Refine),
/// sublinear TF of integer counts from text::SublinearTfTable, and the
/// per-snippet scale of story entity histograms is applied while the
/// weighted Jaccard reads them. Each of these yields the same doubles as
/// evaluating the formula directly, so scores never depend on whether the
/// table was fresh (a stale one is not used, DocumentFrequency::Idf).
class SimilarityModel {
 public:
  /// `df` may be nullptr, in which case IDF weighting is disabled
  /// regardless of the config.
  SimilarityModel(const SimilarityConfig& config,
                  const text::DocumentFrequency* df);

  const SimilarityConfig& config() const { return config_; }

  /// Content similarity of two snippets in [0, 1]:
  /// entity_weight * WeightedJaccard(entities) +
  /// keyword_weight * IdfCosine(keywords).
  double SnippetSimilarity(const Snippet& a, const Snippet& b) const;

  /// Content similarity between a snippet and a story's aggregate
  /// histograms (the story "centroid"). The story's entity histogram is
  /// scaled to one snippet (divided by the story size) before the
  /// weighted Jaccard.
  double SnippetStorySimilarity(const Snippet& snippet,
                                const Story& story) const;

  /// Content similarity between two stories' aggregates, each entity
  /// histogram scaled to one snippet as in SnippetStorySimilarity.
  double StorySimilarity(const Story& a, const Story& b) const;

  /// IDF-weighted cosine over keyword count vectors. Weights are
  /// (1 + ln tf) * idf(term), with norms computed on the fly so the
  /// current corpus statistics always apply (through the IDF table when
  /// it is valid, by the formula otherwise).
  double IdfCosine(const text::TermVector& a, const text::TermVector& b)
      const;

  /// Weights `keywords` exactly as IdfCosine would under the current
  /// document frequencies. Valid until those frequencies change.
  PreparedKeywords PrepareKeywords(const text::TermVector& keywords) const;

  /// SnippetSimilarity(a, b) from prepared keywords: the same terms summed
  /// in the same order, so the score is bit-identical, but no weight is
  /// recomputed and no comparison is counted (see CountComparisons).
  double PreparedSnippetSimilarity(const Snippet& a,
                                   const PreparedKeywords& a_keywords,
                                   const Snippet& b,
                                   const PreparedKeywords& b_keywords) const;

  /// Temporal affinity of two time intervals in [0, 1]: 1 when they
  /// overlap, linearly decaying to 0 as the gap grows to `tolerance`
  /// seconds (§2.3: stories only align when their evolution overlaps).
  static double TemporalAffinity(Timestamp a_begin, Timestamp a_end,
                                 Timestamp b_begin, Timestamp b_end,
                                 Timestamp tolerance);

  /// The document-frequency statistics backing IDF weighting (may be
  /// nullptr). Exposed so incremental consumers can detect IDF drift.
  const text::DocumentFrequency* document_frequency() const { return df_; }

  /// Number of pairwise similarity evaluations since construction. The
  /// counter is a relaxed atomic: scoring methods are const and run
  /// concurrently from the parallel ingestion/alignment paths, so a plain
  /// counter would be a data race. Relaxed ordering suffices — the count
  /// is only read from serial sections (benches, stats).
  ///
  /// Deliberately NOT `SP_GUARDED_BY` any capability (DESIGN.md §13):
  /// an atomic needs no lock, and guarding it by the engine's serial
  /// role would wrongly forbid exactly the concurrent scoring paths the
  /// atomic exists for. The same reasoning covers `ResetCounters`,
  /// which callers invoke only between phases.
  uint64_t num_comparisons() const {
    return num_comparisons_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    num_comparisons_.store(0, std::memory_order_relaxed);
  }
  /// Adds `n` comparisons made through PreparedSnippetSimilarity, so a
  /// pass can count its pairs once instead of once per pair.
  void CountComparisons(uint64_t n) const {
    num_comparisons_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  /// IdfCosine's weight of one keyword: (1 + ln tf) * idf(term).
  double KeywordWeight(text::TermId term, double count) const;
  double Blend(double entity_sim, double keyword_sim) const {
    return config_.entity_weight * entity_sim +
           config_.keyword_weight * keyword_sim;
  }

  SimilarityConfig config_;
  const text::DocumentFrequency* df_;
  mutable std::atomic<uint64_t> num_comparisons_{0};
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_SIMILARITY_H_
