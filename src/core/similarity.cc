#include "core/similarity.h"

#include <algorithm>
#include <cmath>

namespace storypivot {
namespace {
constexpr double kEps = 1e-12;

double Cosine(double dot, double norm_a_sq, double norm_b_sq) {
  if (norm_a_sq <= kEps || norm_b_sq <= kEps) return 0.0;
  return dot / (std::sqrt(norm_a_sq) * std::sqrt(norm_b_sq));
}
}  // namespace

SimilarityModel::SimilarityModel(const SimilarityConfig& config,
                                 const text::DocumentFrequency* df)
    : config_(config), df_(df) {}

double SimilarityModel::KeywordWeight(text::TermId term, double count) const {
  double w = text::SublinearTf(count);
  if (config_.use_idf && df_ != nullptr) w *= df_->Idf(term);
  return w;
}

double SimilarityModel::IdfCosine(const text::TermVector& a,
                                  const text::TermVector& b) const {
  double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (j >= eb.size() || (i < ea.size() && ea[i].first < eb[j].first)) {
      double w = KeywordWeight(ea[i].first, ea[i].second);
      norm_a += w * w;
      ++i;
    } else if (i >= ea.size() || eb[j].first < ea[i].first) {
      double w = KeywordWeight(eb[j].first, eb[j].second);
      norm_b += w * w;
      ++j;
    } else {
      double wa = KeywordWeight(ea[i].first, ea[i].second);
      double wb = KeywordWeight(eb[j].first, eb[j].second);
      dot += wa * wb;
      norm_a += wa * wa;
      norm_b += wb * wb;
      ++i;
      ++j;
    }
  }
  return Cosine(dot, norm_a, norm_b);
}

PreparedKeywords SimilarityModel::PrepareKeywords(
    const text::TermVector& keywords) const {
  PreparedKeywords out;
  out.weights.reserve(keywords.size());
  for (const auto& [term, count] : keywords.entries()) {
    double w = KeywordWeight(term, count);
    out.weights.emplace_back(term, w);
    out.norm_sq += w * w;
  }
  return out;
}

double SimilarityModel::PreparedSnippetSimilarity(
    const Snippet& a, const PreparedKeywords& a_keywords, const Snippet& b,
    const PreparedKeywords& b_keywords) const {
  // IdfCosine's merge walk reduced to the shared terms: the norms were
  // summed in the same term order when the keywords were prepared.
  const auto& wa = a_keywords.weights;
  const auto& wb = b_keywords.weights;
  double dot = 0.0;
  size_t i = 0, j = 0;
  while (i < wa.size() && j < wb.size()) {
    if (wa[i].first < wb[j].first) {
      ++i;
    } else if (wb[j].first < wa[i].first) {
      ++j;
    } else {
      dot += wa[i].second * wb[j].second;
      ++i;
      ++j;
    }
  }
  return Blend(a.entities.WeightedJaccard(b.entities),
               Cosine(dot, a_keywords.norm_sq, b_keywords.norm_sq));
}

double SimilarityModel::SnippetSimilarity(const Snippet& a,
                                          const Snippet& b) const {
  num_comparisons_.fetch_add(1, std::memory_order_relaxed);
  return Blend(a.entities.WeightedJaccard(b.entities),
               IdfCosine(a.keywords, b.keywords));
}

double SimilarityModel::SnippetStorySimilarity(const Snippet& snippet,
                                               const Story& story) const {
  num_comparisons_.fetch_add(1, std::memory_order_relaxed);
  // Entity overlap against the story histogram: use set-containment-style
  // weighted Jaccard of the snippet against the story's *support* scaled
  // to the snippet's magnitude — a plain weighted Jaccard would vanish for
  // large stories. We therefore compare against the story's histogram
  // normalised to per-snippet scale.
  double scale = story.empty() ? 1.0 : 1.0 / static_cast<double>(story.size());
  double entity_sim =
      snippet.entities.ScaledWeightedJaccard(1.0, story.entities(), scale);
  return Blend(entity_sim, IdfCosine(snippet.keywords, story.keywords()));
}

double SimilarityModel::StorySimilarity(const Story& a,
                                        const Story& b) const {
  num_comparisons_.fetch_add(1, std::memory_order_relaxed);
  // Normalise both histograms to per-snippet scale so story size does not
  // dominate the Jaccard.
  double scale_a = a.empty() ? 1.0 : 1.0 / static_cast<double>(a.size());
  double scale_b = b.empty() ? 1.0 : 1.0 / static_cast<double>(b.size());
  double entity_sim =
      a.entities().ScaledWeightedJaccard(scale_a, b.entities(), scale_b);
  return Blend(entity_sim, IdfCosine(a.keywords(), b.keywords()));
}

double SimilarityModel::TemporalAffinity(Timestamp a_begin, Timestamp a_end,
                                         Timestamp b_begin, Timestamp b_end,
                                         Timestamp tolerance) {
  Timestamp overlap =
      std::min(a_end, b_end) - std::max(a_begin, b_begin);
  if (overlap >= 0) return 1.0;
  Timestamp gap = -overlap;
  if (tolerance <= 0 || gap >= tolerance) return 0.0;
  return 1.0 - static_cast<double>(gap) / static_cast<double>(tolerance);
}

}  // namespace storypivot
