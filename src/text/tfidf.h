#ifndef STORYPIVOT_TEXT_TFIDF_H_
#define STORYPIVOT_TEXT_TFIDF_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/term_vector.h"
#include "text/vocabulary.h"

namespace storypivot::text {

/// Sublinear term frequency 1 + ln(count), 0 for non-positive counts,
/// evaluated with std::log.
double ComputeSublinearTf(double count);

inline constexpr size_t kSublinearTfTableSize = 1024;

/// ComputeSublinearTf(k) for every integer k below kSublinearTfTableSize.
inline const std::array<double, kSublinearTfTableSize>& SublinearTfTable() {
  static const std::array<double, kSublinearTfTableSize> table = [] {
    std::array<double, kSublinearTfTableSize> out{};
    for (size_t k = 0; k < out.size(); ++k) {
      out[k] = ComputeSublinearTf(static_cast<double>(k));
    }
    return out;
  }();
  return table;
}

/// ComputeSublinearTf(count). Integer counts below kSublinearTfTableSize,
/// which covers snippet keyword counts and all but the largest story
/// counts, are read from SublinearTfTable, which holds the same doubles.
inline double SublinearTf(double count) {
  if (count >= 1.0 && count < static_cast<double>(kSublinearTfTableSize)) {
    const size_t k = static_cast<size_t>(count);
    if (static_cast<double>(k) == count) return SublinearTfTable()[k];
  }
  return ComputeSublinearTf(count);
}

/// Incrementally tracks document frequencies so that TF-IDF weights can be
/// computed in a streaming setting. Supports removal, which StoryPivot
/// needs when documents are deleted from the system.
class DocumentFrequency {
 public:
  DocumentFrequency() = default;

  /// Records one document whose distinct terms are the support of `terms`.
  void AddDocument(const TermVector& terms);

  /// Removes a previously added document. The caller must pass the same
  /// term support that was added.
  void RemoveDocument(const TermVector& terms);

  /// Number of documents seen (adds minus removes).
  int64_t num_documents() const { return num_documents_; }

  /// Document frequency of `term` (0 if unseen).
  int64_t FrequencyOf(TermId term) const;

  /// Smoothed inverse document frequency:
  ///   idf(t) = ln((N + 1) / (df(t) + 1)) + 1.
  /// Always >= 1 - epsilon even for ubiquitous terms, and well-defined for
  /// unseen terms. Reads the IDF table while it is valid (see
  /// BuildIdfTable) and evaluates the expression otherwise; both give the
  /// same double.
  double Idf(TermId term) const {
    if (!idf_table_valid_) return IdfOf(FrequencyOf(term));
    return term < idf_table_.size() ? idf_table_[term] : idf_unseen_;
  }

  /// Evaluates Idf for every known term once, so the scoring passes that
  /// run while the frequencies stay fixed (a batch's identification
  /// phase, alignment, refinement) take no logarithm per lookup. Every
  /// AddDocument/RemoveDocument invalidates the table; a no-op while it
  /// is still valid. Call from the owner's serial section only: the
  /// table is read without synchronisation by concurrent scorers.
  void BuildIdfTable();

  /// True while Idf reads the table (exposed for tests).
  bool idf_table_valid() const { return idf_table_valid_; }

 private:
  double IdfOf(int64_t frequency) const;

  std::vector<int64_t> df_;  // Indexed by TermId.
  int64_t num_documents_ = 0;
  /// Idf per TermId below df_.size(), plus the value of every later
  /// (unseen) term; meaningful only while idf_table_valid_.
  std::vector<double> idf_table_;
  double idf_unseen_ = 0.0;
  bool idf_table_valid_ = false;
};

/// Options for TF-IDF weighting.
struct TfIdfOptions {
  /// Use 1 + ln(tf) instead of raw tf (sublinear scaling).
  bool sublinear_tf = true;
  /// L2-normalise the resulting vector.
  bool l2_normalize = true;
};

/// Computes a TF-IDF weighted copy of a raw term-count vector using the
/// statistics accumulated in `df`.
TermVector TfIdfWeighted(const TermVector& counts, const DocumentFrequency& df,
                         const TfIdfOptions& options = {});

}  // namespace storypivot::text

#endif  // STORYPIVOT_TEXT_TFIDF_H_
