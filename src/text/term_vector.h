#ifndef STORYPIVOT_TEXT_TERM_VECTOR_H_
#define STORYPIVOT_TEXT_TERM_VECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "text/vocabulary.h"

namespace storypivot::text {

/// A sparse vector over TermIds with double weights, kept sorted by id.
/// Used for entity histograms, keyword bags and TF-IDF vectors alike.
class TermVector {
 public:
  using Entry = std::pair<TermId, double>;

  TermVector() = default;

  /// Builds from (possibly unsorted, possibly duplicated) entries;
  /// duplicates are summed.
  static TermVector FromEntries(std::vector<Entry> entries);

  /// Adds `weight` to the coefficient of `term`.
  void Add(TermId term, double weight);

  /// Adds `other` scaled by `scale` into this vector.
  void Merge(const TermVector& other, double scale = 1.0);

  /// Subtracts `other` and drops coefficients that reach <= 0 (within eps).
  /// Used when snippets are removed from a story.
  void Subtract(const TermVector& other);

  /// Coefficient of `term`, 0 if absent.
  double ValueOf(TermId term) const;

  /// Number of nonzero coefficients.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  const std::vector<Entry>& entries() const { return entries_; }

  /// Sum of all coefficients.
  double Sum() const;

  /// Euclidean norm.
  double Norm() const;

  /// Dot product with another sparse vector (O(n1 + n2) merge walk).
  double Dot(const TermVector& other) const;

  /// Cosine similarity; 0 when either vector is empty or zero.
  double Cosine(const TermVector& other) const;

  /// Weighted (generalised) Jaccard similarity:
  /// sum(min(a_i,b_i)) / sum(max(a_i,b_i)); 0 when both empty.
  double WeightedJaccard(const TermVector& other) const;

  /// WeightedJaccard between this vector scaled by `scale` and `other`
  /// scaled by `other_scale` (both nonzero), with no scaled copy built:
  /// coefficients are multiplied as they are read, which yields the same
  /// doubles as Merge(…, scale) into an empty vector.
  double ScaledWeightedJaccard(double scale, const TermVector& other,
                               double other_scale) const;

  /// Unweighted Jaccard over the supports (nonzero term sets).
  double SetJaccard(const TermVector& other) const;

  /// Top-k entries by weight (descending, ties by id ascending).
  std::vector<Entry> TopK(size_t k) const;

  bool operator==(const TermVector& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace storypivot::text

#endif  // STORYPIVOT_TEXT_TERM_VECTOR_H_
