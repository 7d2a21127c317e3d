#include "text/term_vector.h"

#include <algorithm>
#include <cmath>

namespace storypivot::text {
namespace {
constexpr double kEps = 1e-12;
}  // namespace

TermVector TermVector::FromEntries(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  TermVector out;
  for (const Entry& e : entries) {
    if (!out.entries_.empty() && out.entries_.back().first == e.first) {
      out.entries_.back().second += e.second;
    } else {
      out.entries_.push_back(e);
    }
  }
  // Drop zeros that may result from summing.
  std::erase_if(out.entries_,
                [](const Entry& e) { return std::abs(e.second) <= kEps; });
  return out;
}

void TermVector::Add(TermId term, double weight) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), term,
      [](const Entry& e, TermId t) { return e.first < t; });
  if (it != entries_.end() && it->first == term) {
    it->second += weight;
    if (std::abs(it->second) <= kEps) entries_.erase(it);
  } else if (std::abs(weight) > kEps) {
    entries_.insert(it, {term, weight});
  }
}

void TermVector::Merge(const TermVector& other, double scale) {
  if (other.entries_.empty() || scale == 0.0) return;
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() &&
         entries_[i].first < other.entries_[j].first)) {
      merged.push_back(entries_[i++]);
    } else if (i >= entries_.size() ||
               other.entries_[j].first < entries_[i].first) {
      merged.push_back({other.entries_[j].first,
                        other.entries_[j].second * scale});
      ++j;
    } else {
      double v = entries_[i].second + other.entries_[j].second * scale;
      if (std::abs(v) > kEps) merged.push_back({entries_[i].first, v});
      ++i;
      ++j;
    }
  }
  entries_ = std::move(merged);
}

void TermVector::Subtract(const TermVector& other) {
  Merge(other, -1.0);
  std::erase_if(entries_, [](const Entry& e) { return e.second <= kEps; });
}

double TermVector::ValueOf(TermId term) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), term,
      [](const Entry& e, TermId t) { return e.first < t; });
  if (it != entries_.end() && it->first == term) return it->second;
  return 0.0;
}

double TermVector::Sum() const {
  double s = 0.0;
  for (const Entry& e : entries_) s += e.second;
  return s;
}

double TermVector::Norm() const {
  double s = 0.0;
  for (const Entry& e : entries_) s += e.second * e.second;
  return std::sqrt(s);
}

double TermVector::Dot(const TermVector& other) const {
  double s = 0.0;
  size_t i = 0, j = 0;
  while (i < entries_.size() && j < other.entries_.size()) {
    if (entries_[i].first < other.entries_[j].first) {
      ++i;
    } else if (other.entries_[j].first < entries_[i].first) {
      ++j;
    } else {
      s += entries_[i].second * other.entries_[j].second;
      ++i;
      ++j;
    }
  }
  return s;
}

double TermVector::Cosine(const TermVector& other) const {
  double na = Norm();
  double nb = other.Norm();
  if (na <= kEps || nb <= kEps) return 0.0;
  return Dot(other) / (na * nb);
}

namespace {

/// Weighted Jaccard over two sorted entry lists, each coefficient passed
/// through its side's `scale_a`/`scale_b` as it is read.
template <typename ScaleA, typename ScaleB>
double WeightedJaccardOf(const std::vector<TermVector::Entry>& a,
                         ScaleA scale_a,
                         const std::vector<TermVector::Entry>& b,
                         ScaleB scale_b) {
  double min_sum = 0.0, max_sum = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].first < b[j].first)) {
      max_sum += scale_a(a[i++].second);
    } else if (i >= a.size() || b[j].first < a[i].first) {
      max_sum += scale_b(b[j++].second);
    } else {
      const double x = scale_a(a[i].second);
      const double y = scale_b(b[j].second);
      min_sum += std::min(x, y);
      max_sum += std::max(x, y);
      ++i;
      ++j;
    }
  }
  if (max_sum <= kEps) return 0.0;
  return min_sum / max_sum;
}

}  // namespace

double TermVector::WeightedJaccard(const TermVector& other) const {
  auto same = [](double v) { return v; };
  return WeightedJaccardOf(entries_, same, other.entries_, same);
}

double TermVector::ScaledWeightedJaccard(double scale,
                                         const TermVector& other,
                                         double other_scale) const {
  return WeightedJaccardOf(
      entries_, [scale](double v) { return v * scale; }, other.entries_,
      [other_scale](double v) { return v * other_scale; });
}

double TermVector::SetJaccard(const TermVector& other) const {
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < entries_.size() && j < other.entries_.size()) {
    if (entries_[i].first < other.entries_[j].first) {
      ++i;
    } else if (other.entries_[j].first < entries_[i].first) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  size_t uni = entries_.size() + other.entries_.size() - inter;
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

std::vector<TermVector::Entry> TermVector::TopK(size_t k) const {
  std::vector<Entry> out = entries_;
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace storypivot::text
