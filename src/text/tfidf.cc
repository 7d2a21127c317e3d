#include "text/tfidf.h"

#include <cmath>

#include "util/logging.h"

namespace storypivot::text {

double ComputeSublinearTf(double count) {
  return count > 0.0 ? 1.0 + std::log(count) : 0.0;
}

void DocumentFrequency::AddDocument(const TermVector& terms) {
  idf_table_valid_ = false;
  ++num_documents_;
  for (const auto& [term, weight] : terms.entries()) {
    if (weight <= 0.0) continue;
    if (term >= df_.size()) df_.resize(term + 1, 0);
    ++df_[term];
  }
}

void DocumentFrequency::RemoveDocument(const TermVector& terms) {
  SP_CHECK(num_documents_ > 0);
  idf_table_valid_ = false;
  --num_documents_;
  for (const auto& [term, weight] : terms.entries()) {
    if (weight <= 0.0) continue;
    if (term < df_.size() && df_[term] > 0) --df_[term];
  }
}

int64_t DocumentFrequency::FrequencyOf(TermId term) const {
  if (term >= df_.size()) return 0;
  return df_[term];
}

double DocumentFrequency::IdfOf(int64_t frequency) const {
  double n = static_cast<double>(num_documents_);
  double df = static_cast<double>(frequency);
  return std::log((n + 1.0) / (df + 1.0)) + 1.0;
}

void DocumentFrequency::BuildIdfTable() {
  if (idf_table_valid_) return;
  idf_table_.resize(df_.size());
  for (size_t term = 0; term < df_.size(); ++term) {
    idf_table_[term] = IdfOf(df_[term]);
  }
  idf_unseen_ = IdfOf(0);
  idf_table_valid_ = true;
}

TermVector TfIdfWeighted(const TermVector& counts,
                         const DocumentFrequency& df,
                         const TfIdfOptions& options) {
  std::vector<TermVector::Entry> weighted;
  weighted.reserve(counts.size());
  for (const auto& [term, count] : counts.entries()) {
    if (count <= 0.0) continue;
    double tf = options.sublinear_tf ? SublinearTf(count) : count;
    weighted.push_back({term, tf * df.Idf(term)});
  }
  TermVector out = TermVector::FromEntries(std::move(weighted));
  if (options.l2_normalize) {
    double norm = out.Norm();
    if (norm > 0.0) {
      std::vector<TermVector::Entry> scaled;
      scaled.reserve(out.size());
      for (const auto& [term, w] : out.entries()) {
        scaled.push_back({term, w / norm});
      }
      out = TermVector::FromEntries(std::move(scaled));
    }
  }
  return out;
}

}  // namespace storypivot::text
