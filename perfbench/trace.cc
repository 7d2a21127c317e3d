#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace storypivot::perfbench {

int Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  // Spans close in LIFO order on the one thread that records them.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

int Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                   uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 span.name.c_str(),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - origin) / 1e3,
                 span.parent, static_cast<unsigned long long>(span.request));
  }
  if (std::fclose(file) != 0) return Status::IoError("cannot write " + path);
  return Status::OK();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace storypivot::perfbench
