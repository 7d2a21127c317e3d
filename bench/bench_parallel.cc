// Parallel executor bench (DESIGN.md §9): batch ingestion (AddSnippets)
// and alignment throughput as a function of the engine thread count,
// with a determinism cross-check — every thread count must reproduce the
// t=1 engine state bit for bit. Each thread count runs kRepeats times;
// BENCH_parallel.json records the median, min and max of every timing
// together with the hardware thread count and the build type, so CI and
// the experiment index can track the scaling curve.
//
// Note: speedups only materialise on multi-core hardware; the bench
// reports std::thread::hardware_concurrency() so a flat curve on a
// single-core runner is interpretable.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/snapshot.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace storypivot::bench {
namespace {

constexpr size_t kBatchSize = 512;
constexpr int kRepeats = 3;

struct RunResult {
  double ingest_ms = 0.0;
  double align_ms = 0.0;
  uint64_t fingerprint = 0;
  uint64_t align_stories = 0;
};

RunResult RunOnce(const datagen::Corpus& corpus, size_t threads) {
  EngineConfig config;
  config.num_threads = threads;
  StoryPivotEngine engine(config);
  SP_CHECK_OK(engine.ImportVocabularies(*corpus.entity_vocabulary,
                                        *corpus.keyword_vocabulary));
  for (const SourceInfo& s : corpus.sources) engine.RegisterSource(s.name);

  RunResult result;
  WallTimer ingest_timer;
  std::vector<Snippet> batch;
  batch.reserve(kBatchSize);
  for (const Snippet& snippet : corpus.snippets) {
    batch.push_back(snippet);
    batch.back().id = kInvalidSnippetId;
    if (batch.size() == kBatchSize) {
      SP_CHECK_OK(engine.AddSnippets(std::move(batch)));
      batch.clear();
    }
  }
  if (!batch.empty()) SP_CHECK_OK(engine.AddSnippets(std::move(batch)));
  result.ingest_ms = ingest_timer.ElapsedMillis();

  WallTimer align_timer;
  const AlignmentResult& aligned = engine.Align();
  result.align_ms = align_timer.ElapsedMillis();
  result.align_stories = aligned.stories.size();
  result.fingerprint = EngineStateFingerprint(engine);
  return result;
}

/// Median, min and max of one timing over the repeats.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return {values[values.size() / 2], values.front(), values.back()};
}

std::string SpreadJson(const char* name, const Spread& spread) {
  return StrFormat("\"%s\":{\"median\":%.2f,\"min\":%.2f,\"max\":%.2f}",
                   name, spread.median, spread.min, spread.max);
}

struct ThreadRow {
  size_t threads = 1;
  Spread ingest_ms;
  Spread align_ms;
  uint64_t align_stories = 0;
};

void Run() {
  std::printf("== parallel executor: ingestion & alignment vs threads ==\n\n");
  datagen::CorpusConfig corpus_config = Fig7CorpusConfig(12000);
  corpus_config.num_sources = 8;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("corpus: %zu snippets over %d sources; batch=%zu; "
              "hardware threads=%u; build=%s; repeats=%d\n\n",
              corpus.snippets.size(), corpus_config.num_sources, kBatchSize,
              hw, STORYPIVOT_BENCH_BUILD_TYPE, kRepeats);

  std::vector<ThreadRow> rows;
  uint64_t serial_fingerprint = 0;
  std::printf("%8s %12s %14s %12s %10s %12s\n", "threads", "ingest ms",
              "snippets/s", "align ms", "stories", "identical");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<double> ingest_ms;
    std::vector<double> align_ms;
    ThreadRow row;
    row.threads = threads;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      RunResult r = RunOnce(corpus, threads);
      if (rows.empty() && repeat == 0) serial_fingerprint = r.fingerprint;
      // Determinism contract: bit-identical state for every thread count.
      SP_CHECK(r.fingerprint == serial_fingerprint);
      ingest_ms.push_back(r.ingest_ms);
      align_ms.push_back(r.align_ms);
      row.align_stories = r.align_stories;
    }
    row.ingest_ms = SpreadOf(ingest_ms);
    row.align_ms = SpreadOf(align_ms);
    std::printf("%8zu %12.1f %14.0f %12.1f %10llu %12s\n", row.threads,
                row.ingest_ms.median,
                corpus.snippets.size() / (row.ingest_ms.median / 1000.0),
                row.align_ms.median,
                static_cast<unsigned long long>(row.align_stories), "yes");
    rows.push_back(row);
  }

  const double base_ingest = rows.front().ingest_ms.median;
  const double base_align = rows.front().align_ms.median;
  std::printf("\nmedian speedup vs 1 thread (ingest / align):");
  for (const ThreadRow& row : rows) {
    std::printf("  t%zu=%.2fx/%.2fx", row.threads,
                base_ingest / row.ingest_ms.median,
                base_align / row.align_ms.median);
  }
  std::printf("\n");

  std::string json = StrFormat(
      "{\"bench\":\"parallel\",\"snippets\":%zu,\"sources\":%d,"
      "\"batch_size\":%zu,\"hardware_threads\":%u,\"build_type\":\"%s\","
      "\"smoke\":false,\"repeats\":%d,\"results\":[",
      corpus.snippets.size(), corpus_config.num_sources, kBatchSize, hw,
      STORYPIVOT_BENCH_BUILD_TYPE, kRepeats);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThreadRow& row = rows[i];
    json += StrFormat(
        "%s{\"threads\":%zu,%s,%s,\"ingest_snippets_per_s\":%.1f,"
        "\"ingest_speedup_vs_serial\":%.3f,"
        "\"align_speedup_vs_serial\":%.3f,\"deterministic\":true}",
        i == 0 ? "" : ",", row.threads,
        SpreadJson("ingest_ms", row.ingest_ms).c_str(),
        SpreadJson("align_ms", row.align_ms).c_str(),
        corpus.snippets.size() / (row.ingest_ms.median / 1000.0),
        base_ingest / row.ingest_ms.median, base_align / row.align_ms.median);
  }
  json += "]}\n";
  SP_CHECK_OK(WriteStringToFile("BENCH_parallel.json", json));
  std::printf("wrote BENCH_parallel.json\n");
}

}  // namespace
}  // namespace storypivot::bench

int main() {
  storypivot::bench::Run();
  return 0;
}
