#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "core/snapshot.h"
#include "datagen/gdelt_export.h"
#include "eval/experiment.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/timer.h"

namespace storypivot::perfbench {
namespace {

// --- Fixed work per round -------------------------------------------------
//
// Every round of a workload does the same work, so rounds are comparable
// across runs and commits; a run repeats rounds until its time is up and
// reports medians over them.

/// The generator only aims at a report count (its output varies by more
/// than 7% between seeds), so each workload generates a quarter more and
/// keeps a fixed prefix (in arrival order): fixed work per round, and a
/// fixed op count in the WAL.
///
/// bulk_detect: reports ingested in CLI-sized batches.
constexpr size_t kBulkSnippets = 8000;
constexpr int kBulkCorpusTarget = 10000;
constexpr size_t kBulkBatch = 512;
/// doc_churn: articles of up to 4 paragraphs, each paragraph a rendered
/// report of one story from one source (datagen renders one paragraph per
/// document). The first articles by arrival are used; every tenth is
/// retracted later. A fixed count fixes the op count, and with it the WAL
/// tail that recovery replays after the last checkpoint.
constexpr size_t kArticleParagraphs = 4;
constexpr size_t kChurnArticles = 1400;
constexpr int kChurnCorpusTarget = 9000;
constexpr size_t kRetractEvery = 10;
constexpr size_t kRetractLag = 50;

/// Query mix: a few thousand distinct queries drawn Zipf-skewed. Readers
/// ask most about the stories with the most coverage, so query popularity
/// takes the exponent the generator draws story popularity with
/// (CorpusConfig::story_popularity_skew).
constexpr size_t kQuerySetSize = 4000;
/// Closed-loop queries per client against a recovered service.
constexpr size_t kQueriesPerClient = 3000;
/// Queries timed on a pinned epoch for the uncached ranking cost.
constexpr size_t kRankSample = 1000;
/// Queries compared by the equality gates.
constexpr size_t kGateSample = 400;

/// Every round generates its own corpus (seeded from the run's seed and
/// the round index), so a run's medians rest on several generated worlds
/// rather than one. A run makes at least this many rounds — as many as
/// fit its time at the seed's round cost — and quality figures average
/// over exactly these first rounds, which makes them a function of the
/// seed alone.
constexpr int kBulkMinRounds = 9;
constexpr int kChurnMinRounds = 15;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// What one round runs: which of the run's corpora, and whether traced.
struct RoundPlan {
  int corpus = 0;
  uint64_t corpus_seed = 0;
  bool traced = false;
};

// --- One round's outcome ---------------------------------------------------

struct Round {
  int corpus = 0;
  bool traced = false;
  /// Timings are wall time less the share of CPU time the hypervisor gave
  /// to other guests during their phase (PhaseTime::unstolen_s): on a
  /// shared host, spells of steal slowed the doc_churn writer by up to
  /// 40%, which says nothing about the program.
  double setup_s = 0.0;
  double write_per_s = 0.0;
  double recover_s = 0.0;
  double si_f1 = 0.0;
  double sa_f1 = 0.0;
  double disk_bytes_per_snippet = 0.0;
  double query_per_s = 0.0;
  /// Writer's blocking path: the sum of its calls into the program.
  double writer_ms = 0.0;
  /// Write-op and query latencies (from send to return); a failed op
  /// counts as infinitely late.
  std::vector<double> write_ms;
  std::vector<double> query_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t items = 0;
  /// The write phase's stolen share, and write throughput and recovery on
  /// the wall clock.
  double write_stolen = 0.0;
  double write_per_s_wall = 0.0;
  double recover_wall_s = 0.0;
  /// Per-layer metrics; filled only on traced rounds.
  std::map<std::string, double> layers;
};

// --- Writer-path attribution ----------------------------------------------

enum class OpKind { kIngest, kAlign, kRefine, kRemove, kOther };

/// Wraps every call the writer makes into the durable engine. Untraced it
/// only sums the calls' wall time. Traced, each call becomes a span and
/// its time is split along the layers it crosses:
///   * search.upkeep  — the forwarded observer callbacks (UpkeepProbe);
///   * serve.publish  — the commit hook, which captures and publishes;
///   * persist.log    — from the engine's last observer callback (or the
///     end of its timed work) to the commit hook: encode, WAL append,
///     fsync and any auto-checkpoint;
///   * core.*         — EngineStats deltas (identify/align/refine);
///   * the rest of an AddDocument is the text pipeline, the rest of a
///     RemoveDocument (net of a typical log append) the removal itself.
class WriterPath {
 public:
  WriterPath(Tracer* tracer, persist::DurableEngine* durable,
             UpkeepProbe* probe)
      : tracer_(tracer), durable_(durable), probe_(probe) {}

  /// Commit-hook body for a bare DurableEngine: marks the end of logging.
  void MarkHook() { hook_ns_ = NowNs(); }

  /// Commit-hook body for a ServingEngine under the default publish
  /// policy (publish every acked op), timing the publish.
  void Publish(serve::ServingEngine* serving) {
    MarkHook();
    const int span = tracer_->Begin("serve.publish", request_);
    serving->PublishSnapshot();
    tracer_->End(span);
    publish_ns_ += NowNs() - hook_ns_;
  }

  template <typename Fn>
  auto Op(const char* name, OpKind kind, Fn&& fn) {
    if (!tracer_->enabled()) {
      const int64_t start = NowNs();
      auto result = fn();
      busy_ns_ += NowNs() - start;
      return result;
    }
    const uint64_t request = ++request_;
    if (probe_ != nullptr) probe_->set_request(request);
    const EngineStats before = durable_->engine().stats();
    const double upkeep_before = probe_ == nullptr ? 0.0 : probe_->upkeep_ms();
    const int64_t publish_before = publish_ns_;
    hook_ns_ = 0;
    const int span = tracer_->Begin(name, request);
    const int64_t start = NowNs();
    auto result = fn();
    const int64_t end = NowNs();
    busy_ns_ += end - start;

    const EngineStats& after = durable_->engine().stats();
    const double si = after.identify_time_ms - before.identify_time_ms;
    const double align = after.align_time_ms - before.align_time_ms;
    const double refine = after.refine_time_ms - before.refine_time_ms;
    const double upkeep =
        probe_ == nullptr ? 0.0 : probe_->upkeep_ms() - upkeep_before;
    const double publish = NsToMs(publish_ns_ - publish_before);
    si_work_ms_ += si;
    align_ms_ += align;
    refine_ms_ += refine;
    if (kind == OpKind::kAlign || kind == OpKind::kRefine) {
      pairs_scored_ += durable_->engine().alignment().num_pairs_scored;
    }

    int64_t engine_end =
        start + static_cast<int64_t>((si + align + refine) * 1e6);
    if (kind == OpKind::kIngest && probe_ != nullptr &&
        probe_->last_end_ns() > start) {
      engine_end = probe_->last_end_ns();
    }
    const int64_t log_end = hook_ns_ > start ? hook_ns_ : end;
    const bool checkpointed = durable_->ops_since_checkpoint() == 0;
    if (kind != OpKind::kRemove) {
      tracer_->Record("persist.log", engine_end, log_end, request);
      const double log = NsToMs(std::max<int64_t>(0, log_end - engine_end));
      (checkpointed ? checkpoint_log_ms_ : log_ms_).push_back(log);
      const double engine_ms = NsToMs(engine_end - start) - upkeep;
      if (kind == OpKind::kIngest && durable_->engine().stats()
                                             .documents_ingested >
                                         before.documents_ingested) {
        // AddDocument (serial): what precedes the observer callbacks
        // besides SI is annotation of title and paragraphs.
        si_wall_ms_ += si;
        annotate_ms_ += std::max(0.0, engine_ms - si);
        ++documents_;
      } else if (kind == OpKind::kIngest) {
        // AddSnippets: SI may run on several threads, so the counter
        // sums their work; the blocking cost is the engine's wall time
        // up to its last callback (SI plus store and DF upkeep).
        si_wall_ms_ += std::max(0.0, engine_ms);
      } else {
        si_wall_ms_ += si;
      }
    } else {
      remove_ms_.push_back(NsToMs(end - start) - upkeep - publish);
      if (checkpointed) ++remove_checkpoints_;
    }
    tracer_->End(span);
    return result;
  }

  [[nodiscard]] double busy_ms() const { return NsToMs(busy_ns_); }

  /// Adds this path's layer totals to `layers`. A checkpointing op's log
  /// interval is split into a typical append (the median of the plain
  /// ones) and the checkpoint; a removal's span, net of upkeep and
  /// publish, is split the same way into its append and the removal.
  void AddTo(std::map<std::string, double>* layers) const {
    const double typical_log = Median(log_ms_);
    double log = 0.0;
    for (double ms : log_ms_) log += ms;
    double checkpoint = 0.0;
    for (double ms : checkpoint_log_ms_) {
      log += std::min(ms, typical_log);
      checkpoint += std::max(0.0, ms - typical_log);
    }
    double remove = 0.0;
    for (double ms : remove_ms_) {
      log += std::min(ms, typical_log);
      remove += std::max(0.0, ms - typical_log);
    }
    (*layers)["core.si.ms"] += si_wall_ms_;
    (*layers)["core.si.work_ms"] += si_work_ms_;
    (*layers)["core.align.ms"] += align_ms_;
    (*layers)["core.align.pairs_scored"] +=
        static_cast<double>(pairs_scored_);
    (*layers)["core.refine.ms"] += refine_ms_;
    (*layers)["core.remove.ms"] += remove;
    (*layers)["text.annotate_ms"] += annotate_ms_;
    (*layers)["text.docs"] += static_cast<double>(documents_);
    (*layers)["persist.log_ms"] += log;
    (*layers)["persist.checkpoint_ms"] += checkpoint;
    (*layers)["persist.checkpoints"] += static_cast<double>(
        checkpoint_log_ms_.size() + remove_checkpoints_);
    (*layers)["search.upkeep_ms"] +=
        probe_ == nullptr ? 0.0 : probe_->upkeep_ms();
    (*layers)["serve.publish_ms"] += NsToMs(publish_ns_);
  }

 private:
  Tracer* tracer_;
  persist::DurableEngine* durable_;
  UpkeepProbe* probe_;
  uint64_t request_ = 0;
  int64_t hook_ns_ = 0;
  int64_t busy_ns_ = 0;
  int64_t publish_ns_ = 0;
  double si_wall_ms_ = 0.0;
  double si_work_ms_ = 0.0;
  double align_ms_ = 0.0;
  double refine_ms_ = 0.0;
  double annotate_ms_ = 0.0;
  uint64_t documents_ = 0;
  uint64_t pairs_scored_ = 0;
  std::vector<double> log_ms_;
  std::vector<double> checkpoint_log_ms_;
  std::vector<double> remove_ms_;
  uint64_t remove_checkpoints_ = 0;
};

// --- Shared round steps -----------------------------------------------------

std::vector<Snippet> WithoutIds(const std::vector<Snippet>& snippets,
                                size_t begin, size_t end) {
  std::vector<Snippet> out(snippets.begin() + begin, snippets.begin() + end);
  for (Snippet& snippet : out) snippet.id = kInvalidSnippetId;
  return out;
}

/// Each client's query indices into the query set, deterministic in
/// `seed`.
std::vector<std::vector<size_t>> ClientSequences(uint64_t seed,
                                                 size_t length) {
  const ZipfDistribution zipf(
      kQuerySetSize, BenchCorpusConfig(seed, 0).story_popularity_skew);
  std::vector<std::vector<size_t>> sequences(kReaderClients);
  for (size_t c = 0; c < kReaderClients; ++c) {
    Pcg32 rng(seed * 31 + c, /*stream=*/0x5a17);
    for (size_t i = 0; i < length; ++i) sequences[c].push_back(zipf.Sample(rng));
  }
  return sequences;
}

void AddQueryTally(const QueryTally& tally, const PhaseTime& phase,
                   Round* round) {
  round->query_ms = Unstolen(phase, tally.answered);
  round->query_ms.insert(round->query_ms.end(), tally.failed, kInf);
  round->attempted += tally.attempted;
  round->failed += tally.failed;
  round->query_per_s = static_cast<double>(tally.answered.wall_ms.size()) /
                       (tally.wall_s * (1.0 - phase.stolen));
}

void AddServerStats(const serve::Server::Stats& before,
                    const serve::Server::Stats& after, Round* round) {
  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  round->layers["serve.cache_hits"] = hits;
  round->layers["serve.cache_misses"] = misses;
  round->layers["serve.cache_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void AddCaptureStats(const serve::EpochManager::Stats& before,
                     const serve::EpochManager::Stats& after, Round* round) {
  round->layers["serve.capture_ms"] +=
      after.total_capture_ms - before.total_capture_ms;
  round->layers["serve.captures"] +=
      static_cast<double>(after.captures - before.captures);
  round->layers["serve.bytes_copied"] += static_cast<double>(
      after.total_bytes_copied - before.total_bytes_copied);
}

/// Layer totals of a traced recovery: the reopen's phases, with the
/// engine work replay re-ran (a fresh engine's stats) moved out of
/// persist.recover_ms into the core layers.
void AddRecoveryLayers(RecoveredService* service, Round* round) {
  const StoryPivotEngine& engine = service->durable().engine();
  const EngineStats& replay = engine.stats();
  std::map<std::string, double>& layers = round->layers;
  // A serial engine's SI counter is wall time. A parallel one sums its
  // threads' work; replay re-runs the logged batches on the same threads,
  // so its SI wall time is estimated at the live wall/work ratio (and
  // never beyond what the open left after align and refine).
  const double live_work = layers["core.si.work_ms"];
  const double wall_per_work =
      engine.config().num_threads > 1 && live_work > 0
          ? layers["core.si.ms"] / live_work
          : 1.0;
  const double open_left = std::max(
      0.0, service->open_ms - replay.align_time_ms - replay.refine_time_ms);
  const double replay_si_ms =
      std::min(replay.identify_time_ms * wall_per_work, open_left);
  layers["persist.recover_ms"] += open_left - replay_si_ms;
  layers["persist.replayed_records"] +=
      static_cast<double>(service->replayed_records);
  layers["core.si.ms"] += replay_si_ms;
  layers["core.si.work_ms"] += replay.identify_time_ms;
  layers["core.align.ms"] += replay.align_time_ms;
  layers["core.refine.ms"] += replay.refine_time_ms;
  layers["core.si.comparisons"] +=
      static_cast<double>(engine.similarity().num_comparisons());
  layers["core.si.snippets"] +=
      static_cast<double>(replay.snippets_ingested);
  layers["search.rebuild_ms"] += service->rebuild_ms;
  layers["serve.capture_ms"] += service->capture_ms;
  layers["serve.captures"] += 1.0;
  layers["serve.first_query_ms"] += service->first_query_ms;
  layers["persist.recover_wall_ms"] += service->recover_s * 1e3;
}

void AddRankTimes(const serve::ReadSnapshot& snapshot,
                  const std::vector<std::string>& queries, Round* round) {
  const std::vector<std::string> sample(
      queries.begin(),
      queries.begin() + static_cast<ptrdiff_t>(
                            std::min(queries.size(), kRankSample)));
  const std::vector<double> ranks = TimeUncachedRanks(snapshot, sample);
  round->layers["search.rank_p50_ms"] = Percentile(ranks, 0.50);
  round->layers["search.rank_p99_ms"] = Percentile(ranks, 0.99);
}

void AddWalStats(persist::DurableEngine& durable, const std::string& dir,
                 Round* round) {
  round->layers["persist.wal_records"] =
      static_cast<double>(durable.next_lsn());
  round->layers["persist.wal_retries"] =
      static_cast<double>(durable.wal_retry_stats().retries);
  round->layers["persist.wal_bytes"] = static_cast<double>(WalBytes(dir));
}

/// Closes a traced round's writer-path accounting: `writer_ms` is the
/// wall time of the writer's blocking calls; what the layer metrics do
/// not explain is reported as unattributed.
void CloseAttribution(double writer_ms, Round* round) {
  std::map<std::string, double>& layers = round->layers;
  static const char* const kSelfTimes[] = {
      "datagen.import_ms", "core.si.ms",          "core.align.ms",
      "core.refine.ms",    "core.remove.ms",      "text.annotate_ms",
      "persist.log_ms",    "persist.checkpoint_ms", "persist.recover_ms",
      "search.upkeep_ms",  "search.rebuild_ms",   "serve.publish_ms",
      "serve.first_query_ms"};
  double attributed = 0.0;
  for (const char* name : kSelfTimes) attributed += layers[name];
  // serve.publish_ms holds whole publishes so far; split off the capture
  // the EpochManager timed inside them (the recovery capture is its own
  // span and was never part of a publish).
  layers["serve.publish_ms"] = std::max(
      0.0, layers["serve.publish_ms"] - layers["serve.capture_live_ms"]);
  attributed += layers["serve.capture_ms"] - layers["serve.capture_live_ms"];
  layers.erase("serve.capture_live_ms");
  const double snippets = layers["core.si.snippets"];
  layers["core.si.us_per_snippet"] =
      snippets > 0 ? layers["core.si.ms"] * 1e3 / snippets : 0.0;
  layers.erase("core.si.snippets");
  layers["trace.writer_ms"] = writer_ms;
  layers["trace.unattributed_pct"] =
      writer_ms > 0 ? 100.0 * (writer_ms - attributed) / writer_ms : 0.0;
  round->writer_ms = writer_ms;
}

/// Installs the probe between the engine and its observer.
class ProbeSplice {
 public:
  ProbeSplice(StoryPivotEngine* engine, UpkeepProbe* probe)
      : engine_(engine), probe_(probe) {
    engine_->set_ingest_observer(probe_);
  }
  ~ProbeSplice() { engine_->set_ingest_observer(probe_->inner()); }

  ProbeSplice(const ProbeSplice&) = delete;
  ProbeSplice& operator=(const ProbeSplice&) = delete;

 private:
  StoryPivotEngine* engine_;
  UpkeepProbe* probe_;
};

std::string FirstQuery(const text::Vocabulary& entities,
                       const text::Vocabulary& keywords) {
  SP_CHECK(entities.size() > 0 && keywords.size() > 1);
  return entities.TermOf(0) + " " + keywords.TermOf(0) + " " +
         keywords.TermOf(1);
}

/// The state a round carries across its crash.
struct PreCrash {
  uint64_t fingerprint = 0;
  size_t live_snippets = 0;
  std::string first_query;
};

/// After the caller dropped its engine without a checkpoint: measures the
/// files left behind, reopens `dir` serving through `server`, and checks
/// the recovered engine against the pre-crash fingerprint.
std::unique_ptr<RecoveredService> Recover(
    const std::string& dir, const EngineConfig& config,
    const serve::ServerOptions& server, const PreCrash& before,
    Tracer* tracer, Round* round, RunResult* result) {
  round->disk_bytes_per_snippet =
      static_cast<double>(DirectoryBytes(dir)) /
      static_cast<double>(before.live_snippets);
  const PhaseTimer phase;
  Result<std::unique_ptr<RecoveredService>> opened =
      RecoveredService::Open(dir, config, server, before.first_query, tracer);
  const PhaseTime reopen = phase.Stop();
  ++round->attempted;
  if (!opened.ok()) {
    ++round->failed;
    result->Check(false, "recovery failed: " + opened.status().ToString());
    return nullptr;
  }
  std::unique_ptr<RecoveredService> service = std::move(opened.value());
  round->recover_wall_s = service->recover_s;
  round->recover_s = service->recover_s * (1.0 - reopen.stolen);
  result->Check(EngineStateFingerprint(service->durable().engine()) ==
                    before.fingerprint,
                "recovered engine fingerprint differs from the pre-crash "
                "engine");
  if (tracer->enabled()) AddRecoveryLayers(service.get(), round);
  return service;
}

/// Closed-loop clients query the recovered corpus. The service answers
/// on the clients' own threads (InlineServer): the read path's cost, free
/// of thread hand-off noise.
void ProbeQueries(const Options& options, RecoveredService* service,
                  Tracer* tracer, Round* round) {
  const std::vector<std::string> queries = MakeQuerySet(
      service->durable().engine(), service->search().index(), kQuerySetSize);
  const serve::Server::Stats before = service->server().GetStats();
  const PhaseTimer phase;
  const QueryTally tally =
      RunQueryClients(&service->server(), queries,
                      ClientSequences(options.seed, kQueriesPerClient));
  AddQueryTally(tally, phase.Stop(), round);
  if (tracer->enabled()) {
    AddServerStats(before, service->server().GetStats(), round);
    AddRankTimes(*service->epochs().Pin(), queries, round);
  }
}

void CheckQualityKept(RecoveredService* service, const Round& round,
                      RunResult* result) {
  const eval::QualityScores recovered =
      eval::ScoreEngine(service->durable().engine());
  result->Check(recovered.si_pairwise.f1 == round.si_f1 &&
                    recovered.sa_pairwise.f1 == round.sa_f1,
                "F1 changed across recovery");
}

/// Ends a round: `writer_ms` is the wall time of the writer's blocking
/// calls, which a traced round splits into layers.
void FinishRound(double writer_ms, Tracer* tracer, Round* round) {
  if (tracer->enabled()) {
    CloseAttribution(writer_ms, round);
  } else {
    round->writer_ms = writer_ms;
  }
}

// --- bulk_detect --------------------------------------------------------------

Round BulkDetectRound(const Options& options, const RoundPlan& plan,
                      Tracer* tracer, RunResult* result,
                      std::map<int, uint64_t>* tsv_hashes) {
  Round round;
  const PhaseTimer setup;
  std::string tsv;
  {
    datagen::CorpusGenerator generator(
        BenchCorpusConfig(plan.corpus_seed, kBulkCorpusTarget));
    datagen::Corpus corpus = generator.Generate();
    if (corpus.snippets.size() < kBulkSnippets) {
      result->Check(false, "generated corpus has too few reports");
      return round;
    }
    corpus.snippets.resize(kBulkSnippets);
    tsv = datagen::ExportTsv(corpus);
  }
  round.setup_s = setup.Stop().unstolen_s();
  const uint64_t hash = Fnv1a64(tsv);
  const uint64_t first = tsv_hashes->emplace(plan.corpus, hash).first->second;
  // A traced run repeats each corpus; the repeat must be byte-identical.
  result->Check(hash == first, "corpus generation is not deterministic");

  const std::string dir = options.work_dir + "/bulk_detect";
  ResetDirectory(dir);
  EngineConfig config;
  config.num_threads = options.bulk_threads;

  // The timed detect path: import -> durable batched ingest -> align ->
  // refine, exactly as `storypivot_cli detect` runs it.
  const PhaseTimer detect;
  const int64_t detect_start = NowNs();
  int64_t import_end = 0;
  Result<datagen::ImportedCorpus> imported = [&] {
    ScopedSpan span(tracer, "datagen.ImportTsv", 0);
    Result<datagen::ImportedCorpus> parsed = datagen::ImportTsv(tsv);
    import_end = NowNs();
    return parsed;
  }();
  if (!imported.ok()) {
    result->Check(false, "ImportTsv: " + imported.status().ToString());
    return round;
  }
  const datagen::ImportedCorpus& corpus = imported.value();
  Result<std::unique_ptr<persist::DurableEngine>> opened =
      persist::DurableEngine::Open(dir, ProductionDurability(), config);
  if (!opened.ok()) {
    result->Check(false, "DurableEngine::Open: " + opened.status().ToString());
    return round;
  }
  persist::DurableEngine& durable = *opened.value();
  UpkeepProbe probe(tracer, nullptr);
  std::optional<ProbeSplice> splice;
  WriterPath path(tracer, &durable,
                  tracer->enabled() ? &probe : nullptr);
  if (tracer->enabled()) {
    splice.emplace(&durable.engine(), &probe);
    durable.set_commit_hook([&](persist::CommitEvent) { path.MarkHook(); });
  }

  auto count = [&round](bool ok) {
    ++round.attempted;
    if (!ok) ++round.failed;
  };
  count(path.Op("persist.ImportVocabularies", OpKind::kOther, [&] {
              return durable.ImportVocabularies(*corpus.entity_vocabulary,
                                                *corpus.keyword_vocabulary);
            }).ok());
  for (const SourceInfo& source : corpus.sources) {
    count(path.Op("persist.RegisterSource", OpKind::kOther, [&] {
                return durable.RegisterSource(source.name);
              }).ok());
  }
  OpLatencies batches;
  size_t failed_batches = 0;
  for (size_t begin = 0; begin < corpus.snippets.size(); begin += kBulkBatch) {
    const size_t end = std::min(corpus.snippets.size(), begin + kBulkBatch);
    std::vector<Snippet> batch = WithoutIds(corpus.snippets, begin, end);
    const OpTimer sent;
    const bool ok = path.Op("persist.AddSnippets", OpKind::kIngest, [&] {
                          return durable.AddSnippets(std::move(batch));
                        }).ok();
    if (ok) {
      sent.Stop(&batches);
    } else {
      ++failed_batches;
    }
    count(ok);
  }
  count(path.Op("persist.Align", OpKind::kAlign,
                [&] { return durable.Align(); })
            .ok());
  Result<RefinementStats> refined = path.Op(
      "persist.Refine", OpKind::kRefine, [&] { return durable.Refine(); });
  count(refined.ok());
  const PhaseTime detected = detect.Stop();
  round.items = corpus.snippets.size();
  round.write_per_s =
      static_cast<double>(round.items) / detected.unstolen_s();
  round.write_per_s_wall = static_cast<double>(round.items) / detected.wall_s;
  round.write_stolen = detected.stolen;
  round.write_ms = Unstolen(detected, batches);
  round.write_ms.insert(round.write_ms.end(), failed_batches, kInf);

  // Quality and state of the detected engine, before the crash.
  const StoryPivotEngine& engine = durable.engine();
  const eval::QualityScores quality = eval::ScoreEngine(engine);
  round.si_f1 = quality.si_pairwise.f1;
  round.sa_f1 = quality.sa_pairwise.f1;
  const PreCrash before{
      EngineStateFingerprint(engine), engine.store().size(),
      FirstQuery(*corpus.entity_vocabulary, *corpus.keyword_vocabulary)};
  const double import_ms = NsToMs(import_end - detect_start);
  if (tracer->enabled()) {
    path.AddTo(&round.layers);
    round.layers["datagen.import_ms"] = import_ms;
    round.layers["core.si.comparisons"] =
        static_cast<double>(engine.similarity().num_comparisons());
    round.layers["core.si.snippets"] =
        static_cast<double>(engine.stats().snippets_ingested);
    if (refined.ok()) {
      round.layers["core.refine.conflicts_examined"] =
          static_cast<double>(refined.value().conflicts_examined);
      round.layers["core.refine.snippets_moved"] =
          refined.value().snippets_moved;
      round.layers["core.refine.stories_split"] =
          refined.value().stories_split;
    }
    AddWalStats(durable, dir, &round);
  }

  // Crash: drop the engine without checkpointing, as a killed CLI would
  // leave it; reopening replays the whole log.
  splice.reset();
  opened.value().reset();
  std::unique_ptr<RecoveredService> service =
      Recover(dir, config, InlineServer(), before, tracer, &round, result);
  if (service != nullptr) {
    ProbeQueries(options, service.get(), tracer, &round);
    CheckQualityKept(service.get(), round, result);
  }
  FinishRound(import_ms + path.busy_ms() + round.recover_wall_s * 1e3, tracer,
              &round);
  service.reset();
  RemoveDirectory(dir);
  return round;
}

// --- doc_churn ----------------------------------------------------------------

/// Groups the rendered one-paragraph documents into articles: each
/// source's reports of one story, in arrival order, kArticleParagraphs at
/// a time. An article keeps its first report's URL, title and time, and
/// articles are ordered by their first report's arrival.
std::vector<Document> AssembleArticles(
    const std::vector<Document>& documents) {
  std::vector<size_t> order(documents.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Document& x = documents[a];
    const Document& y = documents[b];
    return x.source != y.source ? x.source < y.source
                                : x.truth_story < y.truth_story;
  });
  std::vector<std::pair<size_t, Document>> articles;  // (first arrival, …)
  for (size_t i = 0; i < order.size(); ++i) {
    const Document& report = documents[order[i]];
    const bool same_group =
        !articles.empty() &&
        articles.back().second.source == report.source &&
        articles.back().second.truth_story == report.truth_story &&
        articles.back().second.paragraphs.size() < kArticleParagraphs;
    if (!same_group) {
      articles.push_back({order[i], report});
      continue;
    }
    Document& article = articles.back().second;
    article.paragraphs.insert(article.paragraphs.end(),
                              report.paragraphs.begin(),
                              report.paragraphs.end());
  }
  std::sort(articles.begin(), articles.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Document> out;
  out.reserve(articles.size());
  for (auto& [arrival, article] : articles) out.push_back(std::move(article));
  return out;
}

Round DocChurnRound(const Options& options, const RoundPlan& plan,
                    Tracer* tracer, RunResult* result) {
  Round round;
  const std::string dir = options.work_dir + "/doc_churn";
  const EngineConfig config = NewsProseEngineConfig();
  const PhaseTimer setup;
  datagen::CorpusConfig corpus_config =
      BenchCorpusConfig(plan.corpus_seed, kChurnCorpusTarget);
  corpus_config.emit_raw_text = true;
  datagen::CorpusGenerator generator(corpus_config);
  const datagen::Corpus corpus = generator.Generate();
  std::vector<Document> documents = AssembleArticles(corpus.documents);
  if (documents.size() < kChurnArticles) {
    result->Check(false, "generated corpus has too few articles");
    return round;
  }
  documents.resize(kChurnArticles);
  ResetDirectory(dir);
  Result<std::unique_ptr<serve::ServingEngine>> opened =
      serve::ServingEngine::Open(dir, ProductionServer(),
                                 ProductionDurability(), config);
  if (!opened.ok()) {
    result->Check(false, "ServingEngine::Open: " + opened.status().ToString());
    return round;
  }
  serve::ServingEngine& serving = *opened.value();
  persist::DurableEngine& durable = serving.durable();
  for (text::TermId id = 0; id < corpus.entity_vocabulary->size(); ++id) {
    SP_CHECK_OK(
        durable.AddGazetteerEntity(corpus.entity_vocabulary->TermOf(id)));
  }
  for (const SourceInfo& source : corpus.sources) {
    SP_CHECK_OK(durable.RegisterSource(source.name));
  }
  round.setup_s = setup.Stop().unstolen_s();

  UpkeepProbe probe(tracer, durable.engine().ingest_observer());
  std::optional<ProbeSplice> splice;
  WriterPath path(tracer, &durable, tracer->enabled() ? &probe : nullptr);
  if (tracer->enabled()) {
    splice.emplace(&durable.engine(), &probe);
    durable.set_commit_hook(
        [&](persist::CommitEvent) { path.Publish(&serving); });
  }
  const serve::EpochManager::Stats epochs_before = serving.epochs().GetStats();

  // Closed loop: add every article; retract every tenth one a little
  // later, as corrections arrive.
  OpLatencies ops;
  size_t failed_ops = 0;
  auto write = [&](const char* name, OpKind kind, auto&& op) {
    const OpTimer sent;
    const bool ok = path.Op(name, kind, op).ok();
    if (ok) {
      sent.Stop(&ops);
    } else {
      ++failed_ops;
    }
    ++round.attempted;
    if (!ok) ++round.failed;
  };
  auto retract = [&](size_t j) {
    write("persist.RemoveDocument", OpKind::kRemove,
          [&] { return durable.RemoveDocument(documents[j].url); });
  };
  const PhaseTimer writes;
  for (size_t i = 0; i < documents.size(); ++i) {
    write("persist.AddDocument", OpKind::kIngest,
          [&] { return durable.AddDocument(documents[i]); });
    if (i >= kRetractLag && (i - kRetractLag) % kRetractEvery == 0) {
      retract(i - kRetractLag);
    }
  }
  for (size_t j = documents.size() > kRetractLag
                      ? documents.size() - kRetractLag
                      : 0;
       j < documents.size(); ++j) {
    if (j % kRetractEvery == 0) retract(j);
  }
  const PhaseTime written = writes.Stop();
  round.write_ms = Unstolen(written, ops);
  round.write_ms.insert(round.write_ms.end(), failed_ops, kInf);
  round.items = round.write_ms.size();
  round.write_per_s = static_cast<double>(round.items) / written.unstolen_s();
  round.write_per_s_wall = static_cast<double>(round.items) / written.wall_s;
  round.write_stolen = written.stolen;
  const bool aligned =
      path.Op("persist.Align", OpKind::kAlign, [&] { return durable.Align(); })
          .ok();
  ++round.attempted;
  if (!aligned) ++round.failed;

  // Gate: after the retractions, the index answers exactly like a scan.
  const search::SearchEngine& searcher = serving.search();
  const std::vector<std::string> queries =
      MakeQuerySet(durable.engine(), searcher.index(), kQuerySetSize);
  size_t equal = 0;
  const size_t sample = std::min(kGateSample, queries.size());
  for (size_t q = 0; q < sample; ++q) {
    const search::ParsedQuery parsed = searcher.Parse(queries[q]);
    if (searcher.Search(parsed) == searcher.SearchScan(parsed)) ++equal;
  }
  result->Check(equal == sample, "indexed search differs from the scan");

  const StoryPivotEngine& engine = durable.engine();
  const eval::QualityScores quality = eval::ScoreEngine(engine);
  round.si_f1 = quality.si_pairwise.f1;
  round.sa_f1 = quality.sa_pairwise.f1;
  const PreCrash before{EngineStateFingerprint(engine),
                        engine.store().size(), queries.front()};
  if (tracer->enabled()) {
    path.AddTo(&round.layers);
    round.layers["core.si.comparisons"] =
        static_cast<double>(engine.similarity().num_comparisons());
    round.layers["core.si.snippets"] =
        static_cast<double>(engine.stats().snippets_ingested);
    const serve::EpochManager::Stats epochs_after = serving.epochs().GetStats();
    AddCaptureStats(epochs_before, epochs_after, &round);
    round.layers["serve.capture_live_ms"] =
        epochs_after.total_capture_ms - epochs_before.total_capture_ms;
    AddWalStats(durable, dir, &round);
  }

  splice.reset();
  opened.value().reset();
  std::unique_ptr<RecoveredService> service =
      Recover(dir, config, InlineServer(), before, tracer, &round, result);
  if (service != nullptr) {
    ProbeQueries(options, service.get(), tracer, &round);
    CheckQualityKept(service.get(), round, result);
  }
  FinishRound(path.busy_ms() + round.recover_wall_s * 1e3, tracer, &round);
  service.reset();
  RemoveDirectory(dir);
  return round;
}

// --- Aggregation ----------------------------------------------------------------

/// Name and unit of every per-layer metric, in report order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"datagen.import_ms", "ms"},
    {"core.si.ms", "ms"},
    {"core.si.comparisons", "count"},
    {"core.si.us_per_snippet", "us"},
    {"core.si.work_ms", "ms"},
    {"core.align.ms", "ms"},
    {"core.align.pairs_scored", "count"},
    {"core.refine.ms", "ms"},
    {"core.refine.conflicts_examined", "count"},
    {"core.refine.snippets_moved", "count"},
    {"core.refine.stories_split", "count"},
    {"core.remove.ms", "ms"},
    {"text.annotate_ms", "ms"},
    {"text.docs", "count"},
    {"persist.log_ms", "ms"},
    {"persist.wal_records", "count"},
    {"persist.wal_bytes", "B"},
    {"persist.wal_retries", "count"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.checkpoints", "count"},
    {"persist.recover_ms", "ms"},
    {"persist.recover_wall_ms", "ms"},
    {"persist.replayed_records", "count"},
    {"search.upkeep_ms", "ms"},
    {"search.rank_p50_ms", "ms"},
    {"search.rank_p99_ms", "ms"},
    {"search.rebuild_ms", "ms"},
    {"serve.capture_ms", "ms"},
    {"serve.captures", "count"},
    {"serve.bytes_copied", "B"},
    {"serve.publish_ms", "ms"},
    {"serve.first_query_ms", "ms"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"trace.writer_ms", "ms"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

std::vector<double> Pool(const std::vector<Round>& rounds,
                         std::vector<double> Round::*field) {
  std::vector<double> values;
  for (const Round& round : rounds) {
    values.insert(values.end(), (round.*field).begin(), (round.*field).end());
  }
  return values;
}

/// The `p` percentile of a latency field. When every round holds at
/// least ten samples beyond it, the median over rounds of each round's
/// percentile (one round's fsync stalls then cannot set the figure);
/// otherwise the percentile of all rounds' samples pooled.
double Tail(const std::vector<Round>& rounds,
            std::vector<double> Round::*field, double p) {
  const size_t needed = static_cast<size_t>(std::ceil(10.0 / (1.0 - p)));
  std::vector<double> per_round;
  for (const Round& round : rounds) {
    if ((round.*field).size() < needed) {
      return Percentile(Pool(rounds, field), p);
    }
    per_round.push_back(Percentile(round.*field, p));
  }
  return Median(per_round);
}

double Finite(double value) { return std::isfinite(value) ? value : 1e12; }

void ReportEndToEnd(const std::vector<Round>& rounds, int min_rounds,
                    RunResult* result) {
  auto median = [&](double Round::*field) {
    std::vector<double> values;
    for (const Round& round : rounds) values.push_back(round.*field);
    return Median(values);
  };
  // Quality is a pure function of the corpus: average it over the first
  // rounds, whose corpora every run of this seed generates.
  auto quality = [&](double Round::*field) {
    double sum = 0.0;
    for (int r = 0; r < min_rounds; ++r) sum += rounds[r].*field;
    return sum / min_rounds;
  };
  const std::vector<double> writes = Pool(rounds, &Round::write_ms);
  const std::vector<double> queries = Pool(rounds, &Round::query_ms);
  result->Set("setup_s", median(&Round::setup_s), "s");
  result->Set("write_per_s", median(&Round::write_per_s), "1/s");
  result->Set("write_p50_ms", Finite(Tail(rounds, &Round::write_ms, 0.50)),
              "ms");
  result->Set("recover_s", median(&Round::recover_s), "s");
  result->Set("query_p50_ms", Finite(Tail(rounds, &Round::query_ms, 0.50)),
              "ms");
  result->Set("query_p90_ms", Finite(Tail(rounds, &Round::query_ms, 0.90)),
              "ms");
  result->Set("query_per_s", median(&Round::query_per_s), "1/s");
  result->Set("si_f1", quality(&Round::si_f1), "ratio");
  result->Set("sa_f1", quality(&Round::sa_f1), "ratio");
  result->Set("peak_rss_mb", PeakRssMb(), "MiB");
  result->Set("disk_bytes_per_snippet", median(&Round::disk_bytes_per_snippet),
              "B");
  // Sample counts behind the percentiles: all rounds, and the smallest
  // round (Tail uses per-round percentiles when it suffices).
  size_t fewest_writes = writes.size();
  size_t fewest_queries = queries.size();
  for (const Round& round : rounds) {
    fewest_writes = std::min(fewest_writes, round.write_ms.size());
    fewest_queries = std::min(fewest_queries, round.query_ms.size());
  }
  result->Meta("write_per_s_wall", median(&Round::write_per_s_wall));
  result->Meta("recover_s_wall", median(&Round::recover_wall_s));
  result->Meta("write_stolen_pct", 100.0 * median(&Round::write_stolen));
  result->Meta("samples.write", static_cast<double>(writes.size()));
  result->Meta("samples.write_per_round_min",
               static_cast<double>(fewest_writes));
  result->Meta("samples.query", static_cast<double>(queries.size()));
  result->Meta("samples.query_per_round_min",
               static_cast<double>(fewest_queries));
  // Write tails are reported, not gated: on a shared host, bursts of CPU
  // steal and the fsync stalls that come with them moved the write p90 of
  // runs of the same code by more than any allowed bound. Queries are
  // gated at p90 for the same reason; their p99 is reported here.
  result->Meta("write_p90_ms", Finite(Tail(rounds, &Round::write_ms, 0.90)));
  if (writes.size() >= 1000) {
    result->Meta("write_p99_ms", Finite(Tail(rounds, &Round::write_ms, 0.99)));
  }
  if (queries.size() >= 1000) {
    result->Meta("query_p99_ms", Finite(Tail(rounds, &Round::query_ms, 0.99)));
  }
}

void ReportLayers(const std::vector<Round>& rounds, RunResult* result) {
  std::vector<Round> traced;
  std::vector<double> overhead_pct;
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (!rounds[r].traced) continue;
    traced.push_back(rounds[r]);
    // Round r-1 ran the same corpus untraced.
    const double untraced = rounds[r - 1].writer_ms;
    overhead_pct.push_back(100.0 * (rounds[r].writer_ms - untraced) /
                           untraced);
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    const std::string key = name;
    std::vector<double> values;
    for (const Round& round : traced) {
      auto it = round.layers.find(key);
      values.push_back(it == round.layers.end() ? 0.0 : it->second);
    }
    result->Set(key, Median(values), unit);
  }
  result->Set("trace.overhead_pct", Median(overhead_pct), "%");
  result->Meta("samples.traced_rounds", static_cast<double>(traced.size()));
}

}  // namespace

RunResult RunWorkload(const Options& options) {
  RunResult result;
  std::function<Round(const RoundPlan&, Tracer*)> round_fn;
  std::map<int, uint64_t> tsv_hashes;
  int min_rounds = 0;
  if (options.workload == "bulk_detect") {
    round_fn = [&](const RoundPlan& plan, Tracer* tracer) {
      return BulkDetectRound(options, plan, tracer, &result, &tsv_hashes);
    };
    min_rounds = kBulkMinRounds;
    result.Meta("corpus.snippets", static_cast<double>(kBulkSnippets));
    result.Meta("batch_snippets", static_cast<double>(kBulkBatch));
    result.Meta("engine_threads", static_cast<double>(options.bulk_threads));
    result.Meta("loop", "closed: 1 writer, no readers");
  } else if (options.workload == "doc_churn") {
    round_fn = [&](const RoundPlan& plan, Tracer* tracer) {
      return DocChurnRound(options, plan, tracer, &result);
    };
    min_rounds = kChurnMinRounds;
    result.Meta("corpus.articles", static_cast<double>(kChurnArticles));
    result.Meta("article_paragraphs", static_cast<double>(kArticleParagraphs));
    result.Meta("engine_threads", 1);
    result.Meta("loop", "closed: 1 writer, no readers");
  } else {
    result.Check(false, "unknown workload " + options.workload);
    return result;
  }
  result.Meta("min_rounds", min_rounds);
  result.Meta("fsync_policy", "every_record");
  result.Meta("checkpoint_every_ops", static_cast<double>(kCheckpointEveryOps));
  result.Meta("server_workers", static_cast<double>(kServerWorkers));
  result.Meta("query_clients", static_cast<double>(kReaderClients));

  // A traced run measures each corpus twice in a row, untraced then
  // traced, so the tracing overhead compares like with like inside one
  // process.
  std::vector<Round> rounds;
  std::vector<double> round_s;
  // The first round warms caches, allocator and threads; it is checked
  // like any other but its figures are not reported.
  {
    RoundPlan plan;
    plan.corpus_seed = HashCombine(options.seed, 0);
    Tracer off(false);
    WallTimer warmup;
    const Round round = round_fn(plan, &off);
    result.attempted += round.attempted;
    result.failed += round.failed;
    result.Meta("warmup_s", warmup.ElapsedSeconds());
  }
  WallTimer wall;
  if (options.trace) min_rounds = 2;
  for (int index = 0; result.gate_failures.empty(); ++index) {
    RoundPlan plan;
    plan.corpus = options.trace ? index / 2 : index;
    plan.corpus_seed = HashCombine(options.seed, plan.corpus);
    plan.traced = options.trace && index % 2 == 1;
    Tracer tracer(plan.traced);
    WallTimer round_wall;
    rounds.push_back(round_fn(plan, &tracer));
    rounds.back().corpus = plan.corpus;
    rounds.back().traced = plan.traced;
    round_s.push_back(round_wall.ElapsedSeconds());
    if (plan.traced && !options.trace_dir.empty()) {
      const std::string path = options.trace_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               "-round" + std::to_string(index) + ".jsonl";
      result.Check(tracer.WriteJsonLines(path).ok(),
                   "cannot write spans to " + path);
    }
    if (!result.gate_failures.empty()) break;
    const bool pair_done = !options.trace || plan.traced;
    if (index + 1 >= min_rounds && pair_done &&
        wall.ElapsedSeconds() + Median(round_s) * (options.trace ? 2 : 1) >
            options.seconds) {
      break;
    }
  }
  for (const Round& round : rounds) {
    result.attempted += round.attempted;
    result.failed += round.failed;
  }
  if (!result.gate_failures.empty()) return result;
  result.Meta("rounds", static_cast<double>(rounds.size()));
  std::string detail = "[";
  for (const Round& round : rounds) {
    char line[448];
    std::snprintf(line, sizeof(line),
                  "%s{\"corpus\": %d, \"traced\": %d, \"setup_s\": %.4f, "
                  "\"write_per_s\": %.2f, \"recover_s\": %.4f, "
                  "\"writer_ms\": %.2f, \"write_p50_ms\": %.4f, "
                  "\"query_p50_ms\": %.4f, \"query_p99_ms\": %.4f, "
                  "\"query_per_s\": %.1f, \"write_stolen_pct\": %.2f, "
                  "\"si_f1\": %.4f, \"sa_f1\": %.4f}",
                  detail.size() > 1 ? ", " : "", round.corpus,
                  round.traced ? 1 : 0, round.setup_s, round.write_per_s,
                  round.recover_s, round.writer_ms,
                  Finite(Percentile(round.write_ms, 0.5)),
                  Finite(Percentile(round.query_ms, 0.5)),
                  Finite(Percentile(round.query_ms, 0.99)),
                  round.query_per_s, 100.0 * round.write_stolen, round.si_f1,
                  round.sa_f1);
    detail += line;
  }
  result.meta["round_detail"] = detail + "]";
  result.Meta("round_s", Median(round_s));
  result.Meta("items_per_round", static_cast<double>(rounds.front().items));
  if (options.trace) {
    ReportLayers(rounds, &result);
  } else {
    ReportEndToEnd(rounds, min_rounds, &result);
  }
  return result;
}

}  // namespace storypivot::perfbench
