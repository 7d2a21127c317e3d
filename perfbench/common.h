#ifndef STORYPIVOT_PERFBENCH_COMMON_H_
#define STORYPIVOT_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "persist/durable_engine.h"
#include "search/search_engine.h"
#include "serve/epoch_manager.h"
#include "serve/read_snapshot.h"
#include "serve/server.h"
#include "serve/serving_engine.h"
#include "trace.h"

namespace storypivot::perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WAL directories; emptied per round.
  std::string work_dir;
  /// Directory the traced rounds' spans are written to (empty = none).
  std::string trace_dir;
  /// Engine worker threads of bulk_detect (EngineConfig::num_threads).
  size_t bulk_threads = 4;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run).
struct RunResult {
  std::vector<std::string> gate_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Run metadata, each value already JSON-encoded.
  std::map<std::string, std::string> meta;

  void Check(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void Meta(const std::string& key, double value);
  void Meta(const std::string& key, const std::string& value);
};

/// Production settings shared by the workloads (storypivot_cli detect and
/// storypivot_serve use the same checkpoint cadence; the WAL keeps its
/// default fsync-every-record policy).
constexpr uint64_t kCheckpointEveryOps = 2000;
constexpr size_t kServerWorkers = 2;
constexpr size_t kReaderClients = 2;

persist::DurabilityOptions ProductionDurability();
serve::ServerOptions ProductionServer();
/// The production server executing queries on the caller's thread (one
/// worker): used to probe the read path itself, without thread hand-off.
serve::ServerOptions InlineServer();

/// The paper's Fig. 7 dataset card (GDELT preset: 500 entities) scaled to
/// `snippets` reports from 10 sources on 160 stories. Many mid-sized
/// stories keep the work per snippet close across seeds.
datagen::CorpusConfig BenchCorpusConfig(uint64_t seed, int snippets);

/// Creates `dir` empty (removing any previous content).
void ResetDirectory(const std::string& dir);
void RemoveDirectory(const std::string& dir);
/// Total size of the regular files directly under `dir`.
uint64_t DirectoryBytes(const std::string& dir);
/// The same without the checkpoints: the WAL segments.
uint64_t WalBytes(const std::string& dir);
/// Covered lsn of the newest `checkpoint-*.sp` in `dir` (0 if none).
uint64_t NewestCheckpointLsn(const std::string& dir);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Cumulative CPU time of the host's CPUs, from /proc/stat (zero where it
/// cannot be read).
struct CpuTimes {
  uint64_t busy = 0;   ///< user, nice, system, irq and softirq jiffies.
  uint64_t steal = 0;  ///< Jiffies the hypervisor ran other guests instead.
};
CpuTimes ReadCpuTimes();

/// One phase of a round, timed on the wall clock and against the CPU time
/// the hypervisor withheld meanwhile.
struct PhaseTime {
  double wall_s = 0.0;
  /// Share of the CPU time the machine wanted that went to other guests.
  double stolen = 0.0;
  /// The phase's wall time less its stolen share: what it takes on a host
  /// that gives the guest the CPU time it asks for.
  [[nodiscard]] double unstolen_s() const { return wall_s * (1.0 - stolen); }
};

/// Starts timing a phase at construction.
class PhaseTimer {
 public:
  PhaseTimer() : cpu_(ReadCpuTimes()), start_ns_(NowNs()) {}
  [[nodiscard]] PhaseTime Stop() const;

 private:
  CpuTimes cpu_;
  int64_t start_ns_;
};

/// CPU time of the calling thread. With paravirtual steal accounting (as
/// on KVM guests) it leaves out the time the hypervisor stole.
int64_t ThreadCpuNs();

/// Latencies of one phase's operations: each op's wall time, and the part
/// of it the calling thread spent off its CPU clock (blocked, or stolen).
struct OpLatencies {
  std::vector<double> wall_ms;
  std::vector<double> off_cpu_ms;

  void Append(const OpLatencies& other);
};

/// Times one operation on the wall clock and the thread's CPU clock.
class OpTimer {
 public:
  OpTimer() : wall_ns_(NowNs()), cpu_ns_(ThreadCpuNs()) {}
  void Stop(OpLatencies* into) const;

 private:
  int64_t wall_ns_;
  int64_t cpu_ns_;
};

/// The ops' latencies less the time stolen from them. Their share of the
/// phase's stolen time is taken from each op in proportion to its off-CPU
/// time, where the thread's CPU clock hides what was stolen, and never
/// below the op's CPU time: steal comes in slices that hit some ops and
/// miss others, so scaling every op alike would shorten the ops it missed.
std::vector<double> Unstolen(const PhaseTime& phase, const OpLatencies& ops);

/// Free-text queries (one entity and two keywords), built from the terms
/// present in `index`, ranked by document frequency and strided so the
/// set spans hot and selective terms.
std::vector<std::string> MakeQuerySet(const StoryPivotEngine& engine,
                                      const search::PostingsIndex& index,
                                      size_t count);

/// Closed-loop query clients: each issues its next query when the
/// previous one returns. A refused or failed query counts as failed.
struct QueryTally {
  OpLatencies answered;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
};

/// Observer spliced between the engine and its index maintainer (the
/// SearchEngine, or nothing): forwards every callback and times it as
/// index upkeep, remembering when the last callback returned — the
/// engine calls observers at the end of its ingest work, so that instant
/// closes the engine's share of an op.
class UpkeepProbe final : public IngestObserver {
 public:
  UpkeepProbe(Tracer* tracer, IngestObserver* inner)
      : tracer_(tracer), inner_(inner) {}

  void OnSnippetAdded(const Snippet& snippet) override;
  void OnSnippetRemoved(const Snippet& snippet) override;
  void OnEngineReplaced(StoryPivotEngine* engine) override;

  void set_request(uint64_t request) { request_ = request; }
  [[nodiscard]] IngestObserver* inner() const { return inner_; }
  [[nodiscard]] int64_t last_end_ns() const { return last_end_ns_; }
  [[nodiscard]] double upkeep_ms() const { return NsToMs(upkeep_ns_); }

 private:
  Tracer* tracer_;
  IngestObserver* inner_;
  uint64_t request_ = 0;
  int64_t last_end_ns_ = 0;
  int64_t upkeep_ns_ = 0;
};

/// A service reopened on a WAL directory after a crash. Untraced, it is
/// exactly `ServingEngine::Open`; traced, the same steps run one by one
/// (DurableEngine::Open, SearchEngine construction, ReadSnapshot::Capture,
/// publish, Server) so each gets its own span.
class RecoveredService {
 public:
  /// Opens `dir` serving through `server`, and answers `first_query`;
  /// `recover_s` is the wall time from the call to that first answer.
  [[nodiscard]] static Result<std::unique_ptr<RecoveredService>> Open(
      const std::string& dir, const EngineConfig& config,
      const serve::ServerOptions& server, const std::string& first_query,
      Tracer* tracer);

  RecoveredService(const RecoveredService&) = delete;
  RecoveredService& operator=(const RecoveredService&) = delete;
  ~RecoveredService();

  [[nodiscard]] persist::DurableEngine& durable();
  [[nodiscard]] const search::SearchEngine& search() const;
  [[nodiscard]] serve::Server& server();
  [[nodiscard]] serve::EpochManager& epochs();

  double recover_s = 0.0;
  /// Traced only: the phases of the reopen, in milliseconds.
  double open_ms = 0.0;
  double rebuild_ms = 0.0;
  double capture_ms = 0.0;
  double first_query_ms = 0.0;
  /// Ops replayed from the WAL (after the newest checkpoint).
  uint64_t replayed_records = 0;

 private:
  RecoveredService() = default;

  std::unique_ptr<serve::ServingEngine> serving_;
  // Traced composition; declared so the server dies first.
  std::unique_ptr<persist::DurableEngine> durable_;
  std::unique_ptr<search::SearchEngine> search_;
  std::unique_ptr<serve::EpochManager> epochs_;
  std::unique_ptr<serve::Server> server_;
};

/// Runs one closed-loop client per sequence against `server`, client c
/// issuing `set[sequences[c][i]]` in order, once through its sequence.
QueryTally RunQueryClients(serve::Server* server,
                           const std::vector<std::string>& set,
                           const std::vector<std::vector<size_t>>& sequences);

/// Uncached ranking cost on a pinned epoch: parses each query against the
/// snapshot, then times ReadSnapshot::Search alone.
std::vector<double> TimeUncachedRanks(const serve::ReadSnapshot& snapshot,
                                      const std::vector<std::string>& queries);

}  // namespace storypivot::perfbench

#endif  // STORYPIVOT_PERFBENCH_COMMON_H_
