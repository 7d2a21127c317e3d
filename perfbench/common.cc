#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "util/timer.h"

namespace storypivot::perfbench {

namespace fs = std::filesystem;

void RunResult::Meta(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  meta[key] = buffer;
}

void RunResult::Meta(const std::string& key, const std::string& value) {
  meta[key] = "\"" + value + "\"";
}

persist::DurabilityOptions ProductionDurability() {
  persist::DurabilityOptions options;
  options.checkpoint_every_ops = kCheckpointEveryOps;
  return options;
}

serve::ServerOptions ProductionServer() {
  serve::ServerOptions options;
  options.num_threads = kServerWorkers;
  return options;  // Default admission bound and 128-entry cache.
}

serve::ServerOptions InlineServer() {
  serve::ServerOptions options = ProductionServer();
  options.num_threads = 1;
  return options;
}

datagen::CorpusConfig BenchCorpusConfig(uint64_t seed, int snippets) {
  datagen::CorpusConfig config = datagen::GdeltScalePreset();
  config.seed = seed;
  config.num_sources = 10;
  config.num_entities = 500;
  config.num_communities = 25;
  config.num_stories = 160;
  config.target_num_snippets = snippets;
  return config;
}

void ResetDirectory(const std::string& dir) {
  RemoveDirectory(dir);
  std::error_code error;
  fs::create_directories(dir, error);
  SP_CHECK(!error);
}

void RemoveDirectory(const std::string& dir) {
  std::error_code error;
  fs::remove_all(dir, error);
  SP_CHECK(!error);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code error;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) total += entry.file_size(error);
  }
  return total;
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code error;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(dir, error)) {
    if (entry.path().filename().string().rfind("checkpoint-", 0) != 0 &&
        entry.is_regular_file(error)) {
      total += entry.file_size(error);
    }
  }
  return total;
}

uint64_t NewestCheckpointLsn(const std::string& dir) {
  uint64_t newest = 0;
  std::error_code error;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(dir, error)) {
    const std::string name = entry.path().filename().string();
    unsigned long long lsn = 0;
    if (std::sscanf(name.c_str(), "checkpoint-%20llu.sp", &lsn) == 1) {
      newest = std::max<uint64_t>(newest, lsn);
    }
  }
  return newest;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return times;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  if (std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                  &nice, &system, &idle, &iowait, &irq, &softirq,
                  &steal) == 8) {
    times.busy = user + nice + system + irq + softirq;
    times.steal = steal;
  }
  std::fclose(stat);
  return times;
}

PhaseTime PhaseTimer::Stop() const {
  const int64_t end_ns = NowNs();
  const CpuTimes cpu = ReadCpuTimes();
  const double busy = static_cast<double>(cpu.busy - cpu_.busy);
  const double steal = static_cast<double>(cpu.steal - cpu_.steal);
  PhaseTime time;
  time.wall_s = NsToMs(end_ns - start_ns_) / 1e3;
  time.stolen = busy + steal > 0 ? steal / (busy + steal) : 0.0;
  return time;
}

int64_t ThreadCpuNs() {
  struct timespec now {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

void OpLatencies::Append(const OpLatencies& other) {
  wall_ms.insert(wall_ms.end(), other.wall_ms.begin(), other.wall_ms.end());
  off_cpu_ms.insert(off_cpu_ms.end(), other.off_cpu_ms.begin(),
                    other.off_cpu_ms.end());
}

void OpTimer::Stop(OpLatencies* into) const {
  const double wall = NsToMs(NowNs() - wall_ns_);
  const double cpu = NsToMs(ThreadCpuNs() - cpu_ns_);
  into->wall_ms.push_back(wall);
  into->off_cpu_ms.push_back(std::max(0.0, wall - cpu));
}

std::vector<double> Unstolen(const PhaseTime& phase, const OpLatencies& ops) {
  double wall = 0.0;
  double off_cpu = 0.0;
  for (size_t i = 0; i < ops.wall_ms.size(); ++i) {
    wall += ops.wall_ms[i];
    off_cpu += ops.off_cpu_ms[i];
  }
  const double stolen = phase.stolen * wall;
  std::vector<double> out(ops.wall_ms.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const double share = off_cpu > 0 ? ops.off_cpu_ms[i] / off_cpu : 0.0;
    out[i] = std::max(ops.wall_ms[i] - ops.off_cpu_ms[i],
                      ops.wall_ms[i] - stolen * share);
  }
  return out;
}

std::vector<std::string> MakeQuerySet(const StoryPivotEngine& engine,
                                      const search::PostingsIndex& index,
                                      size_t count) {
  auto by_frequency = [&](search::Field field,
                          const text::Vocabulary& vocabulary) {
    std::vector<std::pair<size_t, text::TermId>> terms;
    for (text::TermId id = 0; id < vocabulary.size(); ++id) {
      const size_t df = index.DocumentFrequency(field, id);
      if (df > 0) terms.push_back({df, id});
    }
    std::sort(terms.begin(), terms.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    return terms;
  };
  const auto entities =
      by_frequency(search::Field::kEntity, engine.entity_vocabulary());
  const auto keywords =
      by_frequency(search::Field::kKeyword, engine.keyword_vocabulary());
  SP_CHECK(!entities.empty() && keywords.size() >= 2);
  std::vector<std::string> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    std::string query = engine.entity_vocabulary().TermOf(
        entities[(q * 7) % entities.size()].second);
    for (size_t j = 0; j < 2; ++j) {
      query += ' ';
      query += engine.keyword_vocabulary().TermOf(
          keywords[(q * 5 + j * 3 + q / keywords.size()) % keywords.size()]
              .second);
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

void UpkeepProbe::OnSnippetAdded(const Snippet& snippet) {
  const int64_t start = NowNs();
  last_end_ns_ = start;
  if (inner_ == nullptr) return;  // Nothing to maintain: just the marker.
  inner_->OnSnippetAdded(snippet);
  last_end_ns_ = NowNs();
  upkeep_ns_ += last_end_ns_ - start;
  tracer_->Record("search.upkeep", start, last_end_ns_, request_);
}

void UpkeepProbe::OnSnippetRemoved(const Snippet& snippet) {
  const int64_t start = NowNs();
  last_end_ns_ = start;
  if (inner_ == nullptr) return;  // Nothing to maintain: just the marker.
  inner_->OnSnippetRemoved(snippet);
  last_end_ns_ = NowNs();
  upkeep_ns_ += last_end_ns_ - start;
  tracer_->Record("search.upkeep", start, last_end_ns_, request_);
}

void UpkeepProbe::OnEngineReplaced(StoryPivotEngine* engine) {
  if (inner_ != nullptr) inner_->OnEngineReplaced(engine);
}

Result<std::unique_ptr<RecoveredService>> RecoveredService::Open(
    const std::string& dir, const EngineConfig& config,
    const serve::ServerOptions& server, const std::string& first_query,
    Tracer* tracer) {
  std::unique_ptr<RecoveredService> service(new RecoveredService());
  const uint64_t covered = NewestCheckpointLsn(dir);
  serve::QueryRequest request;
  request.query = first_query;
  WallTimer wall;
  if (!tracer->enabled()) {
    ASSIGN_OR_RETURN(service->serving_,
                     serve::ServingEngine::Open(dir, server,
                                                ProductionDurability(),
                                                config));
    Result<serve::QueryResponse> answer = service->server().Query(request);
    if (!answer.ok()) return answer.status();
    service->recover_s = wall.ElapsedSeconds();
  } else {
    ScopedSpan recover(tracer, "serve.recover", 0);
    WallTimer phase;
    {
      ScopedSpan span(tracer, "persist.Open", 0);
      ASSIGN_OR_RETURN(service->durable_,
                       persist::DurableEngine::Open(
                           dir, ProductionDurability(), config));
    }
    service->open_ms = phase.ElapsedMillis();
    phase.Restart();
    {
      ScopedSpan span(tracer, "search.rebuild", 0);
      service->search_ = std::make_unique<search::SearchEngine>(
          &service->durable_->engine());
    }
    service->rebuild_ms = phase.ElapsedMillis();
    phase.Restart();
    service->epochs_ = std::make_unique<serve::EpochManager>();
    {
      ScopedSpan span(tracer, "serve.capture", 0);
      serve::CaptureContext context;
      service->epochs_->Publish(serve::ReadSnapshot::Capture(
          service->durable_->engine(), service->search_->index(), &context));
    }
    service->capture_ms = phase.ElapsedMillis();
    service->server_ = std::make_unique<serve::Server>(
        service->epochs_.get(), server);
    phase.Restart();
    {
      ScopedSpan span(tracer, "serve.Query", 0);
      Result<serve::QueryResponse> answer = service->server_->Query(request);
      if (!answer.ok()) return answer.status();
    }
    service->first_query_ms = phase.ElapsedMillis();
    service->recover_s = wall.ElapsedSeconds();
  }
  service->replayed_records = service->durable().next_lsn() - covered;
  return service;
}

RecoveredService::~RecoveredService() = default;

persist::DurableEngine& RecoveredService::durable() {
  return serving_ != nullptr ? serving_->durable() : *durable_;
}

const search::SearchEngine& RecoveredService::search() const {
  return serving_ != nullptr ? serving_->search() : *search_;
}

serve::Server& RecoveredService::server() {
  return serving_ != nullptr ? serving_->server() : *server_;
}

serve::EpochManager& RecoveredService::epochs() {
  return serving_ != nullptr ? serving_->epochs() : *epochs_;
}

QueryTally RunQueryClients(serve::Server* server,
                           const std::vector<std::string>& set,
                           const std::vector<std::vector<size_t>>& sequences) {
  std::vector<QueryTally> tallies(sequences.size());
  WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(sequences.size());
  for (size_t c = 0; c < sequences.size(); ++c) {
    clients.emplace_back([&, c] {
      QueryTally& tally = tallies[c];
      tally.answered.wall_ms.reserve(sequences[c].size());
      tally.answered.off_cpu_ms.reserve(sequences[c].size());
      serve::QueryRequest request;
      const std::vector<size_t>& sequence = sequences[c];
      for (size_t index : sequence) {
        request.query = set[index];
        const OpTimer timer;
        Result<serve::QueryResponse> response = server->Query(request);
        ++tally.attempted;
        if (response.ok()) {
          timer.Stop(&tally.answered);
        } else {
          ++tally.failed;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  QueryTally total;
  total.wall_s = wall.ElapsedSeconds();
  for (QueryTally& tally : tallies) {
    total.attempted += tally.attempted;
    total.failed += tally.failed;
    total.answered.Append(tally.answered);
  }
  return total;
}

std::vector<double> TimeUncachedRanks(const serve::ReadSnapshot& snapshot,
                                      const std::vector<std::string>& queries) {
  std::vector<double> millis;
  millis.reserve(queries.size());
  for (const std::string& query : queries) {
    const search::ParsedQuery parsed = snapshot.Parse(query);
    WallTimer timer;
    std::vector<search::StoryHit> hits = snapshot.Search(parsed);
    millis.push_back(timer.ElapsedMillis());
    SP_CHECK(hits.size() <= search::SearchOptions{}.k);
  }
  return millis;
}

}  // namespace storypivot::perfbench
