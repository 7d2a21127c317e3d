#include "shard/sharded_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/aligner.h"
#include "core/refiner.h"
#include "core/similarity.h"
#include "core/snapshot.h"
#include "core/story_set.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "search/story_view.h"
#include "storage/snippet_store.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace storypivot::shard {

namespace {

using persist::Checkpointer;
using persist::DurableEngine;
using persist::WriteAheadLog;

/// Highest lsn durably recoverable from one shard directory: the newest
/// checkpoint's coverage or the end of the newest WAL segment's valid
/// records, whichever is higher. Phase A of recovery runs this on every
/// shard; the common prefix is C = min over shards (DESIGN.md §16).
Result<uint64_t> DurableBound(const std::string& dir, size_t keep) {
  uint64_t bound = 0;
  Checkpointer checkpointer(dir, keep);
  ASSIGN_OR_RETURN(const std::vector<uint64_t> checkpoints,
                   checkpointer.List());
  if (!checkpoints.empty()) bound = checkpoints.back();
  ASSIGN_OR_RETURN(const std::vector<uint64_t> segments,
                   WriteAheadLog::ListSegments(dir));
  if (!segments.empty()) {
    const uint64_t start = segments.back();
    ASSIGN_OR_RETURN(const persist::SegmentScan scan,
                     WriteAheadLog::ScanSegmentFile(dir, start));
    bound = std::max(bound, start + scan.records.size());
  }
  return bound;
}

/// The pool the coordinator's own alignment and refinement passes run on
/// (none for a serial engine config), as StoryPivotEngine builds its own.
std::unique_ptr<ThreadPool> CoordinatorPool(size_t num_threads) {
  if (num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads);
}

}  // namespace

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kQuarantined: return "quarantined";
    case ShardHealth::kHealing: return "healing";
    case ShardHealth::kRejoined: return "rejoined";
  }
  return "unknown";
}

// --- Open / recovery -------------------------------------------------------

ShardedEngine::ShardedEngine(std::string dir, ShardOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

ShardedEngine::~ShardedEngine() = default;

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const std::string& dir, ShardOptions options) {
  RETURN_IF_ERROR(CreateDirectories(dir));
  ShardManifest manifest;
  Result<ShardManifest> existing = LoadManifest(dir);
  if (existing.ok()) {
    manifest = std::move(existing).value();
    if (options.num_shards != 0 && options.num_shards != manifest.num_shards) {
      return Status::InvalidArgument(StrFormat(
          "shard count %zu does not match the manifest's %zu — the count "
          "is fixed when the directory is created (shard/manifest.h)",
          options.num_shards, manifest.num_shards));
    }
  } else if (existing.status().code() == StatusCode::kNotFound) {
    if (options.num_shards == 0) {
      return Status::InvalidArgument(
          "num_shards = 0 (use manifest) requires an existing manifest");
    }
    manifest.num_shards = options.num_shards;
    RETURN_IF_ERROR(WriteManifest(dir, manifest));
  } else {
    return existing.status();
  }

  // Coordinator-owned policies (see ShardOptions).
  options.num_shards = manifest.num_shards;
  options.durability.checkpoint_every_ops = 0;
  options.engine_config.incremental_alignment = false;

  std::unique_ptr<ShardedEngine> engine(
      new ShardedEngine(dir, std::move(options)));
  engine->num_shards_ = manifest.num_shards;
  // The factory IS the serial section: no other thread can reach the
  // object before Open returns it.
  engine->writer_.AssertInSection();
  RETURN_IF_ERROR(engine->RecoverAll());
  return engine;
}

Status ShardedEngine::RecoverAll() {
  // The healer goes first: its workers must not race the rebuild, and a
  // parked replacement engine holds a WAL directory claim that would
  // collide with phase B's re-open.
  if (healer_ != nullptr) {
    healer_->CancelAndDrain();
    healer_.reset();
  }
  // Observers must detach before their engines die; destroying the old
  // DurableEngines also releases their WAL directory claims so phase B
  // can re-open the directories.
  search_.clear();
  shards_.clear();
  alignment_.reset();
  stale_ = true;

  std::vector<std::string> shard_dirs;
  shard_dirs.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    shard_dirs.push_back(dir_ + "/" + ShardDirName(s));
    RETURN_IF_ERROR(CreateDirectories(shard_dirs.back()));
  }

  const size_t threads = options_.recovery_threads == 0
                             ? num_shards_
                             : options_.recovery_threads;
  ThreadPool pool(threads);

  // Phase A — durable bounds, one task per shard.
  std::vector<uint64_t> bounds(num_shards_, 0);
  std::vector<Status> errors(num_shards_);
  pool.ParallelFor(num_shards_, num_shards_,
                   [&](size_t /*chunk*/, size_t begin, size_t end) {
                     for (size_t s = begin; s < end; ++s) {
                       Result<uint64_t> bound = DurableBound(
                           shard_dirs[s],
                           options_.durability.keep_checkpoints);
                       if (bound.ok()) {
                         bounds[s] = bound.value();
                       } else {
                         errors[s] = bound.status();
                       }
                     }
                   });
  for (const Status& error : errors) RETURN_IF_ERROR(error);
  const uint64_t cutoff =
      *std::min_element(bounds.begin(), bounds.end());

  // Phase B — open every shard rewound to the common prefix, in
  // parallel. Shards past the cutoff physically truncate their tails
  // (DurabilityOptions::replay_lsn_limit).
  std::vector<std::unique_ptr<DurableEngine>> shards(num_shards_);
  pool.ParallelFor(num_shards_, num_shards_,
                   [&](size_t /*chunk*/, size_t begin, size_t end) {
                     for (size_t s = begin; s < end; ++s) {
                       Result<std::unique_ptr<DurableEngine>> opened =
                           DurableEngine::Open(shard_dirs[s],
                                               ShardDurability(cutoff),
                                               options_.engine_config);
                       if (opened.ok()) {
                         shards[s] = std::move(opened).value();
                       } else {
                         errors[s] = opened.status();
                       }
                     }
                   });
  for (const Status& error : errors) RETURN_IF_ERROR(error);

  // Lockstep verification: every shard must sit at exactly the cutoff
  // with identical global id counters — anything else means the logs
  // disagree about the op stream, which recovery cannot repair.
  const StoryPivotEngine::IdCounters reference =
      shards[0]->engine().id_counters();
  for (size_t s = 0; s < num_shards_; ++s) {
    if (shards[s]->next_lsn() != cutoff) {
      return Status::Internal(StrFormat(
          "shard %zu recovered to lsn %llu, expected the common prefix "
          "%llu",
          s, static_cast<unsigned long long>(shards[s]->next_lsn()),
          static_cast<unsigned long long>(cutoff)));
    }
    const StoryPivotEngine::IdCounters counters =
        shards[s]->engine().id_counters();
    if (counters.next_source != reference.next_source ||
        counters.next_snippet != reference.next_snippet ||
        counters.next_story != reference.next_story) {
      return Status::Internal(StrFormat(
          "shard %zu recovered with id counters out of lockstep at lsn "
          "%llu",
          s, static_cast<unsigned long long>(cutoff)));
    }
  }

  shards_ = std::move(shards);
  search_.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    search_.push_back(
        std::make_unique<search::SearchEngine>(&shards_[s]->engine()));
  }
  degraded_ = false;
  degraded_cause_ = Status::OK();
  closed_ = false;
  // Health machine: every recovered shard starts healthy; cumulative
  // counters and the last recorded failure survive as history.
  health_.resize(num_shards_);
  for (HealthSlot& slot : health_) slot.health = ShardHealth::kHealthy;
  ShardHealer::Options heal_options;
  heal_options.retry = options_.heal_retry;
  heal_options.retry_sleep = options_.heal_retry_sleep;
  healer_ = std::make_unique<ShardHealer>(std::move(heal_options));
  return Status::OK();
}

Status ShardedEngine::Reopen() {
  writer_.AssertInSection();  // Serial-section mutation.
  Status recovered = RecoverAll();
  if (!recovered.ok()) {
    // Keep the cause visible; shards_ is empty until a Reopen succeeds.
    degraded_ = true;
    degraded_cause_ = recovered;
  }
  return recovered;
}

// --- Write gating ----------------------------------------------------------

Status ShardedEngine::CheckWritable() const {
  if (shards_.empty() || closed_) {
    return Status::FailedPrecondition("sharded engine is closed");
  }
  if (degraded_) {
    return Status::Degraded("sharded engine is degraded: " +
                            degraded_cause_.message());
  }
  return Status::OK();
}

void ShardedEngine::Poison(const Status& cause) {
  // A mid-op failure left the shards at different op counts; only a full
  // recovery (Reopen) restores lockstep. The cached alignment may
  // reference the torn op's ids, so it goes too.
  degraded_ = true;
  degraded_cause_ = cause;
  alignment_.reset();
  stale_ = true;
}

// --- Health machine & self-healing (DESIGN.md §17) -------------------------

persist::DurabilityOptions ShardedEngine::ShardDurability(
    uint64_t replay_lsn_limit) const {
  persist::DurabilityOptions opts = options_.durability;
  opts.checkpoint_every_ops = 0;  // Only the coordinator checkpoints.
  opts.replay_lsn_limit = replay_lsn_limit;
  opts.quarantine_on_append_failure = options_.quarantine;
  return opts;
}

void ShardedEngine::ScheduleHeal(size_t s) {
  // The replacement replays this shard's own WAL exactly to the durable
  // prefix the quarantined engine recorded at entry; the journal drain
  // (TryRejoin) then carries it to the global lsn.
  healer_->Schedule(s, dir_ + "/" + ShardDirName(s),
                    ShardDurability(shards_[s]->quarantine_base_lsn()),
                    options_.engine_config);
}

void ShardedEngine::AbsorbShardFailures() {
  if (degraded_ || healer_ == nullptr || shards_.empty()) return;
  for (size_t s = 0; s < num_shards_; ++s) {
    DurableEngine& shard = *shards_[s];
    HealthSlot& slot = health_[s];
    if (!shard.quarantined()) {
      if (shard.degraded()) {
        // Quarantine could not absorb the failure (journal overflow):
        // the other shards ACKed ops this one can never make durable,
        // so fall back to the full-coordinator recovery path.
        slot.last_failure = shard.degraded_cause();
        Poison(Status::Degraded(StrFormat(
            "shard %zu degraded: %s", s,
            shard.degraded_cause().message().c_str())));
        return;
      }
      continue;
    }
    if (slot.health == ShardHealth::kHealthy ||
        slot.health == ShardHealth::kRejoined) {
      // Newly quarantined: enter the machine and start a rebuild.
      slot.health = ShardHealth::kQuarantined;
      slot.last_failure = shard.quarantine_cause();
      ++slot.quarantines;
      ScheduleHeal(s);
      continue;
    }
    // Already in the machine: collect healer progress.
    std::unique_ptr<DurableEngine> replacement = healer_->TakeReady(s);
    if (replacement != nullptr) {
      Status rejoined = TryRejoin(s, std::move(replacement));
      if (!rejoined.ok()) {
        Poison(rejoined);
        return;
      }
      continue;
    }
    ShardHealer::SlotStats heal = healer_->slot_stats(s);
    if (heal.in_progress) {
      slot.health = ShardHealth::kHealing;
    } else {
      // The previous attempt failed permanently (transients were
      // already retried with backoff inside the healer) — re-arm. Each
      // poll retries at most once, so a dead disk costs one recovery
      // attempt per mutation, not a hot loop.
      slot.health = ShardHealth::kQuarantined;
      ScheduleHeal(s);
    }
  }
}

Status ShardedEngine::TryRejoin(
    size_t s, std::unique_ptr<DurableEngine> replacement) {
  DurableEngine& old = *shards_[s];
  const uint64_t base = old.quarantine_base_lsn();
  if (replacement->next_lsn() != base) {
    return Status::Internal(StrFormat(
        "shard %zu rejoin: replacement recovered to lsn %llu, expected "
        "the quarantine base %llu",
        s, static_cast<unsigned long long>(replacement->next_lsn()),
        static_cast<unsigned long long>(base)));
  }
  // Catch-up: apply the journaled suffix in lsn order. Replay verifies
  // recorded ids op by op; a failure here (or a journal overflow on the
  // replacement) aborts the rejoin and the caller falls back to full
  // recovery. A plain append failure does NOT fail the drain — the
  // replacement self-quarantines and the memory state still converges.
  for (const std::string& payload : old.quarantine_journal()) {
    RETURN_IF_ERROR(replacement->ApplyJournaled(payload));
  }
  if (replacement->next_lsn() != old.next_lsn()) {
    return Status::Internal(StrFormat(
        "shard %zu rejoin: catch-up ended at lsn %llu, expected %llu",
        s, static_cast<unsigned long long>(replacement->next_lsn()),
        static_cast<unsigned long long>(old.next_lsn())));
  }
  const StoryPivotEngine::IdCounters want = old.engine().id_counters();
  const StoryPivotEngine::IdCounters got =
      replacement->engine().id_counters();
  if (want.next_source != got.next_source ||
      want.next_snippet != got.next_snippet ||
      want.next_story != got.next_story) {
    return Status::Internal(StrFormat(
        "shard %zu rejoin: id counters out of lockstep after catch-up",
        s));
  }
  if (EngineStateFingerprint(old.engine()) !=
      EngineStateFingerprint(replacement->engine())) {
    return Status::Internal(StrFormat(
        "shard %zu rejoin: replacement state diverges from the served "
        "in-memory state", s));
  }
  // Swap: the search index detaches from the dying engine first, then a
  // fresh one bulk-builds from the replacement — the same bit-identical
  // rebuild path recovery relies on. The cached alignment stays valid:
  // it holds ids only, and the state it was computed from is unchanged.
  search_[s].reset();
  shards_[s] = std::move(replacement);
  search_[s] = std::make_unique<search::SearchEngine>(&shards_[s]->engine());

  HealthSlot& slot = health_[s];
  if (shards_[s]->quarantined()) {
    // The drain itself hit a fresh append failure; re-enter quarantine
    // with the (much shorter) new journal.
    slot.health = ShardHealth::kQuarantined;
    slot.last_failure = shards_[s]->quarantine_cause();
    ++slot.quarantines;
    ScheduleHeal(s);
  } else {
    slot.health = ShardHealth::kRejoined;
    ++slot.rejoins;
  }
  return Status::OK();
}

Status ShardedEngine::PollHealth() {
  writer_.AssertInSection();  // Serial-section mutation.
  if (shards_.empty() || closed_) {
    return Status::FailedPrecondition("sharded engine is closed");
  }
  if (!degraded_) AbsorbShardFailures();
  return CheckWritable();
}

void ShardedEngine::WaitForHealerIdle() {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  if (healer_ != nullptr) healer_->WaitIdle();
}

// --- Mutations -------------------------------------------------------------

Result<SourceId> ShardedEngine::RegisterSource(const std::string& name) {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  SourceId id = kInvalidSourceId;
  for (size_t s = 0; s < num_shards_; ++s) {
    Result<SourceId> result = shards_[s]->RegisterSource(name);
    if (!result.ok()) {
      // Before the first shard logged anything the op is a clean no-op;
      // afterwards the shards disagree and the coordinator poisons.
      if (s == 0 && !shards_[0]->degraded()) return result.status();
      Poison(result.status());
      return result.status();
    }
    if (s == 0) {
      id = result.value();
    } else if (result.value() != id) {
      const Status cause = Status::Internal(StrFormat(
          "shard %zu assigned source id %u where shard 0 assigned %u",
          s, result.value(), id));
      Poison(cause);
      return cause;
    }
  }
  stale_ = true;
  AbsorbShardFailures();
  return id;
}

Status ShardedEngine::ImportVocabularies(const text::Vocabulary& entities,
                                         const text::Vocabulary& keywords) {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  for (size_t s = 0; s < num_shards_; ++s) {
    Status imported = shards_[s]->ImportVocabularies(entities, keywords);
    if (!imported.ok()) {
      // A validation rejection fails identically on every shard, so the
      // shard-0 short circuit catches it before anything is logged.
      if (s == 0 && !shards_[0]->degraded()) return imported;
      Poison(imported);
      return imported;
    }
  }
  AbsorbShardFailures();
  return Status::OK();
}

Result<SnippetId> ShardedEngine::AddSnippet(Snippet snippet) {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  if (snippet.source == kInvalidSourceId ||
      shards_[0]->engine().partition(snippet.source) == nullptr) {
    return Status::InvalidArgument(
        StrFormat("unregistered source %u", snippet.source));
  }
  const size_t owner = ShardOf(snippet.source);
  // The DF support the stubs must replicate (keywords only — exactly
  // what the owner's ingest adds).
  const text::TermVector keywords = snippet.keywords;

  Result<SnippetId> added = shards_[owner]->AddSnippet(std::move(snippet));
  if (!added.ok()) {
    if (!shards_[owner]->degraded()) return added.status();
    Poison(added.status());
    return added.status();
  }

  DurableEngine::ShardSyncRecord record;
  record.df_added.push_back(keywords);
  record.post = shards_[owner]->engine().id_counters();
  for (size_t s = 0; s < num_shards_; ++s) {
    if (s == owner) continue;
    Status synced = shards_[s]->LogShardSync(record);
    if (!synced.ok()) {
      Poison(synced);
      return synced;
    }
  }
  stale_ = true;
  AbsorbShardFailures();
  return added.value();
}

Result<std::vector<SnippetId>> ShardedEngine::AddSnippets(
    std::vector<Snippet> snippets) {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  std::vector<SnippetId> ids;
  if (snippets.empty()) return ids;
  ids.reserve(snippets.size());

  for (const Snippet& snippet : snippets) {
    if (snippet.source == kInvalidSourceId ||
        shards_[0]->engine().partition(snippet.source) == nullptr) {
      return Status::InvalidArgument(
          StrFormat("unregistered source %u", snippet.source));
    }
  }

  // Simulate the unsharded engine's id assignment over the whole batch
  // (SnippetStore::Insert semantics, arrival order), so the planned
  // per-shard ingests produce exactly the ids an unsharded AddSnippets
  // would have.
  StoryPivotEngine::IdCounters post = shards_[0]->engine().id_counters();
  SnippetId sim_next = post.next_snippet;
  std::unordered_set<SnippetId> batch_ids;
  batch_ids.reserve(snippets.size());
  for (Snippet& snippet : snippets) {
    if (snippet.id == kInvalidSnippetId) {
      snippet.id = sim_next++;
    } else {
      if (FindSnippet(snippet.id) != nullptr) {
        return Status::AlreadyExists(StrFormat(
            "snippet %llu",
            static_cast<unsigned long long>(snippet.id)));
      }
      sim_next = std::max(sim_next, snippet.id + 1);
    }
    if (!batch_ids.insert(snippet.id).second) {
      return Status::AlreadyExists(StrFormat(
          "snippet %llu duplicated within the batch",
          static_cast<unsigned long long>(snippet.id)));
    }
    ids.push_back(snippet.id);
  }

  // Story-id blocks: one per distinct source, laid out ascending by
  // source — the unsharded engine's phase-2 block layout verbatim.
  std::map<SourceId, size_t> counts;
  for (const Snippet& snippet : snippets) ++counts[snippet.source];
  const StoryId block_base = post.next_story;
  std::map<SourceId, StoryId> block_begin;
  StoryId offset = 0;
  for (const auto& [source, count] : counts) {
    block_begin[source] = block_base + offset;
    offset += count;
  }
  post.next_source = shards_[0]->engine().id_counters().next_source;
  post.next_snippet = sim_next;
  post.next_story = block_base + offset;

  for (size_t s = 0; s < num_shards_; ++s) {
    StoryPivotEngine::PlannedIngest plan;
    plan.post = post;
    for (const Snippet& snippet : snippets) {
      if (ShardOf(snippet.source) == s) {
        plan.snippets.push_back(snippet);
      } else {
        plan.foreign_keywords.push_back(snippet.keywords);
      }
    }
    for (const auto& [source, begin] : block_begin) {
      if (ShardOf(source) == s) plan.story_blocks.emplace_back(source, begin);
    }
    Status ingested = shards_[s]->LogShardIngest(plan);
    if (!ingested.ok()) {
      if (s == 0 && !shards_[0]->degraded()) return ingested;
      Poison(ingested);
      return ingested;
    }
  }
  stale_ = true;
  AbsorbShardFailures();
  return ids;
}

Status ShardedEngine::RemoveSnippet(SnippetId id) {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  size_t owner = num_shards_;
  const Snippet* found = nullptr;
  for (size_t s = 0; s < num_shards_; ++s) {
    found = shards_[s]->engine().store().Find(id);
    if (found != nullptr) {
      owner = s;
      break;
    }
  }
  if (found == nullptr) {
    return Status::NotFound(
        StrFormat("snippet %llu", static_cast<unsigned long long>(id)));
  }
  const text::TermVector keywords = found->keywords;

  Status removed = shards_[owner]->RemoveSnippet(id);
  if (!removed.ok()) {
    if (!shards_[owner]->degraded()) return removed;
    Poison(removed);
    return removed;
  }

  DurableEngine::ShardSyncRecord record;
  record.df_removed.push_back(keywords);
  // Post counters AFTER the owner op: a split check may have advanced
  // the story cursor, and every shard must adopt that advance.
  record.post = shards_[owner]->engine().id_counters();
  for (size_t s = 0; s < num_shards_; ++s) {
    if (s == owner) continue;
    Status synced = shards_[s]->LogShardSync(record);
    if (!synced.ok()) {
      Poison(synced);
      return synced;
    }
  }
  stale_ = true;
  AbsorbShardFailures();
  return Status::OK();
}

Status ShardedEngine::RemoveSource(SourceId source) {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  if (shards_[0]->engine().partition(source) == nullptr) {
    return Status::NotFound(StrFormat("source %u", source));
  }
  const size_t owner = ShardOf(source);

  // DF supports of every snippet the owner is about to drop, collected
  // before the removal. Sorted by id for a deterministic logged record
  // (the DF result itself is order-independent — counts commute).
  std::vector<std::pair<SnippetId, text::TermVector>> dropped;
  shards_[owner]->engine().store().ForEach([&](const Snippet& snippet) {
    if (snippet.source == source) {
      dropped.emplace_back(snippet.id, snippet.keywords);
    }
  });
  std::sort(dropped.begin(), dropped.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  DurableEngine::ShardSyncRecord record;
  record.remove_source = true;
  record.removed_source = source;
  record.df_removed.reserve(dropped.size());
  for (auto& [id, keywords] : dropped) {
    record.df_removed.push_back(std::move(keywords));
  }

  Status removed = shards_[owner]->RemoveSource(source);
  if (!removed.ok()) {
    if (!shards_[owner]->degraded()) return removed;
    Poison(removed);
    return removed;
  }
  record.post = shards_[owner]->engine().id_counters();
  for (size_t s = 0; s < num_shards_; ++s) {
    if (s == owner) continue;
    Status synced = shards_[s]->LogShardSync(record);
    if (!synced.ok()) {
      Poison(synced);
      return synced;
    }
  }
  stale_ = true;
  AbsorbShardFailures();
  return Status::OK();
}

// --- Alignment & refinement ------------------------------------------------

Status ShardedEngine::Align() {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  return AlignLocked();
}

Status ShardedEngine::AlignLocked() {
  // Alignment inputs are the exact state an unsharded engine would see:
  // every source's (owner) partition ascending by source, one merged
  // snippet store, the lockstep-global document frequencies — so the
  // result is bit-identical for every shard count.
  SnippetStore merged;
  BuildMergedStore(&merged);
  const std::vector<const StorySet*> partitions = OwnerPartitions();
  SimilarityModel model(options_.engine_config.similarity,
                        &shards_[0]->engine().document_frequency());
  StoryAligner aligner(&model, options_.engine_config.alignment);

  StoryPivotEngine::IdCounters post = shards_[0]->engine().id_counters();
  StoryId cursor = post.next_story;
  const std::unique_ptr<ThreadPool> pool =
      CoordinatorPool(options_.engine_config.num_threads);
  AlignmentResult result =
      aligner.Align(partitions, merged, &cursor, pool.get());
  post.next_story = cursor;

  // The cursor advance must be logged on EVERY shard before the result
  // is published — an unlogged alignment would hand out different story
  // ids on replay (same rule as DurableEngine::Align).
  DurableEngine::ShardSyncRecord record;
  record.post = post;
  for (size_t s = 0; s < num_shards_; ++s) {
    Status synced = shards_[s]->LogShardSync(record);
    if (!synced.ok()) {
      if (s == 0 && !shards_[0]->degraded()) return synced;
      Poison(synced);
      return synced;
    }
  }
  alignment_ = std::move(result);
  stale_ = false;
  AbsorbShardFailures();
  return Status::OK();
}

Result<RefinementStats> ShardedEngine::Refine() {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  if (stale_ || !alignment_.has_value()) RETURN_IF_ERROR(AlignLocked());

  // Refine SCRATCH copies of the shard partitions (O(1) copy-on-write
  // freezes): the pass mutates them freely while every shard stays at
  // its pre-refinement state, then each shard replays exactly its slice
  // of the executed-primitive journal.
  std::vector<SourceId> order;
  for (const SourceInfo& info : shards_[0]->engine().sources()) {
    order.push_back(info.id);
  }
  std::sort(order.begin(), order.end());
  std::vector<StorySet> scratch;
  scratch.reserve(order.size());
  std::vector<StorySet*> scratch_ptrs;
  scratch_ptrs.reserve(order.size());
  for (SourceId source : order) {
    const StorySet* partition =
        shards_[ShardOf(source)]->engine().partition(source);
    SP_CHECK(partition != nullptr);
    scratch.push_back(partition->Freeze());
    scratch_ptrs.push_back(&scratch.back());
  }

  SnippetStore merged;
  BuildMergedStore(&merged);
  SimilarityModel model(options_.engine_config.similarity,
                        &shards_[0]->engine().document_frequency());
  StoryRefiner refiner(&model, options_.engine_config.refinement);

  StoryPivotEngine::IdCounters post = shards_[0]->engine().id_counters();
  StoryId cursor = post.next_story;
  const std::unique_ptr<ThreadPool> pool =
      CoordinatorPool(options_.engine_config.num_threads);
  RefinementJournal journal;
  const RefinementStats stats = refiner.Refine(
      scratch_ptrs, *alignment_, merged, &cursor, &journal, pool.get());
  post.next_story = cursor;

  // Every shard logs ONE kShardRefine — including shards whose slice is
  // empty (lsn density) — carrying its own sources' entries in original
  // execution order (a subsequence; entries touch only their own
  // partition, so per-shard replay is independent).
  for (size_t s = 0; s < num_shards_; ++s) {
    RefinementJournal slice;
    for (const RefinementJournal::Entry& entry : journal.entries) {
      const SourceId source = entry.kind == RefinementJournal::Entry::Kind::kMove
                                  ? entry.move.source
                                  : entry.split.source;
      if (ShardOf(source) == s) slice.entries.push_back(entry);
    }
    Status refined = shards_[s]->LogShardRefine(slice, post);
    if (!refined.ok()) {
      if (s == 0 && !shards_[0]->degraded()) return refined;
      Poison(refined);
      return refined;
    }
  }
  stale_ = true;
  RETURN_IF_ERROR(AlignLocked());
  return stats;
}

// --- Reads -----------------------------------------------------------------

search::ParsedQuery ShardedEngine::Parse(std::string_view query) const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(!shards_.empty());
  return search_[0]->Parse(query);
}

Result<std::vector<search::StoryHit>> ShardedEngine::Search(
    std::string_view query, const search::SearchOptions& options) const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(!shards_.empty());
  return Search(search_[0]->Parse(query), options);
}

Result<std::vector<search::StoryHit>> ShardedEngine::Search(
    const search::ParsedQuery& query,
    const search::SearchOptions& options) const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(!shards_.empty());
  RETURN_IF_ERROR(search::ValidateSearchOptions(options));

  // Corpus-wide statistics: plain sums — each shard indexes exactly its
  // own snippets, and a story lives wholly on one shard.
  search::GlobalSearchStats global;
  global.df.assign(query.terms.size(), 0);
  for (size_t s = 0; s < num_shards_; ++s) {
    const search::PostingsIndex& index = search_[s]->index();
    global.num_documents += index.num_documents();
    global.total_length += index.total_length();
    global.total_stories += shards_[s]->engine().TotalStories();
    for (size_t t = 0; t < query.terms.size(); ++t) {
      const search::QueryTerm& term = query.terms[t];
      global.df[t] += term.field == search::Field::kEventType
                          ? index.EventTypeFrequency(term.event_type)
                          : index.DocumentFrequency(term.field, term.term);
    }
  }

  std::vector<std::vector<search::StoryHit>> per_shard;
  per_shard.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    const search::StoryCorpus corpus =
        search::CorpusView(shards_[s]->engine());
    per_shard.push_back(search::RankStories(search_[s]->index(), corpus,
                                            query, options, &global));
  }
  return search::MergeTopK(std::move(per_shard), options.k);
}

bool ShardedEngine::has_alignment() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  return alignment_.has_value() && !stale_;
}

const AlignmentResult& ShardedEngine::alignment() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(alignment_.has_value());
  return *alignment_;
}

uint64_t ShardedEngine::Fingerprint() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  std::vector<const StoryPivotEngine*> engines;
  engines.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    engines.push_back(&shards_[s]->engine());
  }
  return EngineStateFingerprint(engines);
}

size_t ShardedEngine::TotalStories() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  size_t total = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    total += shards_[s]->engine().TotalStories();
  }
  return total;
}

StoryPivotEngine::IdCounters ShardedEngine::id_counters() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(!shards_.empty());
  return shards_[0]->engine().id_counters();
}

const DurableEngine& ShardedEngine::shard(size_t index) const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(index < shards_.size());
  return *shards_[index];
}

DurableEngine& ShardedEngine::shard(size_t index) {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(index < shards_.size());
  return *shards_[index];
}

const search::SearchEngine& ShardedEngine::searcher(size_t index) const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(index < search_.size());
  return *search_[index];
}

uint64_t ShardedEngine::next_lsn() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  return shards_.empty() ? 0 : shards_[0]->next_lsn();
}

bool ShardedEngine::degraded() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  return degraded_;
}

const Status& ShardedEngine::degraded_cause() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  return degraded_cause_;
}

ShardHealth ShardedEngine::shard_health(size_t index) const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  SP_CHECK(index < health_.size());
  return health_[index].health;
}

ShardedEngine::Stats ShardedEngine::GetStats() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  Stats stats;
  stats.degraded = degraded_;
  stats.degraded_cause = degraded_cause_;
  stats.shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardStats row;
    const HealthSlot& slot = health_[s];
    row.health = slot.health;
    row.last_failure = slot.last_failure;
    row.quarantines = slot.quarantines;
    row.rejoins = slot.rejoins;
    if (healer_ != nullptr) {
      const ShardHealer::SlotStats heal = healer_->slot_stats(s);
      row.heal_attempts = heal.attempts;
      row.heal_error = heal.last_error;
    }
    const DurableEngine& shard = *shards_[s];
    row.memory_lsn = shard.next_lsn();
    if (shard.quarantined()) {
      row.durable_lsn = shard.quarantine_base_lsn();
      row.journal_ops = shard.quarantine_journal().size();
      row.journal_bytes = shard.quarantine_journal_bytes();
    } else {
      row.durable_lsn = row.memory_lsn;
    }
    row.wal_retry = shard.wal_retry_stats();
    stats.shards.push_back(std::move(row));
  }
  return stats;
}

std::string ShardedEngine::Stats::ToString() const {
  std::string out = StrFormat(
      "sharded engine: %zu shard(s), %s\n", shards.size(),
      degraded ? ("DEGRADED: " + degraded_cause.message()).c_str()
               : "writable");
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardStats& row = shards[s];
    out += StrFormat(
        "  shard %03zu: %-11s durable_lsn=%llu memory_lsn=%llu "
        "journal=%llu ops/%llu B quarantines=%llu rejoins=%llu "
        "heal_attempts=%llu wal_retries=%llu\n",
        s, ShardHealthName(row.health),
        static_cast<unsigned long long>(row.durable_lsn),
        static_cast<unsigned long long>(row.memory_lsn),
        static_cast<unsigned long long>(row.journal_ops),
        static_cast<unsigned long long>(row.journal_bytes),
        static_cast<unsigned long long>(row.quarantines),
        static_cast<unsigned long long>(row.rejoins),
        static_cast<unsigned long long>(row.heal_attempts),
        static_cast<unsigned long long>(row.wal_retry.retries));
    if (!row.last_failure.ok()) {
      out += StrFormat("    last failure: %s\n",
                       row.last_failure.ToString().c_str());
    }
    if (!row.heal_error.ok()) {
      out += StrFormat("    last heal error: %s\n",
                       row.heal_error.ToString().c_str());
    }
  }
  return out;
}

// --- Durability control ----------------------------------------------------

Status ShardedEngine::Checkpoint() {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  // No checkpoints while ANY shard is quarantined: a healthy shard's
  // checkpoint taken now could cover lsns past the quarantined shard's
  // durable prefix — which is exactly the cutoff a fallback recovery
  // would rewind to, and recovery treats a checkpoint past the cutoff
  // as corruption.
  for (size_t s = 0; s < num_shards_; ++s) {
    if (shards_[s]->quarantined()) {
      return Status::FailedPrecondition(StrFormat(
          "cannot checkpoint: shard %zu is quarantined and its durable "
          "prefix lags the acked stream", s));
    }
  }
  // Barrier: EVERY shard's log must be durable before ANY checkpoint is
  // written, so no checkpoint can cover lsns past a future recovery
  // cutoff (C is the min over per-shard durable bounds, and after the
  // barrier every bound is >= next_lsn >= every coverage).
  for (size_t s = 0; s < num_shards_; ++s) {
    RETURN_IF_ERROR(shards_[s]->Sync());
  }
  // A failure here is benign: checkpoints are redundant state, and a
  // partial sweep leaves some shards with newer checkpoints — recovery
  // handles that (per-shard bounds already include the WAL tail).
  for (size_t s = 0; s < num_shards_; ++s) {
    RETURN_IF_ERROR(shards_[s]->Checkpoint());
  }
  return Status::OK();
}

Status ShardedEngine::Sync() {
  writer_.AssertInSection();  // Serial-section mutation.
  RETURN_IF_ERROR(CheckWritable());
  for (size_t s = 0; s < num_shards_; ++s) {
    // A quarantined shard's WAL is closed (its durable prefix was
    // synced at quarantine entry; the suffix is memory-only by
    // definition) — syncing the healthy shards still bounds their loss.
    if (shards_[s]->quarantined()) continue;
    RETURN_IF_ERROR(shards_[s]->Sync());
  }
  return Status::OK();
}

Status ShardedEngine::Close() {
  writer_.AssertInSection();  // Serial-section mutation.
  // Stop the healer first: parked replacements hold directory claims,
  // and workers must not outlive the close.
  if (healer_ != nullptr) healer_->CancelAndDrain();
  closed_ = true;
  Status first = Status::OK();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Status closed = shards_[s]->Close();
    if (!closed.ok() && first.ok()) first = closed;
  }
  return first;
}

// --- Internal helpers ------------------------------------------------------

void ShardedEngine::BuildMergedStore(SnippetStore* out) const {
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s]->engine().store().ForEach([&](const Snippet& snippet) {
      SP_CHECK_OK(out->Insert(snippet));  // Ids are globally unique.
    });
  }
  out->AdoptNextId(shards_[0]->engine().id_counters().next_snippet);
}

std::vector<const StorySet*> ShardedEngine::OwnerPartitions() const {
  std::vector<SourceId> order;
  for (const SourceInfo& info : shards_[0]->engine().sources()) {
    order.push_back(info.id);
  }
  std::sort(order.begin(), order.end());
  std::vector<const StorySet*> partitions;
  partitions.reserve(order.size());
  for (SourceId source : order) {
    const StorySet* partition =
        shards_[ShardOf(source)]->engine().partition(source);
    SP_CHECK(partition != nullptr);
    partitions.push_back(partition);
  }
  return partitions;
}

const Snippet* ShardedEngine::FindSnippet(SnippetId id) const {
  for (size_t s = 0; s < num_shards_; ++s) {
    const Snippet* found = shards_[s]->engine().store().Find(id);
    if (found != nullptr) return found;
  }
  return nullptr;
}

}  // namespace storypivot::shard
