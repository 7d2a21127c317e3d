#include "core/incremental.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/logging.h"

namespace storypivot {

IncrementalAligner::IncrementalAligner(const SimilarityModel* model,
                                       AlignmentConfig config)
    : model_(model),
      scorer_(model, config),
      config_(config),
      lsh_(LshIndex::ForSketches(config.sketch_hashes)) {}

void IncrementalAligner::Invalidate() {
  nodes_.clear();
  lsh_ = LshIndex::ForSketches(config_.sketch_hashes);
  role_cache_.clear();
  valid_ = false;
}

void IncrementalAligner::RemoveNode(uint64_t key) {
  auto it = nodes_.find(key);
  if (it == nodes_.end()) return;
  for (uint64_t neighbor : it->second.neighbors) {
    auto n = nodes_.find(neighbor);
    if (n != nodes_.end()) n->second.neighbors.erase(key);
  }
  lsh_.Remove(key);
  nodes_.erase(it);
}

void IncrementalAligner::RefreshNode(
    SourceId source, StoryId story, const Story& content,
    const std::unordered_map<SourceId, const StorySet*>& partition_of) {
  uint64_t key = KeyOf(source, story);
  RemoveNode(key);

  Node node;
  node.source = source;
  node.story = story;
  node.sketch = MinHashSignature::FromContent(
      content.entities(), content.keywords(), config_.sketch_hashes);

  // Candidate generation mirrors the batch aligner's policy: all nodes for
  // small graphs, LSH above the activation floor.
  std::vector<uint64_t> candidates;
  const bool lsh_mode =
      (config_.use_lsh && nodes_.size() > config_.lsh_min_stories) ||
      nodes_.size() > config_.all_pairs_limit;
  if (lsh_mode) {
    candidates = lsh_.Query(node.sketch);
  } else {
    candidates.reserve(nodes_.size());
    for (const auto& [other_key, other] : nodes_) {
      candidates.push_back(other_key);
    }
  }

  for (uint64_t other_key : candidates) {
    auto other_it = nodes_.find(other_key);
    if (other_it == nodes_.end()) continue;
    const Node& other = other_it->second;
    if (!config_.allow_same_source_merge && other.source == source) {
      continue;
    }
    const StorySet* partition = partition_of.at(other.source);
    const Story* other_story = partition->FindStory(other.story);
    if (other_story == nullptr) continue;
    ++pairs_scored_;
    if (scorer_.StoryPairScore(content, *other_story) >=
        config_.align_threshold) {
      node.neighbors.insert(other_key);
      other_it->second.neighbors.insert(key);
    }
  }
  lsh_.Insert(key, node.sketch);
  nodes_.emplace(key, std::move(node));
}

AlignmentResult IncrementalAligner::Update(
    const std::vector<const StorySet*>& partitions, const SnippetStore& store,
    const std::vector<std::pair<SourceId, StoryId>>& dirty,
    StoryId* next_story_id) {
  SP_CHECK(next_story_id != nullptr);

  std::unordered_map<SourceId, const StorySet*> partition_of;
  for (const StorySet* partition : partitions) {
    SP_CHECK(partition != nullptr);
    partition_of[partition->source()] = partition;
  }

  // IDF drift check: pair scores taken under sufficiently different corpus
  // statistics are stale; rebuild the whole graph when the document count
  // moved past the configured fraction.
  const text::DocumentFrequency* df = model_->document_frequency();
  if (valid_ && df != nullptr && documents_at_full_rebuild_ >= 0) {
    double base = static_cast<double>(
        std::max<int64_t>(1, documents_at_full_rebuild_));
    double drift =
        std::abs(static_cast<double>(df->num_documents()) -
                 static_cast<double>(documents_at_full_rebuild_)) /
        base;
    if (drift > config_.idf_drift_rebuild) Invalidate();
  }
  const bool full_rebuild = !valid_;

  // Current story universe.
  std::unordered_set<uint64_t> current;
  for (const StorySet* partition : partitions) {
    for (const auto& [id, story] : partition->stories()) {
      if (!story.empty()) current.insert(KeyOf(partition->source(), id));
    }
  }

  // Vanished stories (merged away, emptied, or their source was removed).
  std::vector<uint64_t> vanished;
  for (const auto& [key, node] : nodes_) {
    if (!current.contains(key)) vanished.push_back(key);
  }
  for (uint64_t key : vanished) RemoveNode(key);
  // Nodes whose source no longer exists (RemoveSource) — also purge any
  // node whose partition is gone even if a same-keyed story reappeared.
  std::vector<uint64_t> orphaned;
  for (const auto& [key, node] : nodes_) {
    if (!partition_of.contains(node.source)) orphaned.push_back(key);
  }
  for (uint64_t key : orphaned) RemoveNode(key);

  // Work set: explicit dirty stories, plus stories we have never seen.
  std::vector<std::pair<SourceId, StoryId>> work;
  if (!valid_) {
    for (const StorySet* partition : partitions) {
      for (const auto& [id, story] : partition->stories()) {
        if (!story.empty()) work.push_back({partition->source(), id});
      }
    }
  } else {
    std::unordered_set<uint64_t> queued;
    for (const auto& [source, story] : dirty) {
      if (queued.insert(KeyOf(source, story)).second) {
        work.push_back({source, story});
      }
    }
    for (uint64_t key : current) {
      if (!nodes_.contains(key) && queued.insert(key).second) {
        work.push_back({static_cast<SourceId>(key >> 48),
                        static_cast<StoryId>(key & 0xffffffffffffull)});
      }
    }
  }
  // Deterministic processing order.
  std::sort(work.begin(), work.end());

  // Keys refreshed this round: their clusters' role classification is
  // stale and must be recomputed.
  std::unordered_set<uint64_t> refreshed;
  for (const auto& [source, story_id] : work) {
    refreshed.insert(KeyOf(source, story_id));
  }

  for (const auto& [source, story_id] : work) {
    auto partition_it = partition_of.find(source);
    if (partition_it == partition_of.end()) continue;
    const Story* story = partition_it->second->FindStory(story_id);
    if (story == nullptr || story->empty()) {
      RemoveNode(KeyOf(source, story_id));
      continue;
    }
    RefreshNode(source, story_id, *story, partition_of);
  }
  valid_ = true;
  if (full_rebuild && df != nullptr) {
    documents_at_full_rebuild_ = df->num_documents();
  }

  // Emit integrated stories: connected components of the alignment graph.
  AlignmentResult result;
  result.num_pairs_scored = pairs_scored_;
  std::unordered_set<uint64_t> visited;
  // Deterministic component order: iterate keys sorted.
  std::vector<uint64_t> keys;
  keys.reserve(nodes_.size());
  for (const auto& [key, node] : nodes_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  for (uint64_t seed : keys) {
    if (visited.contains(seed)) continue;
    IntegratedStory integrated;
    integrated.id = (*next_story_id)++;
    integrated.merged.set_id(integrated.id);
    std::vector<uint64_t> stack = {seed};
    visited.insert(seed);
    std::vector<uint64_t> component;
    while (!stack.empty()) {
      uint64_t key = stack.back();
      stack.pop_back();
      component.push_back(key);
      for (uint64_t neighbor : nodes_.at(key).neighbors) {
        if (visited.insert(neighbor).second) stack.push_back(neighbor);
      }
    }
    std::sort(component.begin(), component.end());
    size_t index = result.stories.size();
    for (uint64_t key : component) {
      const Node& node = nodes_.at(key);
      const Story* story =
          partition_of.at(node.source)->FindStory(node.story);
      SP_CHECK(story != nullptr);
      integrated.members.push_back({node.source, node.story});
      integrated.merged.MergeFrom(*story);
      result.member_index[key] = index;
      for (SnippetId sid : story->snippets()) {
        result.integrated_of[sid] = index;
      }
    }
    std::sort(integrated.members.begin(), integrated.members.end());
    result.stories.push_back(std::move(integrated));
  }

  // Role classification, with per-cluster reuse: a cluster whose member
  // set is unchanged and contains no refreshed story keeps its previous
  // roles (membership can only change through refreshed/dirty stories, so
  // this is sound up to IDF drift — which triggers full rebuilds above).
  std::unordered_map<uint64_t, CachedRoles> new_cache;
  for (const IntegratedStory& integrated : result.stories) {
    uint64_t signature = 0x5353u;
    bool touched = false;
    for (const auto& [source, story_id] : integrated.members) {
      uint64_t key = KeyOf(source, story_id);
      signature = HashCombine(signature, key);
      touched |= refreshed.contains(key);
    }
    CachedRoles entry;
    auto cached = role_cache_.find(signature);
    if (!touched && cached != role_cache_.end()) {
      entry = cached->second;
      ++role_cache_hits_;
    } else {
      std::unordered_map<SnippetId, SnippetRole> roles;
      std::unordered_map<SnippetId, SnippetId> counterparts;
      ClassifyIntegratedStory(*model_, config_, store, integrated, &roles,
                              &counterparts);
      entry.roles.assign(roles.begin(), roles.end());
      entry.counterparts.assign(counterparts.begin(), counterparts.end());
    }
    for (const auto& [sid, role] : entry.roles) result.roles[sid] = role;
    for (const auto& [sid, other] : entry.counterparts) {
      result.counterpart[sid] = other;
    }
    new_cache.emplace(signature, std::move(entry));
  }
  role_cache_ = std::move(new_cache);
  return result;
}

}  // namespace storypivot
