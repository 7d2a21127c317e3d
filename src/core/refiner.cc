#include "core/refiner.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace storypivot {
namespace {

struct TimedSnippet {
  Timestamp ts = 0;
  const Snippet* snippet = nullptr;
  size_t partition_index = 0;
};

}  // namespace

RefinementStats StoryRefiner::Refine(const std::vector<StorySet*>& partitions,
                                     const AlignmentResult& alignment,
                                     const SnippetStore& store,
                                     StoryId* next_story_id,
                                     RefinementJournal* journal,
                                     ThreadPool* pool) const {
  SP_CHECK(next_story_id != nullptr);
  RefinementStats stats;

  // Global time-ordered view of all snippets across sources.
  std::vector<TimedSnippet> all;
  for (size_t p = 0; p < partitions.size(); ++p) {
    SP_CHECK(partitions[p] != nullptr);
    partitions[p]->snippet_times().ForEach([&](Timestamp ts, SnippetId sid) {
      const Snippet* s = store.Find(sid);
      SP_CHECK(s != nullptr);
      all.push_back({ts, s, p});
    });
  }
  std::sort(all.begin(), all.end(),
            [](const TimedSnippet& a, const TimedSnippet& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              return a.snippet->id < b.snippet->id;
            });

  // Best cross-source counterpart per snippet, searched globally (not just
  // within one integrated story — that is exactly how mis-assignments are
  // discovered).
  std::vector<const Snippet*> snippets;
  snippets.reserve(all.size());
  for (const TimedSnippet& item : all) snippets.push_back(item.snippet);
  const std::vector<size_t> counterpart = FindCounterparts(
      *model_, snippets, config_.pair_tolerance, config_.pair_threshold, pool);

  // Leave-one-out affinity of a snippet to a story.
  auto affinity = [&](const Snippet& v, const Story& story,
                      bool member) -> double {
    double denom = static_cast<double>(story.size()) - (member ? 1.0 : 0.0);
    if (denom <= 0.0) return 0.0;
    const text::TermVector* ents = &story.entities();
    const text::TermVector* kws = &story.keywords();
    text::TermVector ents_without_v, kws_without_v;
    if (member) {
      ents_without_v = *ents;
      ents_without_v.Subtract(v.entities);
      ents = &ents_without_v;
      kws_without_v = *kws;
      kws_without_v.Subtract(v.keywords);
      kws = &kws_without_v;
    }
    const SimilarityConfig& sim = model_->config();
    return sim.entity_weight *
               v.entities.ScaledWeightedJaccard(1.0, *ents, 1.0 / denom) +
           sim.keyword_weight * model_->IdfCosine(v.keywords, *kws);
  };

  // Decide all relocations against the *original* assignment, then apply.
  struct Move {
    SnippetId snippet;
    size_t partition_index;
    StoryId from;
    StoryId to;  // kInvalidStoryId => create a new story.
  };
  std::vector<Move> moves;

  for (size_t k = 0; k < all.size(); ++k) {
    if (counterpart[k] == kNoCounterpart) continue;
    const TimedSnippet& item = all[k];
    const Snippet& v = *item.snippet;
    const Snippet* u = all[counterpart[k]].snippet;

    auto v_int = alignment.integrated_of.find(v.id);
    auto u_int = alignment.integrated_of.find(u->id);
    if (v_int == alignment.integrated_of.end() ||
        u_int == alignment.integrated_of.end()) {
      continue;
    }
    if (v_int->second == u_int->second) continue;  // Already consistent.
    ++stats.conflicts_examined;

    StorySet* partition = partitions[item.partition_index];
    StoryId current_id = partition->StoryOf(v.id);
    if (current_id == kInvalidStoryId) continue;
    const Story* current = partition->FindStory(current_id);
    SP_CHECK(current != nullptr);
    double current_score = affinity(v, *current, /*member=*/true);

    // Candidate targets: same-source stories inside the counterpart's
    // integrated story.
    const IntegratedStory& target_cluster =
        alignment.stories[u_int->second];
    StoryId best_target = kInvalidStoryId;
    double target_score = 0.0;
    for (const auto& [src, story_id] : target_cluster.members) {
      if (src != v.source) continue;
      const Story* candidate = partition->FindStory(story_id);
      if (candidate == nullptr) continue;
      double s = affinity(v, *candidate, /*member=*/false);
      if (s > target_score) {
        target_score = s;
        best_target = story_id;
      }
    }

    if (best_target != kInvalidStoryId &&
        target_score > current_score + config_.margin) {
      moves.push_back({v.id, item.partition_index, current_id, best_target});
    } else if (best_target == kInvalidStoryId && current->size() > 1) {
      // No same-source story exists over there. If the snippet fits its
      // counterpart's cluster much better than its own story, break it
      // out into a fresh story, which the next alignment run will attach
      // to the right cluster.
      double cluster_score =
          affinity(v, target_cluster.merged, /*member=*/false);
      if (cluster_score > current_score + config_.margin) {
        moves.push_back(
            {v.id, item.partition_index, current_id, kInvalidStoryId});
      }
    }
  }

  // Apply moves.
  std::unordered_set<StoryId> dirty;
  std::vector<std::pair<size_t, StoryId>> dirty_stories;
  for (const Move& move : moves) {
    StorySet* partition = partitions[move.partition_index];
    const Snippet* v = store.Find(move.snippet);
    SP_CHECK(v != nullptr);
    // The source story may have changed (earlier move); re-check
    // membership.
    if (partition->StoryOf(v->id) != move.from) continue;
    StoryId to = move.to;
    if (to != kInvalidStoryId && partition->FindStory(to) == nullptr) {
      continue;  // Target vanished (merged/emptied) — skip.
    }
    partition->RemoveSnippet(*v, store);
    const bool created = to == kInvalidStoryId;
    if (created) {
      to = (*next_story_id)++;
      partition->CreateStory(to);
      ++stats.stories_created;
    }
    partition->AddSnippetToStory(*v, to);
    ++stats.snippets_moved;
    if (journal != nullptr) {
      RefinementJournal::Entry entry;
      entry.kind = RefinementJournal::Entry::Kind::kMove;
      entry.move = {partition->source(), v->id, move.from, to, created};
      journal->entries.push_back(std::move(entry));
    }
    if (dirty.insert(move.from).second) {
      dirty_stories.push_back({move.partition_index, move.from});
    }
  }

  // Split-check stories that lost members.
  if (config_.split_check) {
    for (const auto& [p, story_id] : dirty_stories) {
      if (partitions[p]->FindStory(story_id) == nullptr) continue;
      int created = SplitIfDisconnected(partitions[p], story_id, store,
                                        next_story_id, journal);
      if (created > 0) {
        ++stats.stories_split;
        stats.stories_created += created;
      }
    }
  }
  return stats;
}

int StoryRefiner::SplitIfDisconnected(StorySet* partition, StoryId story_id,
                                      const SnippetStore& store,
                                      StoryId* next_story_id,
                                      RefinementJournal* journal) const {
  const Story* story = partition->FindStory(story_id);
  SP_CHECK(story != nullptr);
  if (story->size() <= 1) return 0;

  std::vector<const Snippet*> members;
  members.reserve(story->size());
  for (SnippetId sid : story->snippets()) {
    const Snippet* s = store.Find(sid);
    SP_CHECK(s != nullptr);
    members.push_back(s);
  }
  std::sort(members.begin(), members.end(),
            [](const Snippet* a, const Snippet* b) {
              if (a->timestamp != b->timestamp) {
                return a->timestamp < b->timestamp;
              }
              return a->id < b->id;
            });

  // Union-find over members; edges = similar within the edge window.
  std::vector<size_t> parent(members.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      if (members[j]->timestamp - members[i]->timestamp >
          config_.split_edge_window) {
        break;
      }
      if (find(i) == find(j)) continue;
      if (model_->SnippetSimilarity(*members[i], *members[j]) >=
          config_.split_edge_threshold) {
        parent[find(i)] = find(j);
      }
    }
  }

  std::unordered_map<size_t, std::vector<SnippetId>> components;
  for (size_t i = 0; i < members.size(); ++i) {
    components[find(i)].push_back(members[i]->id);
  }
  if (components.size() <= 1) return 0;

  std::vector<std::vector<SnippetId>> parts;
  parts.reserve(components.size());
  for (auto& [root, ids] : components) parts.push_back(std::move(ids));
  // Deterministic order: by earliest member id.
  std::sort(parts.begin(), parts.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  std::vector<StoryId> assigned =
      partition->SplitStory(story_id, parts, store, next_story_id);
  if (journal != nullptr) {
    RefinementJournal::Entry entry;
    entry.kind = RefinementJournal::Entry::Kind::kSplit;
    entry.split = {partition->source(), story_id, parts, std::move(assigned)};
    journal->entries.push_back(std::move(entry));
  }
  return static_cast<int>(parts.size() - 1);
}

}  // namespace storypivot
