#include "core/aligner.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>

#include "sketch/lsh_index.h"
#include "sketch/minhash.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace storypivot {
namespace {

uint64_t MemberKey(SourceId source, StoryId story) {
  return (static_cast<uint64_t>(source) << 48) ^ story;
}

/// Union-find over story node indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

struct StoryNode {
  SourceId source = kInvalidSourceId;
  StoryId story = kInvalidStoryId;
  const Story* ptr = nullptr;
};

/// Below this many nodes the parallel fan-out costs more than it saves.
constexpr size_t kMinParallelNodes = 64;

/// Below this many snippets a counterpart search runs on one thread.
constexpr size_t kMinParallelSnippets = 256;

/// Chunks-per-thread for pair scoring. Row i of the triangular all-pairs
/// loop scores n - i - 1 pairs, so equal-row chunks are imbalanced;
/// over-decomposing lets the shared queue even the load out.
constexpr size_t kChunksPerThread = 8;

/// A snippet's best counterpart so far within one chunk of rows.
struct BestCounterpart {
  double score = 0.0;
  size_t other = kNoCounterpart;
};

/// Scores the counterpart rows [begin, end) of FindCounterparts;
/// `best[k - begin]` receives position k's first maximum within these
/// rows. Row i stops at `group_end[i]` (the whole list when null).
/// Returns the number of pairs scored.
uint64_t ScoreCounterpartRows(const SimilarityModel& model,
                              const std::vector<const Snippet*>& snippets,
                              const std::vector<PreparedKeywords>& keywords,
                              const std::vector<size_t>* group_end,
                              Timestamp tolerance, double threshold,
                              size_t begin, size_t end,
                              std::vector<BestCounterpart>* best) {
  uint64_t scored = 0;
  auto update = [&](size_t x, size_t y, double s) {
    const size_t slot = x - begin;
    if (slot >= best->size()) best->resize(slot + 1);
    BestCounterpart& b = (*best)[slot];
    if (b.other == kNoCounterpart || s > b.score) b = {s, y};
  };
  for (size_t i = begin; i < end; ++i) {
    const Snippet& a = *snippets[i];
    const size_t row_end =
        group_end == nullptr ? snippets.size() : (*group_end)[i];
    for (size_t j = i + 1; j < row_end; ++j) {
      const Snippet& b = *snippets[j];
      if (b.timestamp - a.timestamp > tolerance) break;
      if (a.source == b.source) continue;
      ++scored;
      double s =
          model.PreparedSnippetSimilarity(a, keywords[i], b, keywords[j]);
      if (s < threshold) continue;
      update(i, j, s);
      update(j, i, s);
    }
  }
  return scored;
}

/// Role classification of every snippet of `stories` (§2.3): one
/// counterpart search over the stories' members laid end to end, each
/// story a group of its own, so no counterpart crosses a story boundary
/// and the rows of all stories share one balanced pass over the pool.
void ClassifyStories(const SimilarityModel& model,
                     const AlignmentConfig& config, const SnippetStore& store,
                     std::span<const IntegratedStory> stories,
                     std::unordered_map<SnippetId, SnippetRole>* roles,
                     std::unordered_map<SnippetId, SnippetId>* counterpart,
                     ThreadPool* pool) {
  std::vector<const Snippet*> members;
  std::vector<size_t> group_end;
  for (const IntegratedStory& integrated : stories) {
    const size_t begin = members.size();
    for (SnippetId sid : integrated.merged.snippets()) {
      const Snippet* s = store.Find(sid);
      SP_CHECK(s != nullptr);
      members.push_back(s);
    }
    std::sort(members.begin() + static_cast<std::ptrdiff_t>(begin),
              members.end(), [](const Snippet* a, const Snippet* b) {
                return a->timestamp < b->timestamp;
              });
    group_end.resize(members.size(), members.size());
  }
  const std::vector<size_t> best =
      FindCounterparts(model, members, config.pair_tolerance,
                       config.pair_threshold, pool, &group_end);
  roles->reserve(roles->size() + members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    const SnippetId sid = members[i]->id;
    if (best[i] == kNoCounterpart) {
      (*roles)[sid] = SnippetRole::kEnriching;
    } else {
      (*roles)[sid] = SnippetRole::kAligning;
      (*counterpart)[sid] = members[best[i]]->id;
    }
  }
}

}  // namespace

size_t AlignmentResult::IndexOfMember(SourceId source, StoryId id) const {
  auto it = member_index.find(MemberKey(source, id));
  return it == member_index.end() ? std::numeric_limits<size_t>::max()
                                  : it->second;
}

double StoryAligner::StoryPairScore(const Story& a, const Story& b) const {
  double affinity = SimilarityModel::TemporalAffinity(
      a.start_time(), a.end_time(), b.start_time(), b.end_time(),
      config_.temporal_tolerance);
  if (affinity <= 0.0) return 0.0;
  return affinity * model_->StorySimilarity(a, b);
}

AlignmentResult StoryAligner::Align(
    const std::vector<const StorySet*>& partitions, const SnippetStore& store,
    StoryId* next_story_id, ThreadPool* pool) const {
  SP_CHECK(next_story_id != nullptr);
  AlignmentResult result;

  // Collect all story nodes.
  std::vector<StoryNode> nodes;
  for (const StorySet* partition : partitions) {
    SP_CHECK(partition != nullptr);
    for (const auto& [id, story] : partition->stories()) {
      if (story.empty()) continue;
      nodes.push_back({partition->source(), id, &story});
    }
  }
  const size_t n = nodes.size();
  UnionFind uf(n);

  // Candidate pair generation: all cross-source pairs for small inputs,
  // LSH over story sketches otherwise. Either way candidates of row i are
  // the pairs (i, j) with j > i, so rows can be scored independently.
  const bool lsh_mode = (config_.use_lsh && n > config_.lsh_min_stories) ||
                        n > config_.all_pairs_limit;
  LshIndex lsh = LshIndex::ForSketches(config_.sketch_hashes);
  std::vector<MinHashSignature> sigs;
  const bool parallel =
      pool != nullptr && pool->num_threads() > 1 && n >= kMinParallelNodes;
  if (lsh_mode) {
    sigs.resize(n);
    // Sketch construction is per-node pure work; build sketches in
    // parallel (disjoint writes), then fill the index serially.
    auto build = [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        sigs[i] = MinHashSignature::FromContent(nodes[i].ptr->entities(),
                                                nodes[i].ptr->keywords(),
                                                config_.sketch_hashes);
      }
    };
    if (parallel) {
      pool->ParallelFor(n, pool->num_threads() * kChunksPerThread, build);
    } else {
      build(0, 0, n);
    }
    for (size_t i = 0; i < n; ++i) lsh.Insert(i, sigs[i]);
  }

  // Scores every candidate pair of rows [begin, end), appending edges at
  // or above the alignment threshold to `edges` in (i, j) order.
  auto score_rows = [&](size_t begin, size_t end,
                        std::vector<std::pair<size_t, size_t>>* edges,
                        uint64_t* scored) {
    auto consider = [&](size_t i, size_t j) {
      if (i == j) return;
      if (!config_.allow_same_source_merge &&
          nodes[i].source == nodes[j].source) {
        return;
      }
      ++*scored;
      if (StoryPairScore(*nodes[i].ptr, *nodes[j].ptr) >=
          config_.align_threshold) {
        edges->push_back({i, j});
      }
    };
    for (size_t i = begin; i < end; ++i) {
      if (lsh_mode) {
        std::vector<uint64_t> candidates = lsh.Query(sigs[i]);
        std::sort(candidates.begin(), candidates.end());
        for (uint64_t j : candidates) {
          if (j > i) consider(i, static_cast<size_t>(j));
        }
      } else {
        for (size_t j = i + 1; j < n; ++j) consider(i, j);
      }
    }
  };

  if (parallel) {
    // Fan pair scoring out over fixed row chunks; per-chunk edge lists
    // merge in chunk order, so the union sequence — and with it the
    // entire result — matches the serial path bit for bit.
    const size_t num_chunks = pool->num_threads() * kChunksPerThread;
    std::vector<std::vector<std::pair<size_t, size_t>>> chunk_edges(
        std::min(num_chunks, n));
    std::vector<uint64_t> chunk_scored(chunk_edges.size(), 0);
    pool->ParallelFor(n, num_chunks,
                      [&](size_t chunk, size_t begin, size_t end) {
                        score_rows(begin, end, &chunk_edges[chunk],
                                   &chunk_scored[chunk]);
                      });
    for (size_t c = 0; c < chunk_edges.size(); ++c) {
      result.num_pairs_scored += chunk_scored[c];
      for (const auto& [i, j] : chunk_edges[c]) uf.Union(i, j);
    }
  } else {
    std::vector<std::pair<size_t, size_t>> edges;
    score_rows(0, n, &edges, &result.num_pairs_scored);
    for (const auto& [i, j] : edges) uf.Union(i, j);
  }

  // Build integrated stories from the union-find components.
  std::unordered_map<size_t, size_t> component_index;
  for (size_t i = 0; i < n; ++i) {
    size_t root = uf.Find(i);
    auto [it, inserted] =
        component_index.emplace(root, result.stories.size());
    if (inserted) {
      IntegratedStory integrated;
      integrated.id = (*next_story_id)++;
      integrated.merged.set_id(integrated.id);
      result.stories.push_back(std::move(integrated));
    }
    IntegratedStory& integrated = result.stories[it->second];
    integrated.members.push_back({nodes[i].source, nodes[i].story});
    integrated.merged.MergeFrom(*nodes[i].ptr);
    result.member_index[MemberKey(nodes[i].source, nodes[i].story)] =
        it->second;
    for (SnippetId sid : nodes[i].ptr->snippets()) {
      result.integrated_of[sid] = it->second;
    }
  }
  for (IntegratedStory& integrated : result.stories) {
    std::sort(integrated.members.begin(), integrated.members.end());
  }

  ClassifySnippetRoles(*model_, config_, store, &result, pool);
  return result;
}

std::vector<size_t> FindCounterparts(
    const SimilarityModel& model, const std::vector<const Snippet*>& snippets,
    Timestamp tolerance, double threshold, ThreadPool* pool,
    const std::vector<size_t>* group_end) {
  const size_t n = snippets.size();
  SP_CHECK(group_end == nullptr || group_end->size() == n);
  const bool parallel =
      pool != nullptr && pool->num_threads() > 1 && n >= kMinParallelSnippets;
  const size_t num_chunks =
      parallel ? std::min(pool->num_threads() * kChunksPerThread, n) : 1;
  std::vector<PreparedKeywords> keywords(n);
  std::vector<std::vector<BestCounterpart>> chunk_best(num_chunks);
  std::vector<size_t> chunk_begin(num_chunks, 0);
  std::vector<uint64_t> chunk_scored(num_chunks, 0);
  auto prepare = [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      keywords[i] = model.PrepareKeywords(snippets[i]->keywords);
    }
  };
  auto score = [&](size_t chunk, size_t begin, size_t end) {
    chunk_begin[chunk] = begin;
    chunk_scored[chunk] =
        ScoreCounterpartRows(model, snippets, keywords, group_end, tolerance,
                             threshold, begin, end, &chunk_best[chunk]);
  };
  if (parallel) {
    pool->ParallelFor(n, num_chunks, prepare);
    pool->ParallelFor(n, num_chunks, score);
  } else {
    prepare(0, 0, n);
    score(0, 0, n);
  }

  // Chunks hold consecutive runs of the serial row order, so a strict `>`
  // merge in chunk order keeps the serial first maximum.
  std::vector<BestCounterpart> best(n);
  for (size_t c = 0; c < num_chunks; ++c) {
    model.CountComparisons(chunk_scored[c]);
    for (size_t k = 0; k < chunk_best[c].size(); ++k) {
      const BestCounterpart& local = chunk_best[c][k];
      if (local.other == kNoCounterpart) continue;
      BestCounterpart& global = best[chunk_begin[c] + k];
      if (global.other == kNoCounterpart || local.score > global.score) {
        global = local;
      }
    }
  }
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = best[i].other;
  return out;
}

void ClassifySnippetRoles(const SimilarityModel& model,
                          const AlignmentConfig& config,
                          const SnippetStore& store,
                          AlignmentResult* result, ThreadPool* pool) {
  result->roles.clear();
  result->counterpart.clear();
  ClassifyStories(model, config, store, result->stories, &result->roles,
                  &result->counterpart, pool);
}

void ClassifyIntegratedStory(
    const SimilarityModel& model, const AlignmentConfig& config,
    const SnippetStore& store, const IntegratedStory& integrated,
    std::unordered_map<SnippetId, SnippetRole>* roles,
    std::unordered_map<SnippetId, SnippetId>* counterpart) {
  ClassifyStories(model, config, store, std::span(&integrated, 1), roles,
                  counterpart, /*pool=*/nullptr);
}

}  // namespace storypivot
