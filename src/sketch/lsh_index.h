#ifndef STORYPIVOT_SKETCH_LSH_INDEX_H_
#define STORYPIVOT_SKETCH_LSH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sketch/minhash.h"

namespace storypivot {

/// Banded locality-sensitive hashing index over MinHash signatures.
/// Signatures with Jaccard similarity s collide in at least one band with
/// probability 1 - (1 - s^rows)^bands; the default 16 bands x 4 rows gives
/// a steep S-curve around s ~= 0.5^(1/4) ~= 0.5, matching the engine's
/// alignment thresholds. Used to find candidate stories across sources
/// without comparing all pairs (§2.3: "one of the main challenges here is
/// combining stories across data sources efficiently").
class LshIndex {
 public:
  /// `bands * rows_per_band` must not exceed the signature size used with
  /// this index.
  LshIndex(size_t bands = 16, size_t rows_per_band = 4);

  /// Rows per band of the indexes over the engine's snippet and story
  /// sketches.
  static constexpr size_t kSketchRowsPerBand = 4;

  /// The index for `num_hashes`-slot sketches: num_hashes / 4 bands of 4
  /// rows (16 x 4 at the default 64 hashes; leftover slots go unused).
  /// Aborts when `num_hashes` cannot fill a single band.
  static LshIndex ForSketches(size_t num_hashes);

  LshIndex(const LshIndex&) = delete;
  LshIndex& operator=(const LshIndex&) = delete;
  LshIndex(LshIndex&&) = default;
  LshIndex& operator=(LshIndex&&) = default;

  /// Inserts an item. Re-inserting an id (e.g. after its signature
  /// changed) first removes the old version.
  void Insert(uint64_t id, const MinHashSignature& signature);

  /// Removes an item; no-op if absent.
  void Remove(uint64_t id);

  /// Distinct ids sharing at least one band bucket with `signature`
  /// (possibly including ids whose true similarity is low — callers
  /// verify). The probe itself is included if it was inserted.
  std::vector<uint64_t> Query(const MinHashSignature& signature) const;

  size_t size() const { return keys_by_id_.size(); }
  size_t bands() const { return bands_; }
  size_t rows_per_band() const { return rows_per_band_; }

 private:
  std::vector<uint64_t> BandKeys(const MinHashSignature& signature) const;

  size_t bands_;
  size_t rows_per_band_;
  /// Per band: bucket key -> member ids.
  std::vector<std::unordered_map<uint64_t, std::vector<uint64_t>>> buckets_;
  /// id -> its band keys (for removal).
  std::unordered_map<uint64_t, std::vector<uint64_t>> keys_by_id_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_SKETCH_LSH_INDEX_H_
