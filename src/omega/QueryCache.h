//===- omega/QueryCache.h - Concurrent memoization of Omega answers ------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program dependence analysis asks the Omega test the same question
/// many times: the iteration-space conjunctions of different (write, read)
/// pairs over one loop nest normalize to identical systems, and the
/// refine/cover/kill passes re-derive the same gists. This cache memoizes
///
///  * satisfiability verdicts, keyed by a canonical serialization of the
///    normalized Problem that is independent of variable order (columns
///    are reordered by a structural signature, rows sorted; see
///    canonicalSatKey), and
///  * gist results, keyed by an exact serialization of the (p, q) row
///    systems over their shared layout (the result's rows are re-hung on
///    the caller's variable table, so names never matter).
///
/// Keys are full serializations, not hashes, so a lookup can never confuse
/// two distinct problems. The cache is sharded: each shard is a mutex plus
/// a hash map, and the shard is chosen by the key's hash, so concurrent
/// workers rarely contend. Hit/miss counters are atomics.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_QUERYCACHE_H
#define OMEGA_OMEGA_QUERYCACHE_H

#include "omega/OmegaStats.h"
#include "omega/Problem.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace omega {

struct QueryCacheStats {
  uint64_t SatHits = 0;
  uint64_t SatMisses = 0;
  uint64_t GistHits = 0;
  uint64_t GistMisses = 0;

  uint64_t hits() const { return SatHits + GistHits; }
  uint64_t misses() const { return SatMisses + GistMisses; }
};

class QueryCache {
public:
  explicit QueryCache(unsigned ShardCount = 16);
  ~QueryCache();

  QueryCache(const QueryCache &) = delete;
  QueryCache &operator=(const QueryCache &) = delete;

  /// The memoized satisfiability verdict for \p Key, if any. Counts a hit
  /// or a miss -- on the cache's atomics and, when \p Stats is non-null,
  /// on the querying context's SatCacheHits/SatCacheMisses.
  std::optional<bool> lookupSat(const std::string &Key,
                                OmegaStats *Stats = nullptr);
  void storeSat(const std::string &Key, bool Satisfiable);

  /// The memoized gist row system for \p Key, if any. Counts a hit or a
  /// miss (also on \p Stats when non-null, like lookupSat). The rows are
  /// over the caller's layout (gist keys serialize the full layout
  /// structure, so equal keys imply compatible tables).
  std::optional<std::vector<Constraint>> lookupGist(const std::string &Key,
                                                    OmegaStats *Stats = nullptr);
  void storeGist(const std::string &Key, std::vector<Constraint> Rows);

  /// No-op; stays only until the next benchmark change (perfbench calls it).
  void setSnapshotCapacity(std::uint64_t) {}

  QueryCacheStats stats() const;
  /// Number of memoized entries (all kinds).
  std::size_t size() const;
  void clear();

  //===--------------------------------------------------------------------===//
  // Persistence (the omega-serve warm-start file)
  //===--------------------------------------------------------------------===//

  /// Version stamped into the on-disk format; load() rejects any other.
  static constexpr uint32_t PersistFormatVersion = 1;

  /// Serializes every sat and gist entry to \p Out in a versioned binary
  /// format (magic, version, entries sorted by key, trailing checksum).
  /// Sorted emission makes save -> load -> save byte-identical. Returns
  /// false on a write failure.
  bool save(std::ostream &Out) const;

  /// Restores entries previously written by save(). Validates the magic,
  /// version, checksum, and every length field; on any mismatch the cache
  /// is left empty (a corrupt warm-start file degrades to a cold start,
  /// never to wrong answers) and \p Err describes the rejection.
  bool load(std::istream &In, std::string &Err);

private:
  struct Shard;
  Shard &shardFor(const std::string &Key);

  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> SatHits{0}, SatMisses{0};
  std::atomic<uint64_t> GistHits{0}, GistMisses{0};
};

/// Builds the satisfiability cache key of \p P: the problem is copied and
/// normalized, live columns are reordered by a variable-order-independent
/// structural signature, rows are serialized over the new column order and
/// sorted. Two problems equal up to column permutation and variable names
/// produce the same key (ties between structurally identical columns can
/// miss, never collide). \p ModeTag distinguishes solver modes. Returns
/// std::nullopt when the key is unreliable (the problem's arithmetic
/// saturated during normalization) and the query must not be cached.
std::optional<std::string> canonicalSatKey(const Problem &P, int ModeTag);

/// Builds the gist cache key of (p given q): an exact serialization of
/// both row systems plus the layout's protected/dead structure (names
/// excluded). Not order-canonical -- gist results must be re-hung on the
/// caller's exact layout, so only textually identical layouts may share.
std::string gistCacheKey(const Problem &P, const Problem &Given,
                         bool UseFastChecks);

} // namespace omega

#endif // OMEGA_OMEGA_QUERYCACHE_H
