// Fingerprint-keyed warm solve cache (LFU) for the scheduler daemon.
//
// The daemon's request stream is dominated by repetition: iterative codes
// re-emit identical redistribution patterns (exact hits) or the same
// pattern with drifted volumes (near misses). The cache exploits both:
//
//  * exact hit — the full fingerprint matches and the stored
//    CanonicalInstance verifies equal; the cached result (schedule text,
//    lower bound, evaluation ratio) is returned without touching the
//    solver. Bit-identical by construction: it IS the bytes of the
//    original solve.
//  * near miss — no full match, but some entry shares the shape
//    fingerprint (same pattern, k, beta, algorithm — only byte counts
//    differ). The nearest such entry by L1 weight distance donates
//    its warm handle (the first peel step's matching), which seeds the
//    fresh solve's first bottleneck search (SolverOptions::warm_seed).
//    Schedules stay bit-identical to an unseeded solve — seeds only
//    shortcut feasibility probes (matching/peeling_context.hpp).
//
// Eviction is LFU: at capacity the entry with the fewest hits goes (ties
// broken by insertion age, oldest first), on the theory that a pattern
// re-requested often is the one worth keeping warm across phases.
//
// Concurrency: one Mutex (rank 50 — above the pool lock and the net-layer
// locks, below the metrics shards; docs/STATIC_ANALYSIS.md) guards the
// map. Telemetry is recorded after the lock is released, so the cache
// never holds its lock while calling into obs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "matching/matching.hpp"
#include "service/fingerprint.hpp"

REDIST_LAYER("service");

namespace redist::service {

/// The reusable portion of a solved instance: everything a response needs
/// except per-request identity (request_id, service time, provenance).
struct CachedSolve {
  std::string schedule_text;  ///< kpbs/schedule_io.hpp text format
  std::int64_t lb_min_steps = 0;
  std::int64_t lb_num = 0;  ///< LowerBound::min_transmission, exact
  std::int64_t lb_den = 1;
  double evaluation_ratio = 1.0;
  std::uint64_t solve_id = 0;  ///< journal ID of the original solve
  /// First peel step's matching (null for non-OGGP/cold solves).
  std::shared_ptr<const Matching> warm_handle;
};

class SolveCache {
 public:
  /// `capacity` entries are retained (>= 1); one more insert evicts the
  /// least-frequently-used entry first.
  explicit SolveCache(std::size_t capacity);

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  struct Lookup {
    enum class Kind {
      kMiss,      ///< nothing cached for this shape at all
      kHit,       ///< verified exact match; `solve` is the cached result
      kNearMiss,  ///< same shape cached; `warm_seed` is the donor's handle
    };
    Kind kind = Kind::kMiss;
    CachedSolve solve;  ///< kHit only
    std::shared_ptr<const Matching> warm_seed;  ///< kNearMiss only (may be
                                                ///< null when the donor had
                                                ///< no handle)
    std::int64_t weight_distance = 0;  ///< kNearMiss: L1 to the donor
  };

  /// Looks `instance` up under its fingerprint. Records cache metrics and
  /// journal events (kCacheHit/kCacheMiss/kCacheWarmSeed) outside the lock.
  Lookup lookup(const InstanceFingerprint& fp,
                const CanonicalInstance& instance);

  /// Stores a fresh solve under its fingerprint (no-op when an entry for
  /// `fp.full` already exists — concurrent solvers of the same instance
  /// race benignly). Evicts LFU at capacity (kCacheEvict journaled).
  /// (Deliberately not `insert()`: see entry_count() below.)
  void insert_solve(const InstanceFingerprint& fp, CanonicalInstance instance,
                    CachedSolve solve);

  /// Entries currently cached. (Deliberately not `size()`: the
  /// whole-program lock-rank analyzer resolves callees by name, and a
  /// generic name would merge with every container `.size()` call.)
  std::size_t entry_count() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    CanonicalInstance instance;
    CachedSolve solve;
    std::uint64_t shape = 0;     ///< shape fingerprint (for the index)
    std::uint64_t hits = 0;      ///< LFU frequency
    std::uint64_t inserted = 0;  ///< insertion tick (LFU tie-break)
  };

  const std::size_t capacity_;
  mutable Mutex cache_mu REDIST_LOCK_RANK(50);
  std::unordered_map<std::uint64_t, Entry> entries_
      REDIST_GUARDED_BY(cache_mu);
  /// shape fingerprint -> full fingerprints with that shape (near-miss
  /// candidate index; kept exactly in sync with entries_).
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> shapes_
      REDIST_GUARDED_BY(cache_mu);
  std::uint64_t tick_ REDIST_GUARDED_BY(cache_mu) = 0;
};

}  // namespace redist::service
