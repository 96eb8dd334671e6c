#include "service/solve_cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace redist::service {

SolveCache::SolveCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::optional<CachedSolve> SolveCache::lookup(
    InstanceFingerprint fp, const CanonicalInstance& instance) {
  std::optional<CachedSolve> result;
  std::uint64_t hit_count = 0;
  std::size_t cached = 0;
  {
    MutexLock lock(cache_mu);
    cached = entries_.size();
    const auto it = entries_.find(fp);
    // The fingerprint indexes, the canonical form decides — a 64-bit
    // collision must degrade to a fresh solve, not a wrong answer.
    if (it != entries_.end() && it->second.instance == instance) {
      hit_count = ++it->second.hits;
      result = it->second.solve;
    }
  }

  obs::MetricsRegistry* const metrics = obs::metrics();
  if (result) {
    if (metrics != nullptr) metrics->counter("service.cache.hits").add();
    obs::journal_record(obs::JournalEventKind::kCacheHit,
                        static_cast<std::int64_t>(hit_count));
  } else {
    if (metrics != nullptr) metrics->counter("service.cache.misses").add();
    obs::journal_record(obs::JournalEventKind::kCacheMiss,
                        static_cast<std::int64_t>(cached));
  }
  return result;
}

void SolveCache::insert_solve(InstanceFingerprint fp,
                              CanonicalInstance instance, CachedSolve solve) {
  bool evicted = false;
  std::uint64_t evicted_hits = 0;
  std::size_t remaining = 0;
  {
    MutexLock lock(cache_mu);
    if (entries_.count(fp) != 0) return;  // benign double-solve race
    if (entries_.size() >= capacity_) {
      // LFU scan; O(capacity), and capacity is small (tens of entries).
      // Ties go to the oldest insertion so a stale never-hit entry cannot
      // pin out a fresh one forever.
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (victim == entries_.end() ||
            it->second.hits < victim->second.hits ||
            (it->second.hits == victim->second.hits &&
             it->second.inserted < victim->second.inserted)) {
          victim = it;
        }
      }
      evicted = true;
      evicted_hits = victim->second.hits;
      entries_.erase(victim);
    }
    Entry entry;
    entry.instance = std::move(instance);
    entry.solve = std::move(solve);
    entry.inserted = ++tick_;
    entries_.emplace(fp, std::move(entry));
    remaining = entries_.size();
  }

  obs::MetricsRegistry* const metrics = obs::metrics();
  if (metrics != nullptr) {
    metrics->counter("service.cache.inserts").add();
    metrics->gauge("service.cache.entries")
        .set(static_cast<std::int64_t>(remaining));
    if (evicted) metrics->counter("service.cache.evictions").add();
  }
  if (evicted) {
    obs::journal_record(obs::JournalEventKind::kCacheEvict,
                        static_cast<std::int64_t>(evicted_hits),
                        static_cast<std::int64_t>(remaining));
  }
}

std::size_t SolveCache::entry_count() const {
  MutexLock lock(cache_mu);
  return entries_.size();
}

}  // namespace redist::service
