// FaultInjector — deterministic, seeded fault injection for the socket
// runtime.
//
// The paper's Section 5.2 testbed assumes a well-behaved Ethernet; a
// production backbone does not. This seam lets tests (and chaos drills)
// inject the fault classes a TCP redistribution actually meets — refused
// connections, mid-transfer resets, stalls, short writes, corrupted bytes —
// at the exact syscall sites in src/net, without a kernel module or an
// unreliable external proxy.
//
// Install pattern mirrors obs/telemetry.hpp: a process-wide atomic pointer
// that defaults to nullptr (injection off), read behind a single branch at
// every site, so a production build pays one predictable load per I/O
// operation and zero when the compiler hoists it. The injector is compiled
// in always — fault handling code that only exists in test builds is fault
// handling code that never runs where it matters.
//
// Determinism: each decision is a pure function of (seed, rule list,
// per-site operation index). Under concurrency the interleaving chooses
// which logical transfer maps to which operation index, so tests assert
// recovery invariants (delivery, verification, bounded retries) rather
// than which specific transfer was hit.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

REDIST_LAYER("robust");

namespace redist::robust {

/// Syscall-level site an I/O operation runs under (one plan per
/// send_all/recv_all/connect call, not per chunk).
enum class FaultSite { kConnect, kSend, kRecv };

enum class FaultKind {
  kConnectRefuse,  ///< connect fails as if the peer refused
  kReset,          ///< connection shut down mid-transfer (peer sees a reset)
  kStall,          ///< operation pauses long enough to trip peer deadlines
  kShortWrite,     ///< syscalls capped to tiny chunks (loop-correctness)
  kCorrupt,        ///< one received byte flipped (content verification)
};

const char* fault_kind_name(FaultKind kind);

/// One injection rule. A rule is eligible from the `begin`-th matching
/// operation (0-based, per site) and fires on up to `count` eligible
/// operations, each with `probability` drawn from the injector's seeded
/// Rng.
struct FaultRule {
  FaultKind kind = FaultKind::kReset;
  FaultSite site = FaultSite::kSend;
  std::uint64_t begin = 0;
  std::uint64_t count = 1;
  double probability = 1.0;
  Bytes at_bytes = 0;     ///< kReset: shut down after this many bytes
                          ///< moved; kCorrupt: offset of the flipped byte
  double stall_ms = 0;    ///< kStall: pause length
  Bytes chunk_cap = 1;    ///< kShortWrite: max bytes per syscall
};

/// Decisions for one I/O operation (merged over all rules that fired).
struct FaultPlan {
  bool refuse = false;      ///< connect: fail without dialing
  bool reset = false;       ///< shut the socket down at `reset_after` bytes
  Bytes reset_after = 0;
  double stall_ms = 0;      ///< sleep once before the first syscall
  Bytes chunk_cap = 0;      ///< 0 = no cap
  bool corrupt = false;     ///< recv: flip the byte at `corrupt_at`
  Bytes corrupt_at = 0;

  bool any() const {
    return refuse || reset || stall_ms > 0 || chunk_cap > 0 || corrupt;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0xFA171);

  void add_rule(const FaultRule& rule);

  /// Called once at the top of every guarded operation; counts the
  /// operation and returns the merged plan of every rule that fired.
  REDIST_ALLOW_ALLOC(
      "counts and journals a fault that fired; allocates nothing otherwise")
  FaultPlan plan_op(FaultSite site);

  /// Total faults fired so far.
  std::uint64_t injected_count() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// Operations observed at `site` so far.
  std::uint64_t op_count(FaultSite site) const;

 private:
  struct ArmedRule {
    FaultRule rule;
    std::uint64_t remaining;
  };

  // Taken at syscall seams while a mesh link's send_mutex is held.
  mutable Mutex inject_mutex_ REDIST_LOCK_RANK(40);
  Rng rng_ REDIST_GUARDED_BY(inject_mutex_);
  std::vector<ArmedRule> rules_ REDIST_GUARDED_BY(inject_mutex_);
  std::uint64_t ops_[3] REDIST_GUARDED_BY(inject_mutex_) = {0, 0, 0};
  std::atomic<std::uint64_t> injected_{0};
};

/// Currently installed injector, or nullptr (injection off).
FaultInjector* injector() noexcept;

/// Installs an injector for a scope (test body, chaos drill) and restores
/// the previous one on exit. Install before spawning the mesh threads that
/// should see it.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultInjector* injector);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace redist::robust
