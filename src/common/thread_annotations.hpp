// Clang Thread Safety Analysis attribute macros (REDIST_ prefix).
//
// These turn the locking discipline of the concurrent subsystems
// (src/runtime, src/obs, src/mpilite) into compiler-checked contracts:
// clang's -Wthread-safety proves at compile time that every access to a
// REDIST_GUARDED_BY member happens with its mutex held, that REQUIRES
// preconditions are met at every call site, and that every acquire has a
// matching release on all paths. CI runs the pass with
// -Werror=thread-safety (scripts/static_check.sh); on GCC (which has no
// such analysis) every macro expands to nothing, so the annotations cost
// zero in the portable build.
//
// The analysis only understands annotated mutex types, so lock-protected
// code uses the redist::Mutex / MutexLock / CondVar wrappers from
// common/sync.hpp rather than std::mutex directly — a rule enforced by
// the mutex-guard rule of tools/redist_analyze. Conventions are documented
// in docs/STATIC_ANALYSIS.md.
//
// Caveat worth knowing when reading annotated code: the analysis assumes
// constructors and destructors run single-threaded, so member
// initialization in a constructor never needs (or checks) a lock.
#pragma once

#include "common/contract_annotations.hpp"

REDIST_LAYER("common");

#if defined(__clang__) && defined(__has_attribute)
#define REDIST_THREAD_ANNOTATION_IMPL(x) __attribute__((x))
#else
#define REDIST_THREAD_ANNOTATION_IMPL(x)  // no-op outside clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define REDIST_CAPABILITY(x) REDIST_THREAD_ANNOTATION_IMPL(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define REDIST_SCOPED_CAPABILITY REDIST_THREAD_ANNOTATION_IMPL(scoped_lockable)

/// Data member readable/writable only with `x` held.
#define REDIST_GUARDED_BY(x) REDIST_THREAD_ANNOTATION_IMPL(guarded_by(x))

/// Pointer member whose pointee is protected by `x` (the pointer itself
/// may be read freely).
#define REDIST_PT_GUARDED_BY(x) REDIST_THREAD_ANNOTATION_IMPL(pt_guarded_by(x))

/// Function precondition: caller holds the listed capabilities.
#define REDIST_REQUIRES(...) \
  REDIST_THREAD_ANNOTATION_IMPL(requires_capability(__VA_ARGS__))

/// Function precondition: caller holds the capabilities shared.
#define REDIST_REQUIRES_SHARED(...) \
  REDIST_THREAD_ANNOTATION_IMPL(requires_shared_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (empty list = the enclosing
/// capability / the capabilities managed by the scoped object).
#define REDIST_ACQUIRE(...) \
  REDIST_THREAD_ANNOTATION_IMPL(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define REDIST_RELEASE(...) \
  REDIST_THREAD_ANNOTATION_IMPL(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define REDIST_TRY_ACQUIRE(result, ...) \
  REDIST_THREAD_ANNOTATION_IMPL(try_acquire_capability(result, __VA_ARGS__))

/// Function must be called WITHOUT the listed capabilities held
/// (deadlock-prevention assertion).
#define REDIST_EXCLUDES(...) \
  REDIST_THREAD_ANNOTATION_IMPL(locks_excluded(__VA_ARGS__))

/// Declares that the function returns a reference to the capability
/// protecting it (for lock accessors).
#define REDIST_RETURN_CAPABILITY(x) \
  REDIST_THREAD_ANNOTATION_IMPL(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Used only where
/// the analysis is structurally unable to follow (e.g. a wait primitive
/// that unlocks and relocks inside an opaque std:: call); every use must
/// carry a comment saying why.
#define REDIST_NO_THREAD_SAFETY_ANALYSIS \
  REDIST_THREAD_ANNOTATION_IMPL(no_thread_safety_analysis)
