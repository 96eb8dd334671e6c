// Contract annotations consumed by tools/redist_analyze (REDIST_ prefix).
//
// Where src/common/thread_annotations.hpp turns the *locking* discipline
// into compiler-checked contracts, this header turns the *determinism and
// layering* discipline into analyzer-checked ones. The macros are inert to
// the compiler (under clang they additionally emit `annotate` attributes so
// the contracts survive into the AST for external tooling); their real
// consumer is tools/redist_analyze, which lexes every translation unit
// named by compile_commands.json, builds a call index, and enforces:
//
//   REDIST_DETERMINISTIC  the annotated function — and everything reachable
//                         from it through the project call index — must not
//                         touch RNG sources, wall clocks, thread ids,
//                         iteration-order-unstable container traversal, or
//                         float-keyed sort comparators. This is what makes
//                         "schedules are bit-identical" a build-time
//                         invariant instead of a test-time observation.
//   REDIST_PURE           determinism plus freedom from I/O and environment
//                         side effects; fingerprint->result caching is only
//                         sound over REDIST_PURE/REDIST_DETERMINISTIC code.
//   REDIST_LAYER("m")     file-level architecture tag: the header belongs
//                         to module `m`, which must match its directory and
//                         is cross-checked against the include-graph
//                         layering DAG (see docs/STATIC_ANALYSIS.md).
//   REDIST_ALLOW_NONDET(reason)
//                         escape hatch: the next function is exempt from
//                         determinism traversal (and not descended into).
//                         The reason string is mandatory; use it only where
//                         nondeterminism cannot alter emitted schedules
//                         (e.g. the clock that paces a token bucket).
//   REDIST_NOBLOCK        the annotated function — and everything reachable
//                         from it — must not sleep, wait on a condition
//                         variable, perform socket I/O, or enqueue into the
//                         thread pool. For the hot instrument/journal seams
//                         a solve thread crosses thousands of times.
//   REDIST_NOALLOC        nothing reachable from the annotated function may
//                         call new/malloc or grow a container; keeps the
//                         peeling inner loop (Hopcroft–Karp augmentation)
//                         allocation-free as a build-time invariant.
//   REDIST_ALLOW_BLOCK(reason) / REDIST_ALLOW_ALLOC(reason)
//                         audited boundary escapes for the two rules above,
//                         in the style of REDIST_ALLOW_NONDET. The reason is
//                         mandatory; the function is not descended into.
//
// Conventions: annotations go immediately BEFORE the declaration they
// annotate (the analyzer binds each annotation to the next function name);
// REDIST_LAYER appears once per header, right after the includes. Removing
// an annotation is itself an error: the analyzer audits the live set
// against tools/analyze/contracts_baseline.txt, so contracts can only be
// dropped by editing the baseline in the same reviewable diff.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define REDIST_CONTRACT_ANNOTATION(x) __attribute__((annotate(x)))
#else
#define REDIST_CONTRACT_ANNOTATION(x)  // inert outside clang
#endif

/// Function contract: same inputs => bit-identical outputs, on every path.
#define REDIST_DETERMINISTIC REDIST_CONTRACT_ANNOTATION("redist::deterministic")

/// Function contract: deterministic AND free of I/O / environment effects.
#define REDIST_PURE REDIST_CONTRACT_ANNOTATION("redist::pure")

/// File contract: this header belongs to module `name` (a src/ directory).
/// Expands to a vacuous static_assert so every toolchain parses it.
#define REDIST_LAYER(name) \
  static_assert(true, "redist_analyze layer tag: " name)

/// Exempts the NEXT function from determinism traversal. `reason` must be
/// a non-empty string literal explaining why schedules cannot be affected.
#define REDIST_ALLOW_NONDET(reason) \
  REDIST_CONTRACT_ANNOTATION("redist::allow_nondet:" reason)

/// Function contract: nothing reachable may block (sleep, condvar wait,
/// socket I/O, pool enqueue). See the `noblock` analyzer rule.
#define REDIST_NOBLOCK REDIST_CONTRACT_ANNOTATION("redist::noblock")

/// Function contract: nothing reachable may allocate (new/malloc, container
/// growth). See the `noalloc` analyzer rule.
#define REDIST_NOALLOC REDIST_CONTRACT_ANNOTATION("redist::noalloc")

/// Exempts the NEXT function from noblock traversal: it blocks by design.
/// `reason` must be a non-empty string literal.
#define REDIST_ALLOW_BLOCK(reason) \
  REDIST_CONTRACT_ANNOTATION("redist::allow_block:" reason)

/// Exempts the NEXT function from noalloc traversal: it allocates by
/// design. `reason` must be a non-empty string literal.
#define REDIST_ALLOW_ALLOC(reason) \
  REDIST_CONTRACT_ANNOTATION("redist::allow_alloc:" reason)

REDIST_LAYER("common");
