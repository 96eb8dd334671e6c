// redist_analyze — the repo's one static-analysis pass.
//
// Driven by compile_commands.json: it lexes every translation unit the
// build actually compiles, follows quoted includes to closure (against the
// build's own -I roots), and checks three structures over that one input —
//
//   * an include graph (file- and module-level), checked against the
//     architecture's layering DAG,
//   * a per-TU symbol/call index, over which the contract annotations of
//     src/common/contract_annotations.hpp (REDIST_DETERMINISTIC,
//     REDIST_PURE, REDIST_ALLOW_NONDET, REDIST_LAYER) are enforced by
//     reachability, and
//   * each file's token stream, for the per-file lint rules, each applied
//     only inside its path scope.
//
// Rules (ids are stable; used in suppressions, fixtures and CI output):
//   determinism     nothing reachable from a REDIST_DETERMINISTIC function
//                   may touch RNG, wall clocks, thread ids, unordered-
//                   container iteration, or float-keyed sort comparators
//   purity          REDIST_PURE adds I/O and environment sinks on top of
//                   the determinism set
//   layering        include edges must point down the module DAG
//                   (common -> graph/obs -> matching -> kpbs -> runtime/
//                   netsim -> net -> mpilite -> tools), preprocessor
//                   conditionals or not
//   include-cycle   the file-level include graph must be acyclic
//   layer-tag       every header under src/ carries REDIST_LAYER("<dir>")
//   contract-drift  the live annotation set is audited against a checked-
//                   in baseline: removing or adding a contract without
//                   regenerating tools/analyze/contracts_baseline.txt is
//                   an error
//   deprecated-api  bans the removed positional solve_kpbs overload
//                   (any solve_kpbs declaration or call with more than two
//                   top-level arguments)
//   lock-transition manual .lock()/.unlock()/.try_lock() calls in src/net
//                   and src/robust (RAII MutexLock scopes only; manual
//                   transitions there have no exception-safe story)
//   lock-rank       every Mutex under src/ declares REDIST_LOCK_RANK(n);
//                   along every acquisition chain (declared
//                   REDIST_ACQUIRED_BEFORE edges plus edges derived from
//                   MutexLock scopes and the call graph) ranks must
//                   strictly increase and the graph must be acyclic
//   noblock         nothing blocking (sleep, socket I/O, foreign condvar
//                   wait, pool enqueue) while a lock is held, anywhere in
//                   src/, nor reachable from a REDIST_NOBLOCK function;
//                   REDIST_ALLOW_BLOCK(reason) marks an audited boundary
//   noalloc         no new/malloc/container growth reachable from a
//                   REDIST_NOALLOC function; REDIST_ALLOW_ALLOC(reason)
//                   marks an audited boundary
// Per-file lint rules (path scope in brackets):
//   no-nondeterminism  any RNG identifier, annotated or not — randomness
//                      flows through the seeded redist::Rng [src/ except
//                      src/common/rng.*, tools/, bench/]
//   float-eq           ==/!= where an operand is a float literal or a
//                      conventionally-double name (ratio/seconds/_ms/...)
//                      [src/, tools/]
//   telemetry-guard    obs::metrics()->… / obs::journal()->… dereferenced
//                      without a null check [src/, tools/, bench/]
//   mutex-guard        raw std::mutex members, and unannotated mutable
//                      members of a class that holds a Mutex/CondVar
//                      [src/, tools/]
//   wallclock          calendar-clock reads (system_clock, time(),
//                      localtime_r, ...) [src/ except
//                      src/common/stopwatch.hpp, tools/]
//
// Suppression: `// redist-analyze: allow(rule-id) <reason>`. A standalone
// comment covers its own line and the line below; a trailing comment
// covers only its own line. This is a token-level analysis — the
// container toolchain has no libclang — so constructors invoked without
// parentheses and calls through function pointers are invisible to the
// call index; rules are scoped to patterns that are unambiguous at the
// token level and every rule is pinned by must-fire and near-miss fixtures
// under tests/analyze/.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace redist::analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Quoted-include search roots, repo-relative ("" is the root itself), for
/// analyses without a compile database (in-memory sources, the fixtures
/// under tests/analyze/): src/, the root, tools/.
std::vector<std::string> default_include_roots();

struct Options {
  /// Empty = all rules; otherwise the subset of rule ids to run.
  std::vector<std::string> rules;
  /// Baseline text for contract-drift (the *contents*, not a path). Empty
  /// disables the rule unless `require_baseline` is set.
  std::string baseline;
  /// When true, an empty baseline is itself a contract-drift finding.
  bool require_baseline = false;
  /// Where removal findings are anchored (the baseline has no source line).
  std::string baseline_path = "tools/analyze/contracts_baseline.txt";
  /// Where a quoted include is looked up after the includer's directory.
  std::vector<std::string> include_roots = default_include_roots();
};

/// One source file, with its repo-relative '/'-separated path. The path
/// decides module membership (src/<module>/..., tools/..., bench/...).
struct SourceFile {
  std::string path;
  std::string content;
};

struct AnalysisResult {
  std::vector<Finding> findings;
  /// Current contract inventory, one line per entry, sorted — the exact
  /// text `--write-baseline` persists and contract-drift diffs against.
  std::string contracts;
  /// Module-level include graph in Graphviz DOT for the CI review
  /// artifact.
  std::string include_dot;
};

/// Stable rule ids, in reporting order.
const std::vector<std::string>& rule_ids();

/// One-line description for --list-rules.
std::string rule_description(const std::string& id);

/// Runs every enabled rule over the closed set of sources. Include edges
/// pointing outside `sources` (system headers, generated files) are
/// ignored.
AnalysisResult run_analysis(const std::vector<SourceFile>& sources,
                            const Options& options);

/// What the analysis takes from a compile_commands.json, repo-relative:
/// every translation unit whose "file" lies under the root, and every
/// directory under the root that a "command" passes as -I, in order of
/// first appearance (the build's own quoted-include search roots).
struct CompileDatabase {
  std::vector<std::string> tus;
  std::vector<std::string> include_roots;
};

/// Reads a compile_commands.json. Tolerant of the formatting CMake emits
/// (absolute paths, -I joined or separate); entries outside `root` are
/// dropped. Throws std::runtime_error when unreadable.
CompileDatabase read_compile_commands(const std::string& json_path,
                                      const std::string& root);

/// Reads `tus` (repo-relative, under `root`) and chases their quoted
/// includes to a fixed point — each tried against the includer's directory,
/// then against `include_roots` in order — returning every reached file
/// exactly once. Unresolvable targets (system headers) are silently
/// dropped.
std::vector<SourceFile> load_closure(
    const std::string& root, const std::vector<std::string>& tus,
    const std::vector<std::string>& include_roots = default_include_roots());

/// `path:line: [rule] message` lines, newline-terminated — the golden
/// report format (tests/test_analyze.cpp pins it).
std::string format_report(const std::vector<Finding>& findings);

}  // namespace redist::analyze
