// Tests for tools/analyze: every rule is pinned by a must-fire and a
// near-miss fixture under tests/analyze/<case>/ (each case is a miniature
// repo root that load_closure walks), plus in-memory cases for drift,
// rule filtering, the golden report format, and the per-file lint rules'
// scoping, suppressions and lexer regressions.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyze_core.hpp"

namespace {

using redist::analyze::AnalysisResult;
using redist::analyze::Finding;
using redist::analyze::Options;
using redist::analyze::SourceFile;

std::string fixture_root(const std::string& name) {
  return std::string(REDIST_ANALYZE_FIXTURE_DIR) + "/" + name;
}

AnalysisResult analyze_fixture(const std::string& name,
                               const std::vector<std::string>& tus,
                               const Options& options = {}) {
  const auto sources =
      redist::analyze::load_closure(fixture_root(name), tus);
  EXPECT_FALSE(sources.empty()) << "fixture " << name << " loaded nothing";
  return redist::analyze::run_analysis(sources, options);
}

std::vector<Finding> by_rule(const AnalysisResult& r,
                             const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : r.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

bool mentions(const Finding& f, const std::string& needle) {
  return f.message.find(needle) != std::string::npos;
}

TEST(Analyze, DeterminismReachabilityFiresThroughCallChain) {
  const auto r = analyze_fixture("det", {"src/kpbs/det.cpp"});
  const auto det = by_rule(r, "determinism");
  ASSERT_EQ(det.size(), 5u) << redist::analyze::format_report(r.findings);
  // All five sinks live in the .cpp; messages attribute root and chain.
  for (const auto& f : det) EXPECT_EQ(f.file, "src/kpbs/det.cpp");

  const auto rng = std::find_if(det.begin(), det.end(), [](const Finding& f) {
    return f.message.find("'rand'") != std::string::npos;
  });
  ASSERT_NE(rng, det.end());
  EXPECT_TRUE(mentions(*rng, "noisy_helper"));
  EXPECT_TRUE(mentions(*rng, "deterministic_entry"));

  // Both tools' sink tables, merged: a calendar-clock read and a standard
  // engine fire the contract rule too, not just rand().
  for (const char* sink : {"wall clock 'localtime_r'", "RNG 'knuth_b'"}) {
    EXPECT_TRUE(std::any_of(det.begin(), det.end(), [&](const Finding& f) {
      return mentions(f, sink);
    })) << sink;
  }

  EXPECT_TRUE(std::any_of(det.begin(), det.end(), [](const Finding& f) {
    return f.message.find("unordered-container iteration") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(det.begin(), det.end(), [](const Finding& f) {
    return f.message.find("float comparator") != std::string::npos;
  }));

  // Near misses: the ALLOW_NONDET boundary, the unannotated helper, the
  // std::map loop, stable_sort, and the integer comparator stay silent for
  // determinism. The per-file rules see every sink token, reachable or
  // not: all three rand() calls, the engine and the clock read.
  const auto nondet = by_rule(r, "no-nondeterminism");
  const auto clock = by_rule(r, "wallclock");
  EXPECT_EQ(nondet.size(), 4u) << redist::analyze::format_report(nondet);
  EXPECT_EQ(clock.size(), 1u) << redist::analyze::format_report(clock);
  EXPECT_EQ(r.findings.size(), det.size() + nondet.size() + clock.size())
      << redist::analyze::format_report(r.findings);
}

TEST(Analyze, PurityAddsIoSinksDeterminismDoesNot) {
  const auto r = analyze_fixture("purity", {"src/common/pure.cpp"});
  ASSERT_EQ(r.findings.size(), 1u)
      << redist::analyze::format_report(r.findings);
  EXPECT_EQ(r.findings[0].rule, "purity");
  EXPECT_TRUE(mentions(r.findings[0], "'printf'"));
  EXPECT_TRUE(mentions(r.findings[0], "pure_value"));
}

TEST(Analyze, LayeringRejectsEveryUpwardInclude) {
  const auto r = analyze_fixture(
      "layering",
      {"src/matching/up.hpp", "src/matching/guarded.hpp",
       "src/kpbs/sched.hpp", "src/obs/endpoint.hpp"});
  ASSERT_EQ(r.findings.size(), 3u)
      << redist::analyze::format_report(r.findings);
  // A preprocessor conditional does not hide an upward include.
  EXPECT_EQ(r.findings[0].rule, "layering");
  EXPECT_EQ(r.findings[0].file, "src/matching/guarded.hpp");
  EXPECT_TRUE(mentions(r.findings[0], "kpbs"));
  EXPECT_EQ(r.findings[1].rule, "layering");
  EXPECT_EQ(r.findings[1].file, "src/matching/up.hpp");
  EXPECT_TRUE(mentions(r.findings[1], "kpbs"));
  // No upward edge is sanctioned: obs reaching into net fires like any
  // other.
  EXPECT_EQ(r.findings[2].rule, "layering");
  EXPECT_EQ(r.findings[2].file, "src/obs/endpoint.hpp");
  EXPECT_TRUE(mentions(r.findings[2], "'net'"));
  // The module graph export still records the edge.
  EXPECT_NE(r.include_dot.find("\"matching\" -> \"kpbs\""),
            std::string::npos);
}

TEST(Analyze, IncludeCycleDetected) {
  const auto r =
      analyze_fixture("cycle", {"src/graph/a.hpp", "src/graph/b.hpp"});
  const auto cycles = by_rule(r, "include-cycle");
  ASSERT_EQ(cycles.size(), 1u)
      << redist::analyze::format_report(r.findings);
  EXPECT_TRUE(mentions(cycles[0], "src/graph/a.hpp"));
  EXPECT_TRUE(mentions(cycles[0], "src/graph/b.hpp"));
  EXPECT_EQ(r.findings.size(), cycles.size());
}

TEST(Analyze, LayerTagMissingAndMismatchedBothFire) {
  const auto r = analyze_fixture(
      "layer_tag",
      {"src/obs/untagged.hpp", "src/obs/mistagged.hpp",
       "src/obs/tagged.hpp", "src/obs/impl.cpp"});
  const auto tags = by_rule(r, "layer-tag");
  ASSERT_EQ(tags.size(), 2u) << redist::analyze::format_report(r.findings);
  EXPECT_EQ(tags[0].file, "src/obs/mistagged.hpp");
  EXPECT_TRUE(mentions(tags[0], "REDIST_LAYER(\"obs\")"));
  EXPECT_EQ(tags[1].file, "src/obs/untagged.hpp");
  EXPECT_EQ(tags[1].line, 1);
  EXPECT_EQ(r.findings.size(), tags.size());
}

TEST(Analyze, DeprecatedPositionalSolveKpbsCallAndRedeclaration) {
  const auto r = analyze_fixture("deprecated", {"src/kpbs/calls.cpp"});
  const auto dep = by_rule(r, "deprecated-api");
  ASSERT_EQ(dep.size(), 2u) << redist::analyze::format_report(r.findings);
  for (const auto& f : dep) {
    EXPECT_EQ(f.file, "src/kpbs/calls.cpp");
    EXPECT_TRUE(mentions(f, "SolverOptions"));
  }
  // The braced-options and two-argument calls stay silent.
  EXPECT_EQ(r.findings.size(), dep.size());
}

TEST(Analyze, LockTransitionScopedToNetAndRobustWithSuppression) {
  const auto r = analyze_fixture(
      "lock", {"src/net/chan.cpp", "src/runtime/pool.cpp"});
  const auto locks = by_rule(r, "lock-transition");
  ASSERT_EQ(locks.size(), 2u) << redist::analyze::format_report(r.findings);
  // Both findings are the manual pair in src/net; the runtime file is out
  // of the rule's scope and the try_lock carries an allow() suppression.
  for (const auto& f : locks) EXPECT_EQ(f.file, "src/net/chan.cpp");
  EXPECT_TRUE(mentions(locks[0], ".lock()"));
  EXPECT_TRUE(mentions(locks[1], ".unlock()"));
  EXPECT_EQ(r.findings.size(), locks.size());
}

TEST(Analyze, LockRankInversionsDirectAndInterprocedural) {
  const auto r = analyze_fixture("lockrank", {"src/runtime/ranks.cpp"});
  const auto ranks = by_rule(r, "lock-rank");
  // Expected: the unranked lock, the direct inversion, the derived
  // (call-graph) inversion, and the cycle those two inversions close with
  // the correctly-ordered chain. The suppressed unranked lock and both
  // ordered chains stay silent.
  EXPECT_EQ(r.findings.size(), ranks.size())
      << redist::analyze::format_report(r.findings);
  ASSERT_EQ(ranks.size(), 4u) << redist::analyze::format_report(r.findings);

  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("'naked_mu' has no REDIST_LOCK_RANK") !=
           std::string::npos;
  }));
  EXPECT_FALSE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("hushed_mu") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("acquired directly in 'fixture_inverted'") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("via call to 'fixture_take_a' in "
                          "'fixture_interprocedural_inversion'") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("lock acquisition cycle") != std::string::npos;
  }));
}

TEST(Analyze, LockRankDeclaredCycleAndUnknownTarget) {
  const auto r = analyze_fixture("lockrank", {"src/runtime/cycle.cpp"});
  const auto ranks = by_rule(r, "lock-rank");
  EXPECT_EQ(r.findings.size(), ranks.size())
      << redist::analyze::format_report(r.findings);
  // The d_mu -> c_mu edge inverts the ranks, the pair forms a declared
  // cycle, and e_mu points at a lock that does not exist.
  ASSERT_EQ(ranks.size(), 3u) << redist::analyze::format_report(r.findings);
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("declared by REDIST_ACQUIRED_BEFORE") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("lock acquisition cycle") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(ranks.begin(), ranks.end(), [](const Finding& f) {
    return f.message.find("unknown lock 'ghost_mu'") != std::string::npos;
  }));
}

TEST(Analyze, NoblockUnderLockAndReachabilityWithEscapes) {
  const auto r = analyze_fixture("noblock", {"src/runtime/blocky.cpp"});
  const auto blocks = by_rule(r, "noblock");
  EXPECT_EQ(r.findings.size(), blocks.size())
      << redist::analyze::format_report(r.findings);
  // Expected: the sleep under q_mu, the foreign condvar wait, the pool
  // enqueue, the interprocedural chain into the sleeping helper, and the
  // usleep reachable from the REDIST_NOBLOCK hot path. The unlock-then-
  // sleep, own-mutex wait, ALLOW_BLOCK boundary, and clean hot path stay
  // silent.
  ASSERT_EQ(blocks.size(), 5u) << redist::analyze::format_report(r.findings);

  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("'sleep_for' in 'fixture_sleep_under_lock'") !=
           std::string::npos;
  }));
  EXPECT_FALSE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("fixture_unlock_then_sleep") != std::string::npos ||
           f.message.find("fixture_own_wait") != std::string::npos ||
           f.message.find("fixture_sanctioned") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("condvar wait under a different lock") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("'submit' in 'fixture_enqueue_under_lock'") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("call to 'fixture_slow_helper'") !=
               std::string::npos &&
           f.message.find("blocking 'sleep_for'") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(blocks.begin(), blocks.end(), [](const Finding& f) {
    return f.message.find("reachable from REDIST_NOBLOCK "
                          "'fixture_hot_path'") != std::string::npos;
  }));
}

TEST(Analyze, NoallocDirectChainEscapeAndSuppression) {
  const auto r = analyze_fixture("noalloc", {"src/matching/hot.cpp"});
  const auto allocs = by_rule(r, "noalloc");
  EXPECT_EQ(r.findings.size(), allocs.size())
      << redist::analyze::format_report(r.findings);
  // Expected: the bare new and the push_back reached through the call
  // chain. The clean probe, the ALLOW_ALLOC boundary, the global-scope C
  // call that shares a project function's name, and the suppressed growth
  // stay silent.
  ASSERT_EQ(allocs.size(), 2u) << redist::analyze::format_report(r.findings);
  EXPECT_TRUE(std::any_of(allocs.begin(), allocs.end(), [](const Finding& f) {
    return f.message.find("allocation 'new' in 'fixture_direct_new'") !=
           std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(allocs.begin(), allocs.end(), [](const Finding& f) {
    return f.message.find("'push_back' in 'fixture_grow' (reached via "
                          "'fixture_probe')") != std::string::npos;
  }));
  EXPECT_FALSE(std::any_of(allocs.begin(), allocs.end(), [](const Finding& f) {
    return f.message.find("fixture_buffered") != std::string::npos ||
           f.message.find("fixture_syscall") != std::string::npos ||
           f.message.find("fixture_hushed") != std::string::npos;
  }));
}

TEST(Analyze, NoallocReportsRecursion) {
  const auto r = analyze_fixture("noalloc", {"src/matching/recursive.cpp"});
  const auto allocs = by_rule(r, "noalloc");
  EXPECT_EQ(r.findings.size(), allocs.size())
      << redist::analyze::format_report(r.findings);
  // Expected: the callee that recurses and the root that does. The loop
  // and the recursion no root reaches stay silent.
  ASSERT_EQ(allocs.size(), 2u) << redist::analyze::format_report(r.findings);
  EXPECT_TRUE(std::any_of(allocs.begin(), allocs.end(), [](const Finding& f) {
    return mentions(f, "recursive call to 'fixture_descend' in "
                       "'fixture_descend' (reached via 'fixture_search')") &&
           f.line == 10;
  })) << redist::analyze::format_report(r.findings);
  EXPECT_TRUE(std::any_of(allocs.begin(), allocs.end(), [](const Finding& f) {
    return mentions(f, "recursive call to 'fixture_countdown' in "
                       "'fixture_countdown', which is reachable from "
                       "REDIST_NOALLOC 'fixture_countdown'");
  })) << redist::analyze::format_report(r.findings);
}

TEST(Analyze, ContractDriftRemovalAdditionAndMissingBaseline) {
  const std::vector<SourceFile> sources = {
      {"src/kpbs/contract.hpp",
       "#pragma once\nREDIST_LAYER(\"kpbs\");\nREDIST_DETERMINISTIC\n"
       "int foo(int n);\n"}};

  Options in_sync;
  in_sync.baseline = "deterministic foo\n";
  auto r = redist::analyze::run_analysis(sources, in_sync);
  EXPECT_TRUE(r.findings.empty())
      << redist::analyze::format_report(r.findings);
  EXPECT_EQ(r.contracts, "deterministic foo\n");

  Options removed;
  removed.baseline = "deterministic foo\ndeterministic gone\n";
  r = redist::analyze::run_analysis(sources, removed);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "contract-drift");
  EXPECT_TRUE(mentions(r.findings[0], "'deterministic gone'"));
  EXPECT_TRUE(mentions(r.findings[0], "no longer declared"));

  Options added;
  added.baseline = "# comment lines are ignored\n";
  r = redist::analyze::run_analysis(sources, added);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "contract-drift");
  EXPECT_EQ(r.findings[0].file, "src/kpbs/contract.hpp");
  EXPECT_TRUE(mentions(r.findings[0], "'deterministic foo'"));
  EXPECT_TRUE(mentions(r.findings[0], "not recorded"));

  Options missing;
  missing.require_baseline = true;
  r = redist::analyze::run_analysis(sources, missing);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "contract-drift");
  EXPECT_TRUE(mentions(r.findings[0], "--write-baseline"));
}

TEST(Analyze, RuleFilteringRunsOnlyRequestedRules) {
  Options only_tags;
  only_tags.rules = {"layer-tag"};
  const auto r = analyze_fixture(
      "layering",
      {"src/matching/up.hpp", "src/matching/guarded.hpp",
       "src/kpbs/sched.hpp"},
      only_tags);
  // The upward include would fire under `layering`, but that rule is off
  // and every fixture header carries a correct tag.
  EXPECT_TRUE(r.findings.empty())
      << redist::analyze::format_report(r.findings);
}

TEST(Analyze, UnknownRuleIsAnError) {
  Options options;
  options.rules = {"no-such-rule"};
  EXPECT_THROW(redist::analyze::run_analysis({}, options),
               std::runtime_error);
}

TEST(Analyze, RuleListingCoversEveryRule) {
  for (const auto& id : redist::analyze::rule_ids()) {
    EXPECT_FALSE(redist::analyze::rule_description(id).empty()) << id;
  }
  EXPECT_EQ(redist::analyze::rule_ids().size(), 16u);
}

TEST(Analyze, TusFromCompileCommandsStripsRootAndForeignEntries) {
  const auto tus = redist::analyze::read_compile_commands(
                       fixture_root("compile_commands.json"), "/repo")
                       .tus;
  const std::vector<std::string> expected = {"src/kpbs/det.cpp",
                                             "tools/analyze/core.cpp"};
  EXPECT_EQ(tus, expected);
}

TEST(Analyze, TusFromCompileCommandsAcceptsRelativeRoot) {
  // CMake writes absolute paths; the documented `--root=.` must match them.
  const std::string db =
      ::testing::TempDir() + "/relative_root_compile_commands.json";
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::ofstream(db) << "[{\"file\": \""
                    << (cwd / "src/kpbs/a.cpp").generic_string()
                    << "\"},\n {\"file\": \"/elsewhere/b.cpp\"}]\n";
  const std::vector<std::string> expected = {"src/kpbs/a.cpp"};
  EXPECT_EQ(redist::analyze::read_compile_commands(db, ".").tus, expected);
  EXPECT_EQ(redist::analyze::read_compile_commands(db, "./src/..").tus,
            expected);
}

TEST(Analyze, IncludeRootsFromCompileCommandsReachAStudyContract) {
  // colorer.hpp sits behind the database's bench/studies -I root only, so
  // its contract and its body exist for the analysis only if quoted
  // includes are resolved against the build's own -I flags.
  const std::string root = fixture_root("include_roots");
  const std::string db_path =
      ::testing::TempDir() + "/include_roots_compile_commands.json";
  std::ofstream(db_path)
      << "[{\"directory\": \"" << root << "/build\",\n"
      << "  \"command\": \"c++ -I" << root << "/src -I " << root
      << "/bench/studies -I/usr/include -c " << root << "/bench/study.cpp\",\n"
      << "  \"file\": \"" << root << "/bench/study.cpp\"}]\n";
  const auto db = redist::analyze::read_compile_commands(db_path, root);
  EXPECT_EQ(db.tus, std::vector<std::string>{"bench/study.cpp"});
  EXPECT_EQ(db.include_roots,
            (std::vector<std::string>{"src", "bench/studies"}));

  Options options;
  options.include_roots = db.include_roots;
  const auto sources =
      redist::analyze::load_closure(root, db.tus, options.include_roots);
  std::vector<std::string> paths;
  for (const auto& s : sources) paths.push_back(s.path);
  EXPECT_EQ(paths, (std::vector<std::string>{
                       "bench/studies/matching/colorer.hpp",
                       "bench/study.cpp"}));

  const auto r = redist::analyze::run_analysis(sources, options);
  EXPECT_NE(r.contracts.find("deterministic study_colorer"),
            std::string::npos)
      << r.contracts;
  const auto det = by_rule(r, "determinism");
  ASSERT_EQ(det.size(), 1u) << redist::analyze::format_report(r.findings);
  EXPECT_EQ(det[0].file, "bench/studies/matching/colorer.hpp");
  EXPECT_TRUE(mentions(det[0], "'rand'"));
}

TEST(Analyze, LoadClosureChasesQuotedIncludes) {
  const auto sources = redist::analyze::load_closure(
      fixture_root("det"), {"src/kpbs/det.cpp"});
  std::vector<std::string> paths;
  for (const auto& s : sources) paths.push_back(s.path);
  const std::vector<std::string> expected = {"src/kpbs/det.cpp",
                                             "src/kpbs/det.hpp"};
  EXPECT_EQ(paths, expected);  // system + unresolvable includes dropped
}

TEST(Analyze, GoldenReportFormat) {
  const std::vector<SourceFile> sources = {
      {"src/kpbs/fixture.cpp",
       "namespace redist {\n"
       "void fixture_fn(G& g) {\n"
       "  solve_kpbs(g, 1, 2, 3);\n"
       "}\n"
       "}\n"}};
  const auto r = redist::analyze::run_analysis(sources, {});
  EXPECT_EQ(
      redist::analyze::format_report(r.findings),
      "src/kpbs/fixture.cpp:3: [deprecated-api] positional "
      "solve_kpbs(graph, k, beta, ...) was removed in favor of "
      "solve_kpbs(graph, SolverOptions{...}); the old overload must not "
      "be reintroduced\n");
}

// ---------------------------------------------------------------------------
// Per-file lint rules
// ---------------------------------------------------------------------------

const std::vector<std::string> kLintRules = {
    "no-nondeterminism", "float-eq", "telemetry-guard", "mutex-guard",
    "wallclock"};

std::string rule_file_stem(const std::string& rule) {
  std::string stem = rule;
  std::replace(stem.begin(), stem.end(), '-', '_');
  return stem;
}

Options only(const std::vector<std::string>& rules) {
  Options options;
  options.rules = rules;
  return options;
}

/// Lint fixtures sit at tests/analyze/<rule>/src/kpbs/, inside every lint
/// rule's path scope.
std::vector<Finding> lint_fixture(const std::string& dir,
                                  const std::string& file,
                                  const Options& options) {
  return analyze_fixture(dir, {"src/kpbs/" + file}, options).findings;
}

std::vector<Finding> lint_source(
    const std::string& path, const std::string& content,
    const std::vector<std::string>& rules = kLintRules) {
  return redist::analyze::run_analysis({{path, content}}, only(rules))
      .findings;
}

class LintFixtures : public ::testing::TestWithParam<std::string> {};

TEST_P(LintFixtures, MustFireFixtureFires) {
  const std::string rule = GetParam();
  const auto findings =
      lint_fixture(rule_file_stem(rule), "fail.cpp", only({rule}));
  ASSERT_FALSE(findings.empty()) << "fixture for " << rule << " is silent";
  for (const Finding& f : findings) EXPECT_EQ(f.rule, rule);
}

TEST_P(LintFixtures, NearMissFixtureStaysClean) {
  const std::string rule = GetParam();
  const auto findings =
      lint_fixture(rule_file_stem(rule), "pass.cpp", only({rule}));
  EXPECT_TRUE(findings.empty()) << redist::analyze::format_report(findings);
}

INSTANTIATE_TEST_SUITE_P(AllRules, LintFixtures,
                         ::testing::ValuesIn(kLintRules),
                         [](const auto& info) {
                           return rule_file_stem(info.param);
                         });

TEST(LintRules, RegistryIsComplete) {
  const auto& ids = redist::analyze::rule_ids();
  for (const std::string& id : kLintRules) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
    EXPECT_FALSE(redist::analyze::rule_description(id).empty()) << id;
  }
}

TEST(LintSuppression, DirectivesNeutralizeFindings) {
  const auto findings =
      lint_fixture("wallclock", "suppressed.cpp", only({"wallclock"}));
  EXPECT_TRUE(findings.empty()) << redist::analyze::format_report(findings);
}

TEST(LintSuppression, DirectiveOnlyCoversAdjacentLine) {
  const auto findings = lint_source(
      "src/kpbs/f.cpp",
      "// redist-analyze: allow(wallclock) covers next line only\n"
      "long a() { return time(nullptr); }\n"
      "long b() { return time(nullptr); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintSuppression, TrailingDirectiveDoesNotBlanketTheNextLine) {
  // A trailing allow on one member must not swallow a finding on the
  // member declared directly below it.
  const auto findings = lint_source(
      "src/runtime/x.hpp",
      "class C {\n"
      "  Mutex mu_;\n"
      "  Engine eng_;  // redist-analyze: allow(mutex-guard) ctor-only\n"
      "  int active_ = 0;\n"
      "};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintSuppression, WrongRuleIdDoesNotSuppress) {
  const auto findings = lint_source(
      "src/kpbs/f.cpp",
      "// redist-analyze: allow(float-eq) wrong rule\n"
      "long a() { return time(nullptr); }\n");
  EXPECT_EQ(findings.size(), 1u);
}

// Seeding rand() into the solver must fail the run.
TEST(LintScoping, RandInSolverFires) {
  const auto findings =
      lint_source("src/kpbs/solver.cpp", "int jitter() { return rand(); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-nondeterminism");
}

TEST(LintScoping, TestsAreOutsideNondeterminismScope) {
  EXPECT_TRUE(
      lint_source("tests/test_foo.cpp", "int jitter() { return rand(); }\n")
          .empty());
}

TEST(LintScoping, RngImplementationIsExempt) {
  EXPECT_TRUE(lint_source("src/common/rng.hpp",
                          "struct S { int x = mt19937_size; };\n"
                          "int mt19937;\n")
                  .empty());
}

TEST(LintScoping, StopwatchOwnsTheWallClock) {
  const std::string src = "long f() { return time(nullptr); }\n";
  EXPECT_TRUE(lint_source("src/common/stopwatch.hpp", src).empty());
  EXPECT_EQ(lint_source("src/common/stopwatch.cpp", src).size(), 1u);
}

// Deleting a GUARDED_BY from an annotated class must fail the run.
TEST(LintMutexGuard, RemovingGuardedByFires) {
  EXPECT_TRUE(lint_source("src/runtime/x.hpp",
                          "class C {\n"
                          "  Mutex mu_;\n"
                          "  long total_ REDIST_GUARDED_BY(mu_) = 0;\n"
                          "};\n")
                  .empty());
  const auto findings = lint_source("src/runtime/x.hpp",
                                    "class C {\n"
                                    "  Mutex mu_;\n"
                                    "  long total_ = 0;\n"
                                    "};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "mutex-guard");
  EXPECT_EQ(findings[0].line, 3);
}

// Every Mutex under src/ carries REDIST_LOCK_RANK(n); its argument list
// must not make the member read as a method and hide the class's locks.
TEST(LintMutexGuard, RankedMutexStillRequiresGuards) {
  const auto findings = lint_source("src/runtime/x.hpp",
                                    "class C {\n"
                                    "  Mutex mu_ REDIST_LOCK_RANK(10);\n"
                                    "  long total_ = 0;\n"
                                    "};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintMutexGuard, ConstAtomicAndReferencesAreExemptByDefault) {
  EXPECT_TRUE(lint_source("src/runtime/x.hpp",
                          "class C {\n"
                          "  Mutex mu_;\n"
                          "  const int capacity_ = 4;\n"
                          "  std::atomic<bool> done_{false};\n"
                          "  Engine& engine_;\n"
                          "  static int instances;\n"
                          "};\n")
                  .empty());
}

// A raw sync type renamed in the same file is still raw: `using` and
// `typedef` aliases, and aliases of aliases, are resolved.
TEST(LintMutexGuard, SameFileAliasesOfRawSyncTypesFire) {
  const auto findings = lint_source("src/runtime/x.hpp",
                                    "using RawLock = std::mutex;\n"
                                    "typedef std::condition_variable Cv;\n"
                                    "class C {\n"
                                    "  RawLock mu_;\n"
                                    "  Cv cv_;\n"
                                    "};\n",
                                    {"mutex-guard"});
  ASSERT_EQ(findings.size(), 2u) << redist::analyze::format_report(findings);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[1].line, 5);
  // A non-sync alias stays a plain member.
  EXPECT_TRUE(lint_source("src/runtime/x.hpp",
                          "using Count = std::int64_t;\n"
                          "class C {\n"
                          "  Count n_ = 0;\n"
                          "};\n",
                          {"mutex-guard"})
                  .empty());

  const auto fixture =
      lint_fixture("mutex_guard", "alias.cpp", only({"mutex-guard"}));
  ASSERT_EQ(fixture.size(), 3u) << redist::analyze::format_report(fixture);
  for (const Finding& f : fixture) EXPECT_EQ(f.rule, "mutex-guard");
}

TEST(LintFloatEq, NullptrComparisonIsNotAFloatCompare) {
  EXPECT_TRUE(
      lint_source("src/kpbs/x.cpp",
                  "bool f(double* solve_ms) { return solve_ms != nullptr; }\n")
          .empty());
}

TEST(LintTokenizer, StringsCommentsAndPreprocessorAreInvisible) {
  EXPECT_TRUE(lint_source("src/kpbs/x.cpp",
                          "#include <random>  // mt19937 lives here\n"
                          "const char* kName = \"mt19937\";\n"
                          "/* rand() in a block comment */\n"
                          "int f() { return 0; }\n")
                  .empty());
}

// A line comment with a trailing backslash splices the next source line
// into the comment; trigger tokens there are comment text.
TEST(LintTokenizer, CommentLineContinuationStaysComment) {
  EXPECT_TRUE(lint_source("src/kpbs/x.cpp",
                          "// continues onto the next line \\\n"
                          "   rand() mt19937 system_clock\n"
                          "#define X 1 // so does a directive's \\\n"
                          "   rand() localtime_r\n"
                          "int f() { return 0; }\n")
                  .empty());
}

// A block comment opened on a preprocessor line swallows its continuation
// lines instead of leaking them into the token stream.
TEST(LintTokenizer, BlockCommentOpenedOnPreprocessorLine) {
  EXPECT_TRUE(lint_source("src/kpbs/x.cpp",
                          "#define BANNER /* spans lines\n"
                          "  rand() mt19937 gettimeofday\n"
                          "*/ 1\n"
                          "int g() { return BANNER; }\n")
                  .empty());
}

// ...while a quoted "/*" on a preprocessor line must NOT open a comment:
// the code after it is still analyzed (the rand() below has to fire).
TEST(LintTokenizer, QuotedCommentOpenerOnPreprocessorLineIsInert) {
  const auto findings = lint_source("src/kpbs/x.cpp",
                                    "#define P \"/*\"\n"
                                    "int h() { return rand(); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-nondeterminism");
  EXPECT_EQ(findings[0].line, 2);
}

// The full trap corpus (strings + comments stuffed with trigger tokens)
// must stay clean under every rule.
TEST(LintTokenizer, TrapFixtureStaysCleanUnderAllRules) {
  const auto findings = lint_fixture("tokenizer", "traps.cpp", Options{});
  EXPECT_TRUE(findings.empty()) << redist::analyze::format_report(findings);
}

}  // namespace
