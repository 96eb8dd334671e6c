// redist_analyze CLI: whole-program contract/layering analysis.
//
//   redist_analyze --root=DIR --compile-commands=FILE
//                  [--rules=r1,r2] [--baseline=FILE] [--write-baseline]
//                  [--dot=FILE] [--list-rules]
//
// Translation units come from the build's compile_commands.json (CMake
// exports it via CMAKE_EXPORT_COMPILE_COMMANDS); their quoted includes are
// chased to closure against the build's own -I roots and the whole set
// analyzed together. Findings print as
// `path:line: [rule] message` relative to --root. Exit 0 on a clean run,
// 1 when findings were emitted, 2 on usage or I/O errors.
//
// --baseline enables the contract-drift rule against the given file
// (missing file = "not yet written", which drift reports when the file was
// explicitly requested). --write-baseline regenerates the file from the
// current annotation set instead of diffing, and exits by the remaining
// rules' verdict. --dot writes the module-level include graph for review.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze_core.hpp"

namespace {

using redist::analyze::Finding;
using redist::analyze::Options;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --root=DIR --compile-commands=FILE [--rules=r1,r2]"
               " [--baseline=FILE] [--write-baseline] [--dot=FILE]"
               " [--list-rules]\n";
  return 2;
}

bool slurp(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string root = ".";
  std::string compile_commands;
  std::string baseline_file;
  std::string dot_file;
  bool write_baseline = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& id : redist::analyze::rule_ids()) {
        std::cout << id << "\t" << redist::analyze::rule_description(id)
                  << "\n";
      }
      return 0;
    }
    if (arg == "--write-baseline") {
      write_baseline = true;
      continue;
    }
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
      continue;
    }
    if (arg.rfind("--compile-commands=", 0) == 0) {
      compile_commands = arg.substr(19);
      continue;
    }
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_file = arg.substr(11);
      continue;
    }
    if (arg.rfind("--dot=", 0) == 0) {
      dot_file = arg.substr(6);
      continue;
    }
    if (arg.rfind("--rules=", 0) == 0) {
      std::string list = arg.substr(8);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > pos) options.rules.push_back(list.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      continue;
    }
    return usage(argv[0]);
  }
  if (compile_commands.empty()) return usage(argv[0]);

  if (!baseline_file.empty() && !write_baseline) {
    options.baseline_path = baseline_file;
    options.require_baseline = true;
    slurp(baseline_file, &options.baseline);  // missing file => drift finding
  }

  redist::analyze::AnalysisResult result;
  try {
    const auto db =
        redist::analyze::read_compile_commands(compile_commands, root);
    if (db.tus.empty()) {
      std::cerr << "redist_analyze: no translation units under " << root
                << " in " << compile_commands << "\n";
      return 2;
    }
    options.include_roots = db.include_roots;
    const auto sources =
        redist::analyze::load_closure(root, db.tus, options.include_roots);
    result = redist::analyze::run_analysis(sources, options);
  } catch (const std::exception& e) {
    std::cerr << "redist_analyze: " << e.what() << "\n";
    return 2;
  }

  if (write_baseline) {
    const std::string target =
        baseline_file.empty() ? options.baseline_path : baseline_file;
    std::ofstream out(target, std::ios::binary);
    if (!out) {
      std::cerr << "redist_analyze: cannot write " << target << "\n";
      return 2;
    }
    out << "# Contract annotation baseline — regenerate with\n"
           "#   redist_analyze --root=. --compile-commands=... "
           "--write-baseline\n"
           "# One `<contract> <function>` per line; the contract-drift rule\n"
           "# fails when the sources and this file disagree.\n"
        << result.contracts;
    std::cerr << "redist_analyze: baseline written to " << target << "\n";
  }

  if (!dot_file.empty()) {
    std::ofstream out(dot_file, std::ios::binary);
    if (!out) {
      std::cerr << "redist_analyze: cannot write " << dot_file << "\n";
      return 2;
    }
    out << result.include_dot;
  }

  std::cout << redist::analyze::format_report(result.findings);
  if (!result.findings.empty()) {
    std::cerr << "redist_analyze: " << result.findings.size()
              << " finding(s)\n";
    return 1;
  }
  return 0;
}
