#include "analyze_core.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace redist::analyze {
namespace {

// ---------------------------------------------------------------------------
// Lexing
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  char kind = 'p';  // 'i'dent, 'n'umber, 's'tring, 'c'har, 'p'unct
};

struct IncludeEdge {
  std::string target;  // literal text between the quotes
  int line = 0;
};

struct AllowDirective {
  int first_line = 0;
  int last_line = 0;  // inclusive
  std::string rule;
};

struct Lexed {
  std::vector<Token> tokens;
  std::vector<IncludeEdge> includes;
  std::vector<AllowDirective> allows;
};

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool is_ident_char(char c) { return is_ident_start(c) || (c >= '0' && c <= '9'); }

// `// redist-analyze: allow(rule-id) reason`. A standalone
// comment covers its own line(s) plus the line below; a trailing comment
// (code before it on the same line) covers only its own line, so it cannot
// blanket the next declaration.
void harvest_allows(const std::string& comment, int first_line,
                    int last_line, bool standalone,
                    std::vector<AllowDirective>& out) {
  const int cover_to = standalone ? last_line + 1 : last_line;
  std::size_t at = 0;
  while ((at = comment.find("redist-analyze:", at)) != std::string::npos) {
    std::size_t open = comment.find("allow(", at);
    if (open == std::string::npos) break;
    std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    out.push_back(
        {first_line, cover_to, comment.substr(open + 6, close - open - 6)});
    at = close;
  }
}

// Consumes a string literal starting at src[i] == '"'. Returns one past the
// closing quote and appends the (unquoted) contents to *text.
std::size_t consume_string(const std::string& src, std::size_t i, int& line,
                           std::string* text) {
  const std::size_t n = src.size();
  ++i;  // opening quote
  while (i < n) {
    char c = src[i];
    if (c == '\\' && i + 1 < n) {
      if (text) text->append(src, i, 2);
      i += 2;
      continue;
    }
    if (c == '"') return i + 1;
    if (c == '\n') ++line;
    if (text) text->push_back(c);
    ++i;
  }
  return i;
}

// Raw string literal: i points at the '"' after R. R"delim(...)delim".
std::size_t consume_raw_string(const std::string& src, std::size_t i,
                               int& line) {
  const std::size_t n = src.size();
  ++i;  // opening quote
  std::string delim;
  while (i < n && src[i] != '(') delim.push_back(src[i++]);
  const std::string closer = ")" + delim + "\"";
  std::size_t end = src.find(closer, i);
  if (end == std::string::npos) return n;
  for (std::size_t k = i; k < end; ++k)
    if (src[k] == '\n') ++line;
  return end + closer.size();
}

Lexed lex(const std::string& src) {
  Lexed out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  while (i < n) {
    const char c = src[i];

    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }

    // Line comment — a trailing backslash splices the next line into the
    // comment (translation phase 2 runs before comment removal).
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t stop = i + 2;
      const int start_line = line;
      const bool standalone =
          out.tokens.empty() || out.tokens.back().line != start_line;
      while (stop < n && src[stop] != '\n') ++stop;
      while (stop < n && stop > 0 && src[stop - 1] == '\\') {
        ++line;
        ++stop;
        while (stop < n && src[stop] != '\n') ++stop;
      }
      harvest_allows(src.substr(i, stop - i), start_line, line, standalone,
                     out.allows);
      i = stop;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      const bool standalone =
          out.tokens.empty() || out.tokens.back().line != start_line;
      std::size_t stop = i + 2;
      while (stop + 1 < n && !(src[stop] == '*' && src[stop + 1] == '/')) {
        if (src[stop] == '\n') ++line;
        ++stop;
      }
      stop = (stop + 1 < n) ? stop + 2 : n;
      harvest_allows(src.substr(i, stop - i), start_line, line, standalone,
                     out.allows);
      i = stop;
      continue;
    }

    // Preprocessor directive. Captures quoted includes; everything else on
    // the line is skipped with full comment/string/continuation awareness.
    if (c == '#' && at_line_start) {
      const int directive_line = line;
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      std::string name;
      while (j < n && is_ident_char(src[j])) name.push_back(src[j++]);

      if (name == "include") {
        while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
        if (j < n && src[j] == '"') {
          std::string target;
          j = consume_string(src, j, line, &target);
          out.includes.push_back({target, directive_line});
        }
      }

      // Skip the remainder of the (possibly continued) directive line.
      while (j < n && src[j] != '\n') {
        if (src[j] == '\\' && j + 1 < n && src[j + 1] == '\n') {
          ++line;
          j += 2;
          continue;
        }
        if (src[j] == '"') {
          j = consume_string(src, j, line, nullptr);
          continue;
        }
        if (src[j] == '\'') {
          ++j;
          while (j < n && src[j] != '\'' && src[j] != '\n') {
            if (src[j] == '\\') ++j;
            ++j;
          }
          if (j < n && src[j] == '\'') ++j;
          continue;
        }
        if (src[j] == '/' && j + 1 < n && src[j + 1] == '/') {
          // Runs to the first newline not spliced by a backslash.
          while (j < n && (src[j] != '\n' || src[j - 1] == '\\')) {
            if (src[j] == '\n') ++line;
            ++j;
          }
          break;
        }
        if (src[j] == '/' && j + 1 < n && src[j + 1] == '*') {
          const int open_line = line;
          std::size_t stop = j + 2;
          while (stop + 1 < n && !(src[stop] == '*' && src[stop + 1] == '/')) {
            if (src[stop] == '\n') ++line;
            ++stop;
          }
          harvest_allows(src.substr(j, stop + 2 - j), open_line, line,
                         /*standalone=*/false, out.allows);
          j = (stop + 1 < n) ? stop + 2 : n;
          continue;
        }
        ++j;
      }
      i = j;
      at_line_start = false;
      continue;
    }

    at_line_start = false;

    if (c == '"') {
      std::string text;
      const int start_line = line;
      i = consume_string(src, i, line, &text);
      out.tokens.push_back({text, start_line, 's'});
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && src[i] != '\'' && src[i] != '\n') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      if (i < n && src[i] == '\'') ++i;
      out.tokens.push_back({"", line, 'c'});
      continue;
    }

    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n && is_ident_char(src[j])) ++j;
      std::string ident = src.substr(i, j - i);
      // Raw string literal: R"delim(...)delim", possibly behind an encoding
      // prefix (LR, uR, UR, u8R).
      if (j < n && src[j] == '"' &&
          (ident == "R" || ident == "LR" || ident == "uR" || ident == "UR" ||
           ident == "u8R")) {
        out.tokens.push_back({"", line, 's'});
        i = consume_raw_string(src, j, line);
        continue;
      }
      out.tokens.push_back({std::move(ident), line, 'i'});
      i = j;
      continue;
    }
    // Numbers, as preprocessing numbers: hex, floats, exponents with signs,
    // digit separators and suffixes all stay one token.
    if ((c >= '0' && c <= '9') ||
        (c == '.' && i + 1 < n && src[i + 1] >= '0' && src[i + 1] <= '9')) {
      std::size_t j = i + 1;
      while (j < n && (is_ident_char(src[j]) || src[j] == '.' ||
                       src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') &&
                        std::string_view("eEpP").find(src[j - 1]) !=
                            std::string_view::npos))) {
        ++j;
      }
      out.tokens.push_back({src.substr(i, j - i), line, 'n'});
      i = j;
      continue;
    }
    out.tokens.push_back({std::string(1, c), line, 'p'});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Paths and modules
// ---------------------------------------------------------------------------

std::string dirname_of(const std::string& path) {
  std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::stringstream ss(path);
  std::string part;
  while (std::getline(ss, part, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == ".." && !parts.empty() && parts.back() != "..") {
      parts.pop_back();
      continue;
    }
    parts.push_back(part);
  }
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

/// Candidate repo-relative paths a quoted include may refer to, in the
/// order the compiler tries them: the includer's directory, then each
/// search root.
std::vector<std::string> include_candidates(
    const std::string& includer, const std::string& target,
    const std::vector<std::string>& roots) {
  std::vector<std::string> c;
  const std::string dir = dirname_of(includer);
  if (!dir.empty()) c.push_back(normalize(dir + "/" + target));
  for (const std::string& root : roots) {
    c.push_back(normalize(root.empty() ? target : root + "/" + target));
  }
  return c;
}

/// Module of a repo-relative path: the directory under src/ ("common",
/// "kpbs", ...), "src-root" for src/redist.hpp itself, or the top-level
/// tree name ("tools", "tests", "bench", "examples") otherwise.
std::string module_of(const std::string& path) {
  if (path.rfind("src/", 0) == 0) {
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos) return "src-root";
    return path.substr(4, slash - 4);
  }
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? path : path.substr(0, slash);
}

/// The layering DAG as ranks: an include may only point at a strictly
/// lower rank (or stay inside its own module). Matches the
/// architecture described in DESIGN.md.
int rank_of(const std::string& module) {
  static const std::unordered_map<std::string, int> kRanks = {
      {"common", 0},
      {"graph", 1},       {"obs", 1},
      {"matching", 2},    {"workload", 2}, {"robust", 2},
      {"kpbs", 3},
      {"runtime", 4},     {"netsim", 4},   {"baselines", 4},
      {"net", 5},
      {"mpilite", 6},     {"service", 6},
      {"src-root", 90},   // the umbrella header sees every module
  };
  auto it = kRanks.find(module);
  return it == kRanks.end() ? 100 : it->second;  // tools/tests/bench/examples
}

bool is_header(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

// ---------------------------------------------------------------------------
// Function and contract index
// ---------------------------------------------------------------------------

struct Contract {
  // "deterministic" | "pure" | "allow_nondet" | "noblock" | "noalloc" |
  // "allow_block" | "allow_alloc"
  std::string kind;
  std::string function;
  std::string file;
  int line = 0;
};

struct FunctionDef {
  std::string name;
  std::string file;
  int line = 0;
  std::size_t body_begin = 0;  // token index just after '{'
  std::size_t body_end = 0;    // token index of matching '}'
};

const std::unordered_set<std::string>& stmt_keywords() {
  static const std::unordered_set<std::string> k = {
      "if",     "for",     "while",   "switch",   "catch",  "return",
      "sizeof", "alignof", "alignas", "decltype", "new",    "delete",
      "throw",  "static_assert",      "noexcept", "defined", "do",
      "else",   "case",    "assert",  "operator"};
  return k;
}

std::size_t match_paren(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != 'p') continue;
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i;
  }
  return t.size();
}

std::size_t match_brace(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != 'p') continue;
    if (t[i].text == "{") ++depth;
    if (t[i].text == "}" && --depth == 0) return i;
  }
  return t.size();
}

/// Punctuation test: string literals keep their text, so kind matters.
bool tok_is(const std::vector<Token>& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == 'p' && t[i].text == text;
}

/// Finds function *definitions* (name, parens, body) in one file. A
/// token-level heuristic: `ident (...)` followed — possibly through
/// cv-qualifiers, noexcept clauses, trailing return types and member-init
/// lists — by `{`. Lambdas don't match (no name before the paren);
/// control-flow keywords are excluded.
void index_functions(const std::string& path, const std::vector<Token>& toks,
                     std::vector<FunctionDef>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != 'i' || !tok_is(toks, i + 1, "(")) continue;
    const std::string& name = toks[i].text;
    if (stmt_keywords().count(name)) continue;
    if (name.rfind("REDIST_", 0) == 0) continue;  // annotation macros
    // `.` and `->` are member access, never a definition; a lone `>`
    // closes a template return type (std::vector<Matching> f(...)).
    if ((i > 0 && tok_is(toks, i - 1, ".")) ||
        (i > 1 && tok_is(toks, i - 1, ">") && tok_is(toks, i - 2, "-"))) {
      continue;
    }
    const std::size_t close = match_paren(toks, i + 1);
    if (close >= toks.size()) continue;

    // Walk from ')' to a body '{', permitting the decorations that may sit
    // between a declarator and its body. Anything else means this was a
    // call or a declaration.
    std::size_t k = close + 1;
    bool has_body = false;
    while (k < toks.size()) {
      const Token& t = toks[k];
      if (t.kind == 'p' && t.text == "{") {
        has_body = true;
        break;
      }
      if (t.kind == 'p' && t.text == "(") {
        k = match_paren(toks, k) + 1;  // noexcept(...), member-init a_(x)
        continue;
      }
      const bool decoration =
          (t.kind == 'i') ||
          (t.kind == 'p' && (t.text == "-" || t.text == ">" ||
                             t.text == ":" || t.text == "," ||
                             t.text == "<" || t.text == "&" ||
                             t.text == "*" || t.text == "[" ||
                             t.text == "]"));
      if (!decoration) break;
      ++k;
    }
    if (!has_body) continue;
    const std::size_t body_end = match_brace(toks, k);
    out.push_back({name, path, toks[i].line, k + 1, body_end});
    i = k;  // keep scanning inside the body (skips nothing nested)
  }
}

/// Binds REDIST_DETERMINISTIC / REDIST_PURE / REDIST_ALLOW_NONDET tokens to
/// the function name of the declaration they precede (the identifier right
/// before the first argument-list paren).
void index_contracts(const std::string& path, const std::vector<Token>& toks,
                     std::vector<Contract>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != 'i') continue;
    std::string kind;
    std::size_t scan = i + 1;
    if (toks[i].text == "REDIST_DETERMINISTIC") {
      kind = "deterministic";
    } else if (toks[i].text == "REDIST_PURE") {
      kind = "pure";
    } else if (toks[i].text == "REDIST_ALLOW_NONDET") {
      kind = "allow_nondet";
      if (tok_is(toks, scan, "(")) scan = match_paren(toks, scan) + 1;
    } else if (toks[i].text == "REDIST_NOBLOCK") {
      kind = "noblock";
    } else if (toks[i].text == "REDIST_NOALLOC") {
      kind = "noalloc";
    } else if (toks[i].text == "REDIST_ALLOW_BLOCK") {
      kind = "allow_block";
      if (tok_is(toks, scan, "(")) scan = match_paren(toks, scan) + 1;
    } else if (toks[i].text == "REDIST_ALLOW_ALLOC") {
      kind = "allow_alloc";
      if (tok_is(toks, scan, "(")) scan = match_paren(toks, scan) + 1;
    } else {
      continue;
    }
    std::string function;
    for (std::size_t j = scan; j + 1 < toks.size(); ++j) {
      if (toks[j].kind == 'p' && toks[j].text == "(") {
        if (toks[j - 1].kind == 'i') function = toks[j - 1].text;
        break;
      }
      if (toks[j].kind == 'p' && (toks[j].text == ";" || toks[j].text == "{"))
        break;
    }
    if (!function.empty()) out.push_back({kind, function, path, toks[i].line});
  }
}

// ---------------------------------------------------------------------------
// Determinism / purity sinks
// ---------------------------------------------------------------------------

// One table per sink category, shared by the reachability rules
// (determinism, purity) and the per-file lint rules (no-nondeterminism,
// wallclock).

const std::unordered_set<std::string>& rng_idents() {
  static const std::unordered_set<std::string> k = {
      "rand",          "srand",         "rand_r",
      "drand48",       "lrand48",       "mrand48",
      "random_device", "mt19937",       "mt19937_64",
      "minstd_rand",   "minstd_rand0",  "default_random_engine",
      "knuth_b",       "ranlux24",      "ranlux48",
      "random_shuffle"};
  return k;
}

/// Reads of the calendar clock. Monotonic clocks are not listed: the
/// Stopwatch timebase, the token bucket and the tracer use them
/// legitimately, so only the reachability rules add them
/// (monotonic_clock_idents).
const std::unordered_set<std::string>& system_clock_idents() {
  static const std::unordered_set<std::string> k = {
      "system_clock", "gettimeofday", "clock_gettime", "ntp_gettime",
      "localtime",    "localtime_r",  "gmtime",        "gmtime_r",
      "ctime",        "strftime",     "timespec_get"};
  return k;
}

const std::unordered_set<std::string>& monotonic_clock_idents() {
  static const std::unordered_set<std::string> k = {"steady_clock",
                                                    "high_resolution_clock"};
  return k;
}

/// `.x` or `->x`: a member access, never a free-function sink.
bool is_member(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 && toks[i - 1].kind == 'p' &&
         (toks[i - 1].text == "." || toks[i - 1].text == ">");
}

/// A system-clock identifier, or a direct (non-member) time()/clock() call.
bool is_system_clock_read(const std::vector<Token>& toks, std::size_t i) {
  const std::string& t = toks[i].text;
  if (system_clock_idents().count(t)) return true;
  return (t == "time" || t == "clock") && tok_is(toks, i + 1, "(") &&
         !is_member(toks, i);
}

const std::unordered_set<std::string>& thread_identity_idents() {
  static const std::unordered_set<std::string> k = {"get_id",
                                                    "hardware_concurrency"};
  return k;
}

const std::unordered_set<std::string>& io_idents() {
  static const std::unordered_set<std::string> k = {
      "cout",   "cerr",    "clog",    "printf", "fprintf", "sprintf",
      "puts",   "fputs",   "putchar", "fopen",  "fwrite",  "fread",
      "fclose", "ofstream", "ifstream", "fstream", "getenv", "setenv",
      "putenv", "system",  "exit",    "abort"};
  return k;
}

struct Sink {
  std::string ident;
  int line = 0;
  std::string detail;
};

/// Scans one function body for nondeterminism (and, when `pure`, I/O)
/// sinks: banned identifiers, range-for over locally declared unordered
/// containers, and std::sort with a float-parameter comparator (unstable
/// order on ties).
std::vector<Sink> body_sinks(const std::vector<Token>& toks,
                             std::size_t begin, std::size_t end, bool pure) {
  std::vector<Sink> sinks;
  std::unordered_set<std::string> unordered_vars;

  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != 'i') continue;
    const bool member = is_member(toks, i);

    if (rng_idents().count(t.text)) {
      sinks.push_back({t.text, t.line, "RNG"});
      continue;
    }
    if (is_system_clock_read(toks, i) ||
        monotonic_clock_idents().count(t.text)) {
      sinks.push_back({t.text, t.line, "wall clock"});
      continue;
    }
    if (thread_identity_idents().count(t.text) && tok_is(toks, i + 1, "(")) {
      sinks.push_back({t.text, t.line, "thread identity"});
      continue;
    }
    if (pure && io_idents().count(t.text) && !member) {
      sinks.push_back({t.text, t.line, "I/O or environment"});
      continue;
    }

    // Track `std::unordered_map<...> name` / `unordered_set<...> name`
    // declarations, then flag range-for iteration over them: bucket order
    // is implementation-defined, so anything derived from the visit order
    // is nondeterministic.
    if (t.text == "unordered_map" || t.text == "unordered_set") {
      std::size_t j = i + 1;
      if (tok_is(toks, j, "<")) {
        int depth = 0;
        for (; j < end && j < toks.size(); ++j) {
          if (toks[j].kind != 'p') continue;
          if (toks[j].text == "<") ++depth;
          if (toks[j].text == ">" && --depth <= 0) break;
          if (toks[j].text == ";") break;
        }
        ++j;
      }
      while (j < end && j < toks.size() &&
             (tok_is(toks, j, "&") || tok_is(toks, j, "*") ||
              (toks[j].kind == 'i' && toks[j].text == "const"))) {
        ++j;
      }
      if (j < end && j < toks.size() && toks[j].kind == 'i')
        unordered_vars.insert(toks[j].text);
      continue;
    }
    if (t.text == "for" && tok_is(toks, i + 1, "(")) {
      const std::size_t close = match_paren(toks, i + 1);
      for (std::size_t j = i + 2; j < close; ++j) {
        if (toks[j].kind != 'p' || toks[j].text != ":") continue;
        if (tok_is(toks, j - 1, ":") || tok_is(toks, j + 1, ":")) continue;
        if (j + 1 < close && toks[j + 1].kind == 'i' &&
            unordered_vars.count(toks[j + 1].text)) {
          sinks.push_back({toks[j + 1].text, toks[j].line,
                           "unordered-container iteration"});
        }
      }
      continue;
    }

    // std::sort with a float-comparing lambda: ties land in unspecified
    // order. stable_sort (or integer keys) is the deterministic spelling.
    if (t.text == "sort" && tok_is(toks, i + 1, "(") && !member) {
      const std::size_t close = match_paren(toks, i + 1);
      for (std::size_t j = i + 2; j < close; ++j) {
        if (!tok_is(toks, j, "[")) continue;
        std::size_t k = j;
        while (k < close && !tok_is(toks, k, "]")) ++k;
        if (!tok_is(toks, k + 1, "(")) continue;
        const std::size_t params_close = match_paren(toks, k + 1);
        for (std::size_t p = k + 2; p < params_close; ++p) {
          if (toks[p].kind == 'i' &&
              (toks[p].text == "float" || toks[p].text == "double")) {
            sinks.push_back({"sort", toks[j].line,
                             "float comparator in unstable sort"});
            j = params_close;
            break;
          }
        }
      }
      continue;
    }
  }
  return sinks;
}

/// Callee names: every non-keyword identifier directly followed by '('.
/// A call qualified by the global scope alone (`::recv(`) names a C
/// library function, never a project one: project code lives in namespace
/// redist, so it must not resolve to a same-named member like
/// Communicator::recv.
bool global_scope_call(const std::vector<Token>& toks, std::size_t i) {
  if (i < 2 || !tok_is(toks, i - 1, ":") || !tok_is(toks, i - 2, ":")) {
    return false;
  }
  if (i < 3) return true;
  const Token& before = toks[i - 3];  // `ns::f(` and `T<U>::f(` are scoped
  return before.kind == 'i' ? stmt_keywords().count(before.text) > 0
                            : before.text != ">";
}

std::unordered_set<std::string> body_callees(const std::vector<Token>& toks,
                                             std::size_t begin,
                                             std::size_t end) {
  std::unordered_set<std::string> out;
  for (std::size_t i = begin; i < end && i + 1 < toks.size(); ++i) {
    if (toks[i].kind == 'i' && tok_is(toks, i + 1, "(") &&
        !stmt_keywords().count(toks[i].text) &&
        toks[i].text.rfind("REDIST_", 0) != 0 &&
        !global_scope_call(toks, i)) {
      out.insert(toks[i].text);
    }
  }
  return out;
}

/// Implementation files whose whole purpose is to wrap nondeterministic
/// primitives behind deterministic interfaces; their bodies are the one
/// sanctioned place for RNG/clock identifiers.
bool exempt_from_sinks(const std::string& path) {
  return path == "src/common/rng.hpp" || path == "src/common/rng.cpp" ||
         path == "src/common/stopwatch.hpp" ||
         // The annotated mutex wrapper: the lock-rank sentinel inside it
         // times waits and aborts on inversion, which is diagnostic
         // machinery, not program behavior.
         path == "src/common/sync.hpp";
}

// ---------------------------------------------------------------------------
// The analysis driver
// ---------------------------------------------------------------------------

struct ResolvedInclude {
  std::size_t target;  // index into sources
  int line;
};

struct Analysis {
  const std::vector<SourceFile>& sources;
  const Options& options;
  std::vector<Lexed> lexed;
  std::unordered_map<std::string, std::size_t> by_path;
  std::vector<std::vector<ResolvedInclude>> edges;  // per source
  std::vector<FunctionDef> functions;
  std::vector<Contract> contracts;
  std::vector<Finding> findings;

  explicit Analysis(const std::vector<SourceFile>& s, const Options& o)
      : sources(s), options(o) {}

  bool enabled(const std::string& rule) const {
    if (options.rules.empty()) return true;
    return std::find(options.rules.begin(), options.rules.end(), rule) !=
           options.rules.end();
  }

  const std::vector<Token>& tokens_of(const std::string& file) const {
    return lexed[by_path.at(file)].tokens;
  }

  void add(const std::string& file, int line, const std::string& rule,
           const std::string& message) {
    findings.push_back({file, line, rule, message});
  }
};

void build_index(Analysis& a) {
  auto& by_path = a.by_path;
  for (std::size_t i = 0; i < a.sources.size(); ++i)
    by_path[a.sources[i].path] = i;

  a.lexed.reserve(a.sources.size());
  for (const auto& s : a.sources) a.lexed.push_back(lex(s.content));

  a.edges.resize(a.sources.size());
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    for (const auto& inc : a.lexed[i].includes) {
      for (const auto& cand : include_candidates(
               a.sources[i].path, inc.target, a.options.include_roots)) {
        auto it = by_path.find(cand);
        if (it != by_path.end()) {
          a.edges[i].push_back({it->second, inc.line});
          break;
        }
      }
    }
  }

  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const std::string& path = a.sources[i].path;
    index_contracts(path, a.lexed[i].tokens, a.contracts);
    // Bodies are only indexed under src/, tools/ and bench/studies/ (the
    // library the study benches link): test and bench code is free to use
    // clocks/IO, and its helper names must not shadow library functions in
    // the call graph.
    if (path.rfind("src/", 0) == 0 || path.rfind("tools/", 0) == 0 ||
        path.rfind("bench/studies/", 0) == 0)
      index_functions(path, a.lexed[i].tokens, a.functions);
  }
}

void check_layering(Analysis& a) {
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const std::string from_mod = module_of(a.sources[i].path);
    const int from_rank = rank_of(from_mod);
    if (from_rank >= 100) continue;  // tools/tests/bench see everything
    for (const auto& e : a.edges[i]) {
      const std::string to_mod = module_of(a.sources[e.target].path);
      if (to_mod == from_mod) continue;
      if (rank_of(to_mod) < from_rank) continue;
      a.add(a.sources[i].path, e.line, "layering",
            "include of \"" + a.sources[e.target].path + "\" points up the "
            "module DAG: '" + from_mod + "' (rank " +
            std::to_string(from_rank) + ") must not depend on '" + to_mod +
            "' (rank " + std::to_string(rank_of(to_mod)) +
            "); see docs/STATIC_ANALYSIS.md for the layer order");
    }
  }
}

void check_include_cycles(Analysis& a) {
  // Iterative DFS, colors: 0 unvisited, 1 on stack, 2 done.
  std::vector<int> color(a.sources.size(), 0);
  std::vector<std::size_t> parent(a.sources.size(), SIZE_MAX);
  for (std::size_t root = 0; root < a.sources.size(); ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    color[root] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next >= a.edges[node].size()) {
        color[node] = 2;
        stack.pop_back();
        continue;
      }
      const ResolvedInclude& e = a.edges[node][next++];
      if (color[e.target] == 1) {
        std::string cycle = a.sources[e.target].path;
        for (std::size_t k = stack.size(); k-- > 0;) {
          cycle += " -> " + a.sources[stack[k].first].path;
          if (stack[k].first == e.target) break;
        }
        a.add(a.sources[node].path, e.line, "include-cycle",
              "include cycle: " + cycle);
      } else if (color[e.target] == 0) {
        color[e.target] = 1;
        stack.push_back({e.target, 0});
      }
    }
  }
}

void check_layer_tags(Analysis& a) {
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const std::string& path = a.sources[i].path;
    if (!is_header(path) || path.rfind("src/", 0) != 0) continue;
    const std::string mod = module_of(path);
    if (mod == "src-root") continue;  // the umbrella spans every layer
    bool tagged = false;
    const auto& toks = a.lexed[i].tokens;
    for (std::size_t t = 0; t + 2 < toks.size(); ++t) {
      if (toks[t].kind != 'i' || toks[t].text != "REDIST_LAYER") continue;
      if (!tok_is(toks, t + 1, "(") || toks[t + 2].kind != 's') continue;
      tagged = true;
      if (toks[t + 2].text != mod) {
        a.add(path, toks[t].line, "layer-tag",
              "REDIST_LAYER(\"" + toks[t + 2].text + "\") disagrees with "
              "this header's directory; expected REDIST_LAYER(\"" + mod +
              "\")");
      }
      break;
    }
    if (!tagged) {
      a.add(path, 1, "layer-tag",
            "header under src/" + mod + "/ is missing its REDIST_LAYER(\"" +
            mod + "\"); tag (declare it once, after the includes)");
    }
  }
}

void check_deprecated_api(Analysis& a) {
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const auto& toks = a.lexed[i].tokens;
    for (std::size_t t = 0; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != 'i' || toks[t].text != "solve_kpbs") continue;
      if (!tok_is(toks, t + 1, "(")) continue;
      const std::size_t close = match_paren(toks, t + 1);
      int commas = 0, brace = 0, paren = 0;
      for (std::size_t j = t + 2; j < close; ++j) {
        if (toks[j].kind != 'p') continue;
        if (toks[j].text == "{" || toks[j].text == "[") ++brace;
        if (toks[j].text == "}" || toks[j].text == "]") --brace;
        if (toks[j].text == "(") ++paren;
        if (toks[j].text == ")") --paren;
        if (toks[j].text == "," && brace == 0 && paren == 0) ++commas;
      }
      if (commas > 1) {
        a.add(a.sources[i].path, toks[t].line, "deprecated-api",
              "positional solve_kpbs(graph, k, beta, ...) was removed in "
              "favor of solve_kpbs(graph, SolverOptions{...}); the old "
              "overload must not be reintroduced");
      }
    }
  }
}

void check_lock_transitions(Analysis& a) {
  static const std::unordered_set<std::string> kTransitions = {
      "lock", "unlock", "try_lock"};
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const std::string& path = a.sources[i].path;
    if (path.rfind("src/net/", 0) != 0 && path.rfind("src/robust/", 0) != 0)
      continue;
    const auto& toks = a.lexed[i].tokens;
    for (std::size_t t = 1; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != 'i' || !kTransitions.count(toks[t].text)) continue;
      if (!tok_is(toks, t + 1, "(")) continue;
      const bool via_dot = tok_is(toks, t - 1, ".");
      const bool via_arrow =
          t >= 2 && tok_is(toks, t - 1, ">") && tok_is(toks, t - 2, "-");
      if (!via_dot && !via_arrow) continue;
      a.add(path, toks[t].line, "lock-transition",
            "manual ." + toks[t].text + "() in " + module_of(path) +
            " code: exceptions between transitions leak the mutex; hold "
            "locks through a MutexLock scope instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency-hazard rules: lock-rank, noblock, noalloc
// ---------------------------------------------------------------------------

/// A `Mutex <name> [REDIST_ACQUIRED_BEFORE(...)] [REDIST_LOCK_RANK(n)];`
/// member declaration. Lock member names are unique repo-wide by
/// convention, which is what lets the token-level pass resolve a name to
/// its rank without type information.
struct LockDecl {
  std::string name;
  int rank = 0;
  bool ranked = false;
  std::vector<std::string> before;  // REDIST_ACQUIRED_BEFORE targets
  std::string file;
  int line = 0;
};

void index_lock_decls(const std::string& path, const std::vector<Token>& toks,
                      std::vector<LockDecl>& out) {
  // Only library code declares ranked locks; sync.hpp is the wrapper's own
  // definition site (macros, the Mutex class, doc examples).
  if (path.rfind("src/", 0) != 0 || path == "src/common/sync.hpp") return;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != 'i' || toks[i].text != "Mutex") continue;
    if (toks[i + 1].kind != 'i') continue;  // `Mutex&`, `Mutex(`, `class ... {`
    if (i > 0 && toks[i - 1].kind == 'i' &&
        (toks[i - 1].text == "class" || toks[i - 1].text == "struct" ||
         toks[i - 1].text == "friend")) {
      continue;
    }
    LockDecl d;
    d.name = toks[i + 1].text;
    d.file = path;
    d.line = toks[i].line;
    std::size_t j = i + 2;
    bool terminated = false;
    while (j < toks.size()) {
      if (tok_is(toks, j, ";")) {
        terminated = true;
        break;
      }
      if (toks[j].kind == 'i' && toks[j].text == "REDIST_LOCK_RANK" &&
          tok_is(toks, j + 1, "(")) {
        const std::size_t close = match_paren(toks, j + 1);
        for (std::size_t k = j + 2; k < close; ++k) {
          if (toks[k].kind == 'n') {
            d.rank = std::atoi(toks[k].text.c_str());
            d.ranked = true;
          }
        }
        j = close + 1;
        continue;
      }
      if (toks[j].kind == 'i' && toks[j].text == "REDIST_ACQUIRED_BEFORE" &&
          tok_is(toks, j + 1, "(")) {
        const std::size_t close = match_paren(toks, j + 1);
        for (std::size_t k = j + 2; k < close; ++k) {
          if (toks[k].kind == 'i') d.before.push_back(toks[k].text);
        }
        j = close + 1;
        continue;
      }
      break;  // some other construct (`Mutex m = ...`): not a plain decl
    }
    if (terminated) out.push_back(d);
  }
}

/// Calls that park the thread: sleeps, socket waits, pool enqueue. Condvar
/// waits are handled separately (waiting on the one held mutex is the
/// designed idiom; anything else blocks).
const std::unordered_set<std::string>& blocking_idents() {
  static const std::unordered_set<std::string> k = {
      "sleep_for", "sleep_until", "usleep",   "nanosleep",
      "sleep",     "poll",        "select",   "accept",
      "send_all",  "recv_all",    "connect_loopback", "submit"};
  return k;
}

bool is_condvar_wait(const std::vector<Token>& toks, std::size_t i) {
  return toks[i].kind == 'i' &&
         (toks[i].text == "wait" || toks[i].text == "wait_for" ||
          toks[i].text == "wait_until") &&
         tok_is(toks, i + 1, "(") && i > 0 && tok_is(toks, i - 1, ".");
}

/// Allocation sinks for REDIST_NOALLOC: direct allocator calls plus the
/// container-growth member verbs.
const std::unordered_set<std::string>& alloc_idents() {
  static const std::unordered_set<std::string> k = {
      "malloc",   "calloc",       "realloc",     "strdup",  "aligned_alloc",
      "push_back", "emplace_back", "emplace",    "insert",  "resize",
      "reserve",  "append",       "make_unique", "make_shared", "to_string"};
  return k;
}

struct BodySink {
  std::string ident;
  int line = 0;
};

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

std::vector<BodySink> body_blocking_sinks(const std::vector<Token>& toks,
                                          std::size_t begin, std::size_t end) {
  std::vector<BodySink> out;
  for (std::size_t i = begin; i < end && i + 1 < toks.size(); ++i) {
    if (toks[i].kind != 'i') continue;
    if (blocking_idents().count(toks[i].text) && tok_is(toks, i + 1, "(")) {
      out.push_back({toks[i].text, toks[i].line});
    } else if (is_condvar_wait(toks, i)) {
      out.push_back({toks[i].text, toks[i].line});
    }
  }
  return out;
}

std::vector<BodySink> body_alloc_sinks(const std::vector<Token>& toks,
                                       std::size_t begin, std::size_t end) {
  std::vector<BodySink> out;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind != 'i') continue;
    if (toks[i].text == "new") {
      out.push_back({"new", toks[i].line});
    } else if (alloc_idents().count(toks[i].text) && tok_is(toks, i + 1, "(")) {
      out.push_back({toks[i].text, toks[i].line});
    }
  }
  return out;
}

/// What one function body does with locks, from a single token walk:
/// MutexLock scopes (tracking the checked mid-scope unlock()/lock()
/// transitions), direct blocking sinks and condvar waits under a held
/// lock, nested acquisitions, and every call made while holding a lock.
struct LockScopeScan {
  std::vector<std::string> acquired;  // every lock MutexLock'd in the body
  struct Edge {
    std::string from, to;
    int line = 0;
  };
  std::vector<Edge> nested;  // direct acquire-while-holding pairs
  struct Call {
    std::vector<std::string> held;
    std::string callee;
    int line = 0;
  };
  std::vector<Call> calls;
  struct BlockedSink {
    std::string ident;
    std::string detail;
    std::string held;
    int line = 0;
  };
  std::vector<BlockedSink> sinks;  // blocking calls under a held lock
};

LockScopeScan scan_lock_scopes(const std::vector<Token>& toks,
                               std::size_t begin, std::size_t end) {
  LockScopeScan out;
  struct Held {
    std::string lock;
    std::string var;
    int depth;
    bool active;
  };
  std::vector<Held> held;
  auto active_names = [&held]() {
    std::vector<std::string> names;
    for (const Held& h : held)
      if (h.active) names.push_back(h.lock);
    return names;
  };
  int depth = 1;  // begin points just after the body '{'
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == 'p') {
      if (t.text == "{") ++depth;
      if (t.text == "}") {
        --depth;
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [&](const Held& h) {
                                    return h.depth > depth;
                                  }),
                   held.end());
        if (depth <= 0) break;
      }
      continue;
    }
    if (t.kind != 'i') continue;

    // `MutexLock var(expr);` — the acquisition marker. The lock name is
    // the last identifier inside the parens (`stripe.hist_mu`, `mutex_`).
    if (t.text == "MutexLock" && i + 2 < end && toks[i + 1].kind == 'i' &&
        tok_is(toks, i + 2, "(")) {
      const std::size_t close = match_paren(toks, i + 2);
      std::string lock_name;
      for (std::size_t k = i + 3; k < close; ++k) {
        if (toks[k].kind == 'i') lock_name = toks[k].text;
      }
      if (!lock_name.empty()) {
        for (const Held& h : held) {
          if (h.active) out.nested.push_back({h.lock, lock_name, t.line});
        }
        out.acquired.push_back(lock_name);
        held.push_back({lock_name, toks[i + 1].text, depth, true});
      }
      i = close;
      continue;
    }

    // `var.unlock()` / `var.lock()` — the checked mid-scope transitions.
    if ((t.text == "unlock" || t.text == "lock") && tok_is(toks, i + 1, "(") &&
        i >= 2 && tok_is(toks, i - 1, ".") && toks[i - 2].kind == 'i') {
      const std::string& var = toks[i - 2].text;
      bool matched = false;
      for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->var == var) {
          it->active = (t.text == "lock");
          matched = true;
          break;
        }
      }
      if (matched) {
        i = match_paren(toks, i + 1);
        continue;
      }
    }

    const auto names = active_names();

    // Condvar waits: waiting on exactly the held mutex is the designed
    // worker-loop idiom; waiting while holding anything else blocks that
    // other lock for the duration of the sleep.
    if (is_condvar_wait(toks, i)) {
      if (names.empty()) continue;
      const std::size_t close = match_paren(toks, i + 1);
      std::string waited;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (toks[k].kind == 'i') waited = toks[k].text;
      }
      bool own_only = !names.empty();
      for (const std::string& n : names) own_only = own_only && n == waited;
      if (!own_only) {
        out.sinks.push_back({t.text, "condvar wait under a different lock",
                             join_names(names), t.line});
      }
      i = close;
      continue;
    }

    if (names.empty()) continue;

    if (blocking_idents().count(t.text) && tok_is(toks, i + 1, "(")) {
      out.sinks.push_back(
          {t.text, "blocking call", join_names(names), t.line});
      continue;
    }
    if (tok_is(toks, i + 1, "(") && !stmt_keywords().count(t.text) &&
        t.text.rfind("REDIST_", 0) != 0) {
      out.calls.push_back({names, t.text, t.line});
    }
  }
  return out;
}

/// Shared interprocedural state for the lock-rank and noblock rules.
struct LockAnalysis {
  std::vector<LockDecl> decls;
  std::unordered_map<std::string, const LockDecl*> by_name;
  std::unordered_map<std::string, std::vector<const FunctionDef*>> defs;
  // Per function *name* (defs merged): scan results of every definition.
  std::unordered_map<std::string, std::vector<std::pair<const FunctionDef*,
                                                        LockScopeScan>>>
      scans;
  // Transitive closure: every lock a call to `name` may acquire.
  std::unordered_map<std::string, std::set<std::string>> acquires;
  std::unordered_set<std::string> allow_block;
  // Memo for blocks_through(): "" = proven non-blocking.
  std::unordered_map<std::string, std::string> blocks_memo;

  /// Returns a human-readable chain to a blocking sink reachable from
  /// `name`, or "" when none is. Functions marked REDIST_ALLOW_BLOCK are
  /// audited boundaries and not descended into.
  std::string blocks_through(const std::string& name,
                             std::unordered_set<std::string>& visiting) {
    auto memo = blocks_memo.find(name);
    if (memo != blocks_memo.end()) return memo->second;
    if (allow_block.count(name) || !visiting.insert(name).second) return "";
    std::string result;
    auto it = scans.find(name);
    if (it != scans.end()) {
      for (const auto& [f, scan] : it->second) {
        if (exempt_from_sinks(f->file)) continue;
        const auto direct =
            body_blocking_sinks_cached(f);
        if (!direct.empty()) {
          result = "blocking '" + direct.front().ident + "' (" + f->file +
                   ":" + std::to_string(direct.front().line) + ")";
          break;
        }
      }
      if (result.empty()) {
        for (const auto& [f, scan] : it->second) {
          if (exempt_from_sinks(f->file)) continue;
          for (const auto& callee : callees_cached(f)) {
            const std::string sub = blocks_through(callee, visiting);
            if (!sub.empty()) {
              result = "'" + callee + "' -> " + sub;
              break;
            }
          }
          if (!result.empty()) break;
        }
      }
    }
    visiting.erase(name);
    blocks_memo[name] = result;
    return result;
  }

  // Token re-scans are cheap but repeated; cache per definition.
  std::unordered_map<const FunctionDef*, std::vector<BodySink>> sink_cache;
  std::unordered_map<const FunctionDef*, std::unordered_set<std::string>>
      callee_cache;
  const Analysis* analysis = nullptr;

  const std::vector<BodySink>& body_blocking_sinks_cached(
      const FunctionDef* f) {
    auto it = sink_cache.find(f);
    if (it != sink_cache.end()) return it->second;
    const auto& toks = analysis->tokens_of(f->file);
    return sink_cache
        .emplace(f, body_blocking_sinks(toks, f->body_begin, f->body_end))
        .first->second;
  }

  const std::unordered_set<std::string>& callees_cached(
      const FunctionDef* f) {
    auto it = callee_cache.find(f);
    if (it != callee_cache.end()) return it->second;
    const auto& toks = analysis->tokens_of(f->file);
    return callee_cache
        .emplace(f, body_callees(toks, f->body_begin, f->body_end))
        .first->second;
  }
};

LockAnalysis build_lock_analysis(const Analysis& a) {
  LockAnalysis la;
  la.analysis = &a;
  for (std::size_t i = 0; i < a.sources.size(); ++i)
    index_lock_decls(a.sources[i].path, a.lexed[i].tokens, la.decls);
  for (const auto& d : la.decls) la.by_name.emplace(d.name, &d);
  // Call-graph resolution is by bare name, so scope it to src/: layering
  // forbids src -> tools calls, and letting a tools-only definition absorb
  // a name (ostream-style flush(), the CLI wrappers) would fabricate lock
  // edges no src/ call site can reach.
  for (const auto& f : a.functions) {
    if (f.file.rfind("src/", 0) == 0) la.defs[f.name].push_back(&f);
  }
  for (const auto& c : a.contracts)
    if (c.kind == "allow_block") la.allow_block.insert(c.function);

  for (const auto& [name, fns] : la.defs) {
    auto& per_name = la.scans[name];
    for (const FunctionDef* f : fns) {
      const auto& toks = a.tokens_of(f->file);
      per_name.emplace_back(f,
                            scan_lock_scopes(toks, f->body_begin, f->body_end));
    }
  }

  // acquires*: direct MutexLock names, closed over the call graph to a
  // fixpoint (the graph is name-merged and tiny, so iteration is fine).
  for (const auto& [name, scans] : la.scans) {
    auto& set = la.acquires[name];
    for (const auto& [f, scan] : scans)
      set.insert(scan.acquired.begin(), scan.acquired.end());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, scans] : la.scans) {
      auto& set = la.acquires[name];
      const std::size_t before = set.size();
      for (const auto& [f, scan] : scans) {
        for (const auto& callee : la.callees_cached(f)) {
          auto it = la.acquires.find(callee);
          if (it != la.acquires.end())
            set.insert(it->second.begin(), it->second.end());
        }
      }
      changed = changed || set.size() != before;
    }
  }
  return la;
}

void check_lock_rank(Analysis& a, LockAnalysis& la) {
  // 1. Every lock under src/ declares a rank; names resolve unambiguously.
  std::map<std::string, const LockDecl*> ranked;
  for (const auto& d : la.decls) {
    if (!d.ranked) {
      a.add(d.file, d.line, "lock-rank",
            "Mutex '" + d.name + "' has no REDIST_LOCK_RANK; every lock "
            "under src/ must declare its place in the acquisition order "
            "(docs/STATIC_ANALYSIS.md, layer 4)");
      continue;
    }
    auto [it, fresh] = ranked.emplace(d.name, &d);
    if (!fresh && it->second->rank != d.rank) {
      a.add(d.file, d.line, "lock-rank",
            "lock name '" + d.name + "' is declared with conflicting ranks " +
            std::to_string(it->second->rank) + " (" + it->second->file + ":" +
            std::to_string(it->second->line) + ") and " +
            std::to_string(d.rank) +
            "; lock member names must be unique repo-wide so the token-level "
            "pass can resolve them");
    }
  }
  auto rank_of_lock = [&ranked](const std::string& name) -> const LockDecl* {
    auto it = ranked.find(name);
    return it == ranked.end() ? nullptr : it->second;
  };

  struct RankEdge {
    std::string from, to;
    std::string file;
    int line = 0;
    std::string how;
  };
  std::vector<RankEdge> edges;

  // 2. Declared acquired-before edges.
  for (const auto& d : la.decls) {
    for (const auto& target : d.before) {
      if (!la.by_name.count(target)) {
        a.add(d.file, d.line, "lock-rank",
              "REDIST_ACQUIRED_BEFORE on '" + d.name + "' names unknown "
              "lock '" + target + "'");
        continue;
      }
      edges.push_back({d.name, target, d.file, d.line,
                       "declared by REDIST_ACQUIRED_BEFORE"});
    }
  }

  // 3. Derived edges: direct nesting, and calls made under a held lock
  // into functions whose transitive closure acquires more locks.
  for (const auto& [name, scans] : la.scans) {
    for (const auto& [f, scan] : scans) {
      if (f->file.rfind("src/", 0) != 0) continue;
      for (const auto& e : scan.nested) {
        if (e.from == e.to) {
          a.add(f->file, e.line, "lock-rank",
                "re-acquires '" + e.to + "' while already holding it in "
                "'" + name + "' (self-deadlock)");
          continue;
        }
        edges.push_back({e.from, e.to, f->file, e.line,
                         "acquired directly in '" + name + "'"});
      }
      for (const auto& call : scan.calls) {
        auto acq = la.acquires.find(call.callee);
        if (acq == la.acquires.end()) continue;
        for (const auto& inner : acq->second) {
          for (const auto& outer : call.held) {
            // Name-merged callees make self-edges through calls too noisy
            // to act on; direct self-nesting is caught above.
            if (inner == outer) continue;
            edges.push_back({outer, inner, f->file, call.line,
                             "via call to '" + call.callee + "' in '" + name +
                             "'"});
          }
        }
      }
    }
  }

  // 4. Rank monotonicity along every edge.
  std::set<std::tuple<std::string, std::string, std::string, int>> reported;
  for (const auto& e : edges) {
    const LockDecl* from = rank_of_lock(e.from);
    const LockDecl* to = rank_of_lock(e.to);
    if (from == nullptr || to == nullptr) continue;  // unranked: flagged above
    if (from->rank >= to->rank &&
        reported.insert({e.from, e.to, e.file, e.line}).second) {
      a.add(e.file, e.line, "lock-rank",
            "rank inversion: '" + e.to + "' (rank " +
            std::to_string(to->rank) + ") is acquired while '" + e.from +
            "' (rank " + std::to_string(from->rank) + ") is held — " +
            e.how + "; ranks must strictly increase along every "
            "acquisition chain");
    }
  }

  // 5. Cycle detection over the combined edge set (catches equal-rank and
  // declared-only cycles even where no single edge inverts).
  std::map<std::string, std::set<std::string>> adj;
  std::map<std::pair<std::string, std::string>, const RankEdge*> edge_at;
  for (const auto& e : edges) {
    if (e.from == e.to) continue;
    adj[e.from].insert(e.to);
    edge_at.emplace(std::make_pair(e.from, e.to), &e);
  }
  std::set<std::set<std::string>> seen_cycles;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    stack.push_back(node);
    on_stack.insert(node);
    for (const auto& next : adj[node]) {
      if (on_stack.count(next)) {
        auto it = std::find(stack.begin(), stack.end(), next);
        std::set<std::string> key(it, stack.end());
        if (seen_cycles.insert(key).second) {
          std::string path;
          for (auto p = it; p != stack.end(); ++p) path += *p + " -> ";
          path += next;
          const RankEdge* anchor = edge_at[{node, next}];
          a.add(anchor->file, anchor->line, "lock-rank",
                "lock acquisition cycle: " + path + "; the acquired-before "
                "graph must be a DAG");
        }
        continue;
      }
      dfs(next);
    }
    on_stack.erase(node);
    stack.pop_back();
  };
  std::set<std::string> roots;
  for (const auto& [from, tos] : adj) roots.insert(from);
  for (const auto& r : roots) {
    if (!on_stack.count(r)) dfs(r);
  }
}

void check_noblock(Analysis& a, LockAnalysis& la) {
  // Part 1: nothing blocking under a held lock, anywhere in src/.
  for (const auto& [name, scans] : la.scans) {
    if (la.allow_block.count(name)) continue;  // audited boundary
    for (const auto& [f, scan] : scans) {
      if (f->file.rfind("src/", 0) != 0 || exempt_from_sinks(f->file))
        continue;
      for (const auto& s : scan.sinks) {
        a.add(f->file, s.line, "noblock",
              s.detail + " '" + s.ident + "' in '" + name + "' while "
              "holding '" + s.held + "'; a parked thread holds the lock "
              "for its whole sleep — mark the function "
              "REDIST_ALLOW_BLOCK(reason) only if this is by design");
      }
      for (const auto& call : scan.calls) {
        std::unordered_set<std::string> visiting;
        const std::string chain = la.blocks_through(call.callee, visiting);
        if (chain.empty()) continue;
        a.add(f->file, call.line, "noblock",
              "call to '" + call.callee + "' in '" + name + "' while "
              "holding '" + join_names(call.held) + "' reaches " + chain +
              "; mark the boundary REDIST_ALLOW_BLOCK(reason) if this is "
              "by design");
      }
    }
  }

  // Part 2: nothing blocking reachable from a REDIST_NOBLOCK function.
  for (const auto& c : a.contracts) {
    if (c.kind != "noblock") continue;
    std::unordered_set<std::string> visited;
    std::deque<std::pair<std::string, std::string>> queue;
    queue.push_back({c.function, ""});
    visited.insert(c.function);
    while (!queue.empty()) {
      auto [name, via] = queue.front();
      queue.pop_front();
      if (la.allow_block.count(name)) continue;
      auto it = la.scans.find(name);
      if (it == la.scans.end()) continue;
      for (const auto& [f, scan] : it->second) {
        if (exempt_from_sinks(f->file)) continue;
        for (const BodySink& s : la.body_blocking_sinks_cached(f)) {
          const std::string where =
              via.empty() ? "'" + name + "'"
                          : "'" + name + "' (reached via " + via + ")";
          a.add(f->file, s.line, "noblock",
                "blocking '" + s.ident + "' in " + where +
                ", which is reachable from REDIST_NOBLOCK '" + c.function +
                "' (" + c.file + ":" + std::to_string(c.line) +
                "); hot seams must not sleep, wait, touch sockets, or "
                "enqueue pool work");
        }
        const std::string next_via =
            via.empty() ? "'" + name + "'" : via + " -> '" + name + "'";
        for (const auto& callee : la.callees_cached(f)) {
          if (visited.insert(callee).second && la.scans.count(callee))
            queue.push_back({callee, next_via});
        }
      }
    }
  }
}

void check_noalloc(Analysis& a) {
  std::unordered_set<std::string> exempt;
  for (const auto& c : a.contracts)
    if (c.kind == "allow_alloc") exempt.insert(c.function);

  std::unordered_map<std::string, std::vector<const FunctionDef*>> defs;
  for (const auto& f : a.functions) {
    // src/-scoped for the same name-merge reason as build_lock_analysis.
    if (f.file.rfind("src/", 0) == 0) defs[f.name].push_back(&f);
  }

  for (const auto& c : a.contracts) {
    if (c.kind != "noalloc") continue;
    std::unordered_set<std::string> visited;
    std::deque<std::pair<std::string, std::string>> queue;
    queue.push_back({c.function, ""});
    visited.insert(c.function);
    while (!queue.empty()) {
      auto [name, via] = queue.front();
      queue.pop_front();
      if (exempt.count(name)) continue;  // REDIST_ALLOW_ALLOC boundary
      auto it = defs.find(name);
      if (it == defs.end()) continue;
      for (const FunctionDef* f : it->second) {
        if (exempt_from_sinks(f->file)) continue;
        const auto& toks = a.tokens_of(f->file);
        const std::string where =
            via.empty() ? "'" + name + "'"
                        : "'" + name + "' (reached via " + via + ")";
        const std::string root = "REDIST_NOALLOC '" + c.function + "' (" +
                                 c.file + ":" + std::to_string(c.line) + ")";
        for (const BodySink& s :
             body_alloc_sinks(toks, f->body_begin, f->body_end)) {
          a.add(f->file, s.line, "noalloc",
                "allocation '" + s.ident + "' in " + where +
                ", which is reachable from " + root +
                "; hoist the allocation out of the hot loop or mark the "
                "helper REDIST_ALLOW_ALLOC with a reason");
        }
        // A call to itself by its bare name: the stack grows as deep as
        // the input, an allocation no sink above can see. `x.f(`, `p->f(`
        // and `ns::f(` name some other function.
        for (std::size_t i = f->body_begin;
             i < f->body_end && i + 1 < toks.size(); ++i) {
          if (toks[i].kind == 'i' && toks[i].text == name &&
              tok_is(toks, i + 1, "(") && !tok_is(toks, i - 1, ".") &&
              !(tok_is(toks, i - 1, ">") && tok_is(toks, i - 2, "-")) &&
              !tok_is(toks, i - 1, ":")) {
            a.add(f->file, toks[i].line, "noalloc",
                  "recursive call to '" + name + "' in " + where +
                      ", which is reachable from " + root +
                      "; its stack grows with the input — loop over a "
                      "preallocated stack instead");
            break;
          }
        }
        const std::string next_via =
            via.empty() ? "'" + name + "'" : via + " -> '" + name + "'";
        for (const auto& callee :
             body_callees(toks, f->body_begin, f->body_end)) {
          if (visited.insert(callee).second && defs.count(callee))
            queue.push_back({callee, next_via});
        }
      }
    }
  }
}

void check_reachability(Analysis& a, const std::string& rule) {
  const bool pure = (rule == "purity");
  const std::string want = pure ? "pure" : "deterministic";
  const std::string macro = pure ? "REDIST_PURE" : "REDIST_DETERMINISTIC";

  std::unordered_set<std::string> exempt;
  for (const auto& c : a.contracts)
    if (c.kind == "allow_nondet") exempt.insert(c.function);

  std::unordered_map<std::string, std::vector<const FunctionDef*>> defs;
  for (const auto& f : a.functions) defs[f.name].push_back(&f);

  for (const auto& c : a.contracts) {
    if (c.kind != want) continue;
    std::unordered_set<std::string> visited;
    std::deque<std::pair<std::string, std::string>> queue;  // name, via
    queue.push_back({c.function, ""});
    visited.insert(c.function);
    while (!queue.empty()) {
      auto [name, via] = queue.front();
      queue.pop_front();
      if (exempt.count(name)) continue;  // REDIST_ALLOW_NONDET boundary
      auto it = defs.find(name);
      if (it == defs.end()) continue;
      for (const FunctionDef* f : it->second) {
        if (exempt_from_sinks(f->file)) continue;
        const auto& toks = a.tokens_of(f->file);
        for (const Sink& s :
             body_sinks(toks, f->body_begin, f->body_end, pure)) {
          const std::string path =
              via.empty() ? "'" + name + "'"
                          : "'" + name + "' (reached via " + via + ")";
          a.add(f->file, s.line, rule,
                s.detail + " '" + s.ident + "' in " + path +
                ", which is reachable from " + macro + " '" + c.function +
                "' (" + c.file + ":" + std::to_string(c.line) +
                "); thread the seam through an injected dependency or mark "
                "the helper REDIST_ALLOW_NONDET with a reason");
        }
        const std::string next_via =
            via.empty() ? "'" + name + "'" : via + " -> '" + name + "'";
        for (const auto& callee :
             body_callees(toks, f->body_begin, f->body_end)) {
          if (visited.insert(callee).second && defs.count(callee))
            queue.push_back({callee, next_via});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lint layer: per-file token rules
// ---------------------------------------------------------------------------

/// A lint rule's path scope. Tests and examples may use clocks and ad-hoc
/// randomness; the RNG and Stopwatch implementations own their sinks.
bool lint_in_scope(const std::string& rule, const std::string& path) {
  const bool src = path.rfind("src/", 0) == 0;
  const bool tools = path.rfind("tools/", 0) == 0;
  const bool bench = path.rfind("bench/", 0) == 0;
  if (rule == "no-nondeterminism")
    return (src && path.rfind("src/common/rng.", 0) != 0) || tools || bench;
  if (rule == "telemetry-guard") return src || tools || bench;
  if (rule == "wallclock")
    return (src && path != "src/common/stopwatch.hpp") || tools;
  return src || tools;  // float-eq, mutex-guard
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void lint_nondeterminism(Analysis& a, const std::string& path,
                         const std::vector<Token>& toks) {
  for (const Token& t : toks) {
    if (t.kind != 'i' || !rng_idents().count(t.text)) continue;
    a.add(path, t.line, "no-nondeterminism",
          "nondeterminism source '" + t.text +
              "' in solver code; schedules must be replayable — draw from "
              "a seeded redist::Rng (common/rng.hpp) instead");
  }
}

void lint_wallclock(Analysis& a, const std::string& path,
                    const std::vector<Token>& toks) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != 'i' || !is_system_clock_read(toks, i)) continue;
    a.add(path, toks[i].line, "wallclock",
          "wall-clock read '" + toks[i].text +
              "' outside common/stopwatch.hpp; benchmarks and traces must "
              "share the Stopwatch steady timebase");
  }
}

bool is_float_literal(const Token& t) {
  if (t.kind != 'n') return false;
  if (t.text.size() > 1 && t.text[0] == '0' &&
      (t.text[1] == 'x' || t.text[1] == 'X')) {
    return false;  // hex
  }
  return t.text.find_first_of(".eE") != std::string::npos;
}

/// Identifier names that are doubles by repo convention (weights and
/// costs are integral; these are the floating spellings that show up at
/// the schedule-quality seams).
bool double_valued_name(const Token& t) {
  if (t.kind != 'i') return false;
  const std::string& n = t.text;
  return ends_with(n, "_bps") || ends_with(n, "_ms") ||
         ends_with(n, "_seconds") || ends_with(n, "_ratio") ||
         ends_with(n, "_double") || n == "ratio" || n == "seconds" ||
         n == "bps" || n == "elapsed";
}

void lint_float_eq(Analysis& a, const std::string& path,
                   const std::vector<Token>& toks) {
  // The lexer emits operators one character at a time: `==` is `=` `=`
  // and `!=` is `!` `=`.
  for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
    if (!(tok_is(toks, i, "=") || tok_is(toks, i, "!")) ||
        !tok_is(toks, i + 1, "=")) {
      continue;
    }
    const Token& lhs = toks[i - 1];
    const Token& rhs = toks[i + 2];
    if (lhs.kind == 'i' && lhs.text == "operator") continue;
    // Pointer null checks on double-valued names are not float compares.
    if (lhs.text == "nullptr" || rhs.text == "nullptr" ||
        lhs.text == "NULL" || rhs.text == "NULL") {
      continue;
    }
    const Token* culprit = nullptr;
    for (const Token* t : {&lhs, &rhs}) {
      if (!culprit && (is_float_literal(*t) || double_valued_name(*t)))
        culprit = t;
    }
    if (!culprit) continue;
    a.add(path, toks[i].line, "float-eq",
          "floating-point '" + toks[i].text + "=' against '" +
              culprit->text +
              "'; schedule costs/weights compare exactly only as integers "
              "— use a tolerance or integer units");
  }
}

void lint_telemetry_guard(Analysis& a, const std::string& path,
                          const std::vector<Token>& toks) {
  // obs : : (metrics|trace) ( ) - >
  for (std::size_t i = 3; i + 4 < toks.size(); ++i) {
    const std::string& sink = toks[i].text;
    if (toks[i].kind != 'i' || (sink != "metrics" && sink != "trace"))
      continue;
    if (toks[i - 3].kind != 'i' || toks[i - 3].text != "obs" ||
        !tok_is(toks, i - 2, ":") || !tok_is(toks, i - 1, ":") ||
        !tok_is(toks, i + 1, "(") || !tok_is(toks, i + 2, ")") ||
        !tok_is(toks, i + 3, "-") || !tok_is(toks, i + 4, ">")) {
      continue;
    }
    a.add(path, toks[i].line, "telemetry-guard",
          "obs::" + sink +
              "()-> dereferences the telemetry sink without a null guard; "
              "bind it to a pointer and branch (nullptr = telemetry off)");
  }
}

// mutex-guard: a structural pass over class bodies.

/// Declaration annotations whose argument list must not read as a
/// function's parameter list (`Mutex mu_ REDIST_LOCK_RANK(10);` is a
/// member, not a method).
bool is_guard_macro(const std::string& name) {
  return name.rfind("REDIST_", 0) == 0 &&
         (ends_with(name, "GUARDED_BY") || name == "REDIST_CAPABILITY" ||
          name == "REDIST_ACQUIRED_BEFORE" ||
          name == "REDIST_ACQUIRED_AFTER" || name == "REDIST_LOCK_RANK");
}

struct MemberDecl {
  std::vector<const Token*> tokens;  // annotation macros removed
  bool guarded = false;
  bool has_parens = false;  // top-level parens at angle depth 0: a function
};

bool is_raw_sync(const std::string& name) {
  static const std::unordered_set<std::string> kRawSync = {
      "mutex",         "shared_mutex",       "recursive_mutex",
      "timed_mutex",   "condition_variable", "condition_variable_any"};
  return kRawSync.count(name) != 0;
}

/// The names this file gives the raw std:: sync types, by `using X = T;`
/// or `typedef T X;` where T is `std::<raw type>` or an earlier such name.
/// Aliases declared in another file are not seen.
std::unordered_set<std::string> raw_sync_aliases(
    const std::vector<Token>& toks) {
  std::unordered_set<std::string> aliases;
  // Index just past a raw sync type starting at k, or 0 if none starts there.
  const auto raw_type_end = [&](std::size_t k) -> std::size_t {
    if (k < toks.size() && toks[k].kind == 'i' && aliases.count(toks[k].text))
      return k + 1;
    if (k + 3 < toks.size() && toks[k].text == "std" &&
        tok_is(toks, k + 1, ":") && tok_is(toks, k + 2, ":") &&
        is_raw_sync(toks[k + 3].text))
      return k + 4;
    return 0;
  };
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != 'i') continue;
    if (toks[i].text == "using" && toks[i + 1].kind == 'i' &&
        tok_is(toks, i + 2, "=")) {
      const std::size_t end = raw_type_end(i + 3);
      if (end != 0 && tok_is(toks, end, ";")) aliases.insert(toks[i + 1].text);
    } else if (toks[i].text == "typedef") {
      const std::size_t end = raw_type_end(i + 1);
      if (end != 0 && end < toks.size() && toks[end].kind == 'i' &&
          tok_is(toks, end + 1, ";"))
        aliases.insert(toks[end].text);
    }
  }
  return aliases;
}

std::size_t lint_class_body(Analysis& a, const std::string& path,
                            const std::vector<Token>& toks, std::size_t begin,
                            const std::string& class_name,
                            const std::unordered_set<std::string>& aliases);

/// If toks[i] opens a class/struct definition, checks its body and returns
/// the index just past it; otherwise returns i + 1.
std::size_t lint_maybe_class(Analysis& a, const std::string& path,
                             const std::vector<Token>& toks, std::size_t i,
                             const std::unordered_set<std::string>& aliases) {
  const Token& t = toks[i];
  if (t.kind != 'i' || (t.text != "class" && t.text != "struct")) return i + 1;
  // `template <class T>` parameters are not class definitions.
  if (tok_is(toks, i - 1, "<") || tok_is(toks, i - 1, ",")) return i + 1;
  // Find the body '{' (skipping attribute-macro parens); a ';' first means
  // a forward declaration.
  std::string name;
  int paren = 0;
  std::size_t j = i + 1;
  for (; j < toks.size(); ++j) {
    if (tok_is(toks, j, "(")) ++paren;
    if (tok_is(toks, j, ")")) --paren;
    if (paren != 0) continue;
    if (tok_is(toks, j, ";")) return j + 1;
    if (tok_is(toks, j, "{")) break;
    if (toks[j].kind == 'i' && name.empty() && !is_guard_macro(toks[j].text) &&
        toks[j].text != "final" && toks[j].text != "REDIST_SCOPED_CAPABILITY")
      name = toks[j].text;
  }
  if (j >= toks.size()) return i + 1;
  return lint_class_body(a, path, toks, j + 1, name.empty() ? "<anon>" : name,
                         aliases);
}

std::size_t lint_class_body(Analysis& a, const std::string& path,
                            const std::vector<Token>& toks, std::size_t begin,
                            const std::string& class_name,
                            const std::unordered_set<std::string>& aliases) {
  std::vector<MemberDecl> members;
  MemberDecl current;
  int angle = 0;
  auto flush = [&] {
    if (!current.tokens.empty()) members.push_back(std::move(current));
    current = MemberDecl{};
    angle = 0;
  };
  std::size_t i = begin;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (tok_is(toks, i, "}")) {
      flush();
      ++i;
      break;
    }
    if (t.kind == 'i' &&
        (t.text == "public" || t.text == "private" || t.text == "protected") &&
        tok_is(toks, i + 1, ":")) {
      flush();
      i += 2;
      continue;
    }
    // Nested class/struct definition: recurse, then skip its trailing ';'.
    if (t.kind == 'i' && (t.text == "class" || t.text == "struct") &&
        current.tokens.empty()) {
      i = lint_maybe_class(a, path, toks, i, aliases);
      if (tok_is(toks, i, ";")) ++i;
      continue;
    }
    if (t.kind == 'i' && is_guard_macro(t.text) && tok_is(toks, i + 1, "(")) {
      if (ends_with(t.text, "GUARDED_BY")) current.guarded = true;
      i = match_paren(toks, i + 1) + 1;
      continue;
    }
    if (tok_is(toks, i, "<")) ++angle;
    if (tok_is(toks, i, ">") && angle > 0) --angle;
    if (tok_is(toks, i, "(") && angle == 0) current.has_parens = true;
    // A function body is skipped wholesale; an initializer brace is
    // consumed into the declaration, whose ';' still follows.
    if (tok_is(toks, i, "{")) {
      i = match_brace(toks, i) + 1;
      if (current.has_parens) {
        if (tok_is(toks, i, ";")) ++i;
        current = MemberDecl{};
        angle = 0;
      }
      continue;
    }
    if (tok_is(toks, i, ";")) {
      flush();
      ++i;
      continue;
    }
    current.tokens.push_back(&t);
    ++i;
  }

  static const std::unordered_set<std::string> kSkippedHeads = {
      "using",    "typedef", "friend",   "static", "template",
      "operator", "enum",    "explicit", "virtual"};
  bool has_mutex_member = false;
  std::vector<const Token*> unguarded;
  for (const MemberDecl& m : members) {
    if (m.has_parens || kSkippedHeads.count(m.tokens.front()->text)) continue;
    bool exempt = m.guarded;  // const, atomic, reference or sync-typed
    bool sync_type = false;
    bool reference = false;
    bool raw_sync = false;
    const Token* name = nullptr;
    for (std::size_t k = 0; k < m.tokens.size(); ++k) {
      const Token& tk = *m.tokens[k];
      if (tk.kind == 'p' && tk.text == "=") break;  // default initializer
      if (tk.text == "const" || tk.text == "constexpr" || tk.text == "atomic")
        exempt = true;
      if (tk.kind == 'p' && tk.text == "&") reference = true;
      if (tk.text == "Mutex" || tk.text == "CondVar" || tk.text == "MutexLock")
        sync_type = true;
      if ((is_raw_sync(tk.text) && k > 0 && m.tokens[k - 1]->text == ":") ||
          (tk.kind == 'i' && aliases.count(tk.text)))
        raw_sync = true;
      if (tk.kind == 'i') name = &tk;
    }
    if (name == nullptr) continue;
    if (raw_sync) {
      a.add(path, name->line, "mutex-guard",
            "raw std:: synchronization member '" + name->text + "' in '" +
                class_name +
                "'; use redist::Mutex/CondVar (common/sync.hpp) so clang "
                "thread-safety analysis can track it");
    } else if (sync_type && !reference) {
      has_mutex_member = true;
    } else if (!exempt && !reference && !sync_type) {
      unguarded.push_back(name);
    }
  }
  if (has_mutex_member) {
    for (const Token* name : unguarded) {
      a.add(path, name->line, "mutex-guard",
            "member '" + name->text + "' of Mutex-holding class '" +
                class_name +
                "' has no REDIST_GUARDED_BY; annotate it, make it "
                "const/atomic, or add an allow with a reason");
    }
  }
  return i;
}

void lint_mutex_guard(Analysis& a, const std::string& path,
                      const std::vector<Token>& toks) {
  const std::unordered_set<std::string> aliases = raw_sync_aliases(toks);
  for (std::size_t i = 0; i < toks.size();)
    i = lint_maybe_class(a, path, toks, i, aliases);
}

/// Runs every enabled lint rule over each source inside its path scope.
void check_lint(Analysis& a) {
  using Rule = void (*)(Analysis&, const std::string&,
                        const std::vector<Token>&);
  static const std::vector<std::pair<std::string, Rule>> kRules = {
      {"no-nondeterminism", lint_nondeterminism},
      {"float-eq", lint_float_eq},
      {"telemetry-guard", lint_telemetry_guard},
      {"mutex-guard", lint_mutex_guard},
      {"wallclock", lint_wallclock}};
  for (std::size_t s = 0; s < a.sources.size(); ++s) {
    const std::string& path = a.sources[s].path;
    for (const auto& [rule, run] : kRules) {
      if (a.enabled(rule) && lint_in_scope(rule, path))
        run(a, path, a.lexed[s].tokens);
    }
  }
}

/// The sorted one-line-per-contract inventory `--write-baseline` persists.
std::string contract_inventory(const Analysis& a) {
  std::set<std::string> lines;
  for (const auto& c : a.contracts) lines.insert(c.kind + " " + c.function);
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

std::set<std::string> line_set(const std::string& text) {
  std::set<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.pop_back();
    if (!line.empty() && line[0] != '#') out.insert(line);
  }
  return out;
}

void check_contract_drift(Analysis& a, const std::string& inventory) {
  if (a.options.baseline.empty()) {
    if (a.options.require_baseline) {
      a.add(a.options.baseline_path, 1, "contract-drift",
            "no contract baseline found; run redist_analyze "
            "--write-baseline to record the current annotation set");
    }
    return;
  }
  const auto current = line_set(inventory);
  const auto baseline = line_set(a.options.baseline);

  // Anchor additions at the declaration that introduced them.
  std::map<std::string, const Contract*> first_decl;
  for (const auto& c : a.contracts)
    first_decl.emplace(c.kind + " " + c.function, &c);

  for (const auto& entry : baseline) {
    if (!current.count(entry)) {
      a.add(a.options.baseline_path, 1, "contract-drift",
            "contract '" + entry + "' is recorded in the baseline but no "
            "longer declared in the sources; removing an API guarantee "
            "needs the baseline regenerated (--write-baseline) and a "
            "reviewer's eyes on this diff");
    }
  }
  for (const auto& entry : current) {
    if (!baseline.count(entry)) {
      auto it = first_decl.find(entry);
      const std::string file = it != first_decl.end() ? it->second->file
                                                      : a.options.baseline_path;
      const int line = it != first_decl.end() ? it->second->line : 1;
      a.add(file, line, "contract-drift",
            "contract '" + entry + "' is declared but not recorded in " +
            a.options.baseline_path + "; run redist_analyze "
            "--write-baseline after reviewing the new guarantee");
    }
  }
}

/// Module-level include graph in DOT.
std::string build_dot(const Analysis& a) {
  std::set<std::pair<std::string, std::string>> mod_edges;
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const std::string from = module_of(a.sources[i].path);
    if (rank_of(from) >= 100) continue;
    for (const auto& e : a.edges[i]) {
      const std::string to = module_of(a.sources[e.target].path);
      if (to == from || rank_of(to) >= 100) continue;
      mod_edges.emplace(from, to);
    }
  }
  std::string dot =
      "// Module-level include graph, emitted by redist_analyze --dot.\n"
      "digraph redist_modules {\n  rankdir=BT;\n  node [shape=box];\n";
  for (const auto& [from, to] : mod_edges) {
    dot += "  \"" + from + "\" -> \"" + to + "\";\n";
  }
  dot += "}\n";
  return dot;
}

void apply_suppressions(Analysis& a) {
  std::set<std::tuple<std::string, int, std::string>> allowed;
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    for (const auto& d : a.lexed[i].allows) {
      for (int line = d.first_line; line <= d.last_line; ++line)
        allowed.emplace(a.sources[i].path, line, d.rule);
    }
  }
  a.findings.erase(
      std::remove_if(a.findings.begin(), a.findings.end(),
                     [&](const Finding& f) {
                       return allowed.count({f.file, f.line, f.rule}) != 0;
                     }),
      a.findings.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      "determinism",    "purity",          "layering",
      "include-cycle",  "layer-tag",       "contract-drift",
      "deprecated-api", "lock-transition", "lock-rank",
      "noblock",        "noalloc",         "no-nondeterminism",
      "float-eq",       "telemetry-guard", "mutex-guard",
      "wallclock"};
  return ids;
}

std::string rule_description(const std::string& id) {
  static const std::map<std::string, std::string> descriptions = {
      {"determinism",
       "nothing reachable from a REDIST_DETERMINISTIC function may touch "
       "RNG, wall clocks, thread identity, unordered-container iteration "
       "order, or float comparators in unstable sorts"},
      {"purity",
       "REDIST_PURE extends the determinism sink set with I/O and "
       "environment access"},
      {"layering",
       "includes must point down the module DAG (common -> graph/obs -> "
       "matching/workload/robust -> kpbs -> runtime/netsim/baselines -> "
       "net -> mpilite/service)"},
      {"include-cycle", "the file-level include graph must be acyclic"},
      {"layer-tag",
       "every header under src/<module>/ declares REDIST_LAYER(\"<module>\")"},
      {"contract-drift",
       "the live annotation set must match tools/analyze/"
       "contracts_baseline.txt; regenerate with --write-baseline"},
      {"deprecated-api",
       "the removed positional solve_kpbs(graph, k, beta, ...) overload "
       "must not come back; use solve_kpbs(graph, SolverOptions{...})"},
      {"lock-transition",
       "no manual .lock()/.unlock()/.try_lock() in src/net or src/robust; "
       "use MutexLock RAII scopes"},
      {"lock-rank",
       "every Mutex under src/ declares REDIST_LOCK_RANK(n); ranks must "
       "strictly increase along every acquisition chain (declared "
       "REDIST_ACQUIRED_BEFORE edges plus edges derived from the call "
       "graph), and the combined graph must be acyclic"},
      {"noblock",
       "no sleep, socket I/O, foreign condvar wait, or pool enqueue while "
       "a lock is held or reachable from a REDIST_NOBLOCK function; "
       "REDIST_ALLOW_BLOCK(reason) marks an audited boundary"},
      {"noalloc",
       "no new/malloc/container growth reachable from a REDIST_NOALLOC "
       "function; REDIST_ALLOW_ALLOC(reason) marks an audited boundary"},
      {"no-nondeterminism",
       "no rand()/std::random_device/std::mt19937/... in src/, tools/ or "
       "bench/ (src/common/rng.* excepted); use the seeded redist::Rng"},
      {"float-eq",
       "no ==/!= against float literals or double-valued cost names in "
       "src/ or tools/; schedule costs compare exactly only as integers"},
      {"telemetry-guard",
       "never dereference obs::metrics()/obs::trace() inline in src/, "
       "tools/ or bench/; bind to a pointer and null-check"},
      {"mutex-guard",
       "no raw std::mutex members in src/ or tools/ (use redist::Mutex), and "
       "every mutable member of a Mutex-holding class needs "
       "REDIST_GUARDED_BY"},
      {"wallclock",
       "no calendar-clock reads (system_clock/time()/localtime_r/...) in "
       "src/ or tools/ outside common/stopwatch.hpp; use redist::Stopwatch"}};
  auto it = descriptions.find(id);
  return it == descriptions.end() ? std::string() : it->second;
}

AnalysisResult run_analysis(const std::vector<SourceFile>& sources,
                            const Options& options) {
  for (const auto& rule : options.rules) {
    if (std::find(rule_ids().begin(), rule_ids().end(), rule) ==
        rule_ids().end()) {
      throw std::runtime_error("unknown rule: " + rule);
    }
  }

  Analysis a(sources, options);
  build_index(a);

  if (a.enabled("layering")) check_layering(a);
  if (a.enabled("include-cycle")) check_include_cycles(a);
  if (a.enabled("layer-tag")) check_layer_tags(a);
  if (a.enabled("deprecated-api")) check_deprecated_api(a);
  if (a.enabled("lock-transition")) check_lock_transitions(a);
  if (a.enabled("determinism")) check_reachability(a, "determinism");
  if (a.enabled("purity")) check_reachability(a, "purity");
  if (a.enabled("lock-rank") || a.enabled("noblock")) {
    LockAnalysis la = build_lock_analysis(a);
    if (a.enabled("lock-rank")) check_lock_rank(a, la);
    if (a.enabled("noblock")) check_noblock(a, la);
  }
  if (a.enabled("noalloc")) check_noalloc(a);
  check_lint(a);

  AnalysisResult result;
  result.contracts = contract_inventory(a);
  if (a.enabled("contract-drift")) check_contract_drift(a, result.contracts);

  apply_suppressions(a);

  std::sort(a.findings.begin(), a.findings.end(),
            [](const Finding& x, const Finding& y) {
              return std::tie(x.file, x.line, x.rule, x.message) <
                     std::tie(y.file, y.line, y.rule, y.message);
            });
  a.findings.erase(
      std::unique(a.findings.begin(), a.findings.end(),
                  [](const Finding& x, const Finding& y) {
                    return std::tie(x.file, x.line, x.rule, x.message) ==
                           std::tie(y.file, y.line, y.rule, y.message);
                  }),
      a.findings.end());
  result.findings = std::move(a.findings);
  result.include_dot = build_dot(a);
  return result;
}

std::vector<std::string> default_include_roots() {
  return {"src", "", "tools"};
}

CompileDatabase read_compile_commands(const std::string& json_path,
                                      const std::string& root) {
  std::ifstream in(json_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read compile_commands: " + json_path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // The database holds absolute paths, so a relative root ("." in the
  // documented invocation) must be made absolute before prefix matching.
  const std::string abs_root =
      root.empty() ? root
                   : std::filesystem::absolute(root).lexically_normal()
                         .generic_string();
  const std::string prefix = abs_root.empty() || abs_root.back() == '/'
                                 ? abs_root
                                 : abs_root + "/";
  // Repo-relative form of a database path; "/" marks one outside root.
  auto relative = [&](const std::string& path) {
    if (path + "/" == prefix) return std::string();  // the root itself
    const std::string rel =
        path.rfind(prefix, 0) == 0 ? path.substr(prefix.size()) : path;
    return !rel.empty() && rel[0] == '/' ? std::string("/") : normalize(rel);
  };
  // Every string value of `key`, unescaped.
  auto values_of = [&](const std::string& key) {
    std::vector<std::string> values;
    const std::string quoted = "\"" + key + "\"";
    std::size_t at = 0;
    while ((at = json.find(quoted, at)) != std::string::npos) {
      at += quoted.size();
      const std::size_t colon = json.find(':', at);
      if (colon == std::string::npos) break;
      const std::size_t open = json.find('"', colon);
      if (open == std::string::npos) break;
      std::string value;
      std::size_t j = open + 1;
      while (j < json.size() && json[j] != '"') {
        if (json[j] == '\\' && j + 1 < json.size()) ++j;
        value.push_back(json[j++]);
      }
      at = j;
      values.push_back(std::move(value));
    }
    return values;
  };

  std::set<std::string> tus;
  for (const std::string& file : values_of("file")) {
    const std::string rel = relative(file);
    if (!rel.empty() && rel[0] != '/') tus.insert(rel);
  }
  CompileDatabase db{{tus.begin(), tus.end()}, {}};
  for (const std::string& command : values_of("command")) {
    std::istringstream words(command);
    std::string word;
    while (words >> word) {
      if (word.rfind("-I", 0) != 0) continue;
      std::string dir = word.substr(2);
      if (dir.empty() && !(words >> dir)) break;
      const std::string rel = relative(dir);
      if (!rel.empty() && rel[0] == '/') continue;  // outside the repo
      if (std::find(db.include_roots.begin(), db.include_roots.end(), rel) ==
          db.include_roots.end()) {
        db.include_roots.push_back(rel);
      }
    }
  }
  return db;
}

std::vector<SourceFile> load_closure(
    const std::string& root, const std::vector<std::string>& tus,
    const std::vector<std::string>& include_roots) {
  const std::string prefix = root.empty() || root.back() == '/'
                                 ? root
                                 : root + "/";
  auto slurp = [&](const std::string& rel, std::string* out) {
    std::ifstream in(prefix + rel, std::ios::binary);
    if (!in) return false;
    std::stringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
  };

  std::vector<SourceFile> sources;
  std::unordered_set<std::string> seen;
  std::deque<std::string> queue(tus.begin(), tus.end());
  while (!queue.empty()) {
    const std::string path = queue.front();
    queue.pop_front();
    if (!seen.insert(path).second) continue;
    std::string content;
    if (!slurp(path, &content)) continue;
    const Lexed lexed = lex(content);
    for (const auto& inc : lexed.includes) {
      for (const auto& cand :
           include_candidates(path, inc.target, include_roots)) {
        std::ifstream probe(prefix + cand);
        if (probe) {
          queue.push_back(cand);
          break;
        }
      }
    }
    sources.push_back({path, std::move(content)});
  }
  std::sort(sources.begin(), sources.end(),
            [](const SourceFile& x, const SourceFile& y) {
              return x.path < y.path;
            });
  return sources;
}

std::string format_report(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

}  // namespace redist::analyze
