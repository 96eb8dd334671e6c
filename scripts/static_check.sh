#!/usr/bin/env bash
# Single entry point for every static gate (docs/STATIC_ANALYSIS.md).
#
#   scripts/static_check.sh               # run all stages, skip missing tools
#   scripts/static_check.sh analyze tidy  # run named stages, fail if missing
#
# Stages:
#   analyze        build + run tools/redist_analyze over every TU in the
#                  build's compile_commands.json, against the contract
#                  baseline (determinism/purity reachability, layering
#                  DAG, contract drift, lock order, and the per-file lint
#                  rules over src/ tools/ bench/)
#   thread-safety  clang -fsyntax-only -Werror=thread-safety over every
#                  src/ directory holding a REDIST_GUARDED_BY member
#                  (found by grep, so a newly annotated module is covered)
#   tidy           run-clang-tidy over src/ tools/ bench/ tests/
#   cppcheck       cppcheck smoke (warning,performance,portability)
#   scan-build     clang static analyzer smoke over src/kpbs + src/matching
#   format         tools/check_format.sh (check-only clang-format)
#
# With no arguments the script is a best-effort local pre-push hook: a
# stage whose tool is not installed is reported and skipped. CI names each
# stage explicitly, which turns a missing tool into a hard failure.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${ROOT}/build}"
ALL_STAGES=(analyze thread-safety tidy cppcheck scan-build format)
STRICT=1
FAILED=0

if [[ $# -eq 0 ]]; then
  STRICT=0
  set -- "${ALL_STAGES[@]}"
fi

note() { printf '== static_check: %s\n' "$*"; }

missing_tool() {
  if [[ ${STRICT} -eq 1 ]]; then
    note "FAIL: required tool '$1' not found"
    exit 1
  fi
  note "skip: '$1' not installed"
}

ensure_build() {
  if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
    cmake -S "${ROOT}" -B "${BUILD_DIR}" >/dev/null
  fi
}

# The analyze and tidy stages are driven by compile_commands.json; running
# them against a missing or stale database silently analyzes the wrong tree
# (TUs added since the last configure are invisible). Fail loudly instead.
ensure_compile_commands() {
  local db="${BUILD_DIR}/compile_commands.json"
  if [[ ! -f "${db}" ]]; then
    note "FAIL: ${db} not found — configure first:"
    note "  cmake -S ${ROOT} -B ${BUILD_DIR}"
    note "(CMAKE_EXPORT_COMPILE_COMMANDS is on by default in this tree)"
    exit 1
  fi
  local stale
  # .bench_build is bench/e2e's own CMake package, outside this database.
  stale="$(find "${ROOT}" -path "${ROOT}/.bench_build" -prune -o \
                -name CMakeCache.txt -prune -o \
                \( -name 'CMakeLists.txt' -o -name '*.cmake' \) \
                -newer "${db}" -print -quit 2>/dev/null)"
  if [[ -n "${stale}" ]]; then
    note "FAIL: ${db} is older than ${stale#"${ROOT}"/}"
    note "  the compile database no longer reflects the build; re-run:"
    note "  cmake -S ${ROOT} -B ${BUILD_DIR}"
    exit 1
  fi
}

stage_analyze() {
  command -v cmake >/dev/null || { missing_tool cmake; return; }
  ensure_build
  ensure_compile_commands
  cmake --build "${BUILD_DIR}" --target redist_analyze -j >/dev/null
  "${BUILD_DIR}/tools/redist_analyze" \
    --root="${ROOT}" \
    --compile-commands="${BUILD_DIR}/compile_commands.json" \
    --baseline="${ROOT}/tools/analyze/contracts_baseline.txt" \
    --dot="${BUILD_DIR}/include_graph.dot"
  note "ok: redist_analyze clean (module graph: ${BUILD_DIR}/include_graph.dot)"
}

stage_thread_safety() {
  command -v clang++ >/dev/null || { missing_tool clang++; return; }
  # Every file of a directory that declares guarded state: its sources
  # touch that state and its headers may be header-only code. Lines that
  # start with '#' or a comment (the macro's definition, its docs) do not
  # count as annotations.
  local dirs d f
  mapfile -t dirs < <(grep -rlE '^[^#/]*REDIST_(PT_)?GUARDED_BY\(' \
                        --include='*.cpp' --include='*.hpp' "${ROOT}/src" |
                      xargs -n1 dirname | sort -u)
  [[ ${#dirs[@]} -gt 0 ]] || { note "FAIL: no annotated sources found"; exit 1; }
  for d in "${dirs[@]}"; do
    for f in "${d}"/*.{cpp,hpp}; do
      [[ -e "${f}" ]] || continue
      clang++ -std=c++20 -x c++ -fsyntax-only -I "${ROOT}/src" \
        -Wthread-safety -Werror=thread-safety "${f}"
    done
  done
  note "ok: thread-safety analysis clean over ${dirs[*]#"${ROOT}"/}"
}

stage_tidy() {
  command -v run-clang-tidy >/dev/null || { missing_tool run-clang-tidy; return; }
  ensure_build
  ensure_compile_commands
  run-clang-tidy -p "${BUILD_DIR}" -quiet \
    "${ROOT}/(src|tools|bench|tests)/.*\.cpp\$"
  note "ok: clang-tidy clean"
}

stage_cppcheck() {
  command -v cppcheck >/dev/null || { missing_tool cppcheck; return; }
  cppcheck --enable=warning,performance,portability --error-exitcode=1 \
    --std=c++20 --inline-suppr --quiet \
    --suppress=internalAstError --suppress=uninitMemberVar \
    -I "${ROOT}/src" "${ROOT}/src" "${ROOT}/tools"
  note "ok: cppcheck clean"
}

stage_scan_build() {
  command -v scan-build >/dev/null || { missing_tool scan-build; return; }
  # A throwaway build dir: scan-build wraps the compiler, so reusing the
  # primary cache would poison its compiler detection.
  local scan_dir="${BUILD_DIR}-scan"
  scan-build --status-bugs cmake -S "${ROOT}" -B "${scan_dir}" \
    -DCMAKE_BUILD_TYPE=Debug >/dev/null
  scan-build --status-bugs cmake --build "${scan_dir}" -j \
    --target redist_kpbs redist_matching
  note "ok: scan-build clean over src/kpbs + src/matching"
}

stage_format() {
  command -v clang-format >/dev/null || { missing_tool clang-format; return; }
  "${ROOT}/tools/check_format.sh"
  note "ok: clang-format clean"
}

for stage in "$@"; do
  case "${stage}" in
    analyze) stage_analyze ;;
    thread-safety) stage_thread_safety ;;
    tidy) stage_tidy ;;
    cppcheck) stage_cppcheck ;;
    scan-build) stage_scan_build ;;
    format) stage_format ;;
    *)
      note "unknown stage '${stage}' (stages: ${ALL_STAGES[*]})"
      exit 2
      ;;
  esac || FAILED=1
done

exit "${FAILED}"
