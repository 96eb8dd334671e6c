// Include-root fixture: a contract in a header that only the compile
// database's extra -I root (bench/studies) reaches; neither the includer's
// directory nor src/ or tools/ holds it. Never compiled — analyzed only.
#pragma once

#include "common/contract_annotations.hpp"

namespace redist {

// The template return type is part of the fixture: the call index once
// skipped any definition whose name followed a `>`.
REDIST_DETERMINISTIC
inline std::vector<int> study_colorer(int n) { return {n + rand()}; }

}  // namespace redist
