// Include-root fixture: the translation unit that reaches colorer.hpp
// through the -I root. Never compiled — analyzed only.
#include "matching/colorer.hpp"

int main() { return redist::study_colorer(1).front(); }
