// Layering-rule fixture: the include target. Never compiled — analyzed only.
#pragma once

#include "common/contract_annotations.hpp"

REDIST_LAYER("net");

namespace redist {
struct FixtureSocket {};
}  // namespace redist
