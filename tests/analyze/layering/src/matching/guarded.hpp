// MUST FIRE: the same upward edge behind a preprocessor conditional is
// still an upward edge; no include is exempt from layering.
#pragma once

#include "common/contract_annotations.hpp"

#ifdef REDIST_FIXTURE_OPTION
#include "kpbs/sched.hpp"
#endif

REDIST_LAYER("matching");

namespace redist {
struct FixtureGuarded {};
}  // namespace redist
