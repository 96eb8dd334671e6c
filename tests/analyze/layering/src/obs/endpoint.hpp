// MUST FIRE: obs (rank 1) reaching up into net (rank 5). Introspection is
// rendered in obs and served by the daemon, so obs has no socket edge.
#pragma once

#include "common/contract_annotations.hpp"
#include "net/sock.hpp"

REDIST_LAYER("obs");

namespace redist {
struct FixtureEndpoint {};
}  // namespace redist
