// Dynamic backbone demo (paper Section 6 future work): the shared WAN link
// loses half its capacity mid-redistribution; compare executing the
// original plan blindly vs re-planning between steps.
//
//   ./dynamic_backbone_demo [--seed=7]
#include <iostream>

#include "dynamic/adaptive.hpp"
#include "redist.hpp"

int main(int argc, char** argv) {
  using namespace redist;
  Flags flags(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      flags.get_int("seed", 7));
  flags.check_unused();

  Platform base;
  base.n1 = 8;
  base.n2 = 8;
  base.t1_bps = 2.5e6;  // 20 Mbit cards
  base.t2_bps = 2.5e6;
  base.beta_seconds = 0.02;

  const double T = 12.5e6;  // 100 Mbit backbone, halves at t = 30 s
  const BackboneTrace trace({{30.0, T}, {0.0, T / 2}});

  Rng rng(seed);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, base.n1, base.n2, 2'000'000, 10'000'000);
  std::cout << "redistribution of " << traffic.total() / 1'000'000
            << " MB; backbone drops from 100 to 50 Mbit/s at t=30s\n\n";

  const double bytes_per_unit = base.t1_bps;  // 1 s time units
  const DynamicRunResult s = run_static_under_trace(
      base, trace, traffic, bytes_per_unit, 1, Algorithm::kOGGP);
  const DynamicRunResult a = run_adaptive_under_trace(
      base, trace, traffic, bytes_per_unit, 1, Algorithm::kOGGP);
  std::cout << "static plan (k frozen at T(0)):   "
            << Table::fmt(s.total_seconds, 1) << " s in " << s.steps
            << " steps\n";
  std::cout << "adaptive re-planning per step:    "
            << Table::fmt(a.total_seconds, 1) << " s in " << a.steps
            << " steps, " << a.replans << " re-plans\n";
  std::cout << "adaptive saves "
            << Table::fmt(100.0 * (1.0 - a.total_seconds / s.total_seconds),
                          1)
            << "%\n";
  return 0;
}
