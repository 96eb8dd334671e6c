// SS/TDMA switching — the paper's conclusion notes GGP/OGGP "can also be
// used ... in the context of SS/TDMA systems or WDM networks".
//
// A satellite-switched TDMA system has uplink stations (rows), downlink
// beams (columns), and an on-board switch that can carry at most k
// simultaneous uplink->downlink circuits. Reconfiguring the switch costs a
// fixed delay (beta). The traffic matrix holds the slot counts to transmit
// per station/beam pair — exactly a K-PBS instance where each step is one
// switch configuration.
//
//   ./ss_tdma [--stations=6] [--beams=6] [--transponders=4] [--switch-delay=2]
#include <iostream>

#include "redist.hpp"

int main(int argc, char** argv) {
  using namespace redist;
  Flags flags(argc, argv);
  const NodeId stations = static_cast<NodeId>(flags.get_int("stations", 6));
  const NodeId beams = static_cast<NodeId>(flags.get_int("beams", 6));
  const int transponders =
      static_cast<int>(flags.get_int("transponders", 4));  // k
  const Weight switch_delay = flags.get_int("switch-delay", 2);  // beta
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 2004));
  flags.check_unused();

  // Bursty demand: some station/beam pairs are hot, most are light.
  Rng rng(seed);
  BipartiteGraph demand(stations, beams);
  for (NodeId s = 0; s < stations; ++s) {
    for (NodeId b = 0; b < beams; ++b) {
      if (rng.bernoulli(0.25)) {
        demand.add_edge(s, b, rng.uniform_int(40, 120));  // hot circuit
      } else if (rng.bernoulli(0.5)) {
        demand.add_edge(s, b, rng.uniform_int(1, 10));  // light traffic
      }
    }
  }
  std::cout << "SS/TDMA: " << stations << " stations, " << beams
            << " beams, " << transponders << " transponders, switch delay "
            << switch_delay << " slots\n"
            << demand.alive_edge_count() << " circuits, "
            << demand.total_weight() << " slots of traffic\n\n";

  const LowerBound lb = kpbs_lower_bound(demand, transponders, switch_delay);
  std::cout << "lower bound: " << lb.min_steps
            << " configurations minimum, "
            << lb.value().to_double() << " slots total\n\n";

  for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
    const Schedule s = solve_kpbs(demand, {transponders, switch_delay, algo}).schedule;
    validate_schedule(demand, s, clamp_k(demand, transponders));
    std::cout << algorithm_name(algo) << ": " << s.step_count()
              << " switch configurations, frame length "
              << s.cost(switch_delay) << " slots (ratio "
              << Table::fmt(
                     evaluation_ratio(demand, s, transponders, switch_delay),
                     4)
              << ")\n";
  }

  // The weakened-barrier relaxation reads as overlapping reconfiguration
  // of independent transponders.
  const Schedule oggp =
      solve_kpbs(demand, {transponders, switch_delay, Algorithm::kOGGP}).schedule;
  const int k_eff = clamp_k(demand, transponders);
  const AsyncSchedule relaxed = relax_barriers(oggp, k_eff, switch_delay);
  relaxed.check_feasible(k_eff);
  std::cout << "\nper-transponder (barrier-free) reconfiguration: frame "
            << relaxed.makespan << " slots ("
            << Table::fmt(100.0 * (1.0 -
                                   static_cast<double>(relaxed.makespan) /
                                       static_cast<double>(
                                           oggp.cost(switch_delay))),
                          1)
            << "% shorter)\n";
  return 0;
}
