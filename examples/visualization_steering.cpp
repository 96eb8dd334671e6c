// Remote visualization / computational steering (Cumulvs-style, cited in
// the paper's introduction): a simulation cluster pushes a data frame to a
// smaller visualization cluster every iteration. Frames arrive on a fixed
// cadence whether or not the previous one has drained — exactly the online
// redistribution setting — and the interesting metric is the sustainable
// frame rate of brute force vs the merge-and-replan scheduler.
//
//   ./visualization_steering [--frames=6] [--period=4] [--seed=11]
#include <iostream>

#include "dynamic/online.hpp"
#include "redist.hpp"

int main(int argc, char** argv) {
  using namespace redist;
  Flags flags(argc, argv);
  const int frames = static_cast<int>(flags.get_int("frames", 6));
  const double period = flags.get_double("period", 4.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 11));
  flags.check_unused();

  // 12-node simulation cluster, 4-node viz cluster, 100 Mbit backbone,
  // cards shaped to 100/4 Mbit (k = 4).
  Platform p;
  p.n1 = 12;
  p.n2 = 4;
  p.t1_bps = 12.5e6 / 4;
  p.t2_bps = 12.5e6 / 4;
  p.backbone_bps = 12.5e6;
  p.beta_seconds = 0.01;
  const int k = p.max_k();

  // Each frame: every simulation node sends its slab to the viz node that
  // renders its region (banded), plus a small metadata message to node 0.
  Rng rng(seed);
  std::vector<ArrivalBatch> batches;
  for (int f = 0; f < frames; ++f) {
    TrafficMatrix frame = banded_traffic(9600, 2048, p.n1, p.n2);
    // Ghost-cell halos: every simulation node also ships a small strip to
    // the neighbouring viz regions, densifying the pattern.
    for (NodeId i = 0; i < p.n1; ++i) {
      for (NodeId j = 0; j < p.n2; ++j) {
        frame.add(i, j, rng.uniform_int(20'000, 120'000));
      }
    }
    for (NodeId i = 0; i < p.n1; ++i) {
      frame.add(i, 0, rng.uniform_int(2'000, 10'000));  // steering metadata
    }
    batches.push_back(ArrivalBatch{f * period, std::move(frame)});
  }
  Bytes per_frame = batches[0].traffic.total();
  std::cout << frames << " frames of ~" << per_frame / 1'000'000
            << " MB every " << period << " s, k=" << k << "\n\n";

  const double bytes_per_unit = p.comm_speed_bps() * 0.25;
  const OnlineResult scheduled =
      run_online(p, batches, bytes_per_unit, 1, Algorithm::kOGGP,
                 /*steps_per_plan=*/4);

  // Brute-force equivalent: each frame is blasted all-at-once when it
  // arrives (and queues behind the previous frame's flows).
  FluidOptions tcp;
  tcp.congestion_alpha = 0.08;
  tcp.unfairness_stddev = 0.8;
  double brute_clock = 0;
  for (const ArrivalBatch& b : batches) {
    brute_clock = std::max(brute_clock, b.at_seconds);
    brute_clock += simulate_bruteforce(p, b.traffic, tcp).total_seconds;
  }

  const double span = frames * period;
  std::cout << "scheduled (online OGGP): last byte at "
            << Table::fmt(scheduled.total_seconds, 1) << " s — "
            << (scheduled.total_seconds <= span + period
                    ? "keeps up with the frame cadence"
                    : "falls behind")
            << " (" << scheduled.steps << " steps, "
            << scheduled.replans << " re-plans)\n";
  std::cout << "brute force (frame-at-once TCP): last byte at "
            << Table::fmt(brute_clock, 1) << " s\n";
  std::cout << "frame rate: scheduled "
            << Table::fmt(frames / scheduled.total_seconds, 2)
            << " fps vs brute "
            << Table::fmt(frames / brute_clock, 2) << " fps\n";
  return 0;
}
