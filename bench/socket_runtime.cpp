// Real-TCP miniature of the Section 5.2 experiment: brute force vs
// GGP/OGGP over actual loopback sockets with token-bucket NIC shaping.
// Complements figs 10/11 (fluid model with explicit TCP pathology knobs).
//
//   ./socket_runtime [--k=2] [--nodes=3] [--points=2] [--seed=1] [--csv]
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace redist;
  Flags flags(argc, argv);
  const int k = static_cast<int>(flags.get_int("k", 2));
  const NodeId nodes = static_cast<NodeId>(flags.get_int("nodes", 3));
  const int points = static_cast<int>(flags.get_int("points", 2));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool csv = flags.get_bool("csv", false);
  flags.check_unused();

  bench::preamble(
      "Socket runtime (real loopback TCP)",
      "brute force vs GGP/OGGP wall-clock, k=" + std::to_string(k),
      "byte-exact verified delivery over genuine kernel TCP; loopback has "
      "no loss, so expect scheduled within tens of "
      "percent of brute force rather than ahead of it");

  SocketClusterConfig config;
  config.backbone_bps = 6e6;
  config.card_out_bps = config.backbone_bps / k;
  config.card_in_bps = config.backbone_bps / k;
  config.chunk_bytes = 4096;
  config.burst_bytes = 8192;
  const double bytes_per_unit = config.card_out_bps * 0.25;

  Table table({"n_KB", "brute_s", "ggp_s", "oggp_s", "ggp_steps",
               "oggp_steps", "verified"});
  for (int point = 1; point <= points; ++point) {
    const Bytes n_kb = 30 * point;
    Rng rng(seed + static_cast<std::uint64_t>(point) * 6271ULL);
    const TrafficMatrix traffic =
        uniform_all_pairs_traffic(rng, nodes, nodes, 5'000, n_kb * 1000);

    const SocketRunResult brute = socket_bruteforce(config, traffic);
    const BipartiteGraph g = traffic.to_graph(bytes_per_unit);
    const Schedule ggp = solve_kpbs(g, {k, 1, Algorithm::kGGP}).schedule;
    const Schedule oggp = solve_kpbs(g, {k, 1, Algorithm::kOGGP}).schedule;
    const SocketRunResult ggp_run =
        socket_scheduled(config, traffic, ggp, bytes_per_unit);
    const SocketRunResult oggp_run =
        socket_scheduled(config, traffic, oggp, bytes_per_unit);
    const bool verified =
        brute.verified && ggp_run.verified && oggp_run.verified;
    table.add_row({Table::fmt(n_kb), Table::fmt(brute.seconds, 2),
                   Table::fmt(ggp_run.seconds, 2),
                   Table::fmt(oggp_run.seconds, 2),
                   Table::fmt(static_cast<std::int64_t>(ggp_run.steps)),
                   Table::fmt(static_cast<std::int64_t>(oggp_run.steps)),
                   verified ? "yes" : "NO"});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
