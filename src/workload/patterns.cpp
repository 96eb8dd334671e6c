#include "workload/patterns.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace redist {

TrafficMatrix hotspot_traffic(Rng& rng, NodeId senders, NodeId receivers,
                              NodeId hot_receiver, double hot_share,
                              Bytes per_sender_bytes) {
  REDIST_CHECK(hot_receiver >= 0 && hot_receiver < receivers);
  REDIST_CHECK(hot_share > 0.0 && hot_share < 1.0);
  REDIST_CHECK(per_sender_bytes > 0);
  TrafficMatrix m(senders, receivers);
  for (NodeId i = 0; i < senders; ++i) {
    const auto hot =
        static_cast<Bytes>(static_cast<double>(per_sender_bytes) * hot_share);
    m.set(i, hot_receiver, std::max<Bytes>(1, hot));
    if (receivers > 1) {
      const Bytes rest = per_sender_bytes - m.at(i, hot_receiver);
      const Bytes share = rest / (receivers - 1);
      for (NodeId j = 0; j < receivers; ++j) {
        if (j == hot_receiver || share <= 0) continue;
        // Jitter the cold traffic a little so instances differ.
        const Bytes jitter = rng.uniform_int(0, std::max<Bytes>(1, share / 4));
        m.set(i, j, std::max<Bytes>(1, share - jitter));
      }
    }
  }
  return m;
}

TrafficMatrix banded_traffic(std::int64_t rows, Bytes row_bytes,
                             NodeId senders, NodeId receivers) {
  REDIST_CHECK(rows > 0 && row_bytes > 0);
  TrafficMatrix m(senders, receivers);
  for (NodeId i = 0; i < senders; ++i) {
    const std::int64_t lo1 = rows * i / senders;
    const std::int64_t hi1 = rows * (i + 1) / senders;
    for (NodeId j = 0; j < receivers; ++j) {
      const std::int64_t lo2 = rows * j / receivers;
      const std::int64_t hi2 = rows * (j + 1) / receivers;
      const std::int64_t overlap =
          std::max<std::int64_t>(0, std::min(hi1, hi2) - std::max(lo1, lo2));
      if (overlap > 0) m.set(i, j, overlap * row_bytes);
    }
  }
  return m;
}

}  // namespace redist
