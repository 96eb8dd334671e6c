// Umbrella header for the redistribution-scheduling library.
//
// Reproduces: E. Jeannot, F. Wagner, "Two Fast and Efficient Message
// Scheduling Algorithms for Data Redistribution through a Backbone",
// IPDPS/IPPS 2004. See README.md for a tour and DESIGN.md for the system
// inventory.
#pragma once

#include "common/flags.hpp"
#include "common/math.hpp"
#include "common/rational.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

#include "obs/export.hpp"
#include "obs/introspect.hpp"
#include "obs/journal.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

#include "graph/bipartite_graph.hpp"
#include "graph/graphio.hpp"
#include "graph/traffic_matrix.hpp"

#include "matching/edge_coloring.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"
#include "matching/matching.hpp"
#include "matching/peeling_context.hpp"

#include "kpbs/analysis.hpp"
#include "kpbs/async_relax.hpp"
#include "kpbs/lower_bound.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule.hpp"
#include "kpbs/gantt.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "kpbs/wrgp.hpp"

#include "validate/graph_validator.hpp"
#include "validate/schedule_validator.hpp"
#include "validate/validation_report.hpp"

#include "baselines/exact.hpp"
#include "baselines/list_scheduling.hpp"
#include "baselines/local_search.hpp"
#include "baselines/coloring.hpp"
#include "baselines/naive.hpp"

#include "workload/block_cyclic.hpp"
#include "workload/patterns.hpp"
#include "workload/random_graphs.hpp"
#include "workload/scenario.hpp"
#include "workload/uniform_traffic.hpp"

#include "netsim/executor.hpp"
#include "netsim/fluid.hpp"
#include "netsim/platform.hpp"

#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/token_bucket.hpp"

#include "aggregation/aggregate.hpp"
#include "dynamic/adaptive.hpp"
#include "dynamic/online.hpp"

#include "robust/fault_injector.hpp"
#include "robust/retry.hpp"
#include "robust/storm.hpp"

#include "mpilite/alltoallv.hpp"
#include "mpilite/comm.hpp"
#include "mpilite/redistribute.hpp"
#include "net/client_session.hpp"
#include "net/message.hpp"
#include "net/rpc.hpp"
#include "net/socket.hpp"

#include "service/fingerprint.hpp"
#include "service/port_file.hpp"
#include "service/scheduler_service.hpp"
#include "service/solve_cache.hpp"
