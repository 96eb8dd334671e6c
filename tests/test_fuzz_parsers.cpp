// Deterministic fuzzing of the text parsers (graphs and schedules): random
// mutations of valid inputs must either parse to something structurally
// sound or throw redist::Error — never crash, hang or corrupt memory.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/graphio.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "net/rpc.hpp"
#include "workload/random_graphs.hpp"
#include "workload/scenario.hpp"

namespace redist {
namespace {

std::string mutate(Rng& rng, std::string text) {
  const int edits = static_cast<int>(rng.uniform_int(1, 6));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip to a random printable char
        text[pos] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:  // delete
        text.erase(pos, 1);
        break;
      case 2:  // duplicate a chunk
        text.insert(pos, text.substr(pos, std::min<std::size_t>(
                                              8, text.size() - pos)));
        break;
      default:  // truncate
        text.resize(pos);
        break;
    }
  }
  return text;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, GraphParserNeverCrashes) {
  Rng rng(GetParam());
  RandomGraphConfig config;
  config.max_left = 8;
  config.max_right = 8;
  config.max_edges = 20;
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    const std::string mutated = mutate(rng, graph_to_string(g));
    try {
      const BipartiteGraph parsed = graph_from_string(mutated);
      parsed.check_invariants();  // if it parsed, it must be sound
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST_P(ParserFuzz, ScheduleParserNeverCrashes) {
  Rng rng(GetParam() ^ 0xFEED);
  RandomGraphConfig config;
  config.max_left = 6;
  config.max_right = 6;
  config.max_edges = 12;
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kGGP}).schedule;
    const std::string mutated = mutate(rng, schedule_to_string(s));
    try {
      const Schedule parsed = schedule_from_string(mutated);
      (void)parsed.cost(1);  // must be computable without UB
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

// Round-trip property: for any schedule the solvers can produce,
// parse(serialize(s)) must serialize back to the identical byte sequence,
// and the parsed schedule must agree with the original on every observable
// (steps, comms, cost). Serialization must never lose or reorder pieces.
TEST_P(ParserFuzz, ScheduleRoundTripIsIdentity) {
  Rng rng(GetParam() ^ 0xD00D);
  RandomGraphConfig config;
  config.max_left = 10;
  config.max_right = 10;
  config.max_edges = 30;
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 5));
    const Weight beta = rng.uniform_int(0, 3);
    const Schedule s = solve_kpbs(g, {k, beta, Algorithm::kOGGP}).schedule;

    const std::string text = schedule_to_string(s);
    const Schedule parsed = schedule_from_string(text);
    ASSERT_EQ(schedule_to_string(parsed), text);  // serialize∘parse fixpoint
    ASSERT_EQ(parsed.step_count(), s.step_count());
    ASSERT_EQ(parsed.cost(beta), s.cost(beta));
    ASSERT_EQ(parsed.total_amount(), s.total_amount());
    for (std::size_t i = 0; i < s.steps().size(); ++i) {
      const auto& want = s.steps()[i].comms;
      const auto& got = parsed.steps()[i].comms;
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(got[c].sender, want[c].sender);
        ASSERT_EQ(got[c].receiver, want[c].receiver);
        ASSERT_EQ(got[c].amount, want[c].amount);
      }
    }
  }
}

// Second fixpoint application: parse(serialize(parse(serialize(s)))) adds
// nothing new — guards against serializers that "fix up" their input.
TEST_P(ParserFuzz, ScheduleDoubleRoundTripIsStable) {
  Rng rng(GetParam() ^ 0xBEEF);
  RandomGraphConfig config;
  config.max_left = 8;
  config.max_right = 8;
  config.max_edges = 16;
  for (int trial = 0; trial < 50; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    const Schedule s = solve_kpbs(g, {3, 1, Algorithm::kGGP}).schedule;
    const std::string once = schedule_to_string(schedule_from_string(
        schedule_to_string(s)));
    const std::string twice = schedule_to_string(schedule_from_string(once));
    ASSERT_EQ(once, twice);
  }
}

// Graph parser round-trip, for symmetry: the graph format is the other
// half of the redist_cli verify pipeline.
TEST_P(ParserFuzz, GraphRoundTripIsIdentity) {
  Rng rng(GetParam() ^ 0xCAFE);
  RandomGraphConfig config;
  config.max_left = 10;
  config.max_right = 10;
  config.max_edges = 30;
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    const std::string text = graph_to_string(g);
    const BipartiteGraph parsed = graph_from_string(text);
    ASSERT_EQ(graph_to_string(parsed), text);
    ASSERT_EQ(parsed.left_count(), g.left_count());
    ASSERT_EQ(parsed.right_count(), g.right_count());
    ASSERT_EQ(parsed.total_weight(), g.total_weight());
    ASSERT_EQ(parsed.alive_edge_count(), g.alive_edge_count());
  }
}

// Malformed schedule inputs must throw redist::Error (and only that), so
// a corrupted schedule file can never crash an executor that loads it.
TEST(ParserFuzz, MalformedSchedulesThrowError) {
  const char* cases[] = {
      "",                                // empty
      "schedule",                        // missing count
      "schedule -1",                     // negative count
      "schedule 1",                      // missing step
      "schedule 1\nstep",                // missing comm count
      "schedule 1\nstep 2\n0 0 5",       // truncated comm list
      "schedule 1\nstep 1\n0 0",         // truncated communication
      "schedule 1\nstep 1\n0 0 x",       // non-numeric amount
      "schedule 1\nstep 99999999999999", // absurd comm count
      "schedule 99999999999999",         // absurd step count
      "sched 1\nstep 0",                 // wrong header tag
      "schedule 1\nstap 0",              // wrong step tag
  };
  for (const char* text : cases) {
    EXPECT_THROW(schedule_from_string(text), Error) << "input: " << text;
  }
}

// Scenario-spec parser (workload/scenario.hpp): the sweep harness and the
// committed regression baselines key on these files, so a corrupted spec
// must never silently materialize a different instance.
TEST_P(ParserFuzz, ScenarioParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x5CE0);
  const std::vector<ScenarioSpec> specs = builtin_scenarios(0.25);
  for (int trial = 0; trial < 200; ++trial) {
    const ScenarioSpec& spec =
        specs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(specs.size()) - 1))];
    const std::string mutated = mutate(rng, scenario_to_string(spec));
    try {
      const ScenarioSpec parsed = scenario_from_string(mutated);
      parsed.validate();  // if it parsed, every field is in-domain
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST_P(ParserFuzz, ScenarioRoundTripIsIdentity) {
  Rng rng(GetParam() ^ 0x5CE1);
  for (ScenarioSpec spec : builtin_scenarios(0.5)) {
    spec.seed = rng.next();  // any seed must survive the trip
    const std::string text = scenario_to_string(spec);
    const ScenarioSpec parsed = scenario_from_string(text);
    ASSERT_EQ(scenario_to_string(parsed), text);  // serialize∘parse fixpoint
    ASSERT_EQ(parsed.name, spec.name);
    ASSERT_EQ(parsed.kind, spec.kind);
    ASSERT_EQ(parsed.seed, spec.seed);
  }
}

TEST(ParserFuzz, MalformedScenariosThrowError) {
  const char* cases[] = {
      "",                                     // empty
      "scenario",                             // header missing name
      "kind uniform",                         // missing header line
      "scenario x\nkind bogus",               // unknown kind
      "scenario x\nkind uniform extra",       // trailing token
      "scenario x\nseed 1\nseed 2",           // duplicate key
      "scenario x\nnodes 4",                  // truncated pair
      "scenario x\nnodes 0 4",                // out-of-domain size
      "scenario x\nnodes four 4",             // non-numeric
      "scenario x\nbytes 10 5 1",             // min > max
      "scenario x\nsolver 0 1",               // k < 1
      "scenario x\nhot_share 1.0",            // boundary excluded
      "scenario x\nhet_spread 0.25",          // spread < 1
      "scenario x\nstorm 2.0",                // intensity > 1
      "scenario x\nflavor vanilla",           // unknown key
      "scenario Bad Name\nkind uniform",      // invalid name charset
  };
  for (const char* text : cases) {
    EXPECT_THROW(scenario_from_string(text), Error) << "input: " << text;
  }
}

// ---------------------------------------------------------------------------
// rpc.v2 binary codecs (net/rpc.hpp): the daemon decodes these payloads
// straight off untrusted sockets, so every decoder must be total — any
// byte sequence either decodes to an in-domain struct or throws
// redist::Error. Crashing, hanging or over-reading is a security bug.

std::vector<char> mutate_bytes(Rng& rng, std::vector<char> bytes) {
  const int edits = static_cast<int>(rng.uniform_int(1, 8));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip to a random byte
        bytes[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:  // delete
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      case 2: {  // duplicate a chunk
        const std::size_t n = std::min<std::size_t>(8, bytes.size() - pos);
        std::vector<char> chunk(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                                bytes.begin() +
                                    static_cast<std::ptrdiff_t>(pos + n));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                     chunk.begin(), chunk.end());
        break;
      }
      default:  // truncate
        bytes.resize(pos);
        break;
    }
  }
  return bytes;
}

rpc::SolveRequest random_solve_request(Rng& rng) {
  rpc::SolveRequest req;
  req.request_id = rng.next();
  req.k = static_cast<std::int32_t>(rng.uniform_int(1, 8));
  req.beta = rng.uniform_int(0, 5);
  req.algorithm = rng.uniform_int(0, 1) == 0 ? Algorithm::kOGGP
                                             : Algorithm::kGGP;
  req.senders = static_cast<NodeId>(rng.uniform_int(1, 12));
  req.receivers = static_cast<NodeId>(rng.uniform_int(1, 12));
  const int entries = static_cast<int>(rng.uniform_int(0, 20));
  for (int i = 0; i < entries; ++i) {
    req.entries.push_back({static_cast<NodeId>(
                               rng.uniform_int(0, req.senders - 1)),
                           static_cast<NodeId>(
                               rng.uniform_int(0, req.receivers - 1)),
                           rng.uniform_int(1, 1 << 20)});
  }
  return req;
}

TEST_P(ParserFuzz, RpcSolveRequestRoundTripIsIdentity) {
  Rng rng(GetParam() ^ 0x52C0);
  for (int trial = 0; trial < 200; ++trial) {
    const rpc::SolveRequest req = random_solve_request(rng);
    std::vector<char> wire;
    rpc::encode_solve_request(wire, req);
    const rpc::SolveRequest parsed = rpc::decode_solve_request(wire);
    ASSERT_EQ(parsed.request_id, req.request_id);
    ASSERT_EQ(parsed.k, req.k);
    ASSERT_EQ(parsed.beta, req.beta);
    ASSERT_EQ(parsed.algorithm, req.algorithm);
    ASSERT_EQ(parsed.senders, req.senders);
    ASSERT_EQ(parsed.receivers, req.receivers);
    ASSERT_EQ(parsed.entries.size(), req.entries.size());
    for (std::size_t i = 0; i < req.entries.size(); ++i) {
      ASSERT_EQ(parsed.entries[i].sender, req.entries[i].sender);
      ASSERT_EQ(parsed.entries[i].receiver, req.entries[i].receiver);
      ASSERT_EQ(parsed.entries[i].bytes, req.entries[i].bytes);
    }
    // Re-encoding the parse reproduces the identical byte sequence.
    std::vector<char> rewire;
    rpc::encode_solve_request(rewire, parsed);
    ASSERT_EQ(rewire, wire);
  }
}

TEST_P(ParserFuzz, RpcSolveRequestDecoderNeverCrashes) {
  Rng rng(GetParam() ^ 0x52C1);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<char> wire;
    rpc::encode_solve_request(wire, random_solve_request(rng));
    const std::vector<char> mutated = mutate_bytes(rng, std::move(wire));
    try {
      const rpc::SolveRequest parsed = rpc::decode_solve_request(mutated);
      // If it decoded, every domain constraint the decoder promises holds.
      EXPECT_GE(parsed.k, 1);
      EXPECT_GE(parsed.beta, 0);
      EXPECT_GE(parsed.senders, 1);
      EXPECT_GE(parsed.receivers, 1);
      for (const rpc::TrafficEntry& entry : parsed.entries) {
        EXPECT_GE(entry.sender, 0);
        EXPECT_LT(entry.sender, parsed.senders);
        EXPECT_GE(entry.receiver, 0);
        EXPECT_LT(entry.receiver, parsed.receivers);
        EXPECT_GT(entry.bytes, 0);
      }
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST_P(ParserFuzz, RpcSolveResponseRoundTripAndFuzz) {
  Rng rng(GetParam() ^ 0x52C2);
  for (int trial = 0; trial < 200; ++trial) {
    rpc::SolveResponse resp;
    resp.request_id = rng.next();
    resp.solve_id = rng.next();
    resp.served_from = static_cast<rpc::ServedFrom>(rng.uniform_int(0, 2));
    resp.solve_ms = static_cast<double>(rng.uniform_int(0, 1000)) / 8.0;
    resp.lb_min_steps = rng.uniform_int(0, 100);
    resp.lb_num = rng.uniform_int(0, 1 << 20);
    resp.lb_den = rng.uniform_int(1, 64);
    resp.evaluation_ratio = 1.0 + static_cast<double>(rng.uniform_int(0, 64)) / 64.0;
    const int len = static_cast<int>(rng.uniform_int(0, 200));
    for (int c = 0; c < len; ++c) {
      resp.schedule_text.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    }
    std::vector<char> wire;
    rpc::encode_solve_response(wire, resp);
    const rpc::SolveResponse parsed = rpc::decode_solve_response(wire);
    ASSERT_EQ(parsed.request_id, resp.request_id);
    ASSERT_EQ(parsed.solve_id, resp.solve_id);
    ASSERT_EQ(parsed.served_from, resp.served_from);
    ASSERT_EQ(parsed.lb_min_steps, resp.lb_min_steps);
    ASSERT_EQ(parsed.lb_num, resp.lb_num);
    ASSERT_EQ(parsed.lb_den, resp.lb_den);
    ASSERT_EQ(parsed.schedule_text, resp.schedule_text);

    const std::vector<char> mutated = mutate_bytes(rng, std::move(wire));
    try {
      (void)rpc::decode_solve_response(mutated);
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST_P(ParserFuzz, RpcErrorAndHelloDecodersNeverCrash) {
  Rng rng(GetParam() ^ 0x52C3);
  for (int trial = 0; trial < 200; ++trial) {
    rpc::ErrorResponse err;
    err.request_id = rng.next();
    err.code = static_cast<rpc::RpcErrorCode>(rng.uniform_int(1, 5));
    const int len = static_cast<int>(rng.uniform_int(0, 60));
    for (int c = 0; c < len; ++c) {
      err.message.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    }
    std::vector<char> wire;
    rpc::encode_error_response(wire, err);
    const rpc::ErrorResponse parsed = rpc::decode_error_response(wire);
    ASSERT_EQ(parsed.request_id, err.request_id);
    ASSERT_EQ(parsed.code, err.code);
    ASSERT_EQ(parsed.message, err.message);
    try {
      (void)rpc::decode_error_response(mutate_bytes(rng, std::move(wire)));
    } catch (const Error&) {
    }

    std::vector<char> hello;
    rpc::encode_hello(hello, rpc::kRpcProtocolVersion);
    ASSERT_EQ(rpc::decode_hello(hello), rpc::kRpcProtocolVersion);
    try {
      (void)rpc::decode_hello(mutate_bytes(rng, std::move(hello)));
    } catch (const Error&) {
    }
  }
}

// Every strict prefix of a valid encoding must be rejected: the decoders
// read length-prefixed fields sequentially and trailing truncation cannot
// silently produce a shorter-but-valid message.
TEST(ParserFuzz, RpcTruncatedPayloadsThrowError) {
  Rng rng(77);
  const rpc::SolveRequest req = random_solve_request(rng);
  std::vector<char> wire;
  rpc::encode_solve_request(wire, req);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::vector<char> prefix(wire.begin(),
                                   wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)rpc::decode_solve_request(prefix), Error)
        << "prefix length " << cut;
  }
  // Trailing garbage is equally rejected (expect_end contract).
  std::vector<char> padded = wire;
  padded.push_back('\0');
  EXPECT_THROW((void)rpc::decode_solve_request(padded), Error);
}

// Absurd entry counts must be rejected before any allocation is attempted:
// a 16-byte payload claiming 2^60 entries would otherwise ask the decoder
// to reserve exabytes.
TEST(ParserFuzz, RpcAbsurdEntryCountRejectedCheaply) {
  rpc::SolveRequest req;
  req.k = 1;
  req.senders = 2;
  req.receivers = 2;
  req.entries.push_back({0, 0, 1});
  std::vector<char> wire;
  rpc::encode_solve_request(wire, req);
  // The entry count is the u32 immediately before the 16-byte entry block.
  const std::size_t count_at = wire.size() - 16 - 4;
  for (int b = 0; b < 4; ++b) wire[count_at + static_cast<std::size_t>(b)] =
      static_cast<char>(0xFF);
  EXPECT_THROW((void)rpc::decode_solve_request(wire), Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1001, 2002, 3003, 4004));

TEST(ParserFuzz, PureGarbageIsRejected) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::string garbage;
    const int len = static_cast<int>(rng.uniform_int(0, 64));
    for (int c = 0; c < len; ++c) {
      garbage.push_back(static_cast<char>(rng.uniform_int(1, 255)));
    }
    EXPECT_THROW(graph_from_string(garbage), Error) << "trial " << trial;
    EXPECT_THROW(schedule_from_string(garbage), Error) << "trial " << trial;
  }
}

}  // namespace
}  // namespace redist
