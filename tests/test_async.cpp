// Tests for the asynchronous engine + frame synchronizer: the paper's
// algorithms must behave identically (verdicts, payload bits, pulse counts)
// under adversarially jittered message delays as under the synchronous
// simulator — which is what justifies studying them synchronously.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "congest/async.hpp"
#include "congest/network.hpp"
#include "detect/clique_detect.hpp"
#include "detect/even_cycle.hpp"
#include "detect/pipelined_cycle.hpp"
#include "detect/tree_detect.hpp"
#include "congest/primitives.hpp"
#include "detect/weighted_cycle.hpp"
#include "golden_files.hpp"
#include "graph/builders.hpp"
#include "support/rng.hpp"
#include "tools/cli.hpp"

namespace csd::congest {
namespace {

/// Runs the same program on both engines with matching seeds and asserts
/// bit-level equivalence of the observable outcome.
void expect_equivalent(const Graph& g, const ProgramFactory& factory,
                       std::uint64_t bandwidth, std::uint64_t seed,
                       std::uint64_t max_rounds, std::uint32_t max_delay) {
  NetworkConfig sync_cfg;
  sync_cfg.bandwidth = bandwidth;
  sync_cfg.seed = seed;
  sync_cfg.max_rounds = max_rounds;
  const auto sync_outcome = run_congest(g, sync_cfg, factory);
  ASSERT_TRUE(sync_outcome.completed);

  AsyncConfig async_cfg;
  async_cfg.bandwidth = bandwidth;
  async_cfg.seed = seed;
  async_cfg.max_pulses = max_rounds;
  async_cfg.max_delay = max_delay;
  const auto async_outcome = run_async(g, async_cfg, factory);

  EXPECT_TRUE(async_outcome.completed);
  EXPECT_EQ(async_outcome.detected, sync_outcome.detected);
  EXPECT_EQ(async_outcome.verdicts, sync_outcome.verdicts);
  EXPECT_EQ(async_outcome.payload_bits, sync_outcome.metrics.total_bits);
  EXPECT_EQ(async_outcome.pulses, sync_outcome.metrics.rounds);
}

TEST(AsyncEngine, PipelinedCycleEquivalence) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = build::gnp(20, 0.15, rng);
    expect_equivalent(g, detect::pipelined_cycle_program(4), 64,
                      300 + static_cast<std::uint64_t>(trial),
                      detect::pipelined_cycle_round_budget(20, 4) + 1,
                      1 + static_cast<std::uint32_t>(trial) * 3);
  }
}

TEST(AsyncEngine, EvenCycleEquivalence) {
  Rng rng(7);
  Graph g = build::random_tree(40, rng);
  build::plant_subgraph(g, build::cycle(4), rng);
  detect::EvenCycleConfig cfg;
  cfg.k = 2;
  for (const std::uint32_t delay : {1u, 4u, 16u}) {
    for (std::uint64_t seed = 40; seed < 44; ++seed) {
      expect_equivalent(
          g, detect::even_cycle_program(cfg), 64, seed,
          detect::make_even_cycle_schedule(40, cfg).total_rounds() + 1,
          delay);
    }
  }
}

TEST(AsyncEngine, EvenCycleK3AndWeightedCycleEquivalence) {
  const Graph g = build::disjoint_copies(build::cycle(6), 4);
  detect::EvenCycleConfig cfg;
  cfg.k = 3;
  cfg.c_num = 1;
  expect_equivalent(
      g, detect::even_cycle_program(cfg), 64, 5,
      detect::make_even_cycle_schedule(g.num_vertices(), cfg).total_rounds() +
          1,
      7);

  detect::WeightedCycleConfig wcfg;
  wcfg.length = 4;
  wcfg.target_weight = 3;
  const auto weight = [](Vertex, Vertex) -> std::uint64_t { return 1; };
  const Graph host = build::complete(6);
  expect_equivalent(
      host, detect::weighted_cycle_program(wcfg, weight), 64, 9,
      detect::weighted_cycle_round_budget(host.num_vertices(), wcfg) + 1, 11);
}

TEST(AsyncEngine, CliqueDetectEquivalence) {
  // Nodes halt at *different* pulses here (degree-dependent streaming),
  // exercising the halted-port protocol of the synchronizer.
  Rng rng(9);
  const Graph g = build::gnp(18, 0.4, rng);
  expect_equivalent(g, detect::clique_detect_program(3), 16, 1,
                    detect::clique_detect_round_budget(18, g.max_degree(), 16) +
                        2,
                    6);
}

TEST(AsyncEngine, TreeDetectEquivalence) {
  const Graph g = build::grid(5, 5);
  expect_equivalent(g, detect::tree_detect_program(build::star(3)), 32, 11,
                    detect::tree_detect_round_budget(build::star(3)) + 1, 9);
}

TEST(AsyncEngine, BfsAggregateEquivalence) {
  // The primitive uses per-port messages (parent announcements), data-
  // driven sends and early halting — a good stress of the synchronizer.
  Rng rng(15);
  Graph g = build::random_tree(24, rng);
  g.add_edge_if_absent(3, 17);
  g.add_edge_if_absent(5, 21);
  BfsAggregateConfig cfg;
  cfg.contribution = [](std::uint32_t v) { return v + 1; };

  BfsAggregateResult sync_sink, async_sink;
  for (auto* sink : {&sync_sink, &async_sink}) {
    sink->distance.assign(24, 0);
    sink->parent.assign(24, 0);
    sink->aggregate.assign(24, 0);
    sink->reached.assign(24, false);
  }
  NetworkConfig sync_cfg;
  sync_cfg.bandwidth = 64;
  sync_cfg.max_rounds = bfs_aggregate_round_budget(24);
  const auto sync_outcome =
      run_congest(g, sync_cfg, bfs_aggregate_program(cfg, &sync_sink));
  ASSERT_TRUE(sync_outcome.completed);

  AsyncConfig async_cfg;
  async_cfg.bandwidth = 64;
  async_cfg.max_pulses = bfs_aggregate_round_budget(24);
  async_cfg.max_delay = 13;
  const auto async_outcome =
      run_async(g, async_cfg, bfs_aggregate_program(cfg, &async_sink));
  EXPECT_TRUE(async_outcome.completed);
  EXPECT_EQ(async_sink.distance, sync_sink.distance);
  EXPECT_EQ(async_sink.parent, sync_sink.parent);
  EXPECT_EQ(async_sink.aggregate, sync_sink.aggregate);
}

TEST(AsyncEngine, BroadcastOnlyEnforcedToo) {
  class PerPortSender final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        BitVec payload;
        payload.append_bits(p, 4);
        api.send(p, payload);
      }
      api.halt();
    }
  };
  AsyncConfig cfg;
  cfg.broadcast_only = true;
  auto outcome = run_async(build::path(3), cfg, [](std::uint32_t) {
    return std::make_unique<PerPortSender>();
  });
  EXPECT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.faults.violations.size(), 1u);  // middle node only
  EXPECT_EQ(outcome.faults.violations[0].kind,
            ViolationKind::BroadcastMismatch);
  EXPECT_EQ(outcome.faults.violations[0].node, 1u);
}

TEST(AsyncEngine, DelayDistributionDoesNotChangeOutcome) {
  // Same program seed under wildly different jitter: identical results,
  // different virtual times.
  Rng rng(13);
  const Graph g = build::gnp(16, 0.2, rng);
  AsyncConfig tight;
  tight.bandwidth = 64;
  tight.seed = 21;
  tight.max_pulses = 200;
  tight.max_delay = 1;
  AsyncConfig loose = tight;
  loose.max_delay = 50;
  const auto a = run_async(g, tight, detect::pipelined_cycle_program(3));
  const auto b = run_async(g, loose, detect::pipelined_cycle_program(3));
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.payload_bits, b.payload_bits);
  EXPECT_LT(a.virtual_time, b.virtual_time);
}

TEST(AsyncEngine, OverheadChargesFullFrameHeaderPerFrame) {
  const Graph g = build::cycle(6);
  AsyncConfig cfg;
  cfg.bandwidth = 64;
  cfg.max_pulses = 50;
  const auto outcome =
      run_async(g, cfg, detect::pipelined_cycle_program(3));
  // Every frame carries its pulse plus the halted/has-payload flags; all of
  // it is synchronizer overhead and all of it must be charged.
  EXPECT_EQ(Frame::kOverheadBits, Frame::kPulseWireBits + 2);
  EXPECT_EQ(outcome.overhead_bits, Frame::kOverheadBits * outcome.frames);
  // One frame per port per pulse while running.
  EXPECT_GE(outcome.frames, 12u);  // at least pulse 0 everywhere
}

TEST(AsyncEngine, PulseCapFlagsIncompleteRuns) {
  class NeverHalts final : public NodeProgram {
   public:
    void on_round(NodeApi&) override {}
  };
  const Graph g = build::path(3);
  AsyncConfig cfg;
  cfg.max_pulses = 5;
  const auto outcome = run_async(
      g, cfg, [](std::uint32_t) { return std::make_unique<NeverHalts>(); });
  EXPECT_FALSE(outcome.completed);
  EXPECT_LE(outcome.pulses, 5u);
}

TEST(AsyncEngine, CustomIdsRespectNamespace) {
  const Graph g = build::path(2);
  AsyncConfig cfg;
  cfg.namespace_size = 8;

  class IdProbe final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 7) api.reject();
      api.halt();
    }
  };
  const auto outcome = run_async(
      g, cfg, {3, 7}, [](std::uint32_t) { return std::make_unique<IdProbe>(); });
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.detected);

  EXPECT_THROW(run_async(g, cfg, {3, 9},
                         [](std::uint32_t) {
                           return std::make_unique<IdProbe>();
                         }),
               CheckFailure);
}

// ----------------------------------------------- faults + ARQ transport --

TEST(AsyncEngine, ReliableTransportBitExactUnderHeavyFaults) {
  // Acceptance bar for the reliable transport: with 30% frame drops and 5%
  // payload corruption, the C_{2k} detector's observable outcome (verdicts,
  // payload bits, pulse count) is bit-identical to the fault-free
  // synchronous engine on 200 randomized instances.
  Rng rng(77);
  detect::EvenCycleConfig cycle_cfg;
  cycle_cfg.k = 2;
  int planted = 0, detections = 0;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const Vertex n = 10 + static_cast<Vertex>(rng.below(8));
    Graph g = build::random_tree(n, rng);
    if (rng.coin()) {
      build::plant_subgraph(g, build::cycle(4), rng);
      ++planted;
    }
    const std::uint64_t seed = 1000 + trial;
    const std::uint64_t budget =
        detect::make_even_cycle_schedule(n, cycle_cfg).total_rounds() + 1;

    NetworkConfig sync_cfg;
    sync_cfg.bandwidth = 64;
    sync_cfg.seed = seed;
    sync_cfg.max_rounds = budget;
    const auto sync_outcome =
        run_congest(g, sync_cfg, detect::even_cycle_program(cycle_cfg));
    ASSERT_TRUE(sync_outcome.completed);

    AsyncConfig cfg;
    cfg.bandwidth = 64;
    cfg.seed = seed;
    cfg.max_pulses = budget;
    cfg.max_delay = 1 + static_cast<std::uint32_t>(rng.below(6));
    cfg.faults.drop = 0.3;
    cfg.faults.corrupt = 0.05;
    cfg.transport = TransportMode::Reliable;
    const auto outcome =
        run_async(g, cfg, detect::even_cycle_program(cycle_cfg));

    ASSERT_TRUE(outcome.completed) << "trial " << trial;
    EXPECT_EQ(outcome.verdicts, sync_outcome.verdicts) << "trial " << trial;
    EXPECT_EQ(outcome.payload_bits, sync_outcome.metrics.total_bits);
    EXPECT_EQ(outcome.pulses, sync_outcome.metrics.rounds);
    EXPECT_EQ(outcome.faults.transport_failures, 0u);
    EXPECT_TRUE(outcome.faults.stalled_nodes.empty());
    if (outcome.detected) ++detections;
  }
  // The sweep must actually exercise both verdicts and real faults.
  EXPECT_GT(planted, 50);
  EXPECT_GT(detections, 0);
}

TEST(AsyncEngine, ReliableTransportTriangleUnderFaults) {
  // Same bar for the clique (triangle) detector, whose nodes halt at
  // different pulses — the transport must keep retransmitting below nodes
  // that already halted gracefully.
  Rng rng(41);
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const Vertex n = 12 + static_cast<Vertex>(rng.below(4));
    const Graph g = build::gnp(n, 0.35, rng);
    const std::uint64_t seed = 3000 + trial;
    const std::uint64_t budget =
        detect::clique_detect_round_budget(n, g.max_degree(), 16) + 2;

    NetworkConfig sync_cfg;
    sync_cfg.bandwidth = 16;
    sync_cfg.seed = seed;
    sync_cfg.max_rounds = budget;
    const auto sync_outcome =
        run_congest(g, sync_cfg, detect::clique_detect_program(3));
    ASSERT_TRUE(sync_outcome.completed);

    AsyncConfig cfg;
    cfg.bandwidth = 16;
    cfg.seed = seed;
    cfg.max_pulses = budget;
    cfg.max_delay = 4;
    cfg.faults.drop = 0.3;
    cfg.faults.corrupt = 0.05;
    cfg.transport = TransportMode::Reliable;
    const auto outcome = run_async(g, cfg, detect::clique_detect_program(3));

    ASSERT_TRUE(outcome.completed) << "trial " << trial;
    EXPECT_EQ(outcome.verdicts, sync_outcome.verdicts);
    EXPECT_EQ(outcome.payload_bits, sync_outcome.metrics.total_bits);
  }
}

TEST(AsyncEngine, RawModeFaultsStallButNeverHang) {
  // Without the transport the same faults must not hang or crash the run:
  // starved ports stall their nodes, the event queue drains, and the
  // outcome carries a populated, deterministic FaultReport.
  Rng rng(31);
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const Graph g = build::gnp(12, 0.3, rng);
    AsyncConfig cfg;
    cfg.bandwidth = 64;
    cfg.seed = 600 + trial;
    cfg.max_pulses = detect::pipelined_cycle_round_budget(12, 4) + 1;
    cfg.faults.drop = 0.5;
    cfg.faults.corrupt = 0.1;  // TransportMode::Raw is the default
    const auto a = run_async(g, cfg, detect::pipelined_cycle_program(4));
    const auto b = run_async(g, cfg, detect::pipelined_cycle_program(4));

    EXPECT_FALSE(a.completed);
    EXPECT_GT(a.faults.frames_dropped, 0u);
    EXPECT_FALSE(a.faults.stalled_nodes.empty());
    EXPECT_FALSE(a.faults.clean());
    // Same seed, same plan -> identical report and verdicts.
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.verdicts, b.verdicts);
    EXPECT_EQ(a.payload_bits, b.payload_bits);
  }
}

TEST(AsyncEngine, ScheduledCrashIsSilent) {
  // A crash is not a graceful halt: no "I am done" frame is emitted, so in
  // raw mode the neighbors starve and stall.
  class HaltAtThree final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.round() >= 3) api.halt();
    }
  };
  AsyncConfig cfg;
  cfg.max_pulses = 10;
  cfg.faults.crashes = {{1, 1}};
  const auto outcome = run_async(build::path(3), cfg, [](std::uint32_t) {
    return std::make_unique<HaltAtThree>();
  });
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.faults.crashed_nodes, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(outcome.faults.stalled_nodes, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(outcome.pulses, 2u);  // neighbors got exactly the pulse-0 frame
}

TEST(AsyncEngine, SurvivorVerdictsExcludeCrashedNodes) {
  // detected_by_survivors is the answer the surviving network reports: a
  // verdict held only by a node that later crashed does not count.
  class RejectThenLinger final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.round() == 0 && api.id() == 0) api.reject();
    }
  };
  AsyncConfig cfg;
  cfg.max_pulses = 8;
  cfg.faults.crashes = {{0, 1}};
  const auto outcome = run_async(build::path(2), cfg, [](std::uint32_t) {
    return std::make_unique<RejectThenLinger>();
  });
  EXPECT_TRUE(outcome.detected);  // the verdict was reached...
  EXPECT_FALSE(outcome.faults.detected_by_survivors);  // ...then lost
  EXPECT_EQ(outcome.faults.crashed_nodes, (std::vector<std::uint32_t>{0}));
}

TEST(AsyncEngine, TransportOverheadAccountedSeparately) {
  // Faults inflate transport_bits (retransmissions, acks) but never the
  // CONGEST payload accounting.
  const Graph g = build::cycle(8);
  AsyncConfig clean;
  clean.bandwidth = 32;
  clean.seed = 5;
  clean.max_pulses = detect::pipelined_cycle_round_budget(8, 4) + 1;
  clean.transport = TransportMode::Reliable;
  AsyncConfig faulty = clean;
  faulty.faults.drop = 0.25;
  const auto base = run_async(g, clean, detect::pipelined_cycle_program(4));
  const auto hard = run_async(g, faulty, detect::pipelined_cycle_program(4));
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(hard.completed);
  EXPECT_EQ(base.payload_bits, hard.payload_bits);
  EXPECT_EQ(base.verdicts, hard.verdicts);
  EXPECT_EQ(base.faults.retransmissions, 0u);
  EXPECT_GT(hard.faults.retransmissions, 0u);
  EXPECT_GT(hard.transport_bits, base.transport_bits);
  EXPECT_GT(hard.acks, 0u);
}

// ---------------------------------------------------------------------------
// Golden outputs (corpus/async_golden/), recorded before the wire plane's
// event queue, CRC and in-order receive path were rewritten
// ---------------------------------------------------------------------------

std::string async_golden(const std::string& name) {
  return std::string(CSD_ASYNC_GOLDEN_DIR) + "/" + name;
}

/// csd's stdout without the lines that name an output or input file.
std::string without_file_lines(const std::string& text) {
  std::istringstream is(text);
  std::string line, kept;
  while (std::getline(is, line))
    if (!line.starts_with("json:") && !line.starts_with("trace:") &&
        !line.starts_with("checkpoint:") && !line.starts_with("resumed:"))
      kept += line + '\n';
  return kept;
}

TEST(AsyncGolden, CliOutputsSnapshotsAndResumesReproduce) {
  const std::map<std::string, std::vector<std::string>> hosts = {
      {"cycle4",
       {"cycle", "4", "forest256.txt", "--reps", "8", "--seed", "11"}},
      {"clique3", {"clique", "3", "gnp96.txt", "--seed", "11"}},
  };
  const std::map<std::string, std::vector<std::string>> wires = {
      {"reliable",
       {"--transport", "reliable", "--drop", "0.1", "--corrupt", "0.01"}},
      {"raw", {"--transport", "raw", "--drop", "0.05"}},
      {"raw_corrupt", {"--transport", "raw", "--corrupt", "0.01"}},
      {"recover", {"--transport", "reliable", "--recover", "--crash", "7:3"}},
  };
  struct Snap {
    std::string name, pulse;
    std::vector<std::string> wire;
  };
  const std::vector<Snap> snaps = {
      {"snapshot_reliable", "3", wires.at("reliable")},
      {"snapshot_raw_fault", "4", wires.at("raw_corrupt")},
  };
  const std::map<std::string, std::string> traces =
      golden::read_traces(async_golden("traces.txt"));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "csd_async_golden";
  std::filesystem::create_directories(dir);
  const std::string json = (dir / "report.json").string();
  const std::string trace = (dir / "trace.jsonl").string();
  const std::string ckpt = (dir / "ckpt.json").string();

  // Run `csd detect args...`; its report and stdout must be `expected`'s and
  // its trace must be `trace_name`'s.
  const auto check = [&](const std::string& expected,
                         const std::string& trace_name,
                         const std::vector<std::string>& args) {
    std::vector<std::string> argv = {"detect"};
    for (const std::string& a : args)
      argv.push_back(a.ends_with(".txt")
                         ? std::string(CSD_SYNC_GOLDEN_DIR) + "/" + a
                         : a);
    for (const std::string& a : {std::string("--json"), json,
                                 std::string("--trace"), trace})
      argv.push_back(a);
    std::ostringstream out, err;
    ASSERT_EQ(cli::run(argv, out, err), 0) << trace_name << ": " << err.str();
    EXPECT_EQ(golden::report_without_env(golden::read_file(json)),
              golden::report_without_env(
                  golden::read_file(async_golden(expected + ".report.json"))))
        << trace_name;
    EXPECT_EQ(without_file_lines(out.str()),
              golden::read_file(async_golden(expected + ".out")))
        << trace_name;
    EXPECT_EQ(golden::size_and_digest(golden::read_file(trace)),
              traces.at(trace_name))
        << trace_name;
  };

  for (const auto& [host, host_args] : hosts) {
    for (const auto& [wire, wire_args] : wires) {
      std::vector<std::string> args = host_args;
      args.insert(args.end(), wire_args.begin(), wire_args.end());
      check(host + "_" + wire, host + "_" + wire, args);
    }
  }
  for (const Snap& snap : snaps) {
    std::vector<std::string> args = {"clique", "3",  "gnp32.txt",
                                     "--seed", "11"};
    args.insert(args.end(), snap.wire.begin(), snap.wire.end());
    std::vector<std::string> capture = args;
    for (const std::string& a :
         {std::string("--checkpoint-at"), snap.pulse,
          std::string("--checkpoint"), ckpt})
      capture.push_back(a);
    check(snap.name, snap.name, capture);
    EXPECT_EQ(golden::read_file(ckpt),
              golden::read_file(async_golden(snap.name + ".json")))
        << snap.name;
    // Resuming the recorded snapshot finishes the same run: the same
    // report and fault summary, and the trace of the pulses after it.
    args.push_back("--resume");
    args.push_back(async_golden(snap.name + ".json"));
    check(snap.name, snap.name + "_resume", args);
  }
  std::filesystem::remove_all(dir);
}

TEST(AsyncGolden, SnapshotsHoldInFlightTransportStateAndAProgramFault) {
  // The reliable snapshot was captured mid-conversation: data, ack and
  // timer events are all queued, and some link holds frames that arrived
  // ahead of a gap.
  const Snapshot reliable =
      load_snapshot(async_golden("snapshot_reliable.json"));
  std::set<int> kinds;
  for (const EventRecord& event : reliable.async_state.events)
    kinds.insert(event.kind);
  for (const int kind : {0, 1, 2})  // Data, Ack, Timer
    EXPECT_TRUE(kinds.contains(kind)) << "no queued event of kind " << kind;
  bool reordering = false;
  for (const AsyncNodeSnapshot& node : reliable.async_state.nodes)
    for (const LinkReceiverState& receiver : node.receivers)
      reordering |= !receiver.reorder.empty();
  EXPECT_TRUE(reordering);

  // The raw-mode snapshot holds a program fault, whose CHECK message names
  // its source file relative to the source root, so the bytes are the same
  // from every checkout.
  const Snapshot raw = load_snapshot(async_golden("snapshot_raw_fault.json"));
  ASSERT_EQ(raw.async_state.faults.violations.size(), 1u);
  const ProtocolViolation& fault = raw.async_state.faults.violations[0];
  EXPECT_EQ(fault.kind, ViolationKind::ProgramFault);
  EXPECT_NE(fault.detail.find(" at src/detect/clique_detect.cpp:"),
            std::string::npos)
      << fault.detail;
}

}  // namespace
}  // namespace csd::congest
