// Tests for the synchronous superstep engine's worker count and its
// Partitioner: partition invariants and balance bounds, and the hard
// bit-identity contract — every outcome field the sync engine promises to
// be deterministic must be byte-for-byte identical at every worker count,
// either partition policy, and any --jobs fan-out. The reference is the
// default W = 1 run, and behind it the golden outputs recorded from the
// single-loop engine that W = 1 replaced (corpus/sync_golden/). "Classic
// order" below is that engine's order: ascending node / dense edge index
// per round, which one worker produces by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "congest/network.hpp"
#include "congest/partition.hpp"
#include "detect/clique_detect.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/generator.hpp"
#include "golden_files.hpp"
#include "graph/builders.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_v2.hpp"
#include "sleepy_programs.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"
#include "tools/cli.hpp"

namespace csd::congest {
namespace {

std::string trace_jsonl(const RunOutcome& outcome) {
  std::ostringstream os;
  outcome.trace.write_jsonl(os);
  return os.str();
}

/// Full deterministic-outcome comparison: everything the determinism
/// contract covers (deliberately not timers or trace_bytes-vs-capacity
/// internals — trace JSONL equality subsumes the trace).
void expect_outcomes_identical(const RunOutcome& a, const RunOutcome& b,
                               const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.detected, b.detected) << label;
  EXPECT_EQ(a.verdicts, b.verdicts) << label;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << label;
  EXPECT_EQ(a.metrics.messages, b.metrics.messages) << label;
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits) << label;
  EXPECT_EQ(a.metrics.max_message_bits, b.metrics.max_message_bits) << label;
  EXPECT_EQ(a.metrics.bits_sent_by_node, b.metrics.bits_sent_by_node)
      << label;
  EXPECT_TRUE(a.faults == b.faults) << label;
  EXPECT_EQ(trace_jsonl(a), trace_jsonl(b)) << label;
  ASSERT_EQ(a.transcript.size(), b.transcript.size()) << label;
  for (std::size_t i = 0; i < a.transcript.size(); ++i) {
    EXPECT_EQ(a.transcript[i].round, b.transcript[i].round) << label;
    EXPECT_EQ(a.transcript[i].src, b.transcript[i].src) << label;
    EXPECT_EQ(a.transcript[i].dst, b.transcript[i].dst) << label;
    EXPECT_TRUE(a.transcript[i].payload == b.transcript[i].payload) << label;
  }
}

/// Traffic-heavy randomized program: phase declarations, per-node RNG,
/// variable-size messages, staggered halts, and occasional rejects — every
/// order-sensitive engine feature in one workload.
class Chatter final : public NodeProgram {
 public:
  explicit Chatter(std::uint64_t rounds) : rounds_(rounds) {}
  void on_round(NodeApi& api) override {
    api.phase(api.round() < rounds_ / 2 ? "spread" : "collect");
    const std::uint64_t bits = 1 + api.rng().below(api.bandwidth());
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      if (api.rng().below(4) == 0) continue;  // skip some ports
      wire::Writer w;
      w.u(api.rng().below(1ull << std::min<std::uint64_t>(bits, 32)),
          static_cast<unsigned>(std::min<std::uint64_t>(bits, 32)));
      api.send(p, std::move(w).take());
    }
    if (api.rng().below(1000) == 0) api.reject();
    if (api.round() + 1 >= rounds_ + api.id() % 5) api.halt();
  }

 private:
  std::uint64_t rounds_;
};

/// Violates the model on purpose (duplicate send, bandwidth overrun) so the
/// merged violation list's order is pinned against W = 1.
class Naughty final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    if (api.round() == 0 && api.degree() > 0) {
      wire::Writer w1;
      w1.u(1, 4);
      api.send(0, std::move(w1).take());
      wire::Writer w2;
      w2.u(2, 4);
      api.send(0, std::move(w2).take());  // duplicate send
      if (api.degree() > 1) {
        BitVec big;
        for (int i = 0; i < 100; ++i) big.push_back(true);
        api.send(1, std::move(big));  // bandwidth overrun
      }
    }
    if (api.round() >= 1) api.halt();
  }
};

ProgramFactory chatter(std::uint64_t rounds) {
  return [rounds](std::uint32_t) { return std::make_unique<Chatter>(rounds); };
}

// ---------------------------------------------------------------------------
// Partitioner invariants
// ---------------------------------------------------------------------------

TEST(Partition, OwnedListsPartitionVerticesAndEdges) {
  Rng rng(99);
  const std::vector<Graph> families = {
      build::path(64), build::cycle(64), build::complete(24),
      build::gnp(80, 0.1, rng)};
  for (const Graph& g : families) {
    const GraphCsr& csr = g.csr();
    for (const std::uint32_t w_count : {1u, 2u, 3u, 8u, 64u, 100u}) {
      for (const auto policy :
           {PartitionPolicy::Range, PartitionPolicy::Hash}) {
        const Partition part = Partition::build(csr, w_count, policy);
        std::vector<std::uint8_t> seen(g.num_vertices(), 0);
        std::uint64_t edges = 0;
        for (std::uint32_t w = 0; w < w_count; ++w) {
          Vertex prev = 0;
          bool first = true;
          for (const Vertex v : part.owned(w)) {
            ASSERT_LT(v, g.num_vertices());
            EXPECT_EQ(part.owner(v), w);
            EXPECT_TRUE(first || v > prev) << "owned list not ascending";
            ASSERT_EQ(seen[v], 0) << "vertex owned twice";
            seen[v] = 1;
            prev = v;
            first = false;
          }
          edges += part.owned_directed_edges(w);
        }
        for (Vertex v = 0; v < g.num_vertices(); ++v)
          EXPECT_EQ(seen[v], 1) << "vertex " << v << " unowned";
        // Edge ownership (by source vertex) partitions the dense index.
        EXPECT_EQ(edges, csr.num_directed_edges());
        // Directed cuts come in reverse pairs.
        EXPECT_EQ(part.cut_directed_edges() % 2, 0u);
      }
    }
  }
}

TEST(Partition, RangePolicyIsContiguousAndEdgeBalanced) {
  Rng rng(7);
  const std::vector<Graph> families = {build::path(200), build::cycle(200),
                                       build::gnp(160, 0.08, rng)};
  for (const Graph& g : families) {
    const GraphCsr& csr = g.csr();
    std::uint64_t max_weight = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      max_weight = std::max<std::uint64_t>(max_weight, g.degree(v) + 1);
    for (const std::uint32_t w_count : {2u, 4u, 8u}) {
      const Partition part =
          Partition::build(csr, w_count, PartitionPolicy::Range);
      // Contiguity: owners are non-decreasing in vertex order.
      for (Vertex v = 1; v < g.num_vertices(); ++v)
        EXPECT_GE(part.owner(v), part.owner(v - 1));
      // Balance: no worker exceeds its weight share by more than one
      // vertex's worth of weight (the greedy cut's granularity).
      const std::uint64_t total = csr.num_directed_edges() + g.num_vertices();
      for (std::uint32_t w = 0; w < w_count; ++w) {
        const std::uint64_t weight =
            part.owned_directed_edges(w) + part.owned(w).size();
        EXPECT_LE(weight, total / w_count + max_weight)
            << "worker " << w << " of " << w_count;
      }
    }
  }
}

TEST(Partition, HashPolicyBalancesVertices) {
  Rng rng(13);
  const Graph g = build::gnp(512, 0.03, rng);
  const Partition part =
      Partition::build(g.csr(), 8, PartitionPolicy::Hash);
  for (std::uint32_t w = 0; w < 8; ++w) {
    // Fixed mixer, so this is a deterministic property, not a flaky one:
    // each worker holds 64 +- 32 of the 512 vertices.
    EXPECT_GE(part.owned(w).size(), 32u);
    EXPECT_LE(part.owned(w).size(), 96u);
  }
}

TEST(Partition, DigestPinsAssignment) {
  const Graph g = build::cycle(32);
  const Partition a = Partition::build(g.csr(), 4, PartitionPolicy::Range);
  const Partition b = Partition::build(g.csr(), 4, PartitionPolicy::Range);
  const Partition c = Partition::build(g.csr(), 4, PartitionPolicy::Hash);
  const Partition d = Partition::build(g.csr(), 5, PartitionPolicy::Range);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(a.digest(), d.digest());
}

TEST(Partition, SingleWorkerKeepsNoTablesAndZeroWorkersIsRefused) {
  const Graph g = build::cycle(16);
  const Partition one = Partition::build(g.csr(), 1, PartitionPolicy::Hash);
  EXPECT_EQ(one.owner_table(), nullptr);
  EXPECT_EQ(one.owner(7), 0u);
  EXPECT_EQ(one.owned(0).size(), 16u);
  EXPECT_EQ(one.owned_directed_edges(0), 32u);
  EXPECT_EQ(one.cut_directed_edges(), 0u);
  EXPECT_THROW(Partition::build(g.csr(), 0, PartitionPolicy::Range),
               CheckFailure);
  EXPECT_EQ(NetworkConfig{}.shard.workers, 1u);
  NetworkConfig cfg;
  cfg.shard.workers = 0;
  EXPECT_THROW(Network(g, cfg).run(chatter(2)), CheckFailure);
}

// ---------------------------------------------------------------------------
// Bit-identity: W >= 2 vs W = 1
// ---------------------------------------------------------------------------

TEST(Shard, WorkersBitIdenticalToW1OnFuzzSmokeCorpus) {
  for (std::uint64_t case_seed = 1; case_seed <= 25; ++case_seed) {
    const fuzz::FuzzCase c = fuzz::generate_case(case_seed);
    const Graph host = fuzz::build_graph(c);
    const std::uint64_t bandwidth = fuzz::effective_bandwidth(c, host);
    NetworkConfig cfg;
    cfg.bandwidth = bandwidth;
    cfg.max_rounds = fuzz::round_budget(c, host, bandwidth);
    cfg.seed = c.seed;
    cfg.trace.enabled = true;
    if (c.has_faults()) cfg.faults = fuzz::fault_plan(c);
    const ProgramFactory factory = fuzz::make_program(c);

    const RunOutcome reference = Network(host, cfg).run(factory);
    for (const std::uint32_t w_count : {2u, 8u}) {
      NetworkConfig sharded_cfg = cfg;
      sharded_cfg.shard.workers = w_count;
      const Network sharded(host, sharded_cfg);
      expect_outcomes_identical(reference, sharded.run(factory),
                                "case seed " + std::to_string(case_seed) +
                                    " W=" + std::to_string(w_count));
    }
  }
}

TEST(Shard, MatrixBitIdenticalAcrossWorkersAndPolicies) {
  Rng rng(17);
  Graph g = build::random_tree(96, rng);
  build::plant_subgraph(g, build::cycle(4), rng);
  NetworkConfig cfg;
  cfg.bandwidth = 24;
  cfg.max_rounds = 64;
  cfg.seed = 41;
  cfg.trace.enabled = true;
  cfg.trace.per_edge = true;
  cfg.trace.timers = true;
  const Network w1(g, cfg);
  const RunOutcome reference = w1.run(chatter(12));
  EXPECT_GT(reference.metrics.messages, 0u);
  for (const std::uint32_t w_count : {1u, 2u, 8u}) {
    for (const auto policy : {PartitionPolicy::Range, PartitionPolicy::Hash}) {
      NetworkConfig shard_cfg = cfg;
      shard_cfg.shard.workers = w_count;
      shard_cfg.shard.policy = policy;
      const Network net(g, shard_cfg);
      const RunOutcome outcome = net.run(chatter(12));
      const std::string label = "W=" + std::to_string(w_count) + " policy " +
                                std::string(to_string(policy));
      expect_outcomes_identical(reference, outcome, label);
      // Both sides of the timer split are measured at every W.
      const obs::EngineTimers& timers = outcome.metrics.timers;
      EXPECT_EQ(timers.node_rounds_invoked,
                reference.metrics.timers.node_rounds_invoked)
          << label;
      EXPECT_GT(timers.compute_ns, 0u) << label;
      EXPECT_GT(timers.delivery_ns, 0u) << label;
    }
  }
}

TEST(Shard, AmplifiedRunsIdenticalAtEveryWorkersAndJobs) {
  Rng rng(29);
  const Graph g = build::gnp(48, 0.08, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 40;
  cfg.seed = 5;
  cfg.trace.enabled = true;
  AmplifyOptions opts;
  opts.jobs = 1;
  opts.early_exit = false;
  const RunOutcome reference = run_amplified(g, cfg, chatter(8), 6, opts);
  for (const std::uint32_t w_count : {1u, 2u, 8u}) {
    for (const unsigned jobs : {1u, 4u}) {
      NetworkConfig shard_cfg = cfg;
      shard_cfg.shard.workers = w_count;
      AmplifyOptions sharded_opts = opts;
      sharded_opts.jobs = jobs;
      const RunOutcome other =
          run_amplified(g, shard_cfg, chatter(8), 6, sharded_opts);
      expect_outcomes_identical(reference, other,
                                "W=" + std::to_string(w_count) + " jobs=" +
                                    std::to_string(jobs));
    }
  }
}

TEST(Shard, FaultyRunBitIdenticalIncludingReportOrder) {
  const Graph g = build::cycle(40);
  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 48;
  cfg.seed = 3;
  cfg.trace.enabled = true;
  cfg.faults.drop = 0.08;
  cfg.faults.corrupt = 0.05;
  cfg.faults.crashes.push_back({7, 4});
  cfg.faults.crashes.push_back({23, 9});
  const Network w1(g, cfg);
  const RunOutcome reference = w1.run(chatter(16));
  EXPECT_FALSE(reference.faults.crashed_nodes.empty());
  for (const std::uint32_t w_count : {2u, 8u}) {
    NetworkConfig shard_cfg = cfg;
    shard_cfg.shard.workers = w_count;
    shard_cfg.shard.policy = PartitionPolicy::Hash;
    const Network net(g, shard_cfg);
    expect_outcomes_identical(reference, net.run(chatter(16)),
                              "faulty W=" + std::to_string(w_count));
  }
}

TEST(Shard, ViolationListOrderMatchesClassic) {
  const Graph g = build::complete(12);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 8;
  const auto naughty = [](std::uint32_t) { return std::make_unique<Naughty>(); };
  const Network w1(g, cfg);
  const RunOutcome reference = w1.run(naughty);
  ASSERT_GE(reference.faults.violations.size(), 12u);
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 5;
  shard_cfg.shard.policy = PartitionPolicy::Hash;
  const Network net(g, shard_cfg);
  const RunOutcome sharded = net.run(naughty);
  ASSERT_EQ(sharded.faults.violations.size(),
            reference.faults.violations.size());
  for (std::size_t i = 0; i < reference.faults.violations.size(); ++i)
    EXPECT_TRUE(sharded.faults.violations[i] == reference.faults.violations[i])
        << "violation " << i << " out of order";
}

TEST(Shard, TranscriptAndOnMessageReplayInClassicOrder) {
  const Graph g = build::grid(6, 6);
  NetworkConfig cfg;
  cfg.bandwidth = 12;
  cfg.max_rounds = 24;
  cfg.seed = 9;
  cfg.record_transcript = true;
  using Event = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t,
                           std::uint64_t>;
  std::vector<Event> w1_events;
  cfg.on_message = [&](std::uint64_t r, std::uint32_t s, std::uint32_t d,
                       std::uint64_t bits) {
    w1_events.emplace_back(r, s, d, bits);
  };
  const Network w1(g, cfg);
  const RunOutcome reference = w1.run(chatter(6));
  ASSERT_FALSE(reference.transcript.empty());

  std::vector<Event> sharded_events;
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 4;
  shard_cfg.on_message = [&](std::uint64_t r, std::uint32_t s,
                             std::uint32_t d, std::uint64_t bits) {
    sharded_events.emplace_back(r, s, d, bits);
  };
  const Network net(g, shard_cfg);
  expect_outcomes_identical(reference, net.run(chatter(6)), "transcript");
  EXPECT_EQ(w1_events, sharded_events);
}

TEST(Shard, BroadcastOnlyModeMatches) {
  const Graph g = build::star(9);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 6;
  cfg.broadcast_only = true;
  const Network w1(g, cfg);
  const RunOutcome reference = w1.run(chatter(3));
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 3;
  const Network net(g, shard_cfg);
  expect_outcomes_identical(reference, net.run(chatter(3)), "broadcast");
}

// ---------------------------------------------------------------------------
// Checkpoints, resume, snapshots
// ---------------------------------------------------------------------------

TEST(Shard, SnapshotsAreBitIdenticalAndResumeAcrossWorkerCounts) {
  Rng rng(31);
  const Graph g = build::gnp(56, 0.07, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 16;
  cfg.max_rounds = 48;
  cfg.seed = 21;
  cfg.trace.enabled = true;
  const Network w1(g, cfg);
  const RunOutcome reference = w1.run(chatter(10));
  ASSERT_GE(reference.metrics.rounds, 6u);

  NetworkConfig ckpt_cfg = cfg;
  ckpt_cfg.checkpoint_at_round = 5;
  const Network w1_ckpt(g, ckpt_cfg);
  const RunOutcome w1_observed = w1_ckpt.run(chatter(10));
  ASSERT_NE(w1_observed.checkpoint, nullptr);
  const std::string w1_snap_json = to_json(*w1_observed.checkpoint).dump();

  for (const std::uint32_t w_count : {1u, 2u, 8u}) {
    NetworkConfig shard_ckpt = ckpt_cfg;
    shard_ckpt.shard.workers = w_count;
    shard_ckpt.shard.policy = PartitionPolicy::Hash;
    const Network net(g, shard_ckpt);
    const RunOutcome observed = net.run(chatter(10));
    ASSERT_NE(observed.checkpoint, nullptr);
    // csd-ckpt-v1 snapshots are bit-identical at every worker count.
    EXPECT_EQ(to_json(*observed.checkpoint).dump(), w1_snap_json)
        << "snapshot differs at W=" << w_count;
    // A snapshot taken at W resumes at any other worker count (and at
    // W = 1) to the uninterrupted outcome.
    NetworkConfig resume_cfg = cfg;
    resume_cfg.shard.workers = w_count == 8 ? 2 : 8;
    const Network resume_net(g, resume_cfg);
    const RunOutcome resumed =
        resume_net.resume(chatter(10), *observed.checkpoint);
    EXPECT_EQ(resumed.verdicts, reference.verdicts);
    EXPECT_EQ(resumed.metrics.messages, reference.metrics.messages);
    EXPECT_EQ(resumed.metrics.total_bits, reference.metrics.total_bits);
    EXPECT_TRUE(resumed.faults == reference.faults);
    const RunOutcome w1_resumed = w1.resume(chatter(10), *observed.checkpoint);
    EXPECT_EQ(w1_resumed.metrics.total_bits, reference.metrics.total_bits);
  }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(Shard, ChannelCountersSurfaceInMetricsAndTraceSummary) {
  const Graph g = build::cycle(32);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 32;
  cfg.trace.enabled = true;
  cfg.shard.workers = 4;  // Range on a cycle: 4 contiguous arcs, 8 cut edges
  cfg.shard.channel_counters = true;
  obs::Telemetry telemetry;
  cfg.telemetry = &telemetry;
  const Network net(g, cfg);
  const RunOutcome outcome = net.run(chatter(8));
  EXPECT_EQ(outcome.metrics.counters.value("shard_workers"), 4u);
  EXPECT_EQ(outcome.metrics.counters.value("shard_cut_edges"), 8u);
  std::uint64_t channel_bytes = 0, channel_frames = 0;
  for (std::uint32_t w = 0; w < 4; ++w) {
    channel_bytes += outcome.metrics.counters.value(
        obs::worker_counter_name("shard_channel_bytes", w));
    channel_frames += outcome.metrics.counters.value(
        obs::worker_counter_name("shard_channel_frames", w));
  }
  EXPECT_GT(channel_bytes, 0u);
  EXPECT_NE(trace_jsonl(outcome).find("shard_channel_bytes_w0"),
            std::string::npos);
  // Fault-free: every accounted message was delivered either locally or
  // through a channel, and each exactly once.
  EXPECT_EQ(channel_frames, telemetry.counter("shard_channel_frames").value());
  EXPECT_EQ(channel_frames + telemetry.counter("shard_local_frames").value(),
            outcome.metrics.messages);

  // Off by default: the determinism matrix never sees worker-dependent
  // counters.
  NetworkConfig plain = cfg;
  plain.shard.channel_counters = false;
  plain.telemetry = nullptr;
  const Network plain_net(g, plain);
  const RunOutcome plain_outcome = plain_net.run(chatter(8));
  EXPECT_EQ(plain_outcome.metrics.counters.value("shard_workers"), 0u);
  EXPECT_EQ(trace_jsonl(plain_outcome).find("shard_workers"),
            std::string::npos);

  // One worker reports itself too: nothing crosses a channel.
  NetworkConfig single = cfg;
  single.shard.workers = 1;
  single.telemetry = nullptr;
  const RunOutcome single_outcome = Network(g, single).run(chatter(8));
  EXPECT_EQ(single_outcome.metrics.counters.value("shard_workers"), 1u);
  EXPECT_EQ(single_outcome.metrics.counters.value("shard_cut_edges"), 0u);
  EXPECT_EQ(single_outcome.metrics.counters.value(
                obs::worker_counter_name("shard_channel_frames", 0)),
            0u);
}

TEST(Shard, StallWindowFiresIdentically) {
  /// Never halts, never sends: the watchdog must cut W = 1 and W = 3 at
  /// the same round with the same report.
  class Mute final : public NodeProgram {
   public:
    void on_round(NodeApi&) override {}
  };
  const Graph g = build::path(10);
  NetworkConfig cfg;
  cfg.max_rounds = 1000;
  cfg.stall_window = 7;
  const auto factory = [](std::uint32_t) { return std::make_unique<Mute>(); };
  const Network w1(g, cfg);
  const RunOutcome reference = w1.run(factory);
  EXPECT_EQ(reference.faults.watchdog_stalls, 1u);
  NetworkConfig shard_cfg = cfg;
  shard_cfg.shard.workers = 3;
  const Network net(g, shard_cfg);
  expect_outcomes_identical(reference, net.run(factory), "stall");
}

TEST(Shard, SleepingProgramsBitIdenticalAtEveryWorkersAndJobs) {
  // Active-set scheduling per worker lane: sleeps, frame wakes across
  // worker boundaries, faults and crash rounds inside sleeps, with and
  // without the audit, all bit-identical to W = 1.
  Rng rng(31);
  const Graph g = build::gnp(40, 0.1, rng);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  cfg.max_rounds = 120;
  cfg.seed = 9;
  cfg.trace.enabled = true;
  for (const bool faulty : {false, true}) {
    NetworkConfig base = cfg;
    if (faulty) {
      base.faults.drop = 0.1;
      base.faults.corrupt = 0.05;
      base.faults.crashes = {{4, 6}, {11, 13}};
    }
    AmplifyOptions opts;
    opts.jobs = 1;
    opts.early_exit = false;
    const RunOutcome reference =
        run_amplified(g, base, sleepy::random_sleepers(24), 4, opts);
    for (const std::uint32_t w_count : {1u, 2u, 8u}) {
      for (const unsigned jobs : {1u, 4u}) {
        for (const bool audit : {false, true}) {
          NetworkConfig shard_cfg = base;
          shard_cfg.shard.workers = w_count;
          shard_cfg.audit_sleep = audit;
          AmplifyOptions sharded_opts = opts;
          sharded_opts.jobs = jobs;
          expect_outcomes_identical(
              reference,
              run_amplified(g, shard_cfg, sleepy::random_sleepers(24), 4,
                            sharded_opts),
              std::string(faulty ? "faulty " : "") +
                  "W=" + std::to_string(w_count) +
                  " jobs=" + std::to_string(jobs) +
                  (audit ? " audit" : ""));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden outputs of the single-loop engine that W = 1 replaced
// ---------------------------------------------------------------------------

std::string golden_path(const std::string& name) {
  return std::string(CSD_SYNC_GOLDEN_DIR) + "/" + name;
}

std::map<std::string, std::string> golden_traces() {
  return golden::read_traces(golden_path("traces.txt"));
}

using golden::read_file;
using golden::report_without_env;
using golden::size_and_digest;

TEST(SyncGolden, CliOutputsReproduceAtEveryWorkersAndJobs) {
  struct Case {
    std::string name;
    std::vector<std::string> args;
    bool auditable;  // --audit-sleep: cycle 2k, or any pattern supervised
  };
  const std::vector<Case> cases = {
      {"cycle4",
       {"cycle", "4", "forest256.txt", "--reps", "8", "--seed", "11"},
       true},
      {"cycle4_faults",
       {"cycle", "4", "forest256.txt", "--reps", "8", "--seed", "11",
        "--supervised", "--drop", "0.05", "--crash", "7:3"},
       true},
      {"clique3",
       {"clique", "3", "gnp96.txt", "--reps", "1", "--seed", "11"},
       false},
      {"clique3_faults",
       {"clique", "3", "gnp96.txt", "--seed", "11", "--supervised", "--drop",
        "0.05", "--crash", "5:1"},
       true},
  };
  const std::map<std::string, std::string> traces = golden_traces();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "csd_sync_golden";
  std::filesystem::create_directories(dir);
  const std::string json = (dir / "report.json").string();
  const std::string trace = (dir / "trace.jsonl").string();
  for (const Case& c : cases) {
    const std::string want_report =
        report_without_env(read_file(golden_path(c.name + ".json")));
    for (const std::string workers : {"1", "2", "8"}) {
      for (const std::string jobs : {"1", "4"}) {
        for (const bool audit : {false, true}) {
          if (audit && !c.auditable) continue;
          std::vector<std::string> args = {"detect"};
          for (const std::string& a : c.args)
            args.push_back(a.ends_with(".txt") ? golden_path(a) : a);
          for (const std::string& a :
               {std::string("--workers"), workers, std::string("--jobs"), jobs,
                std::string("--json"), json, std::string("--trace"), trace})
            args.push_back(a);
          if (audit) args.push_back("--audit-sleep");
          const std::string label = c.name + " W=" + workers +
                                    " jobs=" + jobs +
                                    (audit ? " audit" : "");
          std::ostringstream out, err;
          ASSERT_EQ(cli::run(args, out, err), 0) << label << ": " << err.str();
          EXPECT_EQ(report_without_env(read_file(json)), want_report)
              << label;
          EXPECT_EQ(size_and_digest(read_file(trace)), traces.at(c.name))
              << label;
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SyncGolden, SnapshotReproducesAndResumesAtEveryWorkerCount) {
  const Graph g = io::load(golden_path("gnp32.txt"));
  NetworkConfig cfg;
  cfg.seed = 11;
  cfg.bandwidth = 64;
  cfg.max_rounds = 64;
  cfg.faults.drop = 0.05;
  cfg.faults.corrupt = 0.01;
  cfg.faults.crashes.push_back({5, 2});
  cfg.trace.enabled = true;
  cfg.checkpoint_at_round = 1;
  const ProgramFactory factory = detect::clique_detect_program(3);
  const std::string want = read_file(golden_path("snapshot_clique3.json"));
  const Snapshot golden = load_snapshot(golden_path("snapshot_clique3.json"));
  const std::string want_trace = golden_traces().at("snapshot_run");
  const std::string saved =
      (std::filesystem::temp_directory_path() / "csd_sync_golden_ckpt.json")
          .string();
  for (const std::uint32_t w_count : {1u, 2u, 8u}) {
    const std::string label = "W=" + std::to_string(w_count);
    NetworkConfig shard_cfg = cfg;
    shard_cfg.shard.workers = w_count;
    const Network net(g, shard_cfg);
    const RunOutcome full = net.run(factory);
    ASSERT_NE(full.checkpoint, nullptr) << label;
    save_snapshot(saved, *full.checkpoint);
    EXPECT_EQ(read_file(saved), want) << label;
    // The run the snapshot was taken from, as recorded alongside it.
    EXPECT_EQ(size_and_digest(trace_jsonl(full)), want_trace) << label;
    EXPECT_EQ(full.metrics.rounds, 64u) << label;
    EXPECT_EQ(full.metrics.messages, 369u) << label;
    EXPECT_EQ(full.metrics.total_bits, 6380u) << label;
    EXPECT_EQ(full.faults.frames_dropped, 17u) << label;
    EXPECT_EQ(full.faults.frames_corrupted, 5u) << label;
    EXPECT_EQ(full.faults.crashed_nodes.size(), 11u) << label;
    EXPECT_EQ(full.faults.violations.size(), 11u) << label;
    // Resuming the recorded snapshot reproduces the rest of the run.
    const RunOutcome resumed = net.resume(factory, golden);
    EXPECT_EQ(resumed.completed, full.completed) << label;
    EXPECT_EQ(resumed.detected, full.detected) << label;
    EXPECT_EQ(resumed.verdicts, full.verdicts) << label;
    EXPECT_EQ(resumed.metrics.rounds, full.metrics.rounds) << label;
    EXPECT_EQ(resumed.metrics.messages, full.metrics.messages) << label;
    EXPECT_EQ(resumed.metrics.total_bits, full.metrics.total_bits) << label;
    EXPECT_EQ(resumed.metrics.bits_sent_by_node,
              full.metrics.bits_sent_by_node)
        << label;
    EXPECT_TRUE(resumed.faults == full.faults) << label;
  }
  std::remove(saved.c_str());
}

}  // namespace
}  // namespace csd::congest
