// Tests for the CONGEST simulator: round semantics, bandwidth enforcement,
// metrics accounting, transcripts, identifiers, the congested-clique
// helpers, and active-set scheduling against the unscheduled reference.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/clique.hpp"
#include "congest/network.hpp"
#include "graph/builders.hpp"
#include "obs/metrics_v2.hpp"
#include "sleepy_programs.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace csd::congest {
namespace {

/// Broadcasts its id once, collects neighbor ids, halts after `rounds`.
class GossipOnce final : public NodeProgram {
 public:
  explicit GossipOnce(std::uint64_t rounds) : rounds_(rounds) {}
  void on_round(NodeApi& api) override {
    const unsigned bits = wire::bits_for(api.network_size());
    if (api.round() == 0) {
      wire::Writer w;
      w.u(api.id(), bits);
      api.broadcast(std::move(w).take());
    }
    if (api.round() == 1) {
      for (std::uint32_t p = 0; p < api.degree(); ++p) {
        const auto* msg = api.inbox(p);
        ASSERT_TRUE(msg != nullptr);
        wire::Reader r(*msg);
        EXPECT_EQ(r.u(bits), api.neighbor_id(p));
      }
    }
    if (api.round() + 1 >= rounds_) api.halt();
  }

 private:
  std::uint64_t rounds_;
};

TEST(Network, MessagesDeliveredNextRoundToCorrectPort) {
  const Graph g = build::cycle(6);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<GossipOnce>(2); });
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.detected);
  EXPECT_EQ(outcome.metrics.rounds, 2u);
  EXPECT_EQ(outcome.metrics.messages, 12u);  // 6 nodes x 2 ports
}

TEST(Network, DefaultIdsAreIndices) {
  const Graph g = build::path(4);
  Network net(g, NetworkConfig{});
  ASSERT_EQ(net.ids().size(), 4u);
  EXPECT_EQ(net.ids()[3], 3u);
}

TEST(Network, CustomIdsVisibleToPrograms) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 0;
  cfg.namespace_size = 128;
  Network net(g, cfg, {42, 99});
  std::vector<NodeId> observed(2);

  class IdProbe final : public NodeProgram {
   public:
    IdProbe(NodeId* slot, NodeId* peer) : slot_(slot), peer_(peer) {}
    void on_round(NodeApi& api) override {
      *slot_ = api.id();
      *peer_ = api.neighbor_id(0);
      api.halt();
    }

   private:
    NodeId* slot_;
    NodeId* peer_;
  };

  std::vector<NodeId> peers(2);
  auto outcome = net.run([&](std::uint32_t v) {
    return std::make_unique<IdProbe>(&observed[v], &peers[v]);
  });
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(observed[0], 42u);
  EXPECT_EQ(observed[1], 99u);
  EXPECT_EQ(peers[0], 99u);
  EXPECT_EQ(peers[1], 42u);
}

class OverBudgetSender final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    BitVec big(100, true);
    api.broadcast(big);  // exceeds any small bandwidth
    api.halt();
  }
};

TEST(Network, BandwidthEnforced) {
  // Over-budget sends no longer abort the run: the payload is truncated to
  // B bits and a Bandwidth violation is recorded on the outcome.
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 8;
  auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<OverBudgetSender>();
  });
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.metrics.max_message_bits, 8u);
  ASSERT_EQ(outcome.faults.violations.size(), 2u);  // one per sender
  for (const auto& violation : outcome.faults.violations)
    EXPECT_EQ(violation.kind, ViolationKind::Bandwidth);
}

TEST(Network, UnboundedBandwidthIsLocalModel) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 0;  // LOCAL
  auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<OverBudgetSender>();
  });
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.metrics.max_message_bits, 100u);
}

class DoubleSender final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    BitVec first(1);
    first.set(0, true);
    api.send(0, first);
    api.send(0, BitVec(2));  // second send on same port: model violation
    api.halt();
  }
};

TEST(Network, OneMessagePerEdgePerRound) {
  // The second send on a port is ignored (first wins) and recorded as a
  // DuplicateSend violation instead of aborting the run.
  const Graph g = build::path(2);
  auto outcome = run_congest(g, NetworkConfig{}, [](std::uint32_t) {
    return std::make_unique<DoubleSender>();
  });
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.metrics.max_message_bits, 1u);  // first send delivered
  ASSERT_EQ(outcome.faults.violations.size(), 2u);  // one per node
  for (const auto& violation : outcome.faults.violations)
    EXPECT_EQ(violation.kind, ViolationKind::DuplicateSend);
}

class NeverHalts final : public NodeProgram {
 public:
  void on_round(NodeApi&) override {}
};

TEST(Network, RoundCapStopsRunaways) {
  const Graph g = build::path(3);
  NetworkConfig cfg;
  cfg.max_rounds = 10;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<NeverHalts>(); });
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.metrics.rounds, 10u);
}

class RejectIfIndexZero final : public NodeProgram {
 public:
  explicit RejectIfIndexZero(bool is_zero) : is_zero_(is_zero) {}
  void on_round(NodeApi& api) override {
    if (is_zero_) api.reject();
    api.halt();
  }

 private:
  bool is_zero_;
};

TEST(Network, VerdictAggregation) {
  const Graph g = build::path(3);
  auto outcome = run_congest(g, NetworkConfig{}, [](std::uint32_t v) {
    return std::make_unique<RejectIfIndexZero>(v == 0);
  });
  EXPECT_TRUE(outcome.detected);
  EXPECT_EQ(outcome.verdicts[0], Verdict::Reject);
  EXPECT_EQ(outcome.verdicts[1], Verdict::Accept);
}

class PingOnce final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    if (api.round() == 0 && api.id() == 0) {
      BitVec three(3, true);
      api.send(0, three);
    }
    if (api.round() == 1) api.halt();
  }
};

TEST(Network, MetricsCountBits) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.bandwidth = 4;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<PingOnce>(); });
  EXPECT_EQ(outcome.metrics.total_bits, 3u);
  EXPECT_EQ(outcome.metrics.messages, 1u);
  EXPECT_EQ(outcome.metrics.bits_sent_by_node[0], 3u);
  EXPECT_EQ(outcome.metrics.bits_sent_by_node[1], 0u);
}

TEST(Network, TranscriptRecordsMessages) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.record_transcript = true;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<PingOnce>(); });
  ASSERT_EQ(outcome.transcript.size(), 1u);
  EXPECT_EQ(outcome.transcript[0].src, 0u);
  EXPECT_EQ(outcome.transcript[0].dst, 1u);
  EXPECT_EQ(outcome.transcript[0].round, 0u);
  EXPECT_EQ(outcome.transcript[0].payload.size(), 3u);
}

TEST(Network, ObserverSeesMessages) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  std::uint64_t observed_bits = 0;
  cfg.on_message = [&](std::uint64_t, std::uint32_t src, std::uint32_t dst,
                       std::uint64_t bits) {
    EXPECT_EQ(src, 0u);
    EXPECT_EQ(dst, 1u);
    observed_bits += bits;
  };
  run_congest(g, cfg,
              [](std::uint32_t) { return std::make_unique<PingOnce>(); });
  EXPECT_EQ(observed_bits, 3u);
}

TEST(Network, RngIsPerNodeAndSeedDeterministic) {
  const Graph g = build::path(2);

  class RngProbe final : public NodeProgram {
   public:
    explicit RngProbe(std::uint64_t* out) : out_(out) {}
    void on_round(NodeApi& api) override {
      *out_ = api.rng()();
      api.halt();
    }

   private:
    std::uint64_t* out_;
  };

  std::vector<std::uint64_t> draws_a(2), draws_b(2);
  NetworkConfig cfg;
  cfg.seed = 77;
  Network(g, cfg).run([&](std::uint32_t v) {
    return std::make_unique<RngProbe>(&draws_a[v]);
  });
  Network(g, cfg).run([&](std::uint32_t v) {
    return std::make_unique<RngProbe>(&draws_b[v]);
  });
  EXPECT_EQ(draws_a, draws_b);       // deterministic per seed
  EXPECT_NE(draws_a[0], draws_a[1]);  // nodes draw independently
}

TEST(RunAmplified, AggregatesDetection) {
  const Graph g = build::path(2);

  // Rejects only when the node rng's first draw is even: a ~1/2 chance per
  // repetition, so 20 repetitions detect with overwhelming probability.
  class CoinReject final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.rng()() % 2 == 0) api.reject();
      api.halt();
    }
  };

  NetworkConfig cfg;
  cfg.seed = 5;
  const auto factory = [](std::uint32_t) {
    return std::make_unique<CoinReject>();
  };

  // Default driver: stop after the first rejecting repetition (one-sided
  // error makes further repetitions redundant) and account honestly.
  auto outcome = run_amplified(g, cfg, factory, 20);
  EXPECT_TRUE(outcome.detected);
  EXPECT_EQ(outcome.metrics.repetitions_executed +
                outcome.metrics.repetitions_skipped,
            20u);
  // Each executed repetition is exactly one round; costs cover only what ran.
  EXPECT_EQ(outcome.metrics.rounds, outcome.metrics.repetitions_executed);

  // Exhaustive mode: every repetition runs and the costs sum over all 20.
  AmplifyOptions all;
  all.early_exit = false;
  auto full = run_amplified(g, cfg, factory, 20, all);
  EXPECT_TRUE(full.detected);
  EXPECT_EQ(full.metrics.repetitions_executed, 20u);
  EXPECT_EQ(full.metrics.repetitions_skipped, 0u);
  EXPECT_EQ(full.metrics.rounds, 20u);  // summed over repetitions
}

// -------------------------------------------------- namespace & broadcast --
TEST(Network, NamespaceDefaultsToSizeAndIsVisible) {
  const Graph g = build::path(3);

  class NamespaceProbe final : public NodeProgram {
   public:
    explicit NamespaceProbe(std::uint64_t* out) : out_(out) {}
    void on_round(NodeApi& api) override {
      *out_ = api.namespace_size();
      api.halt();
    }

   private:
    std::uint64_t* out_;
  };

  std::uint64_t seen = 0;
  run_congest(g, NetworkConfig{}, [&](std::uint32_t) {
    return std::make_unique<NamespaceProbe>(&seen);
  });
  EXPECT_EQ(seen, 3u);

  NetworkConfig wide;
  wide.namespace_size = 1000;
  run_congest(g, wide, [&](std::uint32_t) {
    return std::make_unique<NamespaceProbe>(&seen);
  });
  EXPECT_EQ(seen, 1000u);
}

TEST(Network, RejectsIdsOutsideNamespace) {
  const Graph g = build::path(2);
  NetworkConfig cfg;
  cfg.namespace_size = 10;
  Network net(g, cfg, {3, 11});
  EXPECT_THROW(net.run([](std::uint32_t) {
    return std::make_unique<NeverHalts>();
  }),
               CheckFailure);
}

class PerPortSender final : public NodeProgram {
 public:
  void on_round(NodeApi& api) override {
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      BitVec payload;
      payload.append_bits(p, 4);  // different content per port
      api.send(p, payload);
    }
    api.halt();
  }
};

TEST(Network, BroadcastOnlyRejectsPerPortMessages) {
  const Graph g = build::path(3);  // middle node has two ports
  NetworkConfig cfg;
  cfg.broadcast_only = true;
  auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<PerPortSender>();
  });
  EXPECT_TRUE(outcome.completed);
  // Only the middle node has two ports with differing payloads.
  ASSERT_EQ(outcome.faults.violations.size(), 1u);
  EXPECT_EQ(outcome.faults.violations[0].kind,
            ViolationKind::BroadcastMismatch);
  EXPECT_EQ(outcome.faults.violations[0].node, 1u);
}

TEST(Network, ScheduledCrashProducesFaultReport) {
  // A crashed node falls silent: it stops executing rounds and its queued
  // messages are discarded, but the run continues for everyone else.
  class HaltAtThree final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.round() >= 3) api.halt();
    }
  };
  const Graph g = build::path(3);
  NetworkConfig cfg;
  cfg.max_rounds = 8;
  cfg.faults.crashes = {{1, 1}};
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<HaltAtThree>(); });
  EXPECT_FALSE(outcome.completed);  // the crashed node never halts
  EXPECT_EQ(outcome.faults.crashed_nodes, (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(outcome.faults.stalled_nodes.empty());  // ends halt anyway
  EXPECT_FALSE(outcome.faults.detected_by_survivors);
}

TEST(Network, ProgramFaultCrashesNodeNotProcess) {
  // Under a fault plan a throwing program becomes a crashed node with a
  // ProgramFault violation; without one, the engine stays fail-fast.
  class ThrowsAtTwo final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      CSD_CHECK_MSG(api.round() != 2 || api.id() != 0, "decode exploded");
      if (api.round() >= 4) api.halt();
    }
  };
  const Graph g = build::path(2);
  const auto factory = [](std::uint32_t) {
    return std::make_unique<ThrowsAtTwo>();
  };

  NetworkConfig strict;
  strict.max_rounds = 8;
  EXPECT_THROW(run_congest(g, strict, factory), CheckFailure);

  NetworkConfig graceful = strict;
  graceful.faults.crashes = {{1, 1000}};  // any plan enables degradation
  auto outcome = run_congest(g, graceful, factory);
  EXPECT_EQ(outcome.faults.crashed_nodes, (std::vector<std::uint32_t>{0}));
  ASSERT_EQ(outcome.faults.violations.size(), 1u);
  EXPECT_EQ(outcome.faults.violations[0].kind, ViolationKind::ProgramFault);
  EXPECT_EQ(outcome.faults.violations[0].node, 0u);
  EXPECT_EQ(outcome.faults.violations[0].round, 2u);
}

TEST(Network, BroadcastOnlyAllowsUniformMessages) {
  const Graph g = build::cycle(5);
  NetworkConfig cfg;
  cfg.broadcast_only = true;
  cfg.bandwidth = 8;
  auto outcome = run_congest(
      g, cfg, [](std::uint32_t) { return std::make_unique<GossipOnce>(2); });
  EXPECT_TRUE(outcome.completed);
}

// ------------------------------------------------------ congested clique --
TEST(Clique, PortPeerInverse) {
  for (Vertex v = 0; v < 8; ++v)
    for (std::uint32_t p = 0; p < 7; ++p) {
      const Vertex w = clique_peer(v, p);
      EXPECT_NE(w, v);
      EXPECT_EQ(clique_port(v, w), p);
    }
}

TEST(Clique, PortsMatchCompleteTopology) {
  const Graph k5 = build::complete(5);
  for (Vertex v = 0; v < 5; ++v) {
    const auto nbrs = k5.neighbors(v);
    for (std::uint32_t p = 0; p < nbrs.size(); ++p)
      EXPECT_EQ(nbrs[p], clique_peer(v, p));
  }
}

TEST(Clique, RunsProgramsAllToAll) {
  class CountNeighbors final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      EXPECT_EQ(api.degree(), api.network_size() - 1);
      api.halt();
    }
  };
  auto outcome = run_congested_clique(6, NetworkConfig{}, [](std::uint32_t) {
    return std::make_unique<CountNeighbors>();
  });
  EXPECT_TRUE(outcome.completed);
}

// -- active-set scheduling (NodeApi::sleep_until) ---------------------------

using sleepy::no_sleep;
using sleepy::random_sleepers;
using sleepy::ScriptedSleeper;

std::string trace_jsonl(const RunOutcome& outcome) {
  std::ostringstream os;
  outcome.trace.write_jsonl(os);
  return os.str();
}

/// Every deterministic outcome field, the trace bytes included.
void expect_same_run(const RunOutcome& a, const RunOutcome& b,
                     const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.detected, b.detected) << label;
  EXPECT_EQ(a.verdicts, b.verdicts) << label;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << label;
  EXPECT_EQ(a.metrics.messages, b.metrics.messages) << label;
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits) << label;
  EXPECT_EQ(a.metrics.bits_sent_by_node, b.metrics.bits_sent_by_node)
      << label;
  EXPECT_TRUE(a.faults == b.faults) << label;
  EXPECT_EQ(trace_jsonl(a), trace_jsonl(b)) << label;
}

/// Path 0 - 1. Node 0 pings node 1 in rounds 0 and 4 and sleeps between;
/// node 1 sleeps to round 5 and rejects on its second frame.
struct PingScript {
  std::vector<std::vector<std::uint64_t>> calls{2};
  ProgramFactory factory() {
    return [this](std::uint32_t v) {
      ScriptedSleeper::Script script;
      if (v == 0) {
        script.sends = {0, 4};
        script.deadlines = {4};
      } else {
        script.deadlines = {5};
        script.reject_after = 2;
      }
      return std::make_unique<ScriptedSleeper>(script, &calls[v]);
    };
  }
};

TEST(ActiveSet, WakesOnFrameAtDeadlineAndOnceForBoth) {
  NetworkConfig cfg;
  cfg.trace.timers = true;
  const Network net(build::path(2), cfg);
  PingScript script;
  const RunOutcome outcome = net.run(script.factory());
  // Node 1: woken by the round-0 frame in round 1, then once in round 5,
  // where its deadline and the round-4 frame coincide.
  EXPECT_EQ(script.calls[0], (std::vector<std::uint64_t>{0, 4, 8}));
  EXPECT_EQ(script.calls[1], (std::vector<std::uint64_t>{0, 1, 5, 8}));
  EXPECT_TRUE(outcome.detected);
  EXPECT_EQ(outcome.verdicts[1], Verdict::Reject);
  EXPECT_EQ(outcome.metrics.rounds, 9u);
  EXPECT_EQ(outcome.metrics.messages, 2u);
  EXPECT_EQ(outcome.metrics.timers.node_rounds_invoked, 7u);

  PingScript reference;
  expect_same_run(outcome, net.run(no_sleep(reference.factory())),
                  "unscheduled reference");
  EXPECT_EQ(reference.calls[1].size(), 9u);

  NetworkConfig audit_cfg = cfg;
  audit_cfg.audit_sleep = true;
  PingScript audited;
  const RunOutcome audit = Network(build::path(2), audit_cfg)
                               .run(audited.factory());
  expect_same_run(outcome, audit, "audit");
  EXPECT_EQ(audit.metrics.timers.node_rounds_invoked, 18u);
}

TEST(ActiveSet, DroppedFrameDoesNotWakeCorruptedOneDoes) {
  for (const bool drop : {true, false}) {
    NetworkConfig cfg;
    if (drop)
      cfg.faults.drop = 1.0;
    else
      cfg.faults.corrupt = 1.0;
    const Network net(build::path(2), cfg);
    PingScript script;
    const RunOutcome outcome = net.run(script.factory());
    const std::vector<std::uint64_t> expected =
        drop ? std::vector<std::uint64_t>{0, 5, 8}
             : std::vector<std::uint64_t>{0, 1, 5, 8};
    EXPECT_EQ(script.calls[1], expected) << (drop ? "drop" : "corrupt");
    EXPECT_EQ(outcome.detected, !drop);
    PingScript reference;
    expect_same_run(outcome, net.run(no_sleep(reference.factory())),
                    drop ? "drop" : "corrupt");
  }
}

TEST(ActiveSet, CrashRoundInsideASleepLandsOnTime) {
  // Node 1 sleeps from round 1 to 5 but is scheduled to crash in round 3;
  // node 0 halts in round 2, so the run ends exactly when the crash lands.
  NetworkConfig cfg;
  cfg.faults.crashes = {{1, 3}};
  const Network net(build::path(2), cfg);
  std::vector<std::vector<std::uint64_t>> calls(2);
  const auto factory = [&calls](std::uint32_t v) {
    ScriptedSleeper::Script script;
    if (v == 0) {
      script.sends = {0};
      script.halt_at = 2;
    } else {
      script.deadlines = {5};
    }
    return std::make_unique<ScriptedSleeper>(script, &calls[v]);
  };
  const RunOutcome outcome = net.run(factory);
  EXPECT_EQ(calls[1], (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(outcome.faults.crashed_nodes, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(outcome.metrics.rounds, 3u);
  expect_same_run(outcome, net.run(no_sleep(factory)), "crash");
}

TEST(ActiveSet, StallWatchdogFiresWhileEveryNodeSleeps) {
  NetworkConfig cfg;
  cfg.stall_window = 4;
  cfg.trace.enabled = true;
  const Network net(build::path(3), cfg);
  const auto factory = [](std::uint32_t) {
    ScriptedSleeper::Script script;
    script.deadlines = {100};
    script.halt_at = 100;
    return std::make_unique<ScriptedSleeper>(script, nullptr);
  };
  const RunOutcome outcome = net.run(factory);
  EXPECT_EQ(outcome.faults.watchdog_stalls, 1u);
  EXPECT_EQ(outcome.metrics.rounds, 4u);
  EXPECT_EQ(outcome.faults.stalled_nodes,
            (std::vector<std::uint32_t>{0, 1, 2}));
  expect_same_run(outcome, net.run(no_sleep(factory)), "watchdog");
}

TEST(ActiveSet, AuditCatchesABrokenPromise) {
  // Sleeps to round 6 but would send (or draw randomness) in round 3.
  class Liar final : public NodeProgram {
   public:
    explicit Liar(bool draws) : draws_(draws) {}
    void on_round(NodeApi& api) override {
      if (api.round() == 3) {
        if (draws_)
          (void)api.rng().below(2);
        else
          api.send(0, BitVec(1));
      }
      if (api.round() >= 6) api.halt();
      else api.sleep_until(6);
    }

   private:
    bool draws_;
  };
  for (const bool draws : {false, true}) {
    const auto factory = [draws](std::uint32_t) {
      return std::make_unique<Liar>(draws);
    };
    NetworkConfig cfg;
    EXPECT_TRUE(Network(build::path(2), cfg).run(factory).completed);
    cfg.audit_sleep = true;
    EXPECT_THROW(Network(build::path(2), cfg).run(factory), CheckFailure);
    cfg.shard.workers = 2;
    EXPECT_THROW(Network(build::path(2), cfg).run(factory), CheckFailure);
  }
}

TEST(ActiveSet, RandomSleepersMatchTheUnscheduledReference) {
  // Random hosts, fault-free and faulty: the scheduled run, the audited run
  // and the unscheduled reference agree on every output, the trace names a
  // phase for every round (phase_of), and scheduling skips calls.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Graph g = build::gnp(24, 0.15, rng);
    NetworkConfig cfg;
    cfg.bandwidth = 8;
    cfg.seed = seed;
    cfg.max_rounds = 200;
    cfg.trace.enabled = true;
    cfg.trace.timers = true;
    if (seed % 2 == 0) {
      cfg.faults.drop = 0.1;
      cfg.faults.corrupt = 0.1;
      cfg.faults.crashes = {{3, 7}, {5, 0}};
    }
    const std::string label = "seed " + std::to_string(seed);
    const Network net(g, cfg);
    const RunOutcome scheduled = net.run(random_sleepers(30));
    const RunOutcome reference = net.run(no_sleep(random_sleepers(30)));
    expect_same_run(scheduled, reference, label);
    EXPECT_LT(scheduled.metrics.timers.node_rounds_invoked,
              reference.metrics.timers.node_rounds_invoked)
        << label;
    for (const auto& row : scheduled.trace.rounds())
      EXPECT_GE(row.phase, 0) << label << " round " << row.round;

    NetworkConfig audit_cfg = cfg;
    audit_cfg.audit_sleep = true;
    expect_same_run(scheduled, Network(g, audit_cfg).run(random_sleepers(30)),
                    label + " audit");
  }
}

TEST(ActiveSet, InvocationCounterReachesTelemetry) {
  obs::Telemetry telemetry;
  NetworkConfig cfg;
  cfg.telemetry = &telemetry;
  PingScript script;
  (void)Network(build::path(2), cfg).run(script.factory());
  EXPECT_EQ(telemetry.counter("sync_node_invocations").value(), 7u);
}

}  // namespace
}  // namespace csd::congest
