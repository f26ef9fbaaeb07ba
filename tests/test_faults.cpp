// Unit tests for the fault-injection layer and the reliable ARQ transport:
// CRC correctness, deterministic fault fates, crash scheduling, and the
// sender/receiver protocol state machines (acks, reordering, duplicates,
// backoff, bounded retries) — all without spinning up an engine.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "congest/async.hpp"
#include "congest/faults.hpp"
#include "congest/network.hpp"
#include "congest/transport.hpp"
#include "graph/builders.hpp"
#include "support/check.hpp"
#include "support/crc.hpp"
#include "support/rng.hpp"

namespace csd::congest {
namespace {

// ------------------------------------------------------------------ CRC --
TEST(Crc32, KnownAnswerCheckValue) {
  // The canonical CRC-32 check value: ASCII "123456789" -> 0xCBF43926.
  // Bytes are fed LSB-first, the reflected algorithm's bit order.
  Crc32 crc;
  for (const char c : std::string("123456789"))
    crc.bits(static_cast<std::uint64_t>(static_cast<unsigned char>(c)), 8);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

/// Bit-serial CRC-32, the reference the bytewise table must reproduce: one
/// shift-and-conditional-xor step per input bit, in order.
class SerialCrc32 {
 public:
  void bits(std::uint64_t value, unsigned width) {
    for (unsigned i = 0; i < width; ++i) {
      const std::uint32_t mix = (state_ ^ (value >> i)) & 1u;
      state_ >>= 1;
      if (mix) state_ ^= 0xedb88320u;
    }
  }
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

TEST(Crc32, TableMatchesBitSerialAtEveryWidth) {
  Rng rng(3);
  for (unsigned width = 0; width <= 64; ++width) {
    for (int trial = 0; trial < 20; ++trial) {
      // A prefix of 0..8 bits feeds the field at every alignment.
      const auto prefix_width = static_cast<unsigned>(trial % 9);
      const std::uint64_t prefix = rng();
      std::uint64_t value = rng();
      if (width < 64) value &= (1ULL << width) - 1;
      Crc32 table;
      SerialCrc32 serial;
      table.bits(prefix, prefix_width);
      serial.bits(prefix, prefix_width);
      table.bits(value, width);
      serial.bits(value, width);
      EXPECT_EQ(table.value(), serial.value())
          << "width " << width << " prefix " << prefix_width;
    }
  }
}

TEST(Crc32, RawMatchesBitSerialOnRandomBitVecs) {
  Rng rng(5);
  for (std::size_t length = 0; length <= 300; ++length) {
    BitVec v;
    for (std::size_t i = 0; i < length; ++i) v.push_back(rng.coin());
    SerialCrc32 serial;
    for (std::size_t i = 0; i < length; ++i) serial.bits(v.get(i), 1);
    EXPECT_EQ(crc32_bits(v), serial.value()) << "length " << length;
    // After an odd-width header, as packet_checksum feeds a payload.
    Crc32 table;
    SerialCrc32 framed;
    table.bits(length, 35);
    framed.bits(length, 35);
    table.raw(v);
    for (std::size_t i = 0; i < length; ++i) framed.bits(v.get(i), 1);
    EXPECT_EQ(table.value(), framed.value()) << "framed length " << length;
  }
}

TEST(Crc32, DetectsEverySingleBitFlip) {
  BitVec payload;
  payload.append_bits(0xDEADBEEFCAFEULL, 48);
  const std::uint32_t reference = crc32_bits(payload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    BitVec flipped = payload;
    flipped.flip(i);
    EXPECT_NE(crc32_bits(flipped), reference) << "missed flip at bit " << i;
  }
}

TEST(Crc32, PacketChecksumCoversSeqPulseAndFlags) {
  const TransportConfig cfg;
  Frame frame;
  frame.payload.emplace();
  frame.payload->append_bits(0b1011, 4);
  const std::uint32_t base = packet_checksum(7, frame, cfg);
  EXPECT_NE(packet_checksum(8, frame, cfg), base);  // seq covered
  Frame halted = frame;
  halted.sender_halted = true;
  EXPECT_NE(packet_checksum(7, halted, cfg), base);  // flag covered
  Frame empty;
  EXPECT_NE(packet_checksum(7, empty, cfg), base);  // has_payload covered
  // Regression: the pulse field rides on every frame and the synchronizer
  // hard-depends on it, so the CRC must cover it — a single flipped pulse
  // bit must change the checksum (historically it did not).
  for (unsigned bit = 0; bit < Frame::kPulseWireBits; ++bit) {
    Frame pulse_flip = frame;
    pulse_flip.pulse ^= 1ULL << bit;
    EXPECT_NE(packet_checksum(7, pulse_flip, cfg), base)
        << "pulse bit " << bit << " not covered by the CRC";
  }
}

// ------------------------------------------------------------- injector --
TEST(FaultInjector, DeterministicPerLinkStreams) {
  const Graph g = build::cycle(5);
  FaultPlan plan;
  plan.drop = 0.4;
  plan.corrupt = 0.3;
  FaultInjector a(plan, 99, g);
  FaultInjector b(plan, 99, g);
  FaultInjector other_seed(plan, 100, g);
  bool any_difference = false;
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.next_fate(2, 1, 64);
    const auto fb = b.next_fate(2, 1, 64);
    EXPECT_EQ(fa.dropped, fb.dropped);
    EXPECT_EQ(fa.corrupted, fb.corrupted);
    EXPECT_EQ(fa.corrupt_bit, fb.corrupt_bit);
    const auto fo = other_seed.next_fate(2, 1, 64);
    any_difference |= fa.dropped != fo.dropped || fa.corrupted != fo.corrupted;
  }
  EXPECT_TRUE(any_difference) << "seed does not influence fates";
}

TEST(FaultInjector, FatesIndependentOfPayloadSize) {
  // The drop/corrupt decisions must not depend on payload size (only the
  // corrupt-bit position does), so accounting-order differences between
  // engines cannot change the fault pattern.
  const Graph g = build::path(2);
  FaultPlan plan;
  plan.drop = 0.5;
  FaultInjector a(plan, 7, g);
  FaultInjector b(plan, 7, g);
  for (int i = 0; i < 100; ++i) {
    const auto fa = a.next_fate(0, 0, 8);
    const auto fb = b.next_fate(0, 0, 1024);
    EXPECT_EQ(fa.dropped, fb.dropped);
  }
}

TEST(FaultInjector, NoPayloadNeverCorrupts) {
  const Graph g = build::path(2);
  FaultPlan plan;
  plan.corrupt = 1.0;
  FaultInjector inj(plan, 3, g);
  for (int i = 0; i < 50; ++i) {
    const auto fate = inj.next_fate(0, 0, 0);
    EXPECT_FALSE(fate.corrupted);
    EXPECT_FALSE(fate.dropped);
  }
  const auto fate = inj.next_fate(0, 0, 16);
  EXPECT_TRUE(fate.corrupted);
  EXPECT_LT(fate.corrupt_bit, 16u);
}

TEST(FaultInjector, EarliestCrashWinsAndValidates) {
  const Graph g = build::cycle(4);
  FaultPlan plan;
  plan.crashes = {{2, 9}, {2, 4}, {0, 1}};
  FaultInjector inj(plan, 1, g);
  EXPECT_EQ(inj.crash_round(2), std::optional<std::uint64_t>(4));
  EXPECT_EQ(inj.crash_round(0), std::optional<std::uint64_t>(1));
  EXPECT_EQ(inj.crash_round(1), std::nullopt);

  FaultPlan bad;
  bad.crashes = {{7, 0}};  // node out of range
  EXPECT_THROW(FaultInjector(bad, 1, g), CheckFailure);
  FaultPlan bad_p;
  bad_p.drop = 1.5;
  EXPECT_THROW(FaultInjector(bad_p, 1, g), CheckFailure);
}

// ------------------------------------------------------- link sender ARQ --
Frame test_frame(std::uint64_t pulse, std::uint64_t bits = 8) {
  Frame frame;
  frame.pulse = pulse;
  frame.payload.emplace();
  frame.payload->append_bits(pulse * 17 + 3, static_cast<unsigned>(bits));
  return frame;
}

TEST(LinkSender, ConsecutiveSeqAndAckSettles) {
  LinkSender sender{TransportConfig{}};
  const DataPacket p0 = sender.packet(test_frame(0));
  const DataPacket p1 = sender.packet(test_frame(1));
  EXPECT_EQ(p0.seq, 0u);
  EXPECT_EQ(p1.seq, 1u);
  EXPECT_EQ(sender.in_flight(), 2u);
  EXPECT_TRUE(sender.on_ack(0));
  EXPECT_FALSE(sender.on_ack(0));  // duplicate ack is harmless
  EXPECT_EQ(sender.in_flight(), 1u);
  EXPECT_EQ(sender.on_timeout(0), LinkSender::TimeoutAction::Settled);
}

TEST(LinkSender, RetransmitPreservesPacketBits) {
  LinkSender sender{TransportConfig{}};
  const DataPacket original = sender.packet(test_frame(4, 32));
  EXPECT_EQ(sender.on_timeout(original.seq),
            LinkSender::TimeoutAction::Retransmit);
  const DataPacket again = sender.retransmit_packet(original.seq);
  EXPECT_EQ(again.seq, original.seq);
  EXPECT_EQ(again.crc, original.crc);
  EXPECT_EQ(packet_checksum(again.seq, again.frame, TransportConfig{}),
            again.crc);
}

TEST(LinkSender, ExponentialBackoffThenGiveUp) {
  TransportConfig cfg;
  cfg.max_retries = 3;
  LinkSender sender{cfg};
  const DataPacket p = sender.packet(test_frame(0));
  EXPECT_EQ(sender.timeout_for(p.seq, 10), 10u);  // first transmission
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::Retransmit);
  EXPECT_EQ(sender.timeout_for(p.seq, 10), 20u);
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::Retransmit);
  EXPECT_EQ(sender.timeout_for(p.seq, 10), 40u);
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::Retransmit);
  EXPECT_EQ(sender.timeout_for(p.seq, 10), 80u);
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::GiveUp);
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(sender.on_timeout(p.seq), LinkSender::TimeoutAction::Settled);
}

// ---------------------------------------------------- link receiver ARQ --
TEST(LinkReceiver, InOrderDeliveryAndAcks) {
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto accept = receiver.on_data(sender.packet(test_frame(i)));
    EXPECT_TRUE(accept.send_ack);
    EXPECT_EQ(accept.ack_seq, i);
    EXPECT_FALSE(accept.duplicate);
    ASSERT_EQ(accept.deliver.size(), 1u);
    EXPECT_EQ(accept.deliver[0].pulse, i);
  }
  EXPECT_EQ(receiver.next_expected(), 4u);
}

TEST(LinkReceiver, ReorderBufferReleasesInSequence) {
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver;
  const DataPacket p0 = sender.packet(test_frame(0));
  const DataPacket p1 = sender.packet(test_frame(1));
  const DataPacket p2 = sender.packet(test_frame(2));
  const auto late = receiver.on_data(p2);  // out of order: buffered
  EXPECT_TRUE(late.send_ack);
  EXPECT_TRUE(late.deliver.empty());
  const auto mid = receiver.on_data(p1);
  EXPECT_TRUE(mid.deliver.empty());
  const auto first = receiver.on_data(p0);  // releases all three, in order
  ASSERT_EQ(first.deliver.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i)
    EXPECT_EQ(first.deliver[i].pulse, i);
}

TEST(LinkReceiver, DuplicatesReAckedButNotRedelivered) {
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver;
  const DataPacket p = sender.packet(test_frame(0));
  ASSERT_EQ(receiver.on_data(p).deliver.size(), 1u);
  const auto dup = receiver.on_data(p);  // retransmit after a lost ack
  EXPECT_TRUE(dup.send_ack);             // re-ack so the sender settles
  EXPECT_TRUE(dup.duplicate);
  EXPECT_TRUE(dup.deliver.empty());
}

TEST(LinkReceiver, CorruptedPacketRejectedWithoutAck) {
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver;
  DataPacket p = sender.packet(test_frame(0, 16));
  p.frame.payload->flip(5);
  const auto accept = receiver.on_data(p);
  EXPECT_TRUE(accept.checksum_reject);
  EXPECT_FALSE(accept.send_ack);
  EXPECT_TRUE(accept.deliver.empty());
  EXPECT_EQ(receiver.next_expected(), 0u);  // nothing delivered
}

TEST(LinkReceiver, CorruptedPulseRejectedByChecksum) {
  // Regression for the CRC gap: a flipped header (pulse) bit used to pass
  // the checksum and reach the synchronizer with a bogus pulse number. The
  // receiver must treat it exactly like a corrupted payload — discard, no
  // ack — so the sender's retransmission heals it.
  LinkSender sender{TransportConfig{}};
  LinkReceiver receiver{TransportConfig{}};
  DataPacket p = sender.packet(test_frame(3, 8));
  p.frame.pulse ^= 1ULL << 40;
  const auto accept = receiver.on_data(p);
  EXPECT_TRUE(accept.checksum_reject);
  EXPECT_FALSE(accept.send_ack);
  EXPECT_TRUE(accept.deliver.empty());

  DataPacket clean = sender.retransmit_packet(p.seq);
  const auto healed = receiver.on_data(clean);
  EXPECT_TRUE(healed.send_ack);
  ASSERT_EQ(healed.deliver.size(), 1u);
  EXPECT_EQ(healed.deliver[0].pulse, 3u);
}

TEST(LinkSender, SeqOverflowOfOnWireFieldIsRejected) {
  // TransportConfig::seq_bits is the width the wire carries and the CRC
  // hashes; the sender's 64-bit counter must never silently outgrow it.
  TransportConfig cfg;
  cfg.seq_bits = 2;
  LinkSender sender{cfg};
  for (int i = 0; i < 4; ++i) {
    const DataPacket p = sender.packet(test_frame(0));
    sender.on_ack(p.seq);
  }
  EXPECT_THROW(sender.packet(test_frame(0)), CheckFailure);
}

// ---------------------------------------------------------------- report --
// ------------------------------------------- detection flag semantics --
// `detected` counts every Reject ever issued — including by a node that
// crashed afterwards — because it is the fault-free-model answer the
// paper's one-sided-error analysis speaks about. `detected_by_survivors`
// is the operator's view: Rejects collectable from nodes alive at the end.
TEST(FaultReport, RejectFromLaterCrashedNodeCountsAsDetectedOnly) {
  class RejectThenLinger final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 0 && api.round() == 0) api.reject();
      if (api.round() >= 2) api.halt();
    }
  };

  NetworkConfig cfg;
  cfg.max_rounds = 8;
  cfg.faults.crashes.push_back({0, 1});  // node 0 rejects, then dies
  const auto outcome =
      run_congest(build::path(2), cfg, [](std::uint32_t) {
        return std::make_unique<RejectThenLinger>();
      });

  EXPECT_TRUE(outcome.detected);
  EXPECT_FALSE(outcome.faults.detected_by_survivors);
  EXPECT_FALSE(outcome.completed);  // a crashed node never counts as halted
  ASSERT_EQ(outcome.faults.crashed_nodes.size(), 1u);
  EXPECT_EQ(outcome.faults.crashed_nodes[0], 0u);
}

TEST(FaultReport, CrashAtRoundZeroPreemptsTheFirstRound) {
  // A round-0 crash wins against the node's own round-0 program: the
  // would-be rejector never executes, so nothing is detected anywhere.
  class RejectAtZero final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 0 && api.round() == 0) api.reject();
      if (api.round() >= 1) api.halt();
    }
  };
  NetworkConfig cfg;
  cfg.max_rounds = 4;
  cfg.faults.crashes.push_back({0, 0});
  const auto outcome =
      run_congest(build::path(2), cfg, [](std::uint32_t) {
        return std::make_unique<RejectAtZero>();
      });
  EXPECT_FALSE(outcome.detected);
  EXPECT_FALSE(outcome.faults.detected_by_survivors);
  ASSERT_EQ(outcome.faults.crashed_nodes.size(), 1u);
  EXPECT_EQ(outcome.faults.crashed_nodes[0], 0u);
}

TEST(FaultReport, AllNodesCrashedAtRoundZeroLeaveAnEmptyRun) {
  class RejectAtZero final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      api.reject();
      api.halt();
    }
  };
  NetworkConfig cfg;
  cfg.max_rounds = 4;
  for (std::uint32_t v = 0; v < 3; ++v) cfg.faults.crashes.push_back({v, 0});
  const auto outcome =
      run_congest(build::cycle(3), cfg, [](std::uint32_t) {
        return std::make_unique<RejectAtZero>();
      });
  EXPECT_FALSE(outcome.detected);
  EXPECT_FALSE(outcome.faults.detected_by_survivors);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.faults.crashed_nodes.size(), 3u);
  EXPECT_EQ(outcome.metrics.messages, 0u);
}

TEST(FaultReport, SoleRejectorSurvivesItsCrashedNeighborhood) {
  // Every neighbor of the one rejecting node dies before the reject is
  // issued. The verdict is still collectable — the rejector itself is the
  // survivor — so detected and detected_by_survivors agree.
  class CenterRejects final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 0 && api.round() == 1) api.reject();
      if (api.round() >= 2) api.halt();
    }
  };
  const Graph g = build::star(4);  // center 0 + 4 leaves
  NetworkConfig cfg;
  cfg.max_rounds = 6;
  for (std::uint32_t leaf = 1; leaf <= 4; ++leaf)
    cfg.faults.crashes.push_back({leaf, 0});
  const auto outcome = run_congest(g, cfg, [](std::uint32_t) {
    return std::make_unique<CenterRejects>();
  });
  EXPECT_TRUE(outcome.detected);
  EXPECT_TRUE(outcome.faults.detected_by_survivors);
  EXPECT_FALSE(outcome.completed);  // the crashed leaves never halt
  EXPECT_EQ(outcome.faults.crashed_nodes.size(), 4u);
}

TEST(FaultReport, RecoveryRestoresTheRejectingSurvivor) {
  // Reject-then-crash, async engine. Without recovery the reject is a
  // detected-only artifact (its issuer is dead at the end); with recovery
  // the inbox-log replay reproduces the Reject on the restored replica, so
  // the survivor view regains the verdict and the run completes.
  class RejectThenLinger final : public NodeProgram {
   public:
    void on_round(NodeApi& api) override {
      if (api.id() == 0 && api.round() == 0) api.reject();
      if (api.round() >= 2) api.halt();
    }
  };
  const Graph g = build::path(2);
  AsyncConfig cfg;
  cfg.max_pulses = 8;
  cfg.transport = TransportMode::Reliable;
  cfg.faults.crashes.push_back({0, 1});
  const auto factory = [](std::uint32_t) {
    return std::make_unique<RejectThenLinger>();
  };

  const auto without = run_async(g, cfg, factory);
  EXPECT_TRUE(without.detected);
  EXPECT_FALSE(without.faults.detected_by_survivors);
  EXPECT_TRUE(without.faults.recovered_nodes.empty());

  cfg.recovery.enabled = true;
  cfg.recovery.rejoin_delay = 1;
  const auto with = run_async(g, cfg, factory);
  EXPECT_TRUE(with.detected);
  EXPECT_TRUE(with.faults.detected_by_survivors);
  EXPECT_TRUE(with.completed);
  ASSERT_EQ(with.faults.recovered_nodes.size(), 1u);
  EXPECT_EQ(with.faults.recovered_nodes[0], 0u);
  EXPECT_GE(with.faults.replayed_pulses, 1u);
}

TEST(FaultReport, CleanAndSummary) {
  FaultReport report;
  EXPECT_TRUE(report.clean());
  report.frames_dropped = 3;
  report.crashed_nodes = {2};
  report.violations.push_back({ViolationKind::Bandwidth, 1, 4, "too big"});
  EXPECT_FALSE(report.clean());
  const std::string text = summarize(report);
  EXPECT_NE(text.find("dropped"), std::string::npos);
  EXPECT_NE(text.find("bandwidth"), std::string::npos);
}

}  // namespace
}  // namespace csd::congest
