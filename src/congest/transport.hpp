// Reliable ARQ transport for the asynchronous engine.
//
// Sits *under* the frame synchronizer (async.*): each directed link gets a
// sender and a receiver endpoint. The sender assigns consecutive sequence
// numbers to outgoing synchronizer frames, appends a bit-level CRC-32 over
// the packet contents, and retransmits with exponential backoff until the
// packet is acknowledged or a bounded retry budget is exhausted. The
// receiver discards packets whose CRC does not verify (a corrupted packet
// is indistinguishable from a lost one), acknowledges every intact packet
// (including duplicates, so lost acks heal), and releases frames to the
// synchronizer strictly in sequence order through a reorder buffer.
//
// On a link with drop probability p < 1 this restores exact FIFO semantics
// with probability 1 - p^retries per packet, which is why the paper's
// algorithms run bit-identically to the synchronous engine under heavy
// loss (see test_async.cpp) — the cost moves into separately accounted
// transport overhead bits, never into the CONGEST payload accounting.
//
// The classes here are pure protocol state machines: the engine owns all
// scheduling (delays, timers) and all fault injection, which keeps the
// protocol unit-testable without an event loop.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "support/bitvec.hpp"

namespace csd::congest {

/// Wire discipline of the async engine's links.
enum class TransportMode : std::uint8_t {
  /// Frames go on the wire as-is. Faults hit the algorithm directly: a
  /// dropped frame stalls the destination port forever, a corrupted
  /// payload reaches the program.
  Raw,
  /// ARQ + CRC under the synchronizer: exact semantics restored on faulty
  /// links, overhead accounted in AsyncRunOutcome::transport_bits.
  Reliable,
};

struct TransportConfig {
  /// Initial retransmission timeout in virtual time units. 0 = derive from
  /// the engine's max_delay (one full round trip plus slack).
  std::uint64_t rto = 0;
  /// Give up on a packet after this many retransmissions. With per-attempt
  /// loss q the residual failure probability is q^(max_retries+1); the
  /// default keeps it negligible even at 30% drop + lost acks.
  std::uint32_t max_retries = 32;
  /// On-wire width of the sequence-number field. This is the width the CRC
  /// hashes and the accounting charges; LinkSender CHECKs that its 64-bit
  /// counter never outgrows it (2^32 packets per directed link is far above
  /// any pulse budget this repo runs).
  unsigned seq_bits = 32;
  /// On-wire width of the checksum field (accounting).
  unsigned crc_bits = 32;
};

/// One synchronizer frame on a directed link (also the raw-mode wire unit).
/// Wire layout: [pulse][halted][has_payload][payload].
struct Frame {
  /// On-wire width of the pulse field. Every frame carries its pulse — the
  /// synchronizer cannot order frames without it — so every frame is charged
  /// for it in overhead_bits().
  static constexpr unsigned kPulseWireBits = 64;
  /// Per-frame framing overhead: pulse + halted + has_payload.
  static constexpr std::uint64_t kOverheadBits = kPulseWireBits + 2;

  std::uint64_t pulse = 0;
  bool sender_halted = false;
  std::optional<BitVec> payload;

  std::uint64_t overhead_bits() const { return kOverheadBits; }
  std::uint64_t payload_bits() const {
    return payload.has_value() ? payload->size() : 0;
  }
};

/// A data packet as the reliable transport puts it on the wire:
/// [pulse][halted][has_payload][seq][payload][crc].
struct DataPacket {
  std::uint64_t seq = 0;
  Frame frame;
  std::uint32_t crc = 0;
};

/// CRC-32 over everything the packet puts on the wire: the sequence number
/// (config.seq_bits wide — exactly the on-wire field), the full frame header
/// (pulse + flags), and the payload bits. Covering the header means a header
/// bit-flip (FaultPlan::corrupt_headers) is caught and the packet discarded,
/// instead of a corrupted pulse reaching the synchronizer and desyncing it.
std::uint32_t packet_checksum(std::uint64_t seq, const Frame& frame,
                              const TransportConfig& config);

/// Serialized state of a LinkSender (snapshot/resume support). Plain data:
/// the next sequence number plus every unacknowledged packet with its retry
/// count, enough to rebuild the endpoint mid-conversation.
struct LinkSenderState {
  struct PendingEntry {
    std::uint64_t seq = 0;
    Frame frame;
    std::uint32_t crc = 0;
    std::uint32_t attempts = 1;
  };
  std::uint64_t next_seq = 0;
  std::vector<PendingEntry> pending;  // ascending seq
};

/// Serialized state of a LinkReceiver: the in-order cursor plus the reorder
/// buffer of frames received ahead of it.
struct LinkReceiverState {
  struct ReorderEntry {
    std::uint64_t seq = 0;
    Frame frame;
  };
  std::uint64_t next_expected = 0;
  std::vector<ReorderEntry> reorder;  // ascending seq
};

/// Sender endpoint of one directed link.
class LinkSender {
 public:
  explicit LinkSender(const TransportConfig& config) : config_(config) {}

  /// Wrap `frame` into the next-in-sequence packet; a copy is retained for
  /// retransmission until acknowledged.
  DataPacket packet(Frame frame);

  /// Ack received. True iff it acknowledged an outstanding packet (false =
  /// duplicate ack for an already-settled one).
  bool on_ack(std::uint64_t seq);

  /// Retransmission timer fired for `seq`.
  enum class TimeoutAction {
    Settled,     ///< already acked (or given up); ignore
    Retransmit,  ///< resend retransmit_packet(seq), rearm timer
    GiveUp,      ///< retry budget exhausted; packet abandoned
  };
  TimeoutAction on_timeout(std::uint64_t seq);

  /// The packet to put on the wire for a retransmission of `seq`.
  DataPacket retransmit_packet(std::uint64_t seq) const;

  /// Timeout to arm for the transmission of `seq` that was just sent
  /// (exponential backoff over the attempts made so far).
  std::uint64_t timeout_for(std::uint64_t seq, std::uint64_t base_rto) const;

  /// Packets not yet acknowledged or abandoned.
  std::size_t in_flight() const noexcept { return pending_.size(); }

  LinkSenderState save_state() const;
  void restore_state(const LinkSenderState& state);

 private:
  struct Pending {
    Frame frame;
    std::uint32_t crc = 0;
    std::uint32_t attempts = 1;  // transmissions so far
  };
  TransportConfig config_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Pending> pending_;
};

/// Receiver endpoint of one directed link.
class LinkReceiver {
 public:
  LinkReceiver() = default;
  /// The receiver must share the sender's TransportConfig: the CRC hashes
  /// the config's on-wire seq width, so mismatched configs reject every
  /// packet.
  explicit LinkReceiver(const TransportConfig& config) : config_(config) {}

  /// Outcome of a data packet arriving on the wire.
  struct Accept {
    /// CRC verified — acknowledge `ack_seq` (set for duplicates too: the
    /// original ack may have been lost).
    bool send_ack = false;
    std::uint64_t ack_seq = 0;
    /// Packet already delivered once (retransmit raced the ack).
    bool duplicate = false;
    /// CRC mismatch — packet discarded, no ack.
    bool checksum_reject = false;
    /// Frames released to the synchronizer, in sequence order.
    std::vector<Frame> deliver;
  };
  /// Consume `packet` into `accept`, which is reset first (its `deliver`
  /// keeps its capacity, so a reused Accept costs no allocation). An
  /// in-order packet goes straight to `deliver`; only a packet that arrives
  /// ahead of a gap is held in the reorder buffer.
  void on_data(DataPacket&& packet, Accept& accept);
  Accept on_data(DataPacket packet) {
    Accept accept;
    on_data(std::move(packet), accept);
    return accept;
  }

  std::uint64_t next_expected() const noexcept { return next_expected_; }

  LinkReceiverState save_state() const;
  void restore_state(const LinkReceiverState& state);

 private:
  TransportConfig config_;
  std::uint64_t next_expected_ = 0;
  std::map<std::uint64_t, Frame> reorder_;
};

}  // namespace csd::congest
