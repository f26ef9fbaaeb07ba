#include "congest/transport.hpp"

#include "support/check.hpp"
#include "support/crc.hpp"

namespace csd::congest {

std::uint32_t packet_checksum(std::uint64_t seq, const Frame& frame,
                              const TransportConfig& config) {
  Crc32 crc;
  crc.bits(seq, config.seq_bits);
  crc.bits(frame.pulse, Frame::kPulseWireBits);
  crc.bit(frame.sender_halted);
  crc.bit(frame.payload.has_value());
  if (frame.payload.has_value()) crc.raw(*frame.payload);
  return crc.value();
}

DataPacket LinkSender::packet(Frame frame) {
  DataPacket packet;
  packet.seq = next_seq_++;
  CSD_CHECK_MSG(config_.seq_bits >= 64 || (packet.seq >> config_.seq_bits) == 0,
                "sequence number " << packet.seq << " overflows the "
                << config_.seq_bits << "-bit on-wire field");
  packet.crc = packet_checksum(packet.seq, frame, config_);
  packet.frame = frame;
  pending_.emplace(packet.seq, Pending{std::move(frame), packet.crc, 1});
  return packet;
}

bool LinkSender::on_ack(std::uint64_t seq) {
  return pending_.erase(seq) != 0;
}

LinkSender::TimeoutAction LinkSender::on_timeout(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return TimeoutAction::Settled;
  if (it->second.attempts > config_.max_retries) {
    pending_.erase(it);
    return TimeoutAction::GiveUp;
  }
  ++it->second.attempts;
  return TimeoutAction::Retransmit;
}

DataPacket LinkSender::retransmit_packet(std::uint64_t seq) const {
  const auto it = pending_.find(seq);
  CSD_CHECK_MSG(it != pending_.end(), "retransmit of settled packet " << seq);
  return DataPacket{seq, it->second.frame, it->second.crc};
}

std::uint64_t LinkSender::timeout_for(std::uint64_t seq,
                                      std::uint64_t base_rto) const {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return base_rto;
  // attempts = k means the k-th transmission was just sent: back off 2^(k-1),
  // capped to keep virtual times sane on long retry chains.
  const std::uint32_t shift =
      it->second.attempts > 16 ? 16u : it->second.attempts - 1;
  return base_rto << shift;
}

LinkSenderState LinkSender::save_state() const {
  LinkSenderState state;
  state.next_seq = next_seq_;
  state.pending.reserve(pending_.size());
  for (const auto& [seq, pending] : pending_)
    state.pending.push_back(
        {seq, pending.frame, pending.crc, pending.attempts});
  return state;
}

void LinkSender::restore_state(const LinkSenderState& state) {
  next_seq_ = state.next_seq;
  pending_.clear();
  for (const auto& entry : state.pending)
    pending_.emplace(entry.seq,
                     Pending{entry.frame, entry.crc, entry.attempts});
}

void LinkReceiver::on_data(DataPacket&& packet, Accept& accept) {
  accept = Accept{.deliver = std::move(accept.deliver)};  // keeps capacity
  accept.deliver.clear();
  if (packet_checksum(packet.seq, packet.frame, config_) != packet.crc) {
    accept.checksum_reject = true;
    return;
  }
  accept.send_ack = true;
  accept.ack_seq = packet.seq;
  if (packet.seq < next_expected_ || reorder_.contains(packet.seq)) {
    accept.duplicate = true;
    return;
  }
  if (packet.seq != next_expected_) {
    reorder_.emplace(packet.seq, std::move(packet.frame));
    return;
  }
  accept.deliver.push_back(std::move(packet.frame));
  ++next_expected_;
  for (auto it = reorder_.find(next_expected_); it != reorder_.end();
       it = reorder_.find(next_expected_)) {
    accept.deliver.push_back(std::move(it->second));
    reorder_.erase(it);
    ++next_expected_;
  }
}

LinkReceiverState LinkReceiver::save_state() const {
  LinkReceiverState state;
  state.next_expected = next_expected_;
  state.reorder.reserve(reorder_.size());
  for (const auto& [seq, frame] : reorder_)
    state.reorder.push_back({seq, frame});
  return state;
}

void LinkReceiver::restore_state(const LinkReceiverState& state) {
  next_expected_ = state.next_expected;
  reorder_.clear();
  for (const auto& entry : state.reorder)
    reorder_.emplace(entry.seq, entry.frame);
}

}  // namespace csd::congest
