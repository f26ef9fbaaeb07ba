// Bit-level CRC-32 (IEEE 802.3, reflected).
//
// CONGEST payloads are bit strings, not byte strings, so the checksum is
// computed over the exact payload length. The reliable-transport layer
// (congest/transport.*) appends this CRC to every data packet; a CRC
// mismatch marks the packet as corrupted and it is treated like a loss
// (discard + retransmit). CRC-32 detects every single-bit error, which is
// exactly the fault model of FaultPlan::corrupt (one flipped payload bit
// per corrupted frame).
//
// Whole bytes go through a 256-entry table: feeding a byte LSB-first through
// the reflected table is exactly eight bit() steps, so the value never
// depends on how the input was split. Only a field's final `width mod 8`
// bits go bit by bit.
#pragma once

#include <array>
#include <cstdint>

#include "support/bitvec.hpp"

namespace csd {

/// CRC-32 running state. Feed bits (LSB-first within each logical field,
/// matching the wire::Writer bit order), then read `value()`.
class Crc32 {
 public:
  void bit(bool b) noexcept {
    const std::uint32_t in = static_cast<std::uint32_t>(b);
    const std::uint32_t mix = (state_ ^ in) & 1u;
    state_ >>= 1;
    if (mix) state_ ^= kPolynomial;
  }

  void bits(std::uint64_t value, unsigned width) noexcept {
    for (; width >= 8; width -= 8, value >>= 8)
      state_ = (state_ >> 8) ^ kTable[(state_ ^ value) & 0xffu];
    for (unsigned i = 0; i < width; ++i) bit((value >> i) & 1ULL);
  }

  /// The bits of `v` in index order, a storage word at a time (bits past
  /// size() are zero and never fed).
  void raw(const BitVec& v) noexcept {
    std::size_t left = v.size();
    for (const std::uint64_t word : v.words()) {
      const unsigned width = left < 64 ? static_cast<unsigned>(left) : 64u;
      bits(word, width);
      left -= width;
    }
  }

  std::uint32_t value() const noexcept { return state_ ^ 0xffffffffu; }

 private:
  static constexpr std::uint32_t kPolynomial = 0xedb88320u;
  /// kTable[b] = the state change of eight bit() steps over byte b.
  static constexpr std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t c = b;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? kPolynomial : 0u);
      table[b] = c;
    }
    return table;
  }();
  std::uint32_t state_ = 0xffffffffu;
};

/// CRC-32 of a whole bit vector (bits in index order).
inline std::uint32_t crc32_bits(const BitVec& v) noexcept {
  Crc32 crc;
  crc.raw(v);
  return crc.value();
}

}  // namespace csd
