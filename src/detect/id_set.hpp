// Membership set over a bounded integer id namespace.
//
// The detection programs deduplicate node-id tokens against sets whose
// universe is the id namespace of the run. A set starts sparse (a hash set,
// no storage while empty) and switches to a dense bit-vector (one bit per
// id, word-parallel intersection) once it holds enough ids that the N/8
// bytes of the bit-vector cost no more than the hash set they replace.
// Most sets of a run stay tiny, so a program keeping several per node pays
// O(size) memory instead of O(N) per set; universes past kDenseLimit never
// switch.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "support/bitvec.hpp"
#include "support/check.hpp"

namespace csd::detect {

class IdSet {
 public:
  /// Universe sizes up to this may switch to the dense representation
  /// (16 KiB of bits).
  static constexpr std::uint64_t kDenseLimit = 1ULL << 17;
  /// Approximate heap bytes one id costs in the sparse hash set (node +
  /// bucket share); the dense switch happens once size() * this >= N/8.
  static constexpr std::uint64_t kSparseBytesPerId = 32;

  IdSet() = default;

  /// Fix the id universe [0, universe). Must be called before any insert.
  void init(std::uint64_t universe) {
    universe_ = universe;
    clear();
  }

  /// Insert `id`; returns true iff it was not already present.
  bool insert(std::uint64_t id) {
    CSD_DCHECK(universe_ == 0 || id < universe_);
    if (dense_mode_) {
      const auto i = static_cast<std::size_t>(id);
      if (dense_.get(i)) return false;
      dense_.set(i);
      ++size_;
      return true;
    }
    if (!sparse_.insert(id).second) return false;
    ++size_;
    if (universe_ > 0 && universe_ <= kDenseLimit &&
        size_ * kSparseBytesPerId >= universe_ / 8)
      densify();
    return true;
  }

  bool contains(std::uint64_t id) const {
    if (dense_mode_)
      return id < universe_ && dense_.get(static_cast<std::size_t>(id));
    return sparse_.count(id) != 0;
  }

  std::size_t size() const noexcept { return size_; }
  bool dense() const noexcept { return dense_mode_; }

  /// Empty the set; it starts sparse again and releases its storage.
  void clear() {
    dense_mode_ = false;
    dense_ = BitVec();
    std::unordered_set<std::uint64_t>().swap(sparse_);
    size_ = 0;
  }

  /// True iff the two sets share an element. Word-parallel when both sides
  /// are dense over the same universe.
  friend bool intersects(const IdSet& a, const IdSet& b) {
    if (a.dense_mode_ && b.dense_mode_ && a.universe_ == b.universe_)
      return intersect_count(a.dense_, b.dense_) > 0;
    const IdSet& probe = a.size_ <= b.size_ ? a : b;
    const IdSet& other = (&probe == &a) ? b : a;
    if (probe.dense_mode_) {
      for (std::size_t i = probe.dense_.find_next(0); i < probe.dense_.size();
           i = probe.dense_.find_next(i + 1))
        if (other.contains(i)) return true;
      return false;
    }
    for (const auto id : probe.sparse_)
      if (other.contains(id)) return true;
    return false;
  }

 private:
  void densify() {
    dense_ = BitVec(static_cast<std::size_t>(universe_));
    for (const auto id : sparse_) dense_.set(static_cast<std::size_t>(id));
    std::unordered_set<std::uint64_t>().swap(sparse_);
    dense_mode_ = true;
  }

  std::uint64_t universe_ = 0;
  bool dense_mode_ = false;
  std::size_t size_ = 0;
  BitVec dense_;
  std::unordered_set<std::uint64_t> sparse_;
};

}  // namespace csd::detect
