// Deterministic node-to-worker partitioning for the synchronous superstep
// engine (Network::run_impl, congest/network.cpp).
//
// A Partition is a pure function of (topology, workers, policy): no seeds,
// no wall clock, no platform dependence. That purity is what lets the
// engine promise bit-identical outcomes at every worker count — the
// partition only decides *which thread* executes a node and *which channel*
// carries a frame, never what the node computes or what the frame says.
// With one worker (the default) there is nothing to decide: build() does no
// O(n) or O(m) work and keeps no tables.
//
// Two policies, mirroring the standard Pregel choices:
//   * Hash  — owner(v) = mix64(v) mod W. Stateless, balanced in
//     expectation on any vertex distribution, oblivious to topology;
//     adjacent vertices usually land on different workers (high cut).
//   * Range — contiguous vertex ranges weighted by CSR degree, so every
//     worker owns about the same number of directed edges (the unit of
//     per-round work). Builders in this library lay out structured
//     instances (paths, cycles, planted gadgets) with locality, so Range
//     usually cuts far fewer edges than Hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace csd::congest {

enum class PartitionPolicy : std::uint8_t { Range = 0, Hash = 1 };

std::string_view to_string(PartitionPolicy policy);
/// Parse "range" / "hash" (exact, lowercase). Returns false on anything else.
bool parse_partition_policy(std::string_view text, PartitionPolicy& out);

/// Superstep-execution knobs, carried by NetworkConfig. Sharding is an
/// execution strategy, not part of the model: it is deliberately excluded
/// from Network::config_digest(), so csd-ckpt-v1 snapshots resume across
/// worker counts and every outcome field is bit-identical at any W.
struct ShardSpec {
  /// Worker threads, >= 1. W = 1 runs the engine inline on the calling
  /// thread; 0 is refused (Partition::build CHECKs it).
  std::uint32_t workers = 1;
  PartitionPolicy policy = PartitionPolicy::Range;
  /// Surface per-worker channel traffic as engine counters
  /// (shard_channel_frames_w*/shard_channel_bytes_w*) in
  /// RunMetrics::counters and hence the trace summary. Off by default:
  /// these counters depend on W, so the determinism matrix runs without
  /// them and the nightly sweep runs with them.
  bool channel_counters = false;
};

/// The vertices one worker owns, ascending: a stored list, or all of
/// [0, n) for a single worker, which keeps no list.
class OwnedVertices {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Vertex;
    using difference_type = std::ptrdiff_t;
    using pointer = const Vertex*;
    using reference = Vertex;

    iterator() = default;
    iterator(const Vertex* list, std::size_t i) : list_(list), i_(i) {}
    Vertex operator*() const noexcept {
      return list_ != nullptr ? list_[i_] : static_cast<Vertex>(i_);
    }
    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator before = *this;
      ++i_;
      return before;
    }
    bool operator==(const iterator& other) const noexcept {
      return i_ == other.i_;
    }

   private:
    const Vertex* list_ = nullptr;
    std::size_t i_ = 0;
  };

  OwnedVertices(const Vertex* list, std::size_t size)
      : list_(list), size_(size) {}
  iterator begin() const noexcept { return {list_, 0}; }
  iterator end() const noexcept { return {list_, size_}; }
  std::size_t size() const noexcept { return size_; }

 private:
  const Vertex* list_;
  std::size_t size_;
};

/// Immutable node-to-worker assignment. Built once per run: O(n + m) time
/// and O(n) memory for W >= 2; a single worker owns everything and costs
/// O(1) (no tables).
class Partition {
 public:
  /// `workers` >= 1. Vertices with no owner never exist: owner(v) < workers
  /// for every v, and the owned lists partition [0, n).
  static Partition build(const GraphCsr& csr, std::uint32_t workers,
                         PartitionPolicy policy);

  std::uint32_t workers() const noexcept { return workers_; }
  PartitionPolicy policy() const noexcept { return policy_; }
  std::uint32_t owner(Vertex v) const noexcept {
    return owner_.empty() ? 0 : owner_[v];
  }
  /// owner(v) for every v as a flat table; null for a single worker.
  const std::uint32_t* owner_table() const noexcept {
    return owner_.empty() ? nullptr : owner_.data();
  }
  /// Vertices owned by `w`, ascending. The engine iterates these in order —
  /// together with the channel merge-order rule this reproduces one
  /// worker's global ascending-vertex order exactly.
  OwnedVertices owned(std::uint32_t w) const noexcept {
    if (workers_ == 1) return {nullptr, num_vertices_};
    return {owned_[w].data(), owned_[w].size()};
  }
  /// Directed edges whose source is owned by `w` (the per-worker share of
  /// the dense edge index; these shares partition [0, num_directed_edges)).
  std::uint64_t owned_directed_edges(std::uint32_t w) const noexcept {
    return owned_edges_[w];
  }
  /// Directed edges whose endpoints live on different workers (each
  /// crossing edge counted once per direction).
  std::uint64_t cut_directed_edges() const noexcept { return cut_edges_; }
  /// FNV digest over (workers, policy, owner map); stamped into traces by
  /// callers that want to pin the assignment.
  std::uint64_t digest() const noexcept;

 private:
  std::uint32_t workers_ = 1;
  PartitionPolicy policy_ = PartitionPolicy::Range;
  Vertex num_vertices_ = 0;
  std::vector<std::uint32_t> owner_;
  std::vector<std::vector<Vertex>> owned_;
  std::vector<std::uint64_t> owned_edges_;
  std::uint64_t cut_edges_ = 0;
};

}  // namespace csd::congest
