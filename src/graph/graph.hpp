// Core undirected simple-graph type.
//
// Vertices are dense indices 0..n-1 ("who is where in the topology");
// CONGEST-layer *identifiers* are assigned separately by congest::Network,
// since several lower bounds (§4, §5) quantify over adversarial or random
// identifier assignments for a fixed topology.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "support/check.hpp"

namespace csd {

using Vertex = std::uint32_t;
constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

/// Immutable structure-of-arrays adjacency view (compressed sparse row).
///
/// The neighbors of `v` are `neighbors[offsets[v] .. offsets[v+1])`, in
/// exactly the adjacency-list order — so position `p` in a row is the same
/// port number the CONGEST layer assigns, and `offsets[v] + p` is a dense
/// index over directed edges that engines use for flat per-edge tables.
struct GraphCsr {
  std::vector<std::uint64_t> offsets;  // n + 1 entries
  std::vector<Vertex> neighbors;       // 2m entries

  std::uint64_t num_directed_edges() const noexcept {
    return offsets.empty() ? 0 : offsets.back();
  }
  std::span<const Vertex> row(Vertex v) const noexcept {
    return {neighbors.data() + offsets[v],
            static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
  }
};

/// Reverse ports of an undirected graph's CSR: for the directed edge
/// e = offsets[v] + p from v to w = row(v)[p], rev[e] is the port of v in
/// w's row, so row(w)[rev[e]] == v. O(n + m) time: one transpose pass and an
/// n-sized position array, no hashing.
std::vector<std::uint32_t> reverse_ports(const GraphCsr& csr);

/// Undirected simple graph with O(1) amortized edge insertion, O(1) expected
/// adjacency queries, and cache-friendly neighbor iteration.
class Graph {
 public:
  Graph() = default;
  explicit Graph(Vertex n) : adj_(n) {}

  Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(adj_.size());
  }
  std::uint64_t num_edges() const noexcept { return num_edges_; }

  /// Append `count` fresh isolated vertices; returns the first new index.
  Vertex add_vertices(Vertex count) {
    const auto first = num_vertices();
    adj_.resize(adj_.size() + count);
    csr_valid_ = false;
    return first;
  }

  Vertex add_vertex() { return add_vertices(1); }

  /// Insert undirected edge {u, v}. Self-loops and duplicates are rejected.
  void add_edge(Vertex u, Vertex v) {
    CSD_CHECK_MSG(u < num_vertices() && v < num_vertices(),
                  "edge endpoint out of range: {" << u << "," << v << "}");
    CSD_CHECK_MSG(u != v, "self-loop rejected at vertex " << u);
    CSD_CHECK_MSG(!has_edge(u, v), "duplicate edge {" << u << "," << v << "}");
    adj_[u].push_back(v);
    adj_[v].push_back(u);
    edge_set_.insert(edge_key(u, v));
    ++num_edges_;
    csr_valid_ = false;
  }

  /// Insert {u, v} unless it already exists; returns true if inserted.
  bool add_edge_if_absent(Vertex u, Vertex v) {
    if (u == v || has_edge(u, v)) return false;
    add_edge(u, v);
    return true;
  }

  bool has_edge(Vertex u, Vertex v) const noexcept {
    if (u >= num_vertices() || v >= num_vertices() || u == v) return false;
    return edge_set_.count(edge_key(u, v)) != 0;
  }

  std::span<const Vertex> neighbors(Vertex v) const noexcept {
    CSD_DCHECK(v < num_vertices());
    return adj_[v];
  }

  Vertex degree(Vertex v) const noexcept {
    CSD_DCHECK(v < num_vertices());
    return static_cast<Vertex>(adj_[v].size());
  }

  Vertex max_degree() const noexcept {
    Vertex d = 0;
    for (Vertex v = 0; v < num_vertices(); ++v) d = std::max(d, degree(v));
    return d;
  }

  /// All edges as (u, v) with u < v, in insertion-independent sorted order.
  std::vector<std::pair<Vertex, Vertex>> edges() const;

  /// Subgraph induced on `keep` (indices remapped densely, in `keep` order).
  /// `keep` must contain distinct valid vertices.
  Graph induced_subgraph(const std::vector<Vertex>& keep) const;

  /// Disjoint union: appends `other`, returning the offset added to its
  /// vertex indices.
  Vertex append_disjoint(const Graph& other);

  /// Sort all adjacency lists (stable iteration order for deterministic
  /// algorithms); call after bulk construction.
  void sort_adjacency();

  /// Cached CSR view over the current adjacency. Lazily built on first call
  /// and invalidated by any mutation. Building mutates the cache, so
  /// materialize it once (engine constructors do) before sharing a const
  /// Graph across threads; concurrent reads of a built view are safe.
  const GraphCsr& csr() const;

 private:
  static std::uint64_t edge_key(Vertex u, Vertex v) noexcept {
    const std::uint64_t a = std::min(u, v), b = std::max(u, v);
    return (a << 32) | b;
  }

  std::vector<std::vector<Vertex>> adj_;
  std::unordered_set<std::uint64_t> edge_set_;
  std::uint64_t num_edges_ = 0;
  mutable GraphCsr csr_;
  mutable bool csr_valid_ = false;
};

}  // namespace csd
