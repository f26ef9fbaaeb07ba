// Classic centralized graph algorithms used as substrates: BFS, diameter,
// connectivity, bipartiteness, degeneracy, and the Barenboim–Elkin-style
// layer decomposition underlying phase II of the §6 algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace csd {

constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);

/// BFS distances from `source` (kUnreachable where disconnected).
std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source);

/// True iff g is connected (vacuously true for the empty graph).
bool is_connected(const Graph& g);

/// Connected component id per vertex (ids dense from 0).
std::vector<std::uint32_t> connected_components(const Graph& g);

/// True iff g has no cycle: m = n - (number of components). O(n + m).
bool is_forest(const Graph& g);

/// Eccentricity-based diameter; kUnreachable if g is disconnected. Exact
/// two-sweep BFS on a tree (O(n)), all-sources BFS otherwise (O(n·m)).
std::uint32_t diameter(const Graph& g);

/// True iff g is bipartite; if `side` is non-null it receives a 2-coloring.
bool is_bipartite(const Graph& g, std::vector<std::uint8_t>* side = nullptr);

/// Degeneracy of g and (optionally) a degeneracy elimination ordering.
std::uint32_t degeneracy(const Graph& g, std::vector<Vertex>* order = nullptr);

/// Result of the greedy layer decomposition (centralized reference for the
/// distributed phase-II layering of §6).
struct LayerDecomposition {
  /// layer[v] = layer index of v, or kUnreachable if v was never peeled
  /// (possible only when the iteration cap is hit).
  std::vector<std::uint32_t> layer;
  std::uint32_t num_layers = 0;
  /// Vertices not assigned within max_layers iterations.
  std::vector<Vertex> unassigned;
};

/// Repeatedly peel all vertices whose degree in the remaining graph is at
/// most `degree_threshold`; each peel wave forms one layer. Guarantees that
/// every assigned vertex has at most `degree_threshold` neighbors in its own
/// or higher layers ("up-degree"), matching §6 phase II.
LayerDecomposition layer_decomposition(const Graph& g,
                                       std::uint32_t degree_threshold,
                                       std::uint32_t max_layers);

/// Maximum up-degree realized by a decomposition (validation helper).
std::uint32_t max_up_degree(const Graph& g, const LayerDecomposition& d);

}  // namespace csd
