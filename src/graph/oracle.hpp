// Ground-truth subgraph oracles.
//
// Every distributed detection algorithm in this library is validated against
// these exhaustive (centralized) checkers. They are exponential in the worst
// case but intended for the test/benchmark instance sizes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "support/bitvec.hpp"

namespace csd::oracle {

/// Adjacency bit-rows of `g`: rows[v] has one bit per vertex, bit w set iff
/// {v, w} is an edge. The dense-set representation the bit-parallel clique
/// search and the detection-layer candidate checks intersect.
std::vector<BitVec> adjacency_rows(const Graph& g);

/// True iff the graph described by symmetric adjacency bit-rows contains
/// K_s. Word-parallel: candidate sets are intersected 64 vertices at a time
/// (the Czumaj–Konrad candidate-neighborhood idiom).
bool has_clique_rows(const std::vector<BitVec>& rows, Vertex s);

/// True iff G contains a (simple) cycle of length exactly L (L >= 3).
/// Exhaustive search, except that a forest answers at once (O(n + m)).
bool has_cycle_of_length(const Graph& g, Vertex L);

/// Some simple cycle of length exactly L, as a vertex sequence, if one exists.
std::optional<std::vector<Vertex>> find_cycle_of_length(const Graph& g,
                                                        Vertex L);

/// Girth of G: length of its shortest cycle, or 0 if G is a forest (found
/// in O(n + m) before the O(n·m) all-roots BFS).
Vertex girth(const Graph& g);

/// Some shortest cycle (vertex sequence) if G is not a forest.
std::optional<std::vector<Vertex>> find_shortest_cycle(const Graph& g);

/// True iff G contains K_s as a subgraph.
bool has_clique(const Graph& g, Vertex s);

/// Exact number of K_s copies (unordered vertex sets) in G.
std::uint64_t count_cliques(const Graph& g, Vertex s);

/// All K_s copies as sorted vertex sets (for listing-completeness checks).
std::vector<std::vector<Vertex>> list_cliques(const Graph& g, Vertex s);

/// Exact number of simple cycles of length exactly L (as subgraphs, i.e.
/// each cycle counted once, not once per orientation/rotation).
std::uint64_t count_cycles_of_length(const Graph& g, Vertex L);

/// True iff G contains `tree` (which must be a tree) as a subgraph.
bool has_tree(const Graph& g, const Graph& tree);

/// True iff G contains a simple cycle of length exactly L whose edge
/// weights (symmetric weight oracle) sum to exactly W.
bool has_weighted_cycle(const Graph& g, Vertex L, std::uint64_t target,
                        const std::function<std::uint64_t(Vertex, Vertex)>&
                            weight);

}  // namespace csd::oracle
