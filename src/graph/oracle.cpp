#include "graph/oracle.hpp"

#include <algorithm>
#include <deque>

#include "graph/algorithms.hpp"
#include "graph/vf2.hpp"
#include "support/check.hpp"

namespace csd::oracle {

namespace {

/// Exhaustive search for simple cycles of length exactly L whose minimum
/// vertex is `start`. Enumerates each such cycle twice (both orientations).
/// BFS-distance pruning keeps it fast on sparse instances.
class CycleEnumerator {
 public:
  CycleEnumerator(const Graph& g, Vertex L) : g_(g), length_(L) {}

  /// Visits cycles with min vertex = start; calls `emit(path)` for each
  /// directed traversal found; emit returns true to stop the search.
  template <typename Emit>
  bool enumerate_from(Vertex start, Emit&& emit) {
    start_ = start;
    // BFS distances restricted to vertices >= start (valid cycle vertices).
    dist_.assign(g_.num_vertices(), kUnreachable);
    std::deque<Vertex> queue{start};
    dist_[start] = 0;
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for (const Vertex v : g_.neighbors(u))
        if (v >= start && dist_[v] == kUnreachable) {
          dist_[v] = dist_[u] + 1;
          queue.push_back(v);
        }
    }
    on_path_.assign(g_.num_vertices(), false);
    path_.clear();
    path_.push_back(start);
    on_path_[start] = true;
    const bool stopped = dfs(start, length_, emit);
    on_path_[start] = false;
    return stopped;
  }

 private:
  template <typename Emit>
  bool dfs(Vertex v, Vertex remaining, Emit&& emit) {
    for (const Vertex w : g_.neighbors(v)) {
      if (remaining == 1) {
        if (w == start_ && path_.size() == length_) {
          if (emit(path_)) return true;
        }
        continue;
      }
      if (w <= start_ || on_path_[w]) continue;
      if (dist_[w] == kUnreachable || dist_[w] > remaining - 1) continue;
      path_.push_back(w);
      on_path_[w] = true;
      const bool stopped = dfs(w, remaining - 1, emit);
      path_.pop_back();
      on_path_[w] = false;
      if (stopped) return true;
    }
    return false;
  }

  const Graph& g_;
  Vertex length_;
  Vertex start_ = 0;
  std::vector<std::uint32_t> dist_;
  std::vector<bool> on_path_;
  std::vector<Vertex> path_;
};

}  // namespace

std::optional<std::vector<Vertex>> find_cycle_of_length(const Graph& g,
                                                        Vertex L) {
  CSD_CHECK_MSG(L >= 3, "cycles have length >= 3");
  if (is_forest(g)) return std::nullopt;
  CycleEnumerator enumerator(g, L);
  std::optional<std::vector<Vertex>> found;
  for (Vertex start = 0; start + L <= g.num_vertices() + 0u && !found;
       ++start) {
    enumerator.enumerate_from(start, [&](const std::vector<Vertex>& path) {
      found = path;
      return true;
    });
  }
  return found;
}

bool has_cycle_of_length(const Graph& g, Vertex L) {
  return find_cycle_of_length(g, L).has_value();
}

std::uint64_t count_cycles_of_length(const Graph& g, Vertex L) {
  CSD_CHECK_MSG(L >= 3, "cycles have length >= 3");
  CycleEnumerator enumerator(g, L);
  std::uint64_t directed = 0;
  for (Vertex start = 0; start < g.num_vertices(); ++start) {
    enumerator.enumerate_from(start, [&](const std::vector<Vertex>&) {
      ++directed;
      return false;
    });
  }
  CSD_CHECK(directed % 2 == 0);  // each cycle seen once per orientation
  return directed / 2;
}

Vertex girth(const Graph& g) {
  if (is_forest(g)) return 0;
  // Standard all-roots BFS girth algorithm (exact for unweighted graphs).
  Vertex best = 0;
  for (Vertex root = 0; root < g.num_vertices(); ++root) {
    std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
    std::vector<Vertex> parent(g.num_vertices(), kNoVertex);
    std::deque<Vertex> queue{root};
    dist[root] = 0;
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for (const Vertex v : g.neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = dist[u] + 1;
          parent[v] = u;
          queue.push_back(v);
        } else if (v != parent[u] && u != parent[v]) {
          const Vertex candidate =
              static_cast<Vertex>(dist[u] + dist[v] + 1);
          if (best == 0 || candidate < best) best = candidate;
        }
      }
    }
  }
  return best;
}

std::optional<std::vector<Vertex>> find_shortest_cycle(const Graph& g) {
  const Vertex gg = girth(g);
  if (gg == 0) return std::nullopt;
  auto cycle = find_cycle_of_length(g, gg);
  CSD_CHECK(cycle.has_value());
  return cycle;
}

namespace {

/// Recursive clique extension over candidates larger than the last chosen
/// vertex; `emit` returns true to stop early.
template <typename Emit>
bool extend_clique(const Graph& g, std::vector<Vertex>& current,
                   const std::vector<Vertex>& candidates, Vertex target,
                   Emit&& emit) {
  if (current.size() == target) return emit(current);
  if (current.size() + candidates.size() < target) return false;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Vertex v = candidates[i];
    std::vector<Vertex> next;
    next.reserve(candidates.size() - i);
    for (std::size_t j = i + 1; j < candidates.size(); ++j)
      if (g.has_edge(v, candidates[j])) next.push_back(candidates[j]);
    current.push_back(v);
    const bool stopped = extend_clique(g, current, next, target, emit);
    current.pop_back();
    if (stopped) return true;
  }
  return false;
}

template <typename Emit>
void for_each_clique(const Graph& g, Vertex s, Emit&& emit) {
  CSD_CHECK_MSG(s >= 1, "clique size must be >= 1");
  std::vector<Vertex> current;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    std::vector<Vertex> candidates;
    for (const Vertex w : g.neighbors(v))
      if (w > v) candidates.push_back(w);
    std::sort(candidates.begin(), candidates.end());
    current.push_back(v);
    const bool stopped = extend_clique(g, current, candidates, s, emit);
    current.pop_back();
    if (stopped) return;
  }
}

/// Bit-parallel clique extension: `cand` holds the common neighbors of the
/// chosen prefix; candidates are consumed in ascending order starting at
/// `start` so every vertex set is visited exactly once. `scratch[depth]`
/// provides the intersection buffer for this level (reused across siblings).
bool extend_clique_rows(const std::vector<BitVec>& rows,
                        std::vector<BitVec>& scratch, const BitVec& cand,
                        Vertex need, std::size_t start, std::size_t depth) {
  if (cand.count() < need) return false;  // conservative prune
  for (std::size_t w = cand.find_next(start); w < cand.size();
       w = cand.find_next(w + 1)) {
    if (need == 1) return true;
    BitVec& next = scratch[depth];
    intersect_into(next, cand, rows[w]);
    if (extend_clique_rows(rows, scratch, next, need - 1, w + 1, depth + 1))
      return true;
  }
  return false;
}

}  // namespace

std::vector<BitVec> adjacency_rows(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<BitVec> rows(n, BitVec(n));
  for (Vertex v = 0; v < n; ++v)
    for (const Vertex w : g.neighbors(v)) rows[v].set(w);
  return rows;
}

bool has_clique_rows(const std::vector<BitVec>& rows, Vertex s) {
  const auto n = static_cast<Vertex>(rows.size());
  if (s == 0) return true;
  if (s == 1) return n > 0;
  std::vector<BitVec> scratch(s);
  for (Vertex v = 0; v < n; ++v)
    if (extend_clique_rows(rows, scratch, rows[v], s - 1, v + 1, 0))
      return true;
  return false;
}

bool has_clique(const Graph& g, Vertex s) {
  // Dense bit-rows pay off whenever they fit comfortably in memory; above
  // the threshold fall back to the sparse recursive search.
  constexpr Vertex kBitRowLimit = 4096;
  if (s >= 2 && g.num_vertices() <= kBitRowLimit)
    return has_clique_rows(adjacency_rows(g), s);
  bool found = false;
  for_each_clique(g, s, [&](const std::vector<Vertex>&) {
    found = true;
    return true;
  });
  return found;
}

std::uint64_t count_cliques(const Graph& g, Vertex s) {
  std::uint64_t count = 0;
  for_each_clique(g, s, [&](const std::vector<Vertex>&) {
    ++count;
    return false;
  });
  return count;
}

std::vector<std::vector<Vertex>> list_cliques(const Graph& g, Vertex s) {
  std::vector<std::vector<Vertex>> out;
  for_each_clique(g, s, [&](const std::vector<Vertex>& clique) {
    out.push_back(clique);  // already sorted ascending by construction
    return false;
  });
  return out;
}

bool has_weighted_cycle(
    const Graph& g, Vertex L, std::uint64_t target,
    const std::function<std::uint64_t(Vertex, Vertex)>& weight) {
  CSD_CHECK_MSG(L >= 3, "cycles have length >= 3");
  CycleEnumerator enumerator(g, L);
  bool found = false;
  for (Vertex start = 0; start < g.num_vertices() && !found; ++start) {
    enumerator.enumerate_from(start, [&](const std::vector<Vertex>& path) {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < path.size(); ++i)
        total += weight(path[i], path[(i + 1) % path.size()]);
      if (total == target) {
        found = true;
        return true;
      }
      return false;
    });
  }
  return found;
}

bool has_tree(const Graph& g, const Graph& tree) {
  CSD_CHECK_MSG(
      tree.num_edges() + 1 == tree.num_vertices() && is_connected(tree),
      "pattern is not a tree");
  return contains_subgraph(g, tree);
}

}  // namespace csd::oracle
