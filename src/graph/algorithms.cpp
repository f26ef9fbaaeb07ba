#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>

#include "support/check.hpp"

namespace csd {

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source) {
  CSD_CHECK(source < g.num_vertices());
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::deque<Vertex> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for (const Vertex v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::find(dist.begin(), dist.end(), kUnreachable) == dist.end();
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  std::vector<std::uint32_t> comp(g.num_vertices(), kUnreachable);
  std::uint32_t next = 0;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (comp[s] != kUnreachable) continue;
    comp[s] = next;
    std::deque<Vertex> queue{s};
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for (const Vertex v : g.neighbors(u)) {
        if (comp[v] == kUnreachable) {
          comp[v] = next;
          queue.push_back(v);
        }
      }
    }
    ++next;
  }
  return comp;
}

bool is_forest(const Graph& g) {
  const auto comp = connected_components(g);
  const std::uint64_t components =
      comp.empty() ? 0 : *std::max_element(comp.begin(), comp.end()) + 1ull;
  return g.num_edges() + components == g.num_vertices();
}

std::uint32_t diameter(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  const auto from_zero = bfs_distances(g, 0);
  if (std::find(from_zero.begin(), from_zero.end(), kUnreachable) !=
      from_zero.end())
    return kUnreachable;
  if (g.num_edges() + 1 == g.num_vertices()) {
    // A tree: the vertex farthest from any vertex ends a longest path, so
    // the farthest distance from it is the diameter (two-sweep BFS).
    const auto far = std::max_element(from_zero.begin(), from_zero.end());
    const auto from_far =
        bfs_distances(g, static_cast<Vertex>(far - from_zero.begin()));
    return *std::max_element(from_far.begin(), from_far.end());
  }
  std::uint32_t diam = 0;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    const auto dist = bfs_distances(g, s);
    diam = std::max(diam, *std::max_element(dist.begin(), dist.end()));
  }
  return diam;
}

bool is_bipartite(const Graph& g, std::vector<std::uint8_t>* side) {
  std::vector<std::uint8_t> color(g.num_vertices(), 2);  // 2 = unset
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (color[s] != 2) continue;
    color[s] = 0;
    std::deque<Vertex> queue{s};
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for (const Vertex v : g.neighbors(u)) {
        if (color[v] == 2) {
          color[v] = static_cast<std::uint8_t>(1 - color[u]);
          queue.push_back(v);
        } else if (color[v] == color[u]) {
          return false;
        }
      }
    }
  }
  if (side != nullptr) *side = std::move(color);
  return true;
}

std::uint32_t degeneracy(const Graph& g, std::vector<Vertex>* order) {
  const Vertex n = g.num_vertices();
  std::vector<std::uint32_t> deg(n);
  std::uint32_t max_deg = 0;
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }
  // Bucket queue (Matula–Beck), O(n + m).
  std::vector<std::vector<Vertex>> buckets(max_deg + 1);
  std::vector<std::uint32_t> pos_degree = deg;
  for (Vertex v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<bool> removed(n, false);
  std::uint32_t degen = 0;
  if (order != nullptr) order->clear();
  std::uint32_t cursor = 0;
  for (Vertex peeled = 0; peeled < n; ++peeled) {
    while (cursor <= max_deg && buckets[cursor].empty()) ++cursor;
    // The current minimum may have decreased below `cursor`; rescan from 0
    // when the bucket at cursor yields nothing valid.
    Vertex v = kNoVertex;
    for (std::uint32_t b = std::min(cursor, max_deg); b <= max_deg; ++b) {
      while (!buckets[b].empty()) {
        const Vertex cand = buckets[b].back();
        buckets[b].pop_back();
        if (!removed[cand] && pos_degree[cand] == b) {
          v = cand;
          break;
        }
      }
      if (v != kNoVertex) {
        cursor = b > 0 ? b - 1 : 0;
        break;
      }
    }
    CSD_CHECK(v != kNoVertex);
    removed[v] = true;
    degen = std::max(degen, pos_degree[v]);
    if (order != nullptr) order->push_back(v);
    for (const Vertex w : g.neighbors(v)) {
      if (!removed[w]) {
        --pos_degree[w];
        buckets[pos_degree[w]].push_back(w);
      }
    }
  }
  return degen;
}

LayerDecomposition layer_decomposition(const Graph& g,
                                       std::uint32_t degree_threshold,
                                       std::uint32_t max_layers) {
  const Vertex n = g.num_vertices();
  LayerDecomposition out;
  out.layer.assign(n, kUnreachable);
  std::vector<std::uint32_t> remaining_degree(n);
  for (Vertex v = 0; v < n; ++v) remaining_degree[v] = g.degree(v);
  Vertex assigned = 0;
  for (std::uint32_t layer = 0; layer < max_layers && assigned < n; ++layer) {
    std::vector<Vertex> wave;
    for (Vertex v = 0; v < n; ++v)
      if (out.layer[v] == kUnreachable && remaining_degree[v] <= degree_threshold)
        wave.push_back(v);
    if (wave.empty()) break;  // stuck: remaining graph is too dense
    for (const Vertex v : wave) out.layer[v] = layer;
    // Degrees drop only after the whole wave is fixed: vertices peeled in
    // the same wave share a layer, exactly as in the distributed process.
    for (const Vertex v : wave)
      for (const Vertex w : g.neighbors(v))
        if (out.layer[w] == kUnreachable) --remaining_degree[w];
    assigned += static_cast<Vertex>(wave.size());
    out.num_layers = layer + 1;
  }
  for (Vertex v = 0; v < n; ++v)
    if (out.layer[v] == kUnreachable) out.unassigned.push_back(v);
  return out;
}

std::uint32_t max_up_degree(const Graph& g, const LayerDecomposition& d) {
  std::uint32_t worst = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (d.layer[v] == kUnreachable) continue;
    std::uint32_t up = 0;
    for (const Vertex w : g.neighbors(v))
      if (d.layer[w] != kUnreachable && d.layer[w] >= d.layer[v]) ++up;
    worst = std::max(worst, up);
  }
  return worst;
}

}  // namespace csd
