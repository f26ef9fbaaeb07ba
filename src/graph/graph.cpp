#include "graph/graph.hpp"

#include <algorithm>

namespace csd {

std::vector<std::uint32_t> reverse_ports(const GraphCsr& csr) {
  const std::size_t n = csr.offsets.empty() ? 0 : csr.offsets.size() - 1;
  const auto first = csr.offsets.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(n);
  // Transpose: scanning the sources v in ascending order fills w's slots
  // offsets[w].. with w's neighbours in ascending order.
  std::vector<std::uint64_t> cursor(first, last);
  std::vector<std::uint32_t> slot(csr.neighbors.size());
  for (Vertex v = 0; v < n; ++v)
    for (const Vertex w : csr.row(v)) slot[cursor[w]++] = v;
  // Rewrite each slot's neighbour v as v's port in w's row.
  std::vector<std::uint32_t> port_of(n);
  for (Vertex w = 0; w < n; ++w) {
    const auto nbrs = csr.row(w);
    for (std::uint32_t q = 0; q < nbrs.size(); ++q) port_of[nbrs[q]] = q;
    for (auto i = csr.offsets[w]; i < csr.offsets[w + 1]; ++i)
      slot[i] = port_of[slot[i]];
  }
  // The same scan again visits the same slots in the same order.
  std::copy(first, last, cursor.begin());
  std::vector<std::uint32_t> rev(slot.size());
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = csr.row(v);
    for (std::uint32_t p = 0; p < nbrs.size(); ++p)
      rev[csr.offsets[v] + p] = slot[cursor[nbrs[p]]++];
  }
  return rev;
}

std::vector<std::pair<Vertex, Vertex>> Graph::edges() const {
  std::vector<std::pair<Vertex, Vertex>> out;
  out.reserve(num_edges_);
  for (Vertex u = 0; u < num_vertices(); ++u)
    for (const Vertex v : adj_[u])
      if (u < v) out.emplace_back(u, v);
  std::sort(out.begin(), out.end());
  return out;
}

Graph Graph::induced_subgraph(const std::vector<Vertex>& keep) const {
  std::vector<Vertex> remap(num_vertices(), kNoVertex);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    CSD_CHECK_MSG(keep[i] < num_vertices(), "induced_subgraph: bad vertex");
    CSD_CHECK_MSG(remap[keep[i]] == kNoVertex,
                  "induced_subgraph: duplicate vertex " << keep[i]);
    remap[keep[i]] = static_cast<Vertex>(i);
  }
  Graph sub(static_cast<Vertex>(keep.size()));
  for (const Vertex u : keep)
    for (const Vertex v : adj_[u])
      if (remap[v] != kNoVertex && remap[u] < remap[v])
        sub.add_edge(remap[u], remap[v]);
  return sub;
}

Vertex Graph::append_disjoint(const Graph& other) {
  const Vertex offset = add_vertices(other.num_vertices());
  for (Vertex u = 0; u < other.num_vertices(); ++u)
    for (const Vertex v : other.adj_[u])
      if (u < v) add_edge(offset + u, offset + v);
  return offset;
}

void Graph::sort_adjacency() {
  for (auto& nbrs : adj_) std::sort(nbrs.begin(), nbrs.end());
  csr_valid_ = false;
}

const GraphCsr& Graph::csr() const {
  if (!csr_valid_) {
    const std::size_t n = adj_.size();
    csr_.offsets.assign(n + 1, 0);
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < n; ++v) {
      csr_.offsets[v] = total;
      total += adj_[v].size();
    }
    csr_.offsets[n] = total;
    csr_.neighbors.clear();
    csr_.neighbors.reserve(total);
    for (const auto& nbrs : adj_)
      csr_.neighbors.insert(csr_.neighbors.end(), nbrs.begin(), nbrs.end());
    csr_valid_ = true;
  }
  return csr_;
}

}  // namespace csd
