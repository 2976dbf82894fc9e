#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>

namespace aa {

DynamicGraph DynamicGraph::from_edges(std::span<const Edge> edges, std::size_t n) {
    std::size_t max_needed = n;
    for (const Edge& e : edges) {
        max_needed = std::max(max_needed, static_cast<std::size_t>(e.u) + 1);
        max_needed = std::max(max_needed, static_cast<std::size_t>(e.v) + 1);
    }
    DynamicGraph g(max_needed);
    for (const Edge& e : edges) {
        g.add_edge(e.u, e.v, e.weight);
    }
    return g;
}

DynamicGraph DynamicGraph::from_adjacency(std::vector<std::vector<Neighbor>> adjacency) {
    DynamicGraph g;
    g.adjacency_ = std::move(adjacency);
    std::size_t entries = 0;
    for (const auto& list : g.adjacency_) {
        entries += list.size();
    }
    AA_ASSERT_MSG(entries % 2 == 0, "adjacency lists are not symmetric");
    g.num_edges_ = entries / 2;
    return g;
}

VertexId DynamicGraph::add_vertex() {
    adjacency_.emplace_back();
    return static_cast<VertexId>(adjacency_.size() - 1);
}

VertexId DynamicGraph::add_vertices(std::size_t count) {
    const auto first = static_cast<VertexId>(adjacency_.size());
    adjacency_.resize(adjacency_.size() + count);
    return first;
}

bool DynamicGraph::add_edge(VertexId u, VertexId v, Weight weight) {
    AA_ASSERT(u < adjacency_.size() && v < adjacency_.size());
    // Infinite weights are rejected too: edge_weight() reports kInfinity for
    // "no edge", so an inf-weight edge could never be removed.
    AA_ASSERT_MSG(std::isfinite(weight) && weight > 0,
                  "edge weights must be finite and positive");
    if (u == v || has_edge(u, v)) {
        return false;
    }
    adjacency_[u].push_back({v, weight});
    adjacency_[v].push_back({u, weight});
    ++num_edges_;
    return true;
}

bool DynamicGraph::has_edge(VertexId u, VertexId v) const {
    AA_ASSERT(u < adjacency_.size() && v < adjacency_.size());
    const auto& smaller =
        adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u] : adjacency_[v];
    const VertexId target = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
    return std::any_of(smaller.begin(), smaller.end(),
                       [target](const Neighbor& nb) { return nb.to == target; });
}

Weight DynamicGraph::edge_weight(VertexId u, VertexId v) const {
    AA_ASSERT(u < adjacency_.size() && v < adjacency_.size());
    for (const Neighbor& nb : adjacency_[u]) {
        if (nb.to == v) {
            return nb.weight;
        }
    }
    return kInfinity;
}

bool DynamicGraph::set_edge_weight(VertexId u, VertexId v, Weight weight) {
    AA_ASSERT(u < adjacency_.size() && v < adjacency_.size());
    AA_ASSERT_MSG(std::isfinite(weight) && weight > 0,
                  "edge weights must be finite and positive");
    bool found = false;
    for (Neighbor& nb : adjacency_[u]) {
        if (nb.to == v) {
            nb.weight = weight;
            found = true;
        }
    }
    if (found) {
        for (Neighbor& nb : adjacency_[v]) {
            if (nb.to == u) {
                nb.weight = weight;
            }
        }
    }
    return found;
}

Weight DynamicGraph::remove_edge(VertexId u, VertexId v) {
    AA_ASSERT(u < adjacency_.size() && v < adjacency_.size());
    const Weight old = edge_weight(u, v);
    if (!(old < kInfinity)) {
        return kInfinity;
    }
    std::erase_if(adjacency_[u], [v](const Neighbor& nb) { return nb.to == v; });
    std::erase_if(adjacency_[v], [u](const Neighbor& nb) { return nb.to == u; });
    --num_edges_;
    return old;
}

std::vector<Edge> DynamicGraph::edges() const {
    std::vector<Edge> out;
    out.reserve(num_edges_);
    for (VertexId u = 0; u < adjacency_.size(); ++u) {
        for (const Neighbor& nb : adjacency_[u]) {
            if (u < nb.to) {
                out.push_back({u, nb.to, nb.weight});
            }
        }
    }
    return out;
}

Weight DynamicGraph::total_edge_weight() const {
    Weight total = 0;
    for (VertexId u = 0; u < adjacency_.size(); ++u) {
        for (const Neighbor& nb : adjacency_[u]) {
            if (u < nb.to) {
                total += nb.weight;
            }
        }
    }
    return total;
}

Weight DynamicGraph::weighted_degree(VertexId v) const {
    AA_ASSERT(v < adjacency_.size());
    Weight total = 0;
    for (const Neighbor& nb : adjacency_[v]) {
        total += nb.weight;
    }
    return total;
}

}  // namespace aa
