// DynamicGraph: an undirected, weighted graph with mutable vertex/edge sets.
//
// This is the library's canonical in-memory representation. It is optimized
// for the access patterns of the anytime-anywhere engine:
//   * dense vertex ids [0, n) so per-vertex state can live in flat arrays,
//   * cheap vertex/edge addition (the paper's dynamic updates),
//   * adjacency iteration for Dijkstra / partitioning / Louvain.
//
// Vertex ids are stable once assigned: "deleting" a vertex means removing all
// of its incident edges (see AnytimeEngine::apply_deletion), which leaves the
// id in place and the vertex isolated. Edges can be removed and reweighted.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace aa {

/// One adjacency entry: the neighbour and the weight of the connecting edge.
struct Neighbor {
    VertexId to{kInvalidVertex};
    Weight weight{1.0};

    friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

class DynamicGraph {
public:
    DynamicGraph() = default;

    /// Construct with `n` isolated vertices.
    explicit DynamicGraph(std::size_t n) : adjacency_(n) {}

    /// Construct from an edge list; vertex count is max endpoint + 1 unless a
    /// larger `n` is given.
    static DynamicGraph from_edges(std::span<const Edge> edges, std::size_t n = 0);

    std::size_t num_vertices() const { return adjacency_.size(); }
    std::size_t num_edges() const { return num_edges_; }

    /// Construct from per-vertex adjacency lists, keeping each list's order
    /// (checkpoint restore: the order decides later traversals). The lists
    /// must describe a simple undirected graph — every {u, v} listed once
    /// under u and once under v with the same finite positive weight, no
    /// self-loops — which the caller has validated.
    static DynamicGraph from_adjacency(std::vector<std::vector<Neighbor>> adjacency);

    /// Append a new isolated vertex; returns its id.
    VertexId add_vertex();

    /// Append `count` isolated vertices; returns the id of the first.
    VertexId add_vertices(std::size_t count);

    /// Add undirected edge {u, v} with the given positive weight.
    /// Self-loops and duplicate edges are rejected (returns false) because
    /// neither affects shortest paths and duplicates would distort cut-edge
    /// accounting in the partitioner.
    bool add_edge(VertexId u, VertexId v, Weight weight = 1.0);

    /// True if {u, v} is present. Linear in min(deg(u), deg(v)).
    bool has_edge(VertexId u, VertexId v) const;

    /// Weight of edge {u, v}; kInfinity if absent.
    Weight edge_weight(VertexId u, VertexId v) const;

    /// Change the weight of an existing edge {u, v} (both directions).
    /// Returns false if the edge does not exist.
    bool set_edge_weight(VertexId u, VertexId v, Weight weight);

    /// Remove edge {u, v} (both directions). Returns its old weight, or
    /// kInfinity if the edge was not present (removal is then a no-op).
    Weight remove_edge(VertexId u, VertexId v);

    std::size_t degree(VertexId v) const {
        AA_ASSERT(v < adjacency_.size());
        return adjacency_[v].size();
    }

    std::span<const Neighbor> neighbors(VertexId v) const {
        AA_ASSERT(v < adjacency_.size());
        return adjacency_[v];
    }

    /// All edges, each once, with u < v.
    std::vector<Edge> edges() const;

    /// Sum of all edge weights (each edge counted once).
    Weight total_edge_weight() const;

    /// Weighted degree (sum of incident edge weights).
    Weight weighted_degree(VertexId v) const;

private:
    std::vector<std::vector<Neighbor>> adjacency_;
    std::size_t num_edges_{0};
};

}  // namespace aa
