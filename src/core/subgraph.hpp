// Per-rank local sub-graph state.
//
// Following the paper's §IV.A: rank p owns vertex set V_p; its local
// sub-graph G_p = (V_p ∪ B_p, E_p) where E_p is every edge with at least one
// endpoint in V_p and B_p is the set of *external boundary vertices* —
// vertices owned elsewhere that are adjacent to V_p. Local vertices with a
// cut edge are *local boundary vertices*; their distance vectors are what
// gets exchanged in each RC step.
//
// Each rank also keeps the global ownership map (as every MPI rank would
// after the DD phase broadcast) so it can route updates. Since PR 9 that map
// is the two-level ShardOwnership (vertex -> shard -> rank): repointing a
// shard re-routes every vertex in it without touching the per-vertex table,
// which is what incremental migration (release()/adopt_migrated()) keys off.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"
#include "shard/ownership.hpp"

namespace aa {

class LocalSubgraph {
public:
    LocalSubgraph() = default;

    /// Create for rank `rank` given the shard ownership map; adopts every
    /// vertex v with owner(v) == rank in ascending global order. Adjacency
    /// must then be populated via add_local_edge for each global edge
    /// incident to an owned vertex.
    LocalSubgraph(RankId rank, ShardOwnership ownership);

    /// Flat-map convenience (tests, kernel fixtures): wraps `owners` in a
    /// one-shard-per-rank ShardOwnership, which resolves identically.
    LocalSubgraph(RankId rank, std::vector<RankId> owners);

    RankId rank() const { return rank_; }

    std::size_t num_local() const { return locals_.size(); }
    std::size_t num_global() const { return ownership_.num_vertices(); }

    bool owns(VertexId global) const { return ownership_.owned_by(global, rank_); }
    RankId owner(VertexId global) const { return ownership_.owner(global); }

    /// This rank's replica of the global shard map.
    const ShardOwnership& ownership() const { return ownership_; }

    LocalId local_id(VertexId global) const {
        const auto it = index_.find(global);
        AA_ASSERT_MSG(it != index_.end(), "vertex not owned by this rank");
        return it->second;
    }
    VertexId global_id(LocalId local) const {
        AA_ASSERT(local < locals_.size());
        return locals_[local];
    }
    const std::vector<VertexId>& local_vertices() const { return locals_; }

    /// Neighbors (by global id) of an owned vertex.
    std::span<const Neighbor> neighbors(LocalId local) const {
        AA_ASSERT(local < adjacency_.size());
        return adjacency_[local];
    }

    /// Record that the global graph gained `count` vertices owned per
    /// `new_owners` (appended to the ownership map). Returns local ids of the
    /// ones this rank adopted (in input order, kInvalidVertex for others).
    void extend_ownership(std::span<const RankId> new_owners);

    /// Adopt ownership of an (already registered) global vertex.
    LocalId adopt(VertexId global);

    /// Replace this rank's replica of the shard map, keeping the rows (the
    /// row move's publish, checkpoint load). Pure metadata: rows whose owner
    /// changed are moved separately via release()/adopt_migrated(), and
    /// ownership-derived state (is_boundary, the cut-edge reverse index) is
    /// only consistent again once they have been.
    void set_ownership(ShardOwnership ownership) { ownership_ = std::move(ownership); }

    /// Migration, outbound side: drop the (formerly owned, now remote) vertex
    /// from the local structures. The shard map must already point its shard
    /// elsewhere. Its still-local neighbors keep their adjacency entries and
    /// gain the matching external (cut-edge) reverse index; the last local row
    /// is swap-moved into the vacated slot. Returns that slot so the caller
    /// can mirror the swap in its DistanceStore (swap_remove_row).
    LocalId release(VertexId global);

    /// Migration, inbound side: adopt `global` (whose shard now maps here)
    /// together with its full adjacency as shipped by the releasing rank.
    /// Reverse cut-edge indices are rebuilt on both sides of the move.
    LocalId adopt_migrated(VertexId global, std::span<const Neighbor> adjacency);

    /// Add edge {u, v} to the local adjacency; at least one endpoint must be
    /// owned. Stored on each owned endpoint. Idempotent additions are the
    /// caller's responsibility (mirrors DynamicGraph::add_edge semantics).
    void add_local_edge(VertexId u, VertexId v, Weight w);

    /// Update the weight of an existing local edge {u, v} on every owned
    /// endpoint (including the external-adjacency mirror entries).
    void update_edge_weight(VertexId u, VertexId v, Weight w);

    /// Remove edge {u, v} from every owned endpoint's adjacency and from the
    /// external-adjacency mirror. A vertex left with no cut edges drops out of
    /// external_boundary(). No-op if the edge is not present locally.
    void remove_local_edge(VertexId u, VertexId v);

    /// True if the owned vertex has at least one neighbor on another rank.
    bool is_boundary(LocalId local) const;

    /// Ranks owning at least one neighbor of `local` (excluding this rank).
    std::vector<RankId> neighbor_ranks(LocalId local) const;

    /// Local endpoints (with edge weights) of cut edges to the external
    /// vertex `global`; empty if `global` is not an external boundary vertex
    /// of this rank. This is the reverse index used to apply received
    /// boundary-DV updates.
    std::span<const std::pair<LocalId, Weight>> external_neighbors(VertexId global) const;

    /// All external boundary vertices (B_p) currently adjacent to this rank.
    std::vector<VertexId> external_boundary() const;

private:
    RankId rank_{0};
    ShardOwnership ownership_;                       // global vertex -> shard -> rank
    std::vector<VertexId> locals_;                   // local -> global
    std::unordered_map<VertexId, LocalId> index_;    // global -> local
    std::vector<std::vector<Neighbor>> adjacency_;   // by local id, global targets
    // external vertex -> (local endpoint, weight) of each incident cut edge
    std::unordered_map<VertexId, std::vector<std::pair<LocalId, Weight>>> external_adj_;
};

}  // namespace aa
