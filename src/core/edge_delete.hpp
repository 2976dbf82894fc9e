// Fully-dynamic shrink updates: edge/vertex deletions and weight increases.
//
// The growth path (core/edge_add.cpp) relies on monotone distance decreases;
// a deletion or weight increase breaks that invariant, so the engine follows
// the SSSP-Del recipe (PAPERS.md, arXiv 2508.14319) in two phases:
//
//   1. invalidate — every (source, target) entry whose current estimate was
//      supported by a deleted/raised edge is reset to unknown. Candidates are
//      seeded at the affected edges' endpoints (an entry d(u, t) is *suspect*
//      iff d(u, t) >= w_old + d(v, t), the floating-point inequality every
//      estimate routed through the edge satisfies exactly, because rows only
//      ever decreased since the estimate was written). A suspect survives if
//      some remaining neighbour still supports it; otherwise it is reset via
//      DistanceStore::mark_invalidated and the raise cascades to the
//      neighbours that depended on it — across ranks as ShrinkRaise messages
//      carrying the pre-raise value, encoded with the same boundary-block
//      codec as the regular RC exchange.
//
//   2. re-settle — the surviving frontier is re-marked into the ordinary
//      prop/send worklists (a finite neighbour of an invalidated entry owes
//      it a relaxation; a finite cut-edge endpoint owes the invalidating rank
//      a resend), after which the unchanged RC machinery — sync or rc_async,
//      either backend — reconverges by monotone decrease.
//
// Over-invalidation is harmless (re-settlement relearns it); the design only
// has to avoid *under*-invalidation, which the support inequality guarantees
// in exact arithmetic and — because estimates are written as single
// floating-point sums and only ever decrease — in IEEE arithmetic as well.
// With non-uniform weights a support chain's value can differ from the
// re-derived sum by association order (same class of noise as the relaxation
// epsilon); with uniform weights every quantity is an exact small integer and
// the converged state is bit-identical to a from-scratch engine on the final
// graph, which is the acceptance bar the lattice tests enforce.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace aa {

/// A batch of shrinking updates applied atomically by
/// AnytimeEngine::apply_deletion.
struct ShrinkBatch {
    /// Edges to remove (the weight field is ignored). Edges not present in
    /// the graph — including edges deleted earlier — are skipped silently.
    std::vector<Edge> deletions;
    /// Vertices to delete. Vertex ids are stable (flat per-vertex arrays
    /// depend on dense ids), so vertex deletion removes every incident edge
    /// and leaves the id in place, isolated: its distances converge to
    /// infinity everywhere and it stops contributing to closeness.
    std::vector<VertexId> vertices;
    /// Weight changes, weight = the new weight. Increases run through the
    /// invalidate/re-settle machinery; decreases through the growth-path
    /// broadcast (deferred until after the cascade so no stale-low value is
    /// broadcast); absent edges are skipped.
    std::vector<Edge> reweights;
};

/// Counters describing one apply_deletion call.
struct ShrinkReport {
    std::size_t edges_removed{0};
    std::size_t weight_increases{0};
    std::size_t weight_decreases{0};
    /// Suspect (row, column) pairs flagged by the seed scan at the affected
    /// edges' endpoints.
    std::size_t seed_suspects{0};
    /// Entries reset to infinity by the invalidation cascade.
    std::size_t invalidated_entries{0};
    /// Cascade rounds (support-check sweep + raise exchange) until fixpoint.
    std::size_t cascade_rounds{0};
};

}  // namespace aa
