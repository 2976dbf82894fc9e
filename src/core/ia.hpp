// Initial approximation (IA): multithreaded Dijkstra on the local sub-graph.
//
// Each rank seeds its distance vectors by running Dijkstra from every owned
// vertex over G_p = (V_p ∪ B_p, E_p) — the paper's IA phase (§IV.B). It runs
// once, at initialize(); rows created later (vertex additions, Repartition-S)
// are seeded by the anywhere edge broadcasts instead.
#pragma once

#include "core/distance_store.hpp"
#include "core/subgraph.hpp"
#include "runtime/thread_pool.hpp"

namespace aa {

/// Optional kernel-level telemetry, filled when the caller passes a profile
/// (the engine does so only while its MetricsRegistry is enabled). `folds`
/// counts the finite distances folded into the store — i.e. how much of the
/// sub-graph each IA sweep actually reached — aggregated over all sources.
struct IaProfile {
    std::size_t sources{0};
    std::size_t sub_vertices{0};  // owned + external boundary vertices
    std::size_t folds{0};
};

/// Run Dijkstra from every owned vertex on the local sub-graph and fold the
/// results into `store` via relax(). Each row is left at the local-subgraph
/// fixpoint, so improvements are marked for sending only, not for local
/// propagation.
///
/// Returns the abstract operation count (heap operations + edge relaxations)
/// for LogP charging; the caller divides by the thread count via
/// Cluster::charge_compute. A rank that owns no vertex does no work.
double ia_dijkstra_all(const LocalSubgraph& sg, DistanceStore& store,
                       ThreadPool& pool, IaProfile* profile = nullptr);

}  // namespace aa
