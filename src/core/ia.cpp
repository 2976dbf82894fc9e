#include "core/ia.hpp"

#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <vector>

namespace aa {

namespace {

/// The local sub-graph in index-compressed form: owned vertices keep their
/// LocalId; external boundary vertices get ids [num_local, num_local + |B_p|).
///
/// External vertices are *terminals*, not transit nodes: cut edges point into
/// them but they have no outgoing adjacency. A path that left the partition
/// and re-entered through a second cut edge would produce an estimate whose
/// intermediate value exists in no rank's row (the external owner never
/// computed it), silently breaking the support invariant every row write
/// otherwise maintains — each finite d(x, t) is witnessed by a graph
/// neighbour y with d(x, t) >= w(x, y) + d(y, t) against y's owner row.
/// Fully-dynamic deletions depend on that invariant to find every stale
/// entry (see edge_delete.cpp); the through-boundary shortcuts IA would
/// otherwise discover arrive anyway with the first RC exchange.
struct SubCsr {
    std::vector<VertexId> sub_to_global;
    std::vector<std::vector<std::pair<std::uint32_t, Weight>>> adjacency;
};

SubCsr build_sub_csr(const LocalSubgraph& sg) {
    SubCsr csr;
    const std::size_t num_local = sg.num_local();
    csr.sub_to_global.resize(num_local);
    for (LocalId l = 0; l < num_local; ++l) {
        csr.sub_to_global[l] = sg.global_id(l);
    }
    std::unordered_map<VertexId, std::uint32_t> external_index;
    const auto externals = sg.external_boundary();
    for (const VertexId b : externals) {
        external_index.emplace(b, static_cast<std::uint32_t>(csr.sub_to_global.size()));
        csr.sub_to_global.push_back(b);
    }

    csr.adjacency.resize(csr.sub_to_global.size());
    for (LocalId l = 0; l < num_local; ++l) {
        for (const Neighbor& nb : sg.neighbors(l)) {
            std::uint32_t target;
            if (sg.owns(nb.to)) {
                target = sg.local_id(nb.to);
                // Local-local edges appear in both endpoints' adjacency;
                // adding only the forward direction here keeps them single.
                csr.adjacency[l].push_back({target, nb.weight});
            } else {
                // Terminal only: no reverse entry (see the SubCsr comment).
                target = external_index.at(nb.to);
                csr.adjacency[l].push_back({target, nb.weight});
            }
        }
    }
    return csr;
}

}  // namespace

double ia_dijkstra_all(const LocalSubgraph& sg, DistanceStore& store,
                       ThreadPool& pool, IaProfile* profile) {
    const std::size_t num_sources = sg.num_local();
    if (num_sources == 0) {
        return 0;
    }
    const SubCsr csr = build_sub_csr(sg);
    const std::size_t sub_n = csr.sub_to_global.size();

    std::vector<double> ops(num_sources, 0);
    // Per-source so the parallel fold below stays race-free.
    std::vector<std::size_t> folds(num_sources, 0);

    pool.parallel_for(0, num_sources, [&](std::size_t i) {
        const auto source = static_cast<LocalId>(i);
        double local_ops = 0;

        std::vector<Weight> dist(sub_n, kInfinity);
        using HeapItem = std::pair<Weight, std::uint32_t>;
        std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
        dist[source] = 0;
        heap.push({0, source});

        while (!heap.empty()) {
            const auto [d, u] = heap.top();
            heap.pop();
            local_ops += std::log2(static_cast<double>(heap.size() + 2));
            if (d > dist[u]) {
                continue;  // stale entry
            }
            for (const auto& [v, w] : csr.adjacency[u]) {
                local_ops += 1;
                const Weight candidate = d + w;
                if (candidate < dist[v]) {
                    dist[v] = candidate;
                    heap.push({candidate, v});
                    local_ops += std::log2(static_cast<double>(heap.size() + 2));
                }
            }
        }

        // Fold into the distance store. Rows are disjoint across sources, so
        // this is race-free under parallel_for.
        for (std::uint32_t s = 0; s < sub_n; ++s) {
            if (dist[s] < kInfinity) {
                store.relax(source, csr.sub_to_global[s], dist[s],
                            /*mark_prop=*/false, /*mark_send=*/true);
                local_ops += 1;
                ++folds[i];
            }
        }
        ops[i] = local_ops;
    });

    if (profile != nullptr) {
        profile->sources += num_sources;
        profile->sub_vertices += sub_n;
        profile->folds += std::accumulate(folds.begin(), folds.end(),
                                          std::size_t{0});
    }
    return std::accumulate(ops.begin(), ops.end(), 0.0);
}

}  // namespace aa
