#include "core/strategies.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"

namespace aa {

// ---- RoundRobin-PS ---------------------------------------------------------

std::vector<RankId> RoundRobinPS::assignment(std::size_t count,
                                             std::uint32_t num_ranks,
                                             std::uint32_t offset) {
    AA_ASSERT(num_ranks >= 1);
    std::vector<RankId> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = static_cast<RankId>((i + offset) % num_ranks);
    }
    return out;
}

void RoundRobinPS::apply(AnytimeEngine& engine, const GrowthBatch& batch) {
    const auto num_ranks = static_cast<std::uint32_t>(engine.num_ranks());
    const auto assign = assignment(batch.num_new, num_ranks, offset_);
    offset_ = static_cast<std::uint32_t>((offset_ + batch.num_new) % num_ranks);
    // O(k) assignment cost on every rank (each computes the trivial rule).
    for (RankId r = 0; r < num_ranks; ++r) {
        engine.cluster().charge_compute(r, static_cast<double>(batch.num_new));
    }
    engine.anywhere_add(batch, assign);
}

// ---- CutEdge-PS ------------------------------------------------------------

std::vector<RankId> CutEdgePS::assignment(const AnytimeEngine& engine,
                                          const GrowthBatch& batch) {
    const auto num_ranks = static_cast<std::uint32_t>(engine.num_ranks());
    const std::size_t k = batch.num_new;
    if (k == 0) {
        return {};
    }

    // The batch's internal graph: new vertices re-indexed to [0, k), edges
    // whose endpoints are both new.
    DynamicGraph internal(k);
    for (const Edge& e : batch.edges) {
        if (e.u >= batch.base_id && e.v >= batch.base_id) {
            internal.add_edge(e.u - batch.base_id, e.v - batch.base_id, e.weight);
        }
    }

    // Every processor computes a METIS partition of the batch and the best
    // cut wins (paper §V.A); we emulate with `candidates` independent seeds.
    const std::size_t candidates = candidates_ > 0 ? candidates_ : num_ranks;
    Partitioning best;
    std::size_t best_cut = std::numeric_limits<std::size_t>::max();
    for (std::size_t c = 0; c < candidates; ++c) {
        Rng candidate_rng = rng_.fork();
        Partitioning p = multilevel_partition(internal, num_ranks, candidate_rng);
        const std::size_t cut = count_cut_edges(internal, p);
        if (cut < best_cut) {
            best_cut = cut;
            best = std::move(p);
        }
    }

    // Map batch parts onto ranks: a part goes to the rank whose existing
    // vertices it shares the most host edges with (greedy max-affinity,
    // one part per rank), so anchor edges become internal rather than cut.
    const auto& owners = engine.owners();
    std::vector<std::vector<double>> affinity(num_ranks,
                                              std::vector<double>(num_ranks, 0));
    for (const Edge& e : batch.edges) {
        const bool u_new = e.u >= batch.base_id;
        const bool v_new = e.v >= batch.base_id;
        if (u_new != v_new) {  // host anchor edge
            const VertexId nv = u_new ? e.u : e.v;
            const VertexId host = u_new ? e.v : e.u;
            const RankId part = best.assignment[nv - batch.base_id];
            affinity[part][owners[host]] += 1;
        }
    }
    std::vector<RankId> part_to_rank(num_ranks, kInvalidVertex);
    std::vector<bool> rank_used(num_ranks, false);
    for (std::uint32_t round = 0; round < num_ranks; ++round) {
        double best_aff = -1;
        std::uint32_t best_part = 0;
        RankId best_rank = 0;
        for (std::uint32_t part = 0; part < num_ranks; ++part) {
            if (part_to_rank[part] != kInvalidVertex) {
                continue;
            }
            for (RankId r = 0; r < num_ranks; ++r) {
                if (!rank_used[r] && affinity[part][r] > best_aff) {
                    best_aff = affinity[part][r];
                    best_part = part;
                    best_rank = r;
                }
            }
        }
        part_to_rank[best_part] = best_rank;
        rank_used[best_rank] = true;
    }

    std::vector<RankId> assign(k);
    for (std::size_t i = 0; i < k; ++i) {
        assign[i] = part_to_rank[best.assignment[i]];
    }
    return assign;
}

void CutEdgePS::apply(AnytimeEngine& engine, const GrowthBatch& batch) {
    const auto num_ranks = static_cast<std::uint32_t>(engine.num_ranks());
    std::size_t internal_edges = 0;
    for (const Edge& e : batch.edges) {
        if (e.u >= batch.base_id && e.v >= batch.base_id) {
            ++internal_edges;
        }
    }
    // Each rank computes one candidate METIS partition of the batch graph.
    const double units =
        static_cast<double>(batch.num_new + internal_edges) *
        std::log2(static_cast<double>(std::max<std::size_t>(batch.num_new, 2)));
    for (RankId r = 0; r < num_ranks; ++r) {
        engine.cluster().charge_compute(r, kPartitionCostFactor * units);
    }
    engine.anywhere_add(batch, assignment(engine, batch));
}

// ---- Repartition-S ---------------------------------------------------------

void RepartitionS::apply(AnytimeEngine& engine, const GrowthBatch& batch) {
    engine.repartition_add(batch);
}

}  // namespace aa
