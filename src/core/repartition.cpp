// AnytimeEngine::repartition_add — the Repartition-S strategy (paper
// §IV.C.1.b).
//
// Repartition the *whole* grown graph with the multilevel partitioner (or
// adaptively, see RepartitionMode), move the existing DV rows to their new
// owners through the engine's one row move (core/migrate.cpp) — reusing the
// anytime partial results is what separates Repartition-S from a restart —
// then integrate the batch through the anywhere body every strategy shares,
// and let the subsequent RC steps converge the rest.
#include <algorithm>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "partition/refine.hpp"

namespace aa {

std::vector<RankId> AnytimeEngine::repartition_owners(std::size_t old_n) {
    const std::size_t new_n = graph_.num_vertices();
    const auto num_ranks = cluster_->num_ranks();
    std::vector<RankId> new_owners;
    if (config_.repartition_mode == RepartitionMode::Adaptive) {
        // Adaptive: start from the current assignment, place each new vertex
        // on its max-affinity rank (ties to the lightest), then FM-refine.
        new_owners = ownership_.owners();
        new_owners.resize(new_n, 0);
        std::vector<std::size_t> load(num_ranks, 0);
        for (VertexId v = 0; v < old_n; ++v) {
            ++load[new_owners[v]];
        }
        std::vector<double> affinity(num_ranks, 0);
        for (VertexId v = static_cast<VertexId>(old_n); v < new_n; ++v) {
            std::fill(affinity.begin(), affinity.end(), 0);
            for (const Neighbor& nb : graph_.neighbors(v)) {
                if (nb.to < v) {  // already placed
                    affinity[new_owners[nb.to]] += nb.weight;
                }
            }
            RankId best = 0;
            for (RankId r = 1; r < num_ranks; ++r) {
                if (affinity[r] > affinity[best] ||
                    (affinity[r] == affinity[best] && load[r] < load[best])) {
                    best = r;
                }
            }
            new_owners[v] = best;
            ++load[best];
        }
        Partitioning refined;
        refined.num_parts = num_ranks;
        refined.assignment = std::move(new_owners);
        const CsrGraph snapshot(graph_);
        refine_partition(snapshot, refined, config_.partition.refine);
        new_owners = std::move(refined.assignment);
        // Refinement is a few passes over the edges on each rank.
        const double units = kPartitionCostFactor *
                             static_cast<double>(new_n + graph_.num_edges());
        for (RankId r = 0; r < num_ranks; ++r) {
            cluster_->charge_compute(r, units / static_cast<double>(num_ranks));
        }
    } else {
        Rng partition_rng = rng_.fork();
        const Partitioning partition = multilevel_partition(
            graph_, num_ranks, partition_rng, config_.partition);
        charge_partition_cost(new_n, graph_.num_edges());
        new_owners = partition.assignment;
    }

    // Part labels from a scratch partition are arbitrary; relabel each new
    // part to the old rank it overlaps most (greedy max-overlap matching) so
    // that unmoved vertices keep their owner and the migration volume is the
    // true repartitioning delta, not a label permutation. (A no-op for the
    // adaptive path, whose labels are already aligned.)
    if (config_.repartition_mode == RepartitionMode::Scratch) {
        std::vector<std::vector<std::size_t>> overlap(
            num_ranks, std::vector<std::size_t>(num_ranks, 0));
        for (VertexId v = 0; v < old_n; ++v) {
            ++overlap[new_owners[v]][ownership_.owner(v)];
        }
        std::vector<RankId> relabel(num_ranks, kInvalidVertex);
        std::vector<bool> rank_taken(num_ranks, false);
        for (std::uint32_t round = 0; round < num_ranks; ++round) {
            std::size_t best = 0;
            std::uint32_t best_part = 0;
            RankId best_rank = 0;
            bool found = false;
            for (std::uint32_t part = 0; part < num_ranks; ++part) {
                if (relabel[part] != kInvalidVertex) {
                    continue;
                }
                for (RankId r = 0; r < num_ranks; ++r) {
                    if (!rank_taken[r] && (!found || overlap[part][r] > best)) {
                        best = overlap[part][r];
                        best_part = part;
                        best_rank = r;
                        found = true;
                    }
                }
            }
            relabel[best_part] = best_rank;
            rank_taken[best_rank] = true;
        }
        for (auto& owner : new_owners) {
            owner = relabel[owner];
        }
        // Relabeling is O(P^2 + n) bookkeeping on each rank.
        for (RankId r = 0; r < num_ranks; ++r) {
            cluster_->charge_compute(
                r, static_cast<double>(num_ranks) * num_ranks + new_n);
        }
    }
    return new_owners;
}

void AnytimeEngine::repartition_add(const GrowthBatch& batch) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    AA_ASSERT_MSG(batch.base_id == graph_.num_vertices(),
                  "batch does not follow the current vertex space");
    const std::size_t old_n = graph_.num_vertices();
    const std::vector<Edge> inserted = grow_graph(batch);

    // ---- 1. Repartition the grown graph. ----
    std::vector<RankId> new_owners;
    {
        auto span = phase_span("repartition.partition");
        new_owners = repartition_owners(old_n);
        std::size_t moved_existing = 0;
        for (VertexId v = 0; v < old_n; ++v) {
            moved_existing += new_owners[v] != ownership_.owner(v) ? 1 : 0;
        }
        last_moved_vertices_ = moved_existing;
        if (span) {
            span.attr("mode", config_.repartition_mode == RepartitionMode::Adaptive
                                  ? "adaptive"
                                  : "scratch");
            span.attr("moved_vertices", std::to_string(moved_existing));
        }
    }

    // ---- 2. Move the existing rows whose owner changed (the paper's
    //          "migrate the partial results"). A repartition re-deals the
    //          logical shards: the fresh assignment defines the new shard
    //          layout, which resolves every owner identically for any
    //          shards_per_rank. The move drains in-flight mail first. ----
    const std::span<const RankId> owners(new_owners);
    {
        auto span = phase_span("repartition.migrate");
        const double ops = move_rows(ShardOwnership::from_partition(
            owners.first(old_n), cluster_->num_ranks(), config_.shards_per_rank));
        report_.dynamic_ops += ops;
        span.add(ops);
    }

    // ---- 3. Integrate the batch on the new partition exactly as
    //          anywhere_add does: each batch edge folds the existing
    //          endpoint's row through the cut edges and bridges the endpoint
    //          columns of every local row. ----
    report_.dynamic_ops += integrate_batch(batch, inserted, owners.subspan(old_n));
    note_structural_change();
}

}  // namespace aa
