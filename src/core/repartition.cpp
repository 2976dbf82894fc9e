// AnytimeEngine::repartition_add — the Repartition-S strategy (paper
// §IV.C.1.b).
//
// Integrate the batch structurally, repartition the *whole* grown graph with
// the multilevel partitioner, migrate existing DV rows to their new owners
// (reusing the anytime partial results — this is what separates
// Repartition-S from a restart), seed the batch edges through the anywhere
// broadcasts, and let the subsequent RC steps converge the rest.
#include <algorithm>
#include <unordered_map>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "partition/refine.hpp"
#include "runtime/message.hpp"

namespace aa {

namespace {

/// Wire format for migrated rows: repeated [global vertex][row values].
void encode_migrated_row(Serializer& out, VertexId vertex,
                         std::span<const Weight> values) {
    out.write(vertex);
    out.write_span(values);
}

}  // namespace

void AnytimeEngine::repartition_add(const GrowthBatch& batch) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    AA_ASSERT_MSG(batch.base_id == graph_.num_vertices(),
                  "batch does not follow the current vertex space");

    const std::size_t old_n = graph_.num_vertices();
    const std::size_t new_n = old_n + batch.num_new;
    const auto num_ranks = cluster_->num_ranks();
    double dynamic_ops = 0;
    const bool mx = metrics_->enabled();
    const auto span_step = static_cast<std::int64_t>(rc_steps_);
    const auto open_stage = [&](const char* name) {
        return mx ? metrics_->span_open(name, -1, span_step, sim_seconds())
                  : MetricsRegistry::kNullHandle;
    };
    const auto close_stage = [&](MetricsRegistry::Handle h) {
        if (mx) {
            metrics_->span_close(h, sim_seconds());
        }
    };

    // ---- 1. Integrate the batch into the global structure. ----
    graph_.add_vertices(batch.num_new);
    for (const Edge& e : batch.edges) {
        graph_.add_edge(e.u, e.v, e.weight);
    }

    // ---- 2. Repartition the grown graph. ----
    const auto partition_span = open_stage("repartition.partition");
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

    close_stage(partition_span);

    // Which existing vertices actually change owner (drives both migration
    // and the consistency re-marking below).
    std::vector<std::uint8_t> moved(new_n, 0);
    std::size_t moved_existing = 0;
    for (VertexId v = 0; v < old_n; ++v) {
        moved[v] = new_owners[v] != ownership_.owner(v) ? 1 : 0;
        moved_existing += moved[v];
    }
    for (VertexId v = static_cast<VertexId>(old_n); v < new_n; ++v) {
        moved[v] = 1;  // new vertices count as moved everywhere
    }
    last_moved_vertices_ = moved_existing;
    if (mx) {
        metrics_->span_attr(partition_span, "mode",
                            config_.repartition_mode == RepartitionMode::Adaptive
                                ? "adaptive"
                                : "scratch");
        metrics_->span_attr(partition_span, "moved_vertices",
                            std::to_string(moved_existing));
    }

    // ---- 3. Widen every row, then migrate rows whose owner changed. ----
    const auto migrate_span = open_stage("repartition.migrate");
    for (RankId r = 0; r < num_ranks; ++r) {
        const double ops = static_cast<double>(ranks_[r].store.num_rows()) +
                           static_cast<double>(batch.num_new);
        ranks_[r].store.grow_columns(new_n);
        cluster_->charge_compute(r, ops);
        dynamic_ops += ops;
    }

    // Rows this rank keeps (or receives), keyed by global vertex. Rows with
    // pending (unpropagated/unsent) changes lose that dirty state in the
    // rebuild, so they must be re-marked like moved rows.
    std::vector<std::unordered_map<VertexId, std::vector<Weight>>> retained(num_ranks);
    std::vector<std::uint8_t> had_pending(new_n, 0);
    for (RankId r = 0; r < num_ranks; ++r) {
        RankState& state = ranks_[r];
        std::vector<Serializer> outgoing(num_ranks);
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            const VertexId g = state.sg.global_id(l);
            const RankId dest = new_owners[g];
            had_pending[g] =
                state.store.has_prop(l) || state.store.has_send(l) ? 1 : 0;
            auto values = state.store.extract_row(l);
            if (dest == r) {
                retained[r].emplace(g, std::move(values));
            } else {
                encode_migrated_row(outgoing[dest], g, values);
                cluster_->charge_compute(r, static_cast<double>(values.size()));
                dynamic_ops += static_cast<double>(values.size());
            }
        }
        for (RankId dest = 0; dest < num_ranks; ++dest) {
            if (dest != r && outgoing[dest].size() > 0) {
                cluster_->send(r, dest, MessageTag::MigratedRows,
                               outgoing[dest].take());
            }
        }
    }
    // The migration uses the same personalized all-to-all as an RC step.
    cluster_->exchange();
    for (RankId r = 0; r < num_ranks; ++r) {
        for (const Message& message : cluster_->receive(r)) {
            if (message.tag != MessageTag::MigratedRows) {
                continue;
            }
            Deserializer in(message.bytes());
            while (!in.exhausted()) {
                const auto vertex = in.read<VertexId>();
                auto values = in.read_vector<Weight>();
                cluster_->charge_compute(r, static_cast<double>(values.size()));
                dynamic_ops += static_cast<double>(values.size());
                retained[r].emplace(vertex, std::move(values));
            }
        }
    }
    close_stage(migrate_span);

    // ---- 4. Rebuild rank state under the new ownership. ----
    const auto rebuild_span = open_stage("repartition.rebuild");
    // A repartition re-deals the logical shards from scratch: the fresh
    // assignment defines the new shard layout (owner resolution is identical
    // for any shards_per_rank, so this does not perturb bit-identity).
    ownership_ = ShardOwnership::from_partition(new_owners, num_ranks,
                                                config_.shards_per_rank);
    planner_.reset();
    for (RankId r = 0; r < num_ranks; ++r) {
        RankState& state = ranks_[r];
        state.sg = LocalSubgraph(r, ownership_);
        state.store = DistanceStore(new_n);
        state.store.set_simd_enabled(config_.rc_simd);
        for (const VertexId v : state.sg.local_vertices()) {
            state.store.add_row(v);
        }
    }
    for (const Edge& e : graph_.edges()) {
        distribute_edge(e.u, e.v, e.weight);
    }

    // Install retained/migrated rows; new vertices keep their near-empty
    // (diagonal-only) rows and are seeded through the edge broadcasts below.
    for (RankId r = 0; r < num_ranks; ++r) {
        RankState& state = ranks_[r];
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            const VertexId g = state.sg.global_id(l);
            const auto it = retained[r].find(g);
            if (it != retained[r].end()) {
                state.store.install_row(l, std::move(it->second));
            } else {
                AA_ASSERT_MSG(g >= old_n, "existing vertex lost its row");
            }
        }
    }

    close_stage(rebuild_span);

    // ---- 5. Seed the batch through the anywhere edge broadcasts (the same
    //          primitive as anywhere_add): each batch edge folds the lower
    //          endpoint's row through the cut edges and bridges the endpoint
    //          columns of every local row. A local SSSP from only the new
    //          vertices is NOT sound here: its paths route through old local
    //          vertices whose rows never learn the new columns, leaving
    //          estimates that no owner row witnesses — and the fully-dynamic
    //          deletion cascade (edge_delete.cpp) finds stale entries by
    //          walking exactly those owner-row witnesses. The broadcasts
    //          preserve the invariant; through-partition shortcuts the SSSP
    //          would have found arrive with the next RC exchanges. ----
    const auto seed_span = open_stage("repartition.seed");
    const double ops_before_seed = dynamic_ops;
    for (const Edge& e : batch.edges) {
        const VertexId lo = std::min(e.u, e.v);
        const VertexId hi = std::max(e.u, e.v);
        dynamic_ops += broadcast_edge_update(lo, hi, graph_.edge_weight(lo, hi));
    }
    if (mx) {
        metrics_->span_add(seed_span, dynamic_ops - ops_before_seed);
    }
    close_stage(seed_span);

    // ---- 6. Re-establish consistency marks — but only where the move
    //          actually changed relationships. A row is affected iff it
    //          moved or one of its neighbours moved: only then can it be
    //          newly co-located with rows it has never relaxed against, or
    //          face a neighbouring rank that lacks its DV. Unaffected rows
    //          keep both properties from before the repartition. This (plus
    //          the relabeling above) keeps Repartition-S's fixed cost at the
    //          true repartition delta; what remains is the paper's
    //          "additional RC steps" cost. ----
    const auto remark_span = open_stage("repartition.remark");
    std::vector<double> remark_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        // `moved` and `had_pending` are read-only from here, shared across
        // the concurrent rank closures.
        RankState& state = ranks_[r];
        double ops = 0;
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            const VertexId g = state.sg.global_id(l);
            bool affected = moved[g] != 0 || had_pending[g] != 0;
            for (const Neighbor& nb : state.sg.neighbors(l)) {
                if (affected) {
                    break;
                }
                affected = moved[nb.to] != 0;
            }
            ops += static_cast<double>(state.sg.neighbors(l).size());
            if (!affected) {
                continue;
            }
            state.store.mark_row_for_prop(l);
            ops += static_cast<double>(new_n);
            if (state.sg.is_boundary(l)) {
                state.store.mark_row_for_send(l);
                ops += static_cast<double>(new_n);
            }
        }
        // Drain the local sweep now so the first post-repartition RC step
        // already sends locally consistent boundary DVs.
        ops += rc_propagate_local(state.sg, state.store, kernel_pool());
        cluster_->charge_compute(r, ops);
        remark_ops[r] = ops;
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        dynamic_ops += remark_ops[r];
    }
    cluster_->barrier();
    close_stage(remark_span);
    report_.dynamic_ops += dynamic_ops;
    note_structural_change();
}

}  // namespace aa
