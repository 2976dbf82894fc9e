// The engine's one row move: AnytimeEngine::move_rows, and its two callers'
// shared protocol. Shard migration (migrate_shards, below) repoints shards;
// Repartition-S (core/repartition.cpp) installs a fresh partition. Both hand
// the target ownership map to move_rows, which ships every row whose owner
// changes, with its adjacency, over the wire and splices the rows out of /
// into the rank states in place. Every other row keeps its state, marks and
// worklists untouched.
//
// Protocol (order is load-bearing):
//   1. Drain in-flight boundary messages. Blocks already posted were
//      addressed under the old map; their send-lists are drained at the
//      sender, so a block that never lands is information lost.
//   2. Sources encode the moving rows, one message per (source, destination)
//      pair under MessageTag::ShardMigration: a header with the row count and
//      per vertex its adjacency, then one row block per vertex
//      (encode_row_block). Encode strictly before surgery: it reads the live
//      rows, whose values it then frees (DistanceStore::free_row).
//   3. Exchange: the payloads are priced and delivered like any all-to-all.
//   4. Publish the map, priced as one Control broadcast carrying its delta;
//      the engine's copy and every rank's replica are replaced. This must
//      precede the surgery — release() asserts the vertex is no longer owned,
//      adopt_migrated() that it now is.
//   5. Rank-confined surgery: destinations adopt rows
//      (LocalSubgraph::adopt_migrated + DistanceStore::add_row + install_row
//      from the block's view, in lockstep), sources release them (release +
//      swap_remove_row on the same slot).
//   6. Conservative re-marking plus one local propagate drain restore the
//      consistency invariants (see the mark rationale inline).
//
// Correctness: a moved row carries every contribution it ever relaxed in, so
// unmoved rows owe it nothing that the marks below don't re-send; relaxation
// is monotone, so the conservative extra marks only re-attempt relaxations
// that cannot change converged values; pending marks of unmoved rows survive
// the surgery. At quiescence the state is bit-identical to a from-scratch
// engine on the final assignment (pinned by the Migrate and Repartition
// tests).
#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "runtime/message.hpp"

namespace aa {

void AnytimeEngine::drain_in_flight_updates() {
    if (cluster_->has_pending_messages()) {
        cluster_->exchange();
    } else if (!cluster_->mailboxes().has_unreceived()) {
        return;  // every box is empty: nothing to land, nothing to dispatch
    }
    // Inboxes can also hold messages delivered by earlier collectives but not
    // yet received (the async path's leftovers) — ingest those too, exactly
    // as the next RC step's phase 3 would have.
    run_rank_phase(report_.dynamic_ops, [&](RankId r) {
        const auto inbox = cluster_->receive(r);
        for (const Message& m : inbox) {
            AA_ASSERT(m.tag == MessageTag::BoundaryDvUpdate);
        }
        const double ops = rc_ingest_updates(
            ranks_[r].sg, ranks_[r].store, inbox, config_.wire_format,
            pool_.get(), kRcIngestParallelGrain, rc_ingest_window_bytes_);
        cluster_->charge_compute(r, ops);
        return ops;
    });
}

double AnytimeEngine::move_rows(ShardOwnership target) {
    AA_ASSERT(target.num_vertices() == ownership_.num_vertices());
    const auto num_ranks = static_cast<RankId>(ranks_.size());
    const auto n = static_cast<double>(ownership_.num_vertices());
    double dynamic_ops = 0;

    // ---- 1. Land every in-flight block under the old map. ----
    drain_in_flight_updates();

    // The moving vertices per (from, to) pair, ascending.
    std::vector<std::vector<VertexId>> moving(std::size_t{num_ranks} * num_ranks);
    const auto pair = [num_ranks](RankId from, RankId to) {
        return std::size_t{from} * num_ranks + to;
    };
    for (VertexId v = 0; v < target.num_vertices(); ++v) {
        const RankId from = ownership_.owner(v);
        const RankId to = target.owner(v);
        if (from != to) {
            moving[pair(from, to)].push_back(v);
        }
    }

    // ---- 2. Sources encode & post the moving rows, then free them: the
    //          payload carries the values from here on. Encoding runs on the
    //          driver so that the payloads and the freed rows come from one
    //          heap the arrivals can reuse (encoding inside rank closures
    //          raised the grow workload's peak RSS by a quarter). ----
    for (RankId r = 0; r < num_ranks; ++r) {
        RankState& src = ranks_[r];
        for (RankId to = 0; to < num_ranks; ++to) {
            const std::vector<VertexId>& vertices = moving[pair(r, to)];
            if (vertices.empty()) {
                continue;
            }
            // Header: (count, per vertex its adjacency); then one row block
            // per vertex, in the same order.
            Serializer out;
            out.write(static_cast<std::uint64_t>(vertices.size()));
            for (const VertexId v : vertices) {
                out.write(v);
                out.write_span(src.sg.neighbors(src.sg.local_id(v)));
            }
            out.pad_to(sizeof(Weight));
            std::size_t entries = 0;
            for (const VertexId v : vertices) {
                entries += encode_row_block(out, v, src.store.row(src.sg.local_id(v)));
            }
            // Post-kernel accounting: one op per serialized entry, one per row.
            const double ops =
                static_cast<double>(entries) + static_cast<double>(vertices.size());
            cluster_->charge_compute(r, ops);
            dynamic_ops += ops;
            cluster_->send(r, to, MessageTag::ShardMigration, out.take());
            for (const VertexId v : vertices) {
                src.store.free_row(src.sg.local_id(v));
            }
        }
    }

    // ---- 3. Price and deliver the payloads. ----
    cluster_->exchange();

    // ---- 4. Publish the map before any surgery: a Control broadcast of its
    //          delta — (shard, from, to) per repointed or new shard, (vertex,
    //          shard) per vertex that changes shard. ----
    {
        Serializer control;
        for (ShardId s = 0; s < target.num_shards(); ++s) {
            const RankId from =
                s < ownership_.num_shards() ? ownership_.rank_of(s) : num_ranks;
            if (from != target.rank_of(s)) {
                control.write(s);
                control.write(from);
                control.write(target.rank_of(s));
            }
        }
        for (VertexId v = 0; v < target.num_vertices(); ++v) {
            if (ownership_.shard(v) != target.shard(v)) {
                control.write(v);
                control.write(target.shard(v));
            }
        }
        cluster_->broadcast(0, MessageTag::Control, control.take());
    }
    ownership_ = std::move(target);
    for (RankState& state : ranks_) {
        state.sg.set_ownership(ownership_);
    }

    // ---- 5. Surgery + conservative re-marking, rank-confined. ----
    run_rank_phase(dynamic_ops, [&, this](RankId r) {
        RankState& state = ranks_[r];
        double ops = 0;

        // Mark lists are collected as *global* ids and resolved after the
        // surgery: release() renumbers local ids under the swaps.
        std::vector<VertexId> arrived;           // adopted rows
        std::vector<VertexId> arrived_neighbors; // their still-local neighbors
        std::vector<VertexId> left_behind;       // local neighbors of departures

        // Departures' left-behind neighbors, read before the rows go.
        for (RankId to = 0; to < num_ranks; ++to) {
            for (const VertexId v : moving[pair(r, to)]) {
                for (const Neighbor& nb : state.sg.neighbors(state.sg.local_id(v))) {
                    if (state.sg.owns(nb.to)) {  // stays here (new map)
                        left_behind.push_back(nb.to);
                    }
                }
            }
        }

        // 5a. Adopt arrivals first: a departure's left-behind bookkeeping may
        // reference a vertex arriving in this very move.
        std::vector<VertexId> arena;  // column arena, reused across payloads
        for (const Message& message : cluster_->receive(r)) {
            if (message.tag == MessageTag::Control) {
                continue;  // the publish copy — consumed here
            }
            AA_ASSERT_MSG(message.tag == MessageTag::ShardMigration,
                          "unexpected message tag in a row receive");
            const auto payload = message.bytes();
            Deserializer in(payload);
            std::vector<std::pair<VertexId, std::vector<Neighbor>>> rows(
                in.read<std::uint64_t>());
            for (auto& [v, adjacency] : rows) {
                v = in.read<VertexId>();
                adjacency = in.read_vector<Neighbor>();
            }
            const auto blocks = decode_boundary_block_soa_views(payload, arena, in.consumed());
            AA_ASSERT_MSG(blocks.size() == rows.size(),
                          "migration payload row/block mismatch");
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const auto& [v, adjacency] = rows[i];
                AA_ASSERT(blocks[i].vertex == v);
                const LocalId local = state.sg.adopt_migrated(v, adjacency);
                const LocalId row = state.store.add_row(v);
                AA_ASSERT_MSG(row == local, "sg/store slots diverged");
                state.store.install_row(local, blocks[i].cols, blocks[i].dists);
                // Ingest-style accounting: one op per installed entry + row.
                ops += static_cast<double>(blocks[i].cols.size()) + 1;
                arrived.push_back(v);
                for (const auto& nb : adjacency) {
                    if (state.sg.owns(nb.to)) {
                        arrived_neighbors.push_back(nb.to);
                    }
                }
            }
        }

        // 5b. Release departures, mirroring each swap in the store.
        for (RankId to = 0; to < num_ranks; ++to) {
            for (const VertexId v : moving[pair(r, to)]) {
                const LocalId slot = state.sg.release(v);
                state.store.swap_remove_row(slot);
                ops += 1;
            }
        }

        // 5c. Conservative marks (sorted + deduped: deterministic order, one
        // full-row mark each). Rationale:
        //   * arrived rows must propagate into their new co-located neighbors
        //     and announce themselves to their (new) neighboring ranks;
        //   * an arrived row's local neighbors may hold changed entries still
        //     marked for *send* to the old owner — that edge just became
        //     internal, so only a prop sweep reaches the arrival now;
        //   * a departure's left-behind neighbors may hold changed entries
        //     still marked for *prop* toward the departed row — that edge
        //     just became a cut edge, so only a (full) send reaches it now.
        // A row whose co-location did not change keeps its marks as they
        // were: its neighbours' rows, wherever they now live, carry every
        // contribution it sent, and its own sends resolve their destination
        // ranks under the new map when they are posted.
        const auto dedupe = [](std::vector<VertexId>& ids) {
            std::sort(ids.begin(), ids.end());
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        };
        dedupe(arrived);
        dedupe(arrived_neighbors);
        dedupe(left_behind);
        for (const VertexId g : arrived) {
            const LocalId l = state.sg.local_id(g);
            state.store.mark_row_for_prop(l);
            ops += n;
            if (state.sg.is_boundary(l)) {
                state.store.mark_row_for_send(l);
                ops += n;
            }
        }
        for (const VertexId g : arrived_neighbors) {
            state.store.mark_row_for_prop(state.sg.local_id(g));
            ops += n;
        }
        for (const VertexId g : left_behind) {
            state.store.mark_row_for_send(state.sg.local_id(g));
            ops += n;
        }

        // 6. Drain the local sweep now so the first RC step after the move
        // already posts locally consistent boundary DVs.
        ops += rc_propagate_local(state.sg, state.store, pool_.get());
        cluster_->charge_compute(r, ops);
        return ops;
    });
    cluster_->barrier();
    // The move reshuffles load attribution; let the EWMA re-learn before the
    // planner proposes another move.
    planner_.reset();
    return dynamic_ops;
}

void AnytimeEngine::migrate_shards(std::span<const ShardMove> moves) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before migration");
    const auto num_ranks = static_cast<RankId>(ranks_.size());

    // Validate sequentially against the target map: unknown shards, stale
    // `from` ranks, self-moves and repeated shards are skipped as no-ops.
    ShardOwnership target = ownership_;
    std::vector<std::uint8_t> seen(target.num_shards(), 0);
    std::size_t applied = 0;
    std::size_t moved_rows = 0;
    for (const ShardMove& m : moves) {
        if (m.shard >= target.num_shards() || m.to >= num_ranks ||
            seen[m.shard] != 0 || target.rank_of(m.shard) != m.from ||
            m.from == m.to) {
            continue;
        }
        seen[m.shard] = 1;
        target.set_shard_rank(m.shard, m.to);
        ++applied;
        moved_rows += target.shard_vertices(m.shard).size();
    }
    if (applied == 0) {
        return;
    }

    auto span = phase_span("migrate");
    const double dynamic_ops = move_rows(std::move(target));
    report_.shard_migrations += applied;
    report_.migrated_rows += moved_rows;
    report_.dynamic_ops += dynamic_ops;
    note_structural_change();
    if (span) {
        span.attr("moves", std::to_string(applied));
        span.attr("rows", std::to_string(moved_rows));
    }
    span.add(dynamic_ops);
}

}  // namespace aa
