// AnytimeEngine::migrate_shards — incremental shard migration.
//
// Moving a shard is the surgical counterpart of Repartition-S's wholesale
// rebuild: repoint one logical shard in the (replicated) shard map, ship its
// DV rows and adjacency to the new owner over the wire, and splice the rows
// out of / into the two rank states in place. Everything else — every other
// row, every other rank — keeps its state, marks and worklists untouched.
//
// Protocol (order is load-bearing):
//   1. Drain in-flight boundary messages. Blocks already posted were
//      addressed under the old map; their send-lists are drained at the
//      sender, so a block that never lands is information lost.
//   2. Sources encode each moving shard — a header with per vertex its
//      adjacency, then one row block per vertex (encode_row_block) — and
//      post it to the destination under MessageTag::ShardMigration.
//      (Encode strictly before surgery: it reads the live rows.)
//   3. Republish the shard map: the engine's copy and every rank's replica
//      repoint the moved shards, priced as one Control broadcast. This must
//      precede the surgery — release() asserts the vertex is no longer owned,
//      adopt_migrated() that it now is.
//   4. Exchange delivers the payloads; then, rank-confined: destinations
//      adopt rows (LocalSubgraph::adopt_migrated + DistanceStore::add_row +
//      install_row from the block's view, in lockstep), sources release them
//      (release + swap_remove_row on the same slot).
//   5. Conservative re-marking plus one local propagate drain restore the
//      consistency invariants (see the mark rationale inline).
//
// Correctness: a moved row carries every contribution it ever relaxed in, so
// unmoved rows owe it nothing that the marks below don't re-send; relaxation
// is monotone, so the conservative extra marks only re-attempt relaxations
// that cannot change converged values. At quiescence the state is
// bit-identical to a from-scratch engine on the final assignment (pinned by
// the Migrate tests).
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

void AnytimeEngine::migrate_shards(std::span<const ShardMove> moves) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before migration");
    const auto num_ranks = static_cast<RankId>(ranks_.size());

    // Validate sequentially against a scratch map: unknown shards, stale
    // `from` ranks, self-moves and repeated shards are skipped as no-ops.
    std::vector<ShardMove> applied;
    {
        std::vector<RankId> map = ownership_.shard_map();
        std::vector<std::uint8_t> seen(map.size(), 0);
        for (const ShardMove& m : moves) {
            if (m.shard >= map.size() || m.to >= num_ranks ||
                seen[m.shard] != 0 || map[m.shard] != m.from ||
                m.from == m.to) {
                continue;
            }
            seen[m.shard] = 1;
            map[m.shard] = m.to;
            applied.push_back(m);
        }
    }
    if (applied.empty()) {
        return;
    }

    auto span = phase_span("migrate");
    double dynamic_ops = 0;
    const auto n = static_cast<double>(graph_.num_vertices());

    // ---- 1. Land every in-flight block under the old map. ----
    drain_in_flight_updates();

    // ---- 2. Snapshot each moving shard's vertex set (old map). ----
    struct PlannedMove {
        ShardMove move;
        std::vector<VertexId> vertices;
    };
    std::vector<PlannedMove> planned;
    planned.reserve(applied.size());
    std::size_t moved_rows = 0;
    for (const ShardMove& m : applied) {
        planned.push_back({m, ownership_.shard_vertices(m.shard)});
        moved_rows += planned.back().vertices.size();
    }

    // ---- 3. Sources encode & post the moving rows. ----
    for (const PlannedMove& pm : planned) {
        if (pm.vertices.empty()) {
            continue;  // metadata-only repoint, nothing on the wire
        }
        const RankState& src = ranks_[pm.move.from];
        // Header: (shard, count, per vertex its adjacency); then one row
        // block per vertex, in the same order.
        Serializer out;
        out.write(pm.move.shard);
        out.write(static_cast<std::uint64_t>(pm.vertices.size()));
        for (const VertexId v : pm.vertices) {
            out.write(v);
            out.write_span(src.sg.neighbors(src.sg.local_id(v)));
        }
        out.pad_to(sizeof(Weight));
        std::size_t entries = 0;
        for (const VertexId v : pm.vertices) {
            entries += encode_row_block(out, v, src.store.row(src.sg.local_id(v)));
        }
        // Post-kernel accounting: one op per serialized entry, one per row.
        const double ops =
            static_cast<double>(entries) + static_cast<double>(pm.vertices.size());
        cluster_->charge_compute(pm.move.from, ops);
        dynamic_ops += ops;
        cluster_->send(pm.move.from, pm.move.to, MessageTag::ShardMigration,
                       out.take(), entries);
    }

    // ---- 4. Republish the shard map before any surgery. ----
    {
        // Price the publish as one small control broadcast (shard, from, to
        // per move); the map repointing itself is O(moves) on each rank.
        Serializer control;
        for (const PlannedMove& pm : planned) {
            control.write(pm.move.shard);
            control.write(pm.move.from);
            control.write(pm.move.to);
        }
        cluster_->broadcast(0, MessageTag::Control, control.take());
    }
    for (const PlannedMove& pm : planned) {
        ownership_.set_shard_rank(pm.move.shard, pm.move.to);
        for (RankId r = 0; r < num_ranks; ++r) {
            ranks_[r].sg.set_shard_rank(pm.move.shard, pm.move.to);
        }
    }

    // ---- 5. Deliver the payloads. ----
    cluster_->exchange();

    // ---- 6. Surgery + conservative re-marking, rank-confined. ----
    run_rank_phase(dynamic_ops, [&, this](RankId r) {
        RankState& state = ranks_[r];
        double ops = 0;

        // Mark lists are collected as *global* ids and resolved after the
        // surgery: release() renumbers local ids under the swaps.
        std::vector<VertexId> arrived;           // adopted rows
        std::vector<VertexId> arrived_neighbors; // their still-local neighbors
        std::vector<VertexId> left_behind;       // local neighbors of departures

        // Departures' left-behind neighbors, read before the rows go.
        for (const PlannedMove& pm : planned) {
            if (pm.move.from != r) {
                continue;
            }
            for (const VertexId v : pm.vertices) {
                for (const Neighbor& nb : state.sg.neighbors(state.sg.local_id(v))) {
                    if (state.sg.owns(nb.to)) {  // stays here (new map)
                        left_behind.push_back(nb.to);
                    }
                }
            }
        }

        // 6a. Adopt arrivals first: a departure's left-behind bookkeeping may
        // reference a vertex arriving in this very batch.
        std::vector<VertexId> arena;  // column arena, reused across payloads
        for (const Message& message : cluster_->receive(r)) {
            if (message.tag == MessageTag::Control) {
                continue;  // the publish copy — consumed here
            }
            AA_ASSERT_MSG(message.tag == MessageTag::ShardMigration,
                          "unexpected message tag in a row receive");
            const auto payload = message.bytes();
            Deserializer in(payload);
            (void)in.read<ShardId>();
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

        // 6b. Release departures, mirroring each swap in the store.
        for (const PlannedMove& pm : planned) {
            if (pm.move.from != r) {
                continue;
            }
            for (const VertexId v : pm.vertices) {
                const LocalId slot = state.sg.release(v);
                (void)state.store.swap_remove_row(slot);
                ops += 1;
            }
        }

        // 6c. Conservative marks (sorted + deduped: deterministic order, one
        // full-row mark each). Rationale:
        //   * arrived rows must propagate into their new co-located neighbors
        //     and announce themselves to their (new) neighboring ranks;
        //   * an arrived row's local neighbors may hold changed entries still
        //     marked for *send* to the old owner — that edge just became
        //     internal, so only a prop sweep reaches the arrival now;
        //   * a departure's left-behind neighbors may hold changed entries
        //     still marked for *prop* toward the departed row — that edge
        //     just became a cut edge, so only a (full) send reaches it now.
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

        // 6d. Drain the local sweep now so the first post-migration RC step
        // already posts locally consistent boundary DVs.
        ops += rc_propagate_local(state.sg, state.store, pool_.get());
        cluster_->charge_compute(r, ops);
        return ops;
    });
    cluster_->barrier();

    report_.shard_migrations += applied.size();
    report_.migrated_rows += moved_rows;
    report_.dynamic_ops += dynamic_ops;
    // The move reshuffles load attribution; let the EWMA re-learn before the
    // planner proposes another move.
    planner_.reset();
    note_structural_change();
    if (span) {
        span.attr("moves", std::to_string(applied.size()));
        span.attr("rows", std::to_string(moved_rows));
    }
    span.add(dynamic_ops);
}

}  // namespace aa
