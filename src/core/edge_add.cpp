// Anywhere dynamic updates built on the edge-addition algorithm of the
// authors' prior work [9]:
//   * AnytimeEngine::anywhere_add      — vertex additions (paper Figure 3;
//                                        integrate_batch is its body, which
//                                        Repartition-S shares),
//   * AnytimeEngine::add_edges         — edge additions between existing
//                                        vertices ("new relationship
//                                        formations", [9]).
// Edge weight changes of either sign run through the deletion machinery in
// core/edge_delete.cpp, whose weight decreases reuse the same broadcast.
//
// Both share one primitive: the owner of an endpoint tree-broadcasts
// that endpoint's DV row; every rank folds the row in through its cut edges,
// owners fold it through the new/changed edge, and every rank bridges the
// two endpoint columns of its local rows (the paper's
// D[x][t] > D[x][u] + w + D[v][t] inequality, applied where it can bind
// immediately). Remaining consequences flow through the normal prop/send
// worklists, which reach the same fixpoint as the paper's full sweep at
// incremental cost.
#include <algorithm>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "runtime/message.hpp"

namespace aa {

double AnytimeEngine::broadcast_edge_update(VertexId from, VertexId to, Weight w) {
    const RankId r_from = ownership_.owner(from);
    const RankId r_to = ownership_.owner(to);
    double total_ops = 0;

    // Tree broadcast of row(from) — paper Figure 3, line 22: the (to, weight)
    // header, then row(from)'s finite entries as one boundary block.
    Serializer out;
    out.write(to);
    out.write(w);
    out.pad_to(sizeof(Weight));
    const RankState& sender = ranks_[r_from];
    const auto entries = static_cast<double>(
        encode_row_block(out, from, sender.store.row(sender.sg.local_id(from))));
    cluster_->charge_compute(r_from, entries);
    total_ops += entries;
    // The sender reads its own copy of the bytes (read-only from here, so
    // concurrent rank closures share it), the receivers the delivered one.
    const std::vector<std::byte> wire = out.take();
    cluster_->broadcast(r_from, MessageTag::NewVertexDvRow, wire);

    // Apply the update at every rank.
    run_rank_phase(total_ops, [&](RankId r) {
        RankState& state = ranks_[r];
        std::vector<Message> inbox;
        std::span<const std::byte> payload = wire;
        if (r != r_from) {
            inbox = cluster_->receive(r);
            AA_ASSERT(inbox.size() == 1 && inbox[0].tag == MessageTag::NewVertexDvRow);
            payload = inbox[0].bytes();
        }
        Deserializer in(payload);
        const auto header_to = in.read<VertexId>();
        const auto header_w = in.read<Weight>();
        AA_ASSERT(header_to == to && header_w == w);
        std::vector<VertexId> arena;
        const auto blocks = decode_boundary_block_soa_views(payload, arena, in.consumed());
        AA_ASSERT(blocks.size() == 1 && blocks[0].vertex == from);
        const BoundaryBlockSoaView& row = blocks[0];
        const auto count = static_cast<double>(row.cols.size());
        double ops = 0;
        // Same-rank edge: fold row(from) through the edge into row(to)
        // directly (the cross-rank case is covered by the cut-edge ingestion
        // below, which sees the new edge in its external adjacency).
        if (r == r_to && r_from == r_to) {
            state.store.relax_batch_soa(state.sg.local_id(to), row.cols, row.dists, w);
            ops += count;
        }
        // Any rank with a cut edge to `from` ingests the broadcast as it
        // would a boundary-DV update: d(x, t) <= w(x, from) + d(from, t).
        for (const auto& [local, edge_w] : state.sg.external_neighbors(from)) {
            state.store.relax_batch_soa(local, row.cols, row.dists, edge_w);
            ops += count;
        }
        // Every rank bridges the endpoint columns of its local rows:
        // d(x, to) <= d(x, from) + w and d(x, from) <= d(x, to) + w.
        for (LocalId x = 0; x < state.sg.num_local(); ++x) {
            const Weight d_from = state.store.at(x, from);
            if (d_from < kInfinity) {
                state.store.relax(x, to, d_from + w);
            }
            const Weight d_to = state.store.at(x, to);
            if (d_to < kInfinity) {
                state.store.relax(x, from, d_to + w);
            }
            ops += 2;
        }
        cluster_->charge_compute(r, ops);
        return ops;
    });
    return total_ops;
}

void AnytimeEngine::anywhere_add(const GrowthBatch& batch,
                                 const std::vector<RankId>& assignment) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    AA_ASSERT(assignment.size() == batch.num_new);
    AA_ASSERT_MSG(batch.base_id == graph_.num_vertices(),
                  "batch does not follow the current vertex space");
    drain_in_flight_updates();
    const std::vector<Edge> inserted = grow_graph(batch);
    report_.dynamic_ops += integrate_batch(batch, inserted, assignment);
    note_structural_change();
}

std::vector<Edge> AnytimeEngine::grow_graph(const GrowthBatch& batch) {
    graph_.add_vertices(batch.num_new);
    std::vector<Edge> inserted;
    for (const Edge& e : batch.edges) {
        const VertexId lo = std::min(e.u, e.v);
        const VertexId hi = std::max(e.u, e.v);
        AA_ASSERT_MSG(hi >= batch.base_id, "batch edge touches no new vertex");
        if (graph_.add_edge(lo, hi, e.weight)) {
            inserted.push_back({lo, hi, e.weight});
        }
    }
    return inserted;
}

double AnytimeEngine::integrate_batch(const GrowthBatch& batch,
                                      std::span<const Edge> inserted,
                                      std::span<const RankId> assignment) {
    const std::size_t k = batch.num_new;
    const std::size_t new_n = graph_.num_vertices();
    AA_ASSERT(assignment.size() == k && batch.base_id + k == new_n);
    double dynamic_ops = 0;

    // ---- 1. Structural extension (Figure 3, lines 11-18). ----
    {
        auto span = phase_span("add.extend");
        ownership_.extend(assignment);
        run_rank_phase(dynamic_ops, [&](RankId r) {
            RankState& state = ranks_[r];
            state.sg.extend_ownership(assignment);
            // DV resize: one new column per existing row (amortized via
            // doubling growth, the paper's O(n) bound), plus a fresh row per
            // adopted vertex (added below in adoption order).
            const double ops = static_cast<double>(state.store.num_rows()) +
                               static_cast<double>(k);
            state.store.grow_columns(new_n);
            cluster_->charge_compute(r, ops);
            return ops;
        });
        for (std::size_t i = 0; i < k; ++i) {
            const VertexId v = batch.base_id + static_cast<VertexId>(i);
            RankState& owner = ranks_[assignment[i]];
            const LocalId row = owner.store.add_row(v);
            AA_ASSERT_MSG(owner.sg.global_id(row) == v,
                          "row order diverged from adoption order");
            cluster_->charge_compute(assignment[i], static_cast<double>(new_n));
            dynamic_ops += static_cast<double>(new_n);
        }
        span.add(dynamic_ops);
    }

    // ---- 2. Edge additions (Figure 3, lines 19-44). The broadcast carries
    //          the *existing* endpoint's row; the new endpoint's row starts
    //          near-empty and its content reaches neighbours through the
    //          regular RC sends as it fills in. ----
    {
        auto span = phase_span("add.broadcast");
        const double ops_before_edges = dynamic_ops;
        for (const Edge& e : inserted) {
            distribute_edge(e.u, e.v, e.weight);
            dynamic_ops += broadcast_edge_update(e.u, e.v, e.weight);
        }
        span.add(dynamic_ops - ops_before_edges);
        if (span) {
            span.attr("edges", std::to_string(batch.edges.size()));
        }
    }

    // ---- 3. Within-rank propagation to fixpoint. ----
    {
        auto span = phase_span("add.propagate");
        const double ops_before_prop = dynamic_ops;
        settle_ranks(dynamic_ops);
        span.add(dynamic_ops - ops_before_prop);
    }
    return dynamic_ops;
}

void AnytimeEngine::add_edges(std::span<const Edge> edges) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    drain_in_flight_updates();
    double dynamic_ops = 0;

    for (const Edge& e : edges) {
        AA_ASSERT(e.u < graph_.num_vertices() && e.v < graph_.num_vertices());
        if (!graph_.add_edge(e.u, e.v, e.weight)) {
            continue;  // duplicate
        }
        distribute_edge(e.u, e.v, e.weight);
        // Both endpoints are established vertices with full rows, so both
        // rows are broadcast (prior work [9] evaluates the new-edge
        // inequality in both directions).
        dynamic_ops += broadcast_edge_update(e.u, e.v, e.weight);
        dynamic_ops += broadcast_edge_update(e.v, e.u, e.weight);
        report_.edge_additions += 1;
    }

    settle_ranks(dynamic_ops);
    report_.dynamic_ops += dynamic_ops;
    note_structural_change();
    fire_boundary_hook();
}

}  // namespace aa
