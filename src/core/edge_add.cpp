// Anywhere dynamic updates built on the edge-addition algorithm of the
// authors' prior work [9]:
//   * AnytimeEngine::anywhere_add      — vertex additions (paper Figure 3),
//   * AnytimeEngine::add_edges         — edge additions between existing
//                                        vertices ("new relationship
//                                        formations", [9]),
//   * AnytimeEngine::decrease_edge_weight — edge weight decreases ([7];
//                                        increases are routed to the
//                                        deletion machinery in
//                                        core/edge_delete.cpp).
//
// All three share one primitive: the owner of an endpoint tree-broadcasts
// that endpoint's DV row; every rank folds the row in through its cut edges,
// owners fold it through the new/changed edge, and every rank bridges the
// two endpoint columns of its local rows (the paper's
// D[x][t] > D[x][u] + w + D[v][t] inequality, applied where it can bind
// immediately). Remaining consequences flow through the normal prop/send
// worklists, which reach the same fixpoint as the paper's full sweep at
// incremental cost.
#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "runtime/message.hpp"

namespace aa {

namespace {

struct EdgeBroadcast {
    VertexId from;  // the broadcast carries row(from)
    VertexId to;    // the other endpoint of the new/changed edge
    Weight weight;
    std::vector<DvEntry> entries;  // finite entries of row(from)
};

std::vector<std::byte> encode_edge_broadcast(const EdgeBroadcast& b) {
    Serializer out;
    out.write(b.from);
    out.write(b.to);
    out.write(b.weight);
    out.write_span(std::span<const DvEntry>(b.entries));
    return out.take();
}

EdgeBroadcast decode_edge_broadcast(std::span<const std::byte> payload) {
    Deserializer in(payload);
    EdgeBroadcast b;
    b.from = in.read<VertexId>();
    b.to = in.read<VertexId>();
    b.weight = in.read<Weight>();
    b.entries = in.read_vector<DvEntry>();
    return b;
}

}  // namespace

double AnytimeEngine::broadcast_edge_update(VertexId from, VertexId to, Weight w) {
    const auto num_ranks = cluster_->num_ranks();
    const RankId r_from = ownership_.owner(from);
    const RankId r_to = ownership_.owner(to);
    double total_ops = 0;

    // Tree broadcast of row(from) — paper Figure 3, line 22.
    EdgeBroadcast b;
    b.from = from;
    b.to = to;
    b.weight = w;
    b.entries = ranks_[r_from].store.finite_entries(ranks_[r_from].sg.local_id(from));
    cluster_->charge_compute(r_from, static_cast<double>(b.entries.size()));
    total_ops += static_cast<double>(b.entries.size());
    cluster_->broadcast(r_from, MessageTag::NewVertexDvRow,
                        encode_edge_broadcast(b));

    // Apply the update at every rank. Receivers parse the wire payload; the
    // sender applies its own copy directly (`b` is read-only from here, so
    // concurrent rank closures may share it).
    std::vector<double> rank_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        RankState& state = ranks_[r];
        const EdgeBroadcast* update = &b;
        EdgeBroadcast decoded;
        if (r != r_from) {
            const auto inbox = cluster_->receive(r);
            AA_ASSERT(!inbox.empty());
            decoded = decode_edge_broadcast(inbox.back().bytes());
            update = &decoded;
        }
        double ops = 0;
        // Same-rank edge: fold row(from) through the edge into row(to)
        // directly (the cross-rank case is covered by the cut-edge ingestion
        // below, which sees the new edge in its external adjacency).
        if (r == r_to && r_from == r_to) {
            const LocalId l_to = state.sg.local_id(to);
            for (const DvEntry& entry : update->entries) {
                state.store.relax(l_to, entry.column, update->weight + entry.distance);
                ops += 1;
            }
        }
        // Any rank with a cut edge to `from` ingests the broadcast as it
        // would a boundary-DV update: d(x, t) <= w(x, from) + d(from, t).
        for (const auto& [local, edge_w] : state.sg.external_neighbors(from)) {
            for (const DvEntry& entry : update->entries) {
                state.store.relax(local, entry.column, edge_w + entry.distance);
                ops += 1;
            }
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
        rank_ops[r] = ops;
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        total_ops += rank_ops[r];
    }
    return total_ops;
}

void AnytimeEngine::anywhere_add(const GrowthBatch& batch,
                                 const std::vector<RankId>& assignment) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    AA_ASSERT(assignment.size() == batch.num_new);
    AA_ASSERT_MSG(batch.base_id == graph_.num_vertices(),
                  "batch does not follow the current vertex space");

    const std::size_t k = batch.num_new;
    const std::size_t new_n = graph_.num_vertices() + k;
    const auto num_ranks = cluster_->num_ranks();
    double dynamic_ops = 0;
    const bool mx = metrics_->enabled();

    // ---- 1. Structural extension (Figure 3, lines 11-18). ----
    auto extend_span = MetricsRegistry::kNullHandle;
    if (mx) {
        extend_span = metrics_->span_open("add.extend", -1,
                                          static_cast<std::int64_t>(rc_steps_),
                                          sim_seconds());
    }
    graph_.add_vertices(k);
    ownership_.extend(assignment);
    std::vector<double> extend_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        RankState& state = ranks_[r];
        state.sg.extend_ownership(assignment);
        // DV resize: one new column per existing row (amortized via doubling
        // growth, the paper's O(n) bound), plus a fresh row per adopted
        // vertex (added below in adoption order).
        const double ops =
            static_cast<double>(state.store.num_rows()) + static_cast<double>(k);
        state.store.grow_columns(new_n);
        cluster_->charge_compute(r, ops);
        extend_ops[r] = ops;
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        dynamic_ops += extend_ops[r];
    }
    for (std::size_t i = 0; i < k; ++i) {
        const VertexId v = batch.base_id + static_cast<VertexId>(i);
        RankState& owner = ranks_[assignment[i]];
        const LocalId row = owner.store.add_row(v);
        AA_ASSERT_MSG(owner.sg.global_id(row) == v,
                      "row order diverged from adoption order");
        cluster_->charge_compute(assignment[i], static_cast<double>(new_n));
        dynamic_ops += static_cast<double>(new_n);
    }

    if (mx) {
        metrics_->span_add(extend_span, dynamic_ops);
        metrics_->span_close(extend_span, sim_seconds());
    }

    // ---- 2. Edge additions (Figure 3, lines 19-44). The broadcast carries
    //          the *existing* endpoint's row; the new endpoint's row starts
    //          near-empty and its content reaches neighbours through the
    //          regular RC sends as it fills in. ----
    auto broadcast_span = MetricsRegistry::kNullHandle;
    if (mx) {
        broadcast_span = metrics_->span_open(
            "add.broadcast", -1, static_cast<std::int64_t>(rc_steps_),
            sim_seconds());
    }
    const double ops_before_edges = dynamic_ops;
    for (const Edge& e : batch.edges) {
        const VertexId lo = std::min(e.u, e.v);
        const VertexId hi = std::max(e.u, e.v);
        AA_ASSERT_MSG(hi >= batch.base_id, "batch edge touches no new vertex");
        if (!graph_.add_edge(lo, hi, e.weight)) {
            continue;  // duplicate within the batch
        }
        const RankId r_lo = ownership_.owner(lo);
        const RankId r_hi = ownership_.owner(hi);
        ranks_[r_lo].sg.add_local_edge(lo, hi, e.weight);
        if (r_hi != r_lo) {
            ranks_[r_hi].sg.add_local_edge(lo, hi, e.weight);
        }
        dynamic_ops += broadcast_edge_update(lo, hi, e.weight);
    }
    if (mx) {
        metrics_->span_add(broadcast_span, dynamic_ops - ops_before_edges);
        metrics_->span_attr(broadcast_span, "edges",
                            std::to_string(batch.edges.size()));
        metrics_->span_close(broadcast_span, sim_seconds());
    }

    // ---- 3. Within-rank propagation to fixpoint. ----
    auto propagate_span = MetricsRegistry::kNullHandle;
    if (mx) {
        propagate_span = metrics_->span_open(
            "add.propagate", -1, static_cast<std::int64_t>(rc_steps_),
            sim_seconds());
    }
    const double ops_before_prop = dynamic_ops;
    std::vector<double> prop_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        const double ops =
            rc_propagate_local(ranks_[r].sg, ranks_[r].store, kernel_pool());
        cluster_->charge_compute(r, ops);
        prop_ops[r] = ops;
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        dynamic_ops += prop_ops[r];
    }
    cluster_->barrier();
    if (mx) {
        metrics_->span_add(propagate_span, dynamic_ops - ops_before_prop);
        metrics_->span_close(propagate_span, sim_seconds());
    }
    report_.dynamic_ops += dynamic_ops;
    note_structural_change();
}

void AnytimeEngine::add_edges(std::span<const Edge> edges) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    const auto num_ranks = cluster_->num_ranks();
    double dynamic_ops = 0;

    for (const Edge& e : edges) {
        AA_ASSERT(e.u < graph_.num_vertices() && e.v < graph_.num_vertices());
        if (!graph_.add_edge(e.u, e.v, e.weight)) {
            continue;  // duplicate
        }
        const RankId r_u = ownership_.owner(e.u);
        const RankId r_v = ownership_.owner(e.v);
        ranks_[r_u].sg.add_local_edge(e.u, e.v, e.weight);
        if (r_v != r_u) {
            ranks_[r_v].sg.add_local_edge(e.u, e.v, e.weight);
        }
        // Both endpoints are established vertices with full rows, so both
        // rows are broadcast (prior work [9] evaluates the new-edge
        // inequality in both directions).
        dynamic_ops += broadcast_edge_update(e.u, e.v, e.weight);
        dynamic_ops += broadcast_edge_update(e.v, e.u, e.weight);
        report_.edge_additions += 1;
    }

    std::vector<double> prop_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        const double ops =
            rc_propagate_local(ranks_[r].sg, ranks_[r].store, kernel_pool());
        cluster_->charge_compute(r, ops);
        prop_ops[r] = ops;
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        dynamic_ops += prop_ops[r];
    }
    cluster_->barrier();
    report_.dynamic_ops += dynamic_ops;
    note_structural_change();
    fire_boundary_hook();
}

bool AnytimeEngine::decrease_edge_weight(VertexId u, VertexId v, Weight new_weight) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    AA_ASSERT(u < graph_.num_vertices() && v < graph_.num_vertices());
    AA_ASSERT_MSG(std::isfinite(new_weight) && new_weight > 0,
                  "edge weights must be finite and positive");
    const Weight current = graph_.edge_weight(u, v);
    if (!(current < kInfinity)) {
        return false;  // no such edge
    }
    if (new_weight > current) {
        // A weight increase can raise distances; route it through the
        // invalidate/re-settle machinery instead of the monotone broadcast.
        ShrinkBatch batch;
        batch.reweights.push_back({u, v, new_weight});
        apply_deletion(batch);
        return true;
    }
    if (new_weight == current) {
        return true;
    }

    graph_.set_edge_weight(u, v, new_weight);
    const RankId r_u = ownership_.owner(u);
    const RankId r_v = ownership_.owner(v);
    ranks_[r_u].sg.update_edge_weight(u, v, new_weight);
    if (r_v != r_u) {
        ranks_[r_v].sg.update_edge_weight(u, v, new_weight);
    }

    double dynamic_ops = broadcast_edge_update(u, v, new_weight);
    dynamic_ops += broadcast_edge_update(v, u, new_weight);
    std::vector<double> prop_ops(cluster_->num_ranks(), 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        const double ops =
            rc_propagate_local(ranks_[r].sg, ranks_[r].store, kernel_pool());
        cluster_->charge_compute(r, ops);
        prop_ops[r] = ops;
    });
    for (RankId r = 0; r < cluster_->num_ranks(); ++r) {
        dynamic_ops += prop_ops[r];
    }
    cluster_->barrier();
    report_.dynamic_ops += dynamic_ops;
    note_structural_change();
    fire_boundary_hook();
    return true;
}

}  // namespace aa
