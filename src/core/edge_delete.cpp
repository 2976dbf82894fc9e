// Fully-dynamic shrink updates — see the phase overview in edge_delete.hpp.
//
// Structure mirrors edge_add.cpp: a driver-side orchestration that charges
// every per-rank scan to the simulated clock, ships real serialized messages
// between rank address spaces, and hands the re-settlement to the unchanged
// RC worklists. The cascade itself runs rank-by-rank on the driver thread
// (like the collectives), so it is deterministic and backend-independent;
// only the final propagate sweep runs as a backend phase, exactly like
// edge addition's step 3.
#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "core/edge_delete.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "runtime/message.hpp"

namespace aa {

namespace {

/// One edge whose old weight no longer supports any estimate: a removal, or
/// a reweight whose weight went up (support at w_old is gone either way).
struct AffectedEdge {
    VertexId u;
    VertexId v;
    Weight w_old;
};

/// Slack on the suspect tests (seed and dependant inequalities). Estimates
/// written by relax() are right-associated sums, for which the inequality is
/// floating-point exact; IA's Dijkstra accumulates left-associated sums, so
/// with non-dyadic weights a routed estimate can sit an ulp below
/// w_old + d(v, t). Widening the test only ever *over*-invalidates, which
/// re-settlement absorbs; with uniform (or dyadic) weights every quantity is
/// exact and the slack admits no extra suspect beyond exact ties.
constexpr Weight kSuspectSlack = 1e-9;

}  // namespace

ShrinkReport AnytimeEngine::apply_deletion(const ShrinkBatch& batch) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    const ShrinkReport rep = shrink_and_resettle(batch);
    note_structural_change();
    fire_boundary_hook();
    return rep;
}

ShrinkReport AnytimeEngine::shrink_and_resettle(const ShrinkBatch& batch) {
    const std::size_t n = graph_.num_vertices();
    const auto num_ranks = cluster_->num_ranks();
    drain_in_flight_updates();
    ShrinkReport rep;
    double dynamic_ops = 0;
    auto span = phase_span("delete");

    // ---- 1. Normalize the batch and apply the shrinking structural changes.
    // Vertex deletions expand to their incident edge sets; duplicates (and
    // edges not present, e.g. already deleted) are skipped. Weight decreases
    // are split off and deferred to after the cascade: their broadcast ships
    // finite row values, which must not happen while stale-low entries exist.
    const auto canon = [](VertexId a, VertexId b) {
        return std::make_pair(std::min(a, b), std::max(a, b));
    };
    std::set<std::pair<VertexId, VertexId>> seen;
    std::vector<AffectedEdge> affected;
    std::vector<Edge> decreases;
    std::vector<Edge> removals;
    for (const VertexId v : batch.vertices) {
        AA_ASSERT(v < n);
        for (const Neighbor& nb : graph_.neighbors(v)) {
            removals.push_back({v, nb.to, nb.weight});
        }
    }
    for (const Edge& e : batch.deletions) {
        removals.push_back(e);
    }
    for (const Edge& e : removals) {
        AA_ASSERT(e.u < n && e.v < n && e.u != e.v);
        const auto key = canon(e.u, e.v);
        if (!seen.insert(key).second) {
            continue;  // duplicate within the batch
        }
        const Weight w_old = graph_.remove_edge(e.u, e.v);
        if (!(w_old < kInfinity)) {
            continue;  // not present (e.g. already deleted): a no-op
        }
        distribute_edge(e.u, e.v,
                        [&](LocalSubgraph& sg) { sg.remove_local_edge(e.u, e.v); });
        affected.push_back({key.first, key.second, w_old});
        ++rep.edges_removed;
    }
    for (const Edge& e : batch.reweights) {
        AA_ASSERT(e.u < n && e.v < n && e.u != e.v);
        AA_ASSERT_MSG(std::isfinite(e.weight) && e.weight > 0,
                      "edge weights must be finite and positive");
        const auto key = canon(e.u, e.v);
        if (!seen.insert(key).second) {
            continue;  // edge already deleted/reweighted by this batch
        }
        const Weight w_old = graph_.edge_weight(e.u, e.v);
        if (!(w_old < kInfinity) || e.weight == w_old) {
            continue;  // absent or unchanged: a no-op
        }
        if (e.weight < w_old) {
            decreases.push_back({key.first, key.second, e.weight});
            continue;
        }
        graph_.set_edge_weight(e.u, e.v, e.weight);
        distribute_edge(e.u, e.v, [&](LocalSubgraph& sg) {
            sg.update_edge_weight(e.u, e.v, e.weight);
        });
        affected.push_back({key.first, key.second, w_old});
        ++rep.weight_increases;
    }

    // ---- 2. Endpoint-row exchange: for every affected cross-rank edge each
    // owner needs the *other* endpoint's current row for the seed scan. The
    // structural change cannot have moved any distance value, so the rows
    // read now are exactly the pre-change estimates.
    std::set<std::pair<VertexId, RankId>> row_requests;  // (vertex, needed by)
    for (const AffectedEdge& a : affected) {
        const RankId ru = ownership_.owner(a.u);
        const RankId rv = ownership_.owner(a.v);
        if (ru != rv) {
            row_requests.insert({a.v, ru});
            row_requests.insert({a.u, rv});
        }
    }
    for (const auto& [vtx, dest] : row_requests) {
        const RankId src = ownership_.owner(vtx);
        const RankState& st = ranks_[src];
        Serializer out;
        const std::size_t entries =
            encode_row_block(out, vtx, st.store.row(st.sg.local_id(vtx)));
        cluster_->charge_compute(src, static_cast<double>(entries));
        dynamic_ops += static_cast<double>(entries);
        cluster_->send(src, dest, MessageTag::ShrinkEndpointRow, out.take());
    }
    // Remote endpoint rows stay in their payloads: the seed scan reads each
    // as its block's (cols, dists) view.
    struct EndpointRow {
        Message message;
        std::vector<VertexId> cols;  // the view's decoded columns
        BoundaryBlockSoaView view;
    };
    std::vector<std::map<VertexId, EndpointRow>> endpoint_rows(num_ranks);
    if (!row_requests.empty()) {
        cluster_->exchange();
        for (RankId r = 0; r < num_ranks; ++r) {
            for (Message& m : cluster_->receive(r)) {
                AA_ASSERT(m.tag == MessageTag::ShrinkEndpointRow);
                EndpointRow row{std::move(m), {}, {}};
                const auto blocks =
                    decode_boundary_block_soa_views(row.message.bytes(), row.cols);
                AA_ASSERT(blocks.size() == 1);
                row.view = blocks[0];  // points at heap buffers that moves keep
                cluster_->charge_compute(r, static_cast<double>(row.view.cols.size()));
                dynamic_ops += static_cast<double>(row.view.cols.size());
                endpoint_rows[r].emplace(row.view.vertex, std::move(row));
            }
        }
    }

    // ---- 3. Seed scan. d(u, t) is suspect iff d(u, t) >= w_old + d(v, t):
    // any estimate that was ever written through the edge satisfies this
    // exactly (it was written as that very sum while d(v, t) was no smaller
    // than it is now, and floating-point addition is monotone), so no stale
    // entry escapes. Entries that merely tie with an alternative support
    // survive the support check below.
    std::vector<std::deque<std::pair<LocalId, VertexId>>> queue(num_ranks);
    std::vector<std::set<VertexId>> rank_cols(num_ranks);
    const auto seed_endpoint = [&](VertexId u, VertexId v, Weight w_old) {
        const RankId ru = ownership_.owner(u);
        RankState& st = ranks_[ru];
        const LocalId lu = st.sg.local_id(u);
        const auto row_u = st.store.row(lu);
        // v's entries in ascending column order: its dense local row, or the
        // finite entries a remote row's block carries.
        const auto seed = [&](VertexId t, Weight dv) {
            const Weight du = row_u[t];
            if (t != u && du < kInfinity && dv < kInfinity &&
                du >= w_old + dv - kSuspectSlack) {
                queue[ru].push_back({lu, t});
                rank_cols[ru].insert(t);
                ++rep.seed_suspects;
            }
        };
        if (ownership_.owner(v) == ru) {
            const auto row_v = st.store.row(st.sg.local_id(v));
            for (VertexId t = 0; t < n; ++t) {
                seed(t, row_v[t]);
            }
        } else {
            const BoundaryBlockSoaView& row_v = endpoint_rows[ru].at(v).view;
            for (std::size_t i = 0; i < row_v.cols.size(); ++i) {
                seed(row_v.cols[i], row_v.dists[i]);
            }
        }
        cluster_->charge_compute(ru, static_cast<double>(n));
        dynamic_ops += static_cast<double>(n);
    };
    for (const AffectedEdge& a : affected) {
        seed_endpoint(a.u, a.v, a.w_old);
        seed_endpoint(a.v, a.u, a.w_old);
    }

    if (rep.seed_suspects > 0) {
        // ---- 4. Union of affected columns: every suspect ever enqueued
        // keeps the column it was seeded with, so the union of the per-rank
        // seed columns bounds everything the cascade can touch. Gathered at
        // rank 0 and broadcast back (the per-rank external views below are
        // restricted to these columns).
        std::set<VertexId> union_cols;
        for (RankId r = 0; r < num_ranks; ++r) {
            if (r != 0 && !rank_cols[r].empty()) {
                const std::vector<VertexId> cols(rank_cols[r].begin(),
                                                 rank_cols[r].end());
                Serializer out;
                out.write_span(std::span<const VertexId>(cols));
                cluster_->send(r, 0, MessageTag::ShrinkAffectedColumns,
                               out.take());
            }
            union_cols.insert(rank_cols[r].begin(), rank_cols[r].end());
        }
        if (num_ranks > 1) {
            cluster_->exchange();
            for (const Message& m : cluster_->receive(0)) {
                AA_ASSERT(m.tag == MessageTag::ShrinkAffectedColumns);
                cluster_->charge_compute(
                    0, static_cast<double>(m.bytes().size()) / sizeof(VertexId));
            }
        }
        const std::vector<VertexId> cols_t(union_cols.begin(), union_cols.end());
        dynamic_ops += static_cast<double>(cols_t.size());
        std::vector<std::uint32_t> t_index(n, kInvalidVertex);
        for (std::uint32_t i = 0; i < cols_t.size(); ++i) {
            t_index[cols_t[i]] = i;
        }
        if (num_ranks > 1) {
            Serializer out;
            out.write_span(std::span<const VertexId>(cols_t));
            cluster_->broadcast(0, MessageTag::ShrinkAffectedColumns, out.take());
            for (RankId r = 1; r < num_ranks; ++r) {
                for (const Message& m : cluster_->receive(r)) {
                    AA_ASSERT(m.tag == MessageTag::ShrinkAffectedColumns);
                }
            }
        }

        // ---- 5. External views: each rank needs the affected columns of
        // every external boundary vertex to run support checks across cut
        // edges. Boundary rows restricted to the affected columns travel as
        // regular boundary blocks; a vertex with no finite affected column is
        // simply absent (reads default to infinity, which matches its row).
        std::vector<std::unordered_map<VertexId, std::vector<Weight>>> views(
            num_ranks);
        std::vector<VertexId> cols;  // reused: one row's finite columns
        std::vector<Weight> dists;   // reused: their distances
        for (RankId p = 0; p < num_ranks; ++p) {
            RankState& st = ranks_[p];
            BoundaryFanOut fan_out(num_ranks);
            double ops = 0;
            for (LocalId l = 0; l < st.sg.num_local(); ++l) {
                const auto destinations = st.sg.neighbor_ranks(l);
                if (destinations.empty()) {
                    continue;
                }
                const auto row = st.store.row(l);
                cols.clear();
                dists.clear();
                for (const VertexId t : cols_t) {
                    if (row[t] < kInfinity) {
                        cols.push_back(t);
                        dists.push_back(row[t]);
                    }
                }
                ops += static_cast<double>(cols_t.size());
                if (!cols.empty()) {
                    fan_out.add(st.sg.global_id(l), cols, dists, destinations);
                }
            }
            ops += static_cast<double>(
                fan_out.post(*cluster_, p, MessageTag::ShrinkBoundaryView).entries);
            cluster_->charge_compute(p, ops);
            dynamic_ops += ops;
        }
        if (cluster_->has_pending_messages()) {
            cluster_->exchange();
        }
        for (RankId p = 0; p < num_ranks; ++p) {
            double ops = 0;
            for_each_received_block(
                *cluster_, p, MessageTag::ShrinkBoundaryView,
                [&](VertexId vertex, std::span<const VertexId> block_cols,
                    std::span<const Weight> block_dists) {
                    auto& view = views[p][vertex];
                    view.assign(cols_t.size(), kInfinity);
                    for (std::size_t i = 0; i < block_cols.size(); ++i) {
                        AA_ASSERT(t_index[block_cols[i]] != kInvalidVertex);
                        view[t_index[block_cols[i]]] = block_dists[i];
                    }
                    ops += static_cast<double>(block_cols.size());
                });
            cluster_->charge_compute(p, ops);
            dynamic_ops += ops;
        }

        // ---- 6. Invalidation cascade to fixpoint. Each round drains every
        // rank's suspect queue (support check against local rows and the
        // external views; unsupported entries are invalidated, their local
        // dependants re-suspected and their surviving local neighbours
        // re-seeded for propagation) and then exchanges the raises, which
        // re-suspect the dependants across cut edges and re-seed surviving
        // boundary rows for resending. A raise carries the pre-raise value:
        // the dependant test d(y, t) >= w(y, x) + pre is exactly the seed
        // inequality one hop out, so under-invalidation cannot occur; an
        // entry is invalidated at most once, so the cascade terminates.
        while (true) {
            bool any_work = false;
            for (RankId p = 0; p < num_ranks; ++p) {
                if (!queue[p].empty()) {
                    any_work = true;
                    break;
                }
            }
            if (!any_work) {
                break;
            }
            ++rep.cascade_rounds;
            for (RankId p = 0; p < num_ranks; ++p) {
                RankState& st = ranks_[p];
                std::map<LocalId, std::vector<DvEntry>> raised;
                double ops = 0;
                auto& q = queue[p];
                while (!q.empty()) {
                    const auto [l, t] = q.front();
                    q.pop_front();
                    const Weight cur = st.store.at(l, t);
                    if (!(cur < kInfinity) || st.sg.global_id(l) == t) {
                        continue;  // already invalidated (or the diagonal)
                    }
                    bool supported = false;
                    for (const Neighbor& nb : st.sg.neighbors(l)) {
                        ops += 1;
                        Weight dn = kInfinity;
                        if (st.sg.owns(nb.to)) {
                            dn = st.store.at(st.sg.local_id(nb.to), t);
                        } else {
                            const auto it = views[p].find(nb.to);
                            if (it != views[p].end()) {
                                dn = it->second[t_index[t]];
                            }
                        }
                        if (dn < kInfinity && cur >= nb.weight + dn) {
                            supported = true;
                            break;
                        }
                    }
                    if (supported) {
                        continue;
                    }
                    st.store.mark_invalidated(l, t);
                    ++rep.invalidated_entries;
                    for (const Neighbor& nb : st.sg.neighbors(l)) {
                        ops += 1;
                        if (!st.sg.owns(nb.to)) {
                            continue;  // handled by the raise below
                        }
                        const LocalId ln = st.sg.local_id(nb.to);
                        const Weight dn = st.store.at(ln, t);
                        if (dn < kInfinity) {
                            // The surviving neighbour owes the invalidated
                            // entry a relaxation once re-settlement runs.
                            st.store.mark_for_prop(ln, t);
                            if (dn >= nb.weight + cur - kSuspectSlack) {
                                q.push_back({ln, t});
                            }
                        }
                    }
                    raised[l].push_back({t, cur});
                }
                // Ship the raises: one block per invalidated row, columns
                // ascending (map order per row; per-column at most one raise),
                // replicated to every rank sharing a cut edge with the row.
                BoundaryFanOut fan_out(num_ranks);
                for (auto& [l, entries] : raised) {
                    std::sort(entries.begin(), entries.end(),
                              [](const DvEntry& a, const DvEntry& b) {
                                  return a.column < b.column;
                              });
                    const auto destinations = st.sg.neighbor_ranks(l);
                    if (destinations.empty()) {
                        continue;
                    }
                    cols.clear();
                    dists.clear();
                    for (const DvEntry& e : entries) {
                        cols.push_back(e.column);
                        dists.push_back(e.distance);
                    }
                    ops += static_cast<double>(entries.size());
                    fan_out.add(st.sg.global_id(l), cols, dists, destinations);
                }
                fan_out.post(*cluster_, p, MessageTag::ShrinkRaise);
                cluster_->charge_compute(p, ops);
                dynamic_ops += ops;
            }
            if (!cluster_->has_pending_messages()) {
                continue;  // no raises in flight; the outer check ends the cascade
            }
            cluster_->exchange();
            for (RankId p = 0; p < num_ranks; ++p) {
                RankState& st = ranks_[p];
                double ops = 0;
                for_each_received_block(
                    *cluster_, p, MessageTag::ShrinkRaise,
                    [&](VertexId vertex, std::span<const VertexId> block_cols,
                        std::span<const Weight> pre_raise) {
                        const auto vit = views[p].find(vertex);
                        for (std::size_t i = 0; i < block_cols.size(); ++i) {
                            const VertexId t = block_cols[i];
                            AA_ASSERT(t_index[t] != kInvalidVertex);
                            if (vit != views[p].end()) {
                                vit->second[t_index[t]] = kInfinity;
                            }
                            for (const auto& [ly, w] :
                                 st.sg.external_neighbors(vertex)) {
                                ops += 1;
                                const Weight dy = st.store.at(ly, t);
                                if (dy < kInfinity) {
                                    // The surviving endpoint owes the
                                    // invalidating rank a resend.
                                    st.store.mark_for_send(ly, t);
                                    if (dy >= w + pre_raise[i] - kSuspectSlack) {
                                        queue[p].push_back({ly, t});
                                    }
                                }
                            }
                        }
                    });
                cluster_->charge_compute(p, ops);
                dynamic_ops += ops;
            }
        }
    }

    // ---- 7. Deferred weight decreases: monotone, so the growth-path
    // broadcast is sound now that no stale-low entry survives.
    for (const Edge& e : decreases) {
        graph_.set_edge_weight(e.u, e.v, e.weight);
        distribute_edge(e.u, e.v, [&](LocalSubgraph& sg) {
            sg.update_edge_weight(e.u, e.v, e.weight);
        });
        dynamic_ops += broadcast_edge_update(e.u, e.v, e.weight);
        dynamic_ops += broadcast_edge_update(e.v, e.u, e.weight);
        ++rep.weight_decreases;
    }

    // ---- 8. Local re-settlement to fixpoint (edge addition's step 3); the
    // cross-rank part rides the send worklists of the caller's next RC steps.
    settle_ranks(dynamic_ops);

    report_.dynamic_ops += dynamic_ops;
    report_.edge_deletions += rep.edges_removed;
    report_.weight_updates += rep.weight_increases + rep.weight_decreases;
    report_.invalidated_entries += rep.invalidated_entries;
    report_.sim_seconds = sim_seconds();
    if (span) {
        span.attr("edges_removed", std::to_string(rep.edges_removed));
        span.attr("reweights",
                  std::to_string(rep.weight_increases + rep.weight_decreases));
        span.attr("invalidated", std::to_string(rep.invalidated_entries));
        span.attr("cascade_rounds", std::to_string(rep.cascade_rounds));
    }
    span.add(dynamic_ops);
    return rep;
}

ShrinkReport AnytimeEngine::update_edge_weights(std::span<const Edge> updates) {
    ShrinkBatch batch;
    batch.reweights.assign(updates.begin(), updates.end());
    return apply_deletion(batch);
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
    if (new_weight != current) {
        const Edge update{u, v, new_weight};
        update_edge_weights({&update, 1});
    }
    return true;
}

}  // namespace aa
