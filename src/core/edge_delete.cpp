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
    const std::size_t n = graph_.num_vertices();
    const auto num_ranks = cluster_->num_ranks();
    ShrinkReport rep;
    double dynamic_ops = 0;
    const bool mx = metrics_->enabled();
    auto span = MetricsRegistry::kNullHandle;
    if (mx) {
        span = metrics_->span_open("delete", -1,
                                   static_cast<std::int64_t>(rc_steps_),
                                   sim_seconds());
    }

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
        ranks_[ownership_.owner(e.u)].sg.remove_local_edge(e.u, e.v);
        if (ownership_.owner(e.v) != ownership_.owner(e.u)) {
            ranks_[ownership_.owner(e.v)].sg.remove_local_edge(e.u, e.v);
        }
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
        ranks_[ownership_.owner(e.u)].sg.update_edge_weight(e.u, e.v, e.weight);
        if (ownership_.owner(e.v) != ownership_.owner(e.u)) {
            ranks_[ownership_.owner(e.v)].sg.update_edge_weight(e.u, e.v, e.weight);
        }
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
        RankState& st = ranks_[src];
        const auto entries = st.store.finite_entries(st.sg.local_id(vtx));
        cluster_->charge_compute(src, static_cast<double>(entries.size()));
        dynamic_ops += static_cast<double>(entries.size());
        Serializer out;
        out.write(vtx);
        out.write_span(std::span<const DvEntry>(entries));
        cluster_->send(src, dest, MessageTag::ShrinkEndpointRow, out.take(),
                       entries.size());
    }
    std::vector<std::unordered_map<VertexId, std::vector<Weight>>> peer_rows(
        num_ranks);
    if (!row_requests.empty()) {
        cluster_->exchange();
        for (RankId r = 0; r < num_ranks; ++r) {
            for (const Message& m : cluster_->receive(r)) {
                AA_ASSERT(m.tag == MessageTag::ShrinkEndpointRow);
                Deserializer in(m.bytes());
                const auto vtx = in.read<VertexId>();
                const auto entries = in.read_vector<DvEntry>();
                auto& dense = peer_rows[r][vtx];
                dense.assign(n, kInfinity);
                for (const DvEntry& e : entries) {
                    dense[e.column] = e.distance;
                }
                cluster_->charge_compute(r, static_cast<double>(entries.size()));
                dynamic_ops += static_cast<double>(entries.size());
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
        std::span<const Weight> row_v;
        if (ownership_.owner(v) == ru) {
            row_v = st.store.row(st.sg.local_id(v));
        } else {
            row_v = peer_rows[ru].at(v);
        }
        for (VertexId t = 0; t < n; ++t) {
            if (t == u) {
                continue;
            }
            const Weight du = row_u[t];
            const Weight dv = row_v[t];
            if (du < kInfinity && dv < kInfinity &&
                du >= w_old + dv - kSuspectSlack) {
                queue[ru].push_back({lu, t});
                rank_cols[ru].insert(t);
                ++rep.seed_suspects;
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
                (void)cluster_->receive(r);
            }
        }

        // ---- 5. External views: each rank needs the affected columns of
        // every external boundary vertex to run support checks across cut
        // edges. Boundary rows restricted to the affected columns travel as
        // regular boundary blocks in the configured wire format; a vertex
        // with no finite affected column is simply absent (reads default to
        // infinity, which matches its row).
        std::vector<std::unordered_map<VertexId, std::vector<Weight>>> views(
            num_ranks);
        for (RankId p = 0; p < num_ranks; ++p) {
            RankState& st = ranks_[p];
            std::vector<std::vector<BoundaryBlock>> per_dest(num_ranks);
            std::vector<std::size_t> dest_entries(num_ranks, 0);
            double ops = 0;
            for (LocalId l = 0; l < st.sg.num_local(); ++l) {
                const auto destinations = st.sg.neighbor_ranks(l);
                if (destinations.empty()) {
                    continue;
                }
                BoundaryBlock block;
                block.vertex = st.sg.global_id(l);
                const auto row = st.store.row(l);
                for (const VertexId t : cols_t) {
                    if (row[t] < kInfinity) {
                        block.entries.push_back({t, row[t]});
                    }
                }
                ops += static_cast<double>(cols_t.size());
                if (block.entries.empty()) {
                    continue;
                }
                for (const RankId dest : destinations) {
                    dest_entries[dest] += block.entries.size();
                    per_dest[dest].push_back(block);
                }
            }
            for (RankId dest = 0; dest < num_ranks; ++dest) {
                if (per_dest[dest].empty()) {
                    continue;
                }
                ops += static_cast<double>(dest_entries[dest]);
                cluster_->send(p, dest, MessageTag::ShrinkBoundaryView,
                               encode_boundary_blocks(per_dest[dest],
                                                      config_.wire_format),
                               dest_entries[dest]);
            }
            cluster_->charge_compute(p, ops);
            dynamic_ops += ops;
        }
        if (cluster_->has_pending_messages()) {
            cluster_->exchange();
        }
        for (RankId p = 0; p < num_ranks; ++p) {
            double ops = 0;
            for (const Message& m : cluster_->receive(p)) {
                AA_ASSERT(m.tag == MessageTag::ShrinkBoundaryView);
                for (const BoundaryBlock& block :
                     decode_boundary_blocks(m.bytes(), config_.wire_format)) {
                    auto& view = views[p][block.vertex];
                    view.assign(cols_t.size(), kInfinity);
                    for (const DvEntry& e : block.entries) {
                        AA_ASSERT(t_index[e.column] != kInvalidVertex);
                        view[t_index[e.column]] = e.distance;
                    }
                    ops += static_cast<double>(block.entries.size());
                }
            }
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
                std::vector<std::vector<BoundaryBlock>> per_dest(num_ranks);
                std::vector<std::size_t> dest_entries(num_ranks, 0);
                for (auto& [l, entries] : raised) {
                    std::sort(entries.begin(), entries.end(),
                              [](const DvEntry& a, const DvEntry& b) {
                                  return a.column < b.column;
                              });
                    const auto destinations = st.sg.neighbor_ranks(l);
                    if (destinations.empty()) {
                        continue;
                    }
                    BoundaryBlock block;
                    block.vertex = st.sg.global_id(l);
                    block.entries = std::move(entries);
                    ops += static_cast<double>(block.entries.size());
                    for (const RankId dest : destinations) {
                        dest_entries[dest] += block.entries.size();
                        per_dest[dest].push_back(block);
                    }
                }
                for (RankId dest = 0; dest < num_ranks; ++dest) {
                    if (per_dest[dest].empty()) {
                        continue;
                    }
                    cluster_->send(p, dest, MessageTag::ShrinkRaise,
                                   encode_boundary_blocks(per_dest[dest],
                                                          config_.wire_format),
                                   dest_entries[dest]);
                }
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
                for (const Message& m : cluster_->receive(p)) {
                    AA_ASSERT(m.tag == MessageTag::ShrinkRaise);
                    for (const BoundaryBlock& block :
                         decode_boundary_blocks(m.bytes(), config_.wire_format)) {
                        const auto vit = views[p].find(block.vertex);
                        for (const DvEntry& e : block.entries) {
                            AA_ASSERT(t_index[e.column] != kInvalidVertex);
                            if (vit != views[p].end()) {
                                vit->second[t_index[e.column]] = kInfinity;
                            }
                            for (const auto& [ly, w] :
                                 st.sg.external_neighbors(block.vertex)) {
                                ops += 1;
                                const Weight dy = st.store.at(ly, e.column);
                                if (dy < kInfinity) {
                                    // The surviving endpoint owes the
                                    // invalidating rank a resend.
                                    st.store.mark_for_send(ly, e.column);
                                    if (dy >= w + e.distance - kSuspectSlack) {
                                        queue[p].push_back({ly, e.column});
                                    }
                                }
                            }
                        }
                    }
                }
                cluster_->charge_compute(p, ops);
                dynamic_ops += ops;
            }
        }
    }

    // ---- 7. Deferred weight decreases: monotone, so the growth-path
    // broadcast is sound now that no stale-low entry survives.
    for (const Edge& e : decreases) {
        graph_.set_edge_weight(e.u, e.v, e.weight);
        ranks_[ownership_.owner(e.u)].sg.update_edge_weight(e.u, e.v, e.weight);
        if (ownership_.owner(e.v) != ownership_.owner(e.u)) {
            ranks_[ownership_.owner(e.v)].sg.update_edge_weight(e.u, e.v, e.weight);
        }
        dynamic_ops += broadcast_edge_update(e.u, e.v, e.weight);
        dynamic_ops += broadcast_edge_update(e.v, e.u, e.weight);
        ++rep.weight_decreases;
    }

    // ---- 8. Local re-settlement to fixpoint (edge addition's step 3); the
    // cross-rank part rides the send worklists of the caller's next RC steps.
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
    report_.edge_deletions += rep.edges_removed;
    report_.weight_updates += rep.weight_increases + rep.weight_decreases;
    report_.invalidated_entries += rep.invalidated_entries;
    report_.sim_seconds = sim_seconds();
    if (mx) {
        metrics_->span_attr(span, "edges_removed",
                            std::to_string(rep.edges_removed));
        metrics_->span_attr(span, "reweights",
                            std::to_string(rep.weight_increases +
                                           rep.weight_decreases));
        metrics_->span_attr(span, "invalidated",
                            std::to_string(rep.invalidated_entries));
        metrics_->span_attr(span, "cascade_rounds",
                            std::to_string(rep.cascade_rounds));
        metrics_->span_add(span, dynamic_ops);
        metrics_->span_close(span, sim_seconds());
    }
    note_structural_change();
    fire_boundary_hook();
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
