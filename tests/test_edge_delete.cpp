// Fully-dynamic shrink correctness: after any sequence of additions,
// deletions and weight changes, the converged engine must be
// indistinguishable from a from-scratch engine on the final graph —
// bit-identical (distances AND closeness) for uniform/dyadic weights,
// within the relaxation epsilon otherwise. The churn lattice sweeps
// P in {2, 4, 8} x both backends x sync/async.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/baseline.hpp"
#include "core/closeness.hpp"
#include "core/edge_delete.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"

namespace aa {
namespace {

EngineConfig shrink_config(std::uint32_t ranks) {
    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 1;
    config.seed = 23;
    return config;
}

std::uint64_t bits(Weight w) { return std::bit_cast<std::uint64_t>(w); }

/// Mirror a ShrinkBatch onto a plain DynamicGraph (the reference world).
void apply_to_mirror(DynamicGraph& g, const ShrinkBatch& batch) {
    for (const VertexId v : batch.vertices) {
        std::vector<VertexId> targets;
        for (const Neighbor& nb : g.neighbors(v)) {
            targets.push_back(nb.to);
        }
        for (const VertexId t : targets) {
            g.remove_edge(v, t);
        }
    }
    for (const Edge& e : batch.deletions) {
        g.remove_edge(e.u, e.v);
    }
    for (const Edge& e : batch.reweights) {
        if (g.edge_weight(e.u, e.v) < kInfinity) {
            g.set_edge_weight(e.u, e.v, e.weight);
        }
    }
}

/// The shrink acceptance bar: distances and closeness bit-identical to a
/// from-scratch engine (same config) on the final graph.
void expect_bit_identical(const AnytimeEngine& engine,
                          const DynamicGraph& final_graph,
                          const EngineConfig& config) {
    AnytimeEngine fresh(final_graph, config);
    fresh.initialize();
    fresh.run_to_quiescence();
    const auto got = engine.full_distance_matrix();
    const auto want = fresh.full_distance_matrix();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
        for (std::size_t t = 0; t < want.size(); ++t) {
            ASSERT_EQ(bits(got[v][t]), bits(want[v][t]))
                << "d(" << v << "," << t << ") = " << got[v][t]
                << " want " << want[v][t];
        }
    }
    const ClosenessScores got_scores = engine.closeness();
    const ClosenessScores want_scores = fresh.closeness();
    ASSERT_EQ(got_scores.closeness.size(), want_scores.closeness.size());
    for (std::size_t v = 0; v < want_scores.closeness.size(); ++v) {
        EXPECT_EQ(bits(got_scores.closeness[v]), bits(want_scores.closeness[v]))
            << "closeness(" << v << ")";
        EXPECT_EQ(got_scores.reachable[v], want_scores.reachable[v])
            << "reachable(" << v << ")";
    }
}

/// Weighted-graph bar: within the relaxation epsilon of the exact APSP.
void expect_exact(const AnytimeEngine& engine, const DynamicGraph& expected) {
    ASSERT_EQ(engine.num_vertices(), expected.num_vertices());
    const auto approx = engine.full_distance_matrix();
    const auto exact = exact_apsp(expected);
    for (std::size_t v = 0; v < exact.size(); ++v) {
        for (std::size_t t = 0; t < exact.size(); ++t) {
            if (exact[v][t] < kInfinity) {
                ASSERT_NEAR(approx[v][t], exact[v][t], 1e-9)
                    << "d(" << v << "," << t << ")";
            } else {
                ASSERT_GE(approx[v][t], kInfinity)
                    << "d(" << v << "," << t << ")";
            }
        }
    }
}

GrowthBatch make_batch(const DynamicGraph& host, std::size_t count,
                       std::uint64_t seed) {
    GrowthConfig config;
    config.num_new = count;
    config.communities = 3;
    config.intra_edges = 2;
    config.host_edges = 2;
    Rng rng(seed);
    return grow_batch(host.num_vertices(), config, rng);
}

/// Deterministically pick `count` edges not incident to `avoid` (so the
/// mirror semantics stay independent of in-batch dedup order).
std::vector<Edge> pick_edges(const DynamicGraph& g, std::size_t count,
                             VertexId avoid, std::size_t skip = 0) {
    std::vector<Edge> picked;
    std::size_t seen = 0;
    for (const Edge& e : g.edges()) {
        if (e.u == avoid || e.v == avoid) {
            continue;
        }
        if (seen++ < skip) {
            continue;
        }
        picked.push_back(e);
        if (picked.size() == count) {
            break;
        }
    }
    EXPECT_EQ(picked.size(), count);
    return picked;
}

TEST(EngineDelete, ChainMiddleEdgeDeletionDisconnects) {
    DynamicGraph g(6);
    for (VertexId v = 0; v + 1 < 6; ++v) {
        g.add_edge(v, v + 1, 1.0);
    }
    const EngineConfig config = shrink_config(2);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    ShrinkBatch batch;
    batch.deletions.push_back({2, 3, 0.0});
    const ShrinkReport rep = engine.apply_deletion(batch);
    EXPECT_EQ(rep.edges_removed, 1u);
    EXPECT_GT(rep.seed_suspects, 0u);
    EXPECT_GT(rep.invalidated_entries, 0u);
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    apply_to_mirror(mirror, batch);
    expect_bit_identical(engine, mirror, config);
    // The two halves must actually be disconnected.
    const auto dist = engine.full_distance_matrix();
    EXPECT_GE(dist[0][5], kInfinity);
    EXPECT_GE(dist[3][2], kInfinity);
    EXPECT_EQ(engine.report().edge_deletions, 1u);
    EXPECT_GT(engine.report().invalidated_entries, 0u);
}

TEST(EngineDelete, CutVertexDeletionIsolatesStar) {
    // Star center plus an outer ring edge: deleting the hub (a cut vertex)
    // must drop every incident edge and push whole rows to infinity.
    DynamicGraph g(6);
    for (VertexId leaf = 1; leaf < 6; ++leaf) {
        g.add_edge(0, leaf, 1.0);
    }
    g.add_edge(1, 2, 1.0);
    const EngineConfig config = shrink_config(2);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    ShrinkBatch batch;
    batch.vertices.push_back(0);
    const ShrinkReport rep = engine.apply_deletion(batch);
    EXPECT_EQ(rep.edges_removed, 5u);
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    apply_to_mirror(mirror, batch);
    expect_bit_identical(engine, mirror, config);
    const auto dist = engine.full_distance_matrix();
    for (std::size_t t = 1; t < 6; ++t) {
        EXPECT_GE(dist[0][t], kInfinity);
        EXPECT_GE(dist[t][0], kInfinity);
    }
    EXPECT_NEAR(dist[1][2], 1.0, 0.0);  // the surviving ring edge
    EXPECT_GE(dist[3][4], kInfinity);   // leaves lost their only route
}

TEST(EngineDelete, AlreadyDeletedEdgeIsNoOp) {
    Rng rng(7);
    DynamicGraph g = barabasi_albert(30, 2, rng);
    const EngineConfig config = shrink_config(4);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    ShrinkBatch batch;
    batch.deletions = pick_edges(g, 1, kInvalidVertex);
    engine.apply_deletion(batch);
    engine.run_to_quiescence();

    // Deleting the same edge again (and a never-existing one) is silent.
    ShrinkBatch again = batch;
    again.deletions.push_back({0, 29, 0.0});
    if (g.edge_weight(0, 29) < kInfinity) {
        again.deletions.pop_back();
    }
    const ShrinkReport rep = engine.apply_deletion(again);
    EXPECT_EQ(rep.edges_removed, 0u);
    EXPECT_EQ(rep.seed_suspects, 0u);
    EXPECT_EQ(rep.invalidated_entries, 0u);
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    apply_to_mirror(mirror, batch);
    expect_bit_identical(engine, mirror, config);
}

TEST(EngineDelete, WeightIncreaseMatchesExact) {
    DynamicGraph g(5);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    g.add_edge(3, 4, 1.0);
    g.add_edge(0, 4, 2.5);  // shortcut that wins once the chain gets heavy
    const EngineConfig config = shrink_config(2);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    const Edge raise{1, 2, 6.0};
    const ShrinkReport rep = engine.update_edge_weights({&raise, 1});
    EXPECT_EQ(rep.weight_increases, 1u);
    EXPECT_EQ(rep.weight_decreases, 0u);
    EXPECT_GT(rep.invalidated_entries, 0u);
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    mirror.set_edge_weight(1, 2, 6.0);
    expect_exact(engine, mirror);
    EXPECT_EQ(engine.report().weight_updates, 1u);
}

TEST(EngineDelete, MixedRaiseAndDecreaseInOneBatch) {
    Rng rng(11);
    DynamicGraph g = barabasi_albert(32, 2, rng);
    const EngineConfig config = shrink_config(4);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    const std::vector<Edge> chosen = pick_edges(g, 2, kInvalidVertex);
    ShrinkBatch batch;
    batch.reweights.push_back({chosen[0].u, chosen[0].v, 4.0});  // raise
    batch.reweights.push_back({chosen[1].u, chosen[1].v, 0.5});  // decrease
    const ShrinkReport rep = engine.apply_deletion(batch);
    EXPECT_EQ(rep.weight_increases, 1u);
    EXPECT_EQ(rep.weight_decreases, 1u);
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    apply_to_mirror(mirror, batch);
    expect_bit_identical(engine, mirror, config);
}

TEST(EngineDelete, DecreaseEdgeWeightRoutesIncreasesThroughShrink) {
    DynamicGraph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    g.add_edge(0, 3, 5.0);
    const EngineConfig config = shrink_config(2);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    // The old entry point used to assert on increases; it must now accept
    // them and converge to the exact answer for the reweighted graph.
    EXPECT_TRUE(engine.decrease_edge_weight(1, 2, 9.0));
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    mirror.set_edge_weight(1, 2, 9.0);
    expect_exact(engine, mirror);
}

TEST(EngineDelete, SingleRankDegenerate) {
    Rng rng(3);
    DynamicGraph g = barabasi_albert(24, 2, rng);
    const EngineConfig config = shrink_config(1);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    ShrinkBatch batch;
    batch.deletions = pick_edges(g, 2, 5);
    batch.vertices.push_back(5);
    const std::vector<Edge> rw = pick_edges(g, 1, 5, 2);
    batch.reweights.push_back({rw[0].u, rw[0].v, 3.0});
    engine.apply_deletion(batch);
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    apply_to_mirror(mirror, batch);
    expect_bit_identical(engine, mirror, config);
}

TEST(EngineDelete, MidConvergenceDeletionStaysSound) {
    // Delete while RC is only partially converged: suspects seeded against
    // in-flight estimates must still reconverge to the exact final state.
    Rng rng(19);
    DynamicGraph g = barabasi_albert(40, 2, rng);
    const EngineConfig config = shrink_config(4);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(1);  // deliberately not quiescent

    ShrinkBatch batch;
    batch.deletions = pick_edges(g, 3, kInvalidVertex);
    engine.apply_deletion(batch);
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    apply_to_mirror(mirror, batch);
    expect_bit_identical(engine, mirror, config);
}

/// One full churn scenario — delete + vertex-delete + reweight both ways,
/// then grow, then delete again — checked against a fresh engine.
void run_churn(const EngineConfig& config) {
    Rng rng(42);
    DynamicGraph g = barabasi_albert(48, 2, rng);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    DynamicGraph mirror = g;

    // Batch 1: structural churn around (but not incident to) vertex 7,
    // which is itself deleted; one raise, one dyadic decrease.
    ShrinkBatch batch1;
    batch1.deletions = pick_edges(g, 3, 7);
    batch1.vertices.push_back(7);
    const std::vector<Edge> rw = pick_edges(g, 2, 7, 3);
    batch1.reweights.push_back({rw[0].u, rw[0].v, 3.0});
    batch1.reweights.push_back({rw[1].u, rw[1].v, 0.5});
    engine.apply_deletion(batch1);
    apply_to_mirror(mirror, batch1);
    engine.run_rc_steps(2);  // interleave: grow while still settling

    GrowthBatch growth = make_batch(mirror, 6, 99);
    RoundRobinPS strategy;
    engine.apply_addition(growth, strategy);
    mirror = apply_batch(mirror, growth);

    // Batch 2: delete an edge of the *grown* graph mid-settle.
    ShrinkBatch batch2;
    batch2.deletions = pick_edges(mirror, 1, 7, 5);
    engine.apply_deletion(batch2);
    apply_to_mirror(mirror, batch2);

    engine.run_to_quiescence();
    expect_bit_identical(engine, mirror, config);
}

TEST(EngineDelete, ChurnLatticeSequential) {
    for (const std::uint32_t ranks : {2u, 4u, 8u}) {
        for (const bool rc_async : {false, true}) {
            EngineConfig config = shrink_config(ranks);
            config.backend = BackendKind::Sequential;
            config.rc_async = rc_async;
            SCOPED_TRACE(::testing::Message()
                         << "ranks=" << ranks << " async=" << rc_async);
            run_churn(config);
        }
    }
}

TEST(EngineDelete, ChurnLatticeThreaded) {
    for (const std::uint32_t ranks : {2u, 4u, 8u}) {
        for (const bool rc_async : {false, true}) {
            EngineConfig config = shrink_config(ranks);
            config.backend = BackendKind::Threaded;
            config.rc_async = rc_async;
            SCOPED_TRACE(::testing::Message()
                         << "ranks=" << ranks << " async=" << rc_async);
            run_churn(config);
        }
    }
}

TEST(EngineDelete, WeightedChurnWithinEpsilon) {
    // Non-dyadic weights forfeit bit-identity but not epsilon-exactness.
    Rng rng(29);
    DynamicGraph g = barabasi_albert(36, 2, rng, WeightRange{0.5, 2.0});
    const EngineConfig config = shrink_config(4);
    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_to_quiescence();

    ShrinkBatch batch;
    batch.deletions = pick_edges(g, 3, 4);
    batch.vertices.push_back(4);
    const std::vector<Edge> rw = pick_edges(g, 1, 4, 3);
    batch.reweights.push_back({rw[0].u, rw[0].v, rw[0].weight * 3.0});
    engine.apply_deletion(batch);
    engine.run_to_quiescence();

    DynamicGraph mirror = g;
    apply_to_mirror(mirror, batch);
    expect_exact(engine, mirror);
}

// Regression: a vertex deletion applied mid-settle after CutEdge-PS and
// Repartition-S batches once kept stale-low entries. Two support-invariant
// holes fed it: IA's local Dijkstra routed *through* external boundary
// vertices (estimates no owner row could witness — fixed by making ghosts
// terminals, ia.cpp), and Repartition-S seeded new rows with a local SSSP
// whose paths ran through old local vertices that never learn the new
// columns (fixed by seeding through the anywhere edge broadcasts,
// repartition.cpp). The scale matters: smaller graphs never tripped it.
TEST(EngineDelete, MidSettleDeletionAfterCutEdgeAndRepartition) {
    Rng rng(9);
    const DynamicGraph base = barabasi_albert(400, 3, rng);
    EngineConfig config = shrink_config(8);
    AnytimeEngine engine(base, config);
    engine.initialize();
    DynamicGraph mirror = base;

    CutEdgePS cut_edge(9 * 31 + 7);
    const GrowthBatch first = make_batch(mirror, 30, 77);
    engine.apply_addition(first, cut_edge);
    mirror = apply_batch(mirror, first);

    RepartitionS repartition;
    const GrowthBatch second = make_batch(mirror, 120, 78);
    engine.apply_addition(second, repartition);
    mirror = apply_batch(mirror, second);

    // No RC steps in between: the deletion lands on the freshly repartitioned,
    // unsettled state.
    ShrinkBatch batch;
    batch.vertices.push_back(7);
    apply_to_mirror(mirror, batch);
    engine.apply_deletion(batch);

    engine.run_to_quiescence();
    expect_bit_identical(engine, mirror, config);
}

}  // namespace
}  // namespace aa
