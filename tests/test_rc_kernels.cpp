// Direct tests of the RC-step kernels (post / ingest / propagate) against a
// hand-built two-rank fixture — the units underneath the engine's rc_step() —
// plus property tests pinning the batched and threaded kernels to a
// per-element scalar reference defined below: bit-identical distance
// matrices, identical op counts, and equivalent dirty-set contents across
// random graphs, seeds, partitions, and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "core/ia.hpp"
#include "core/rc.hpp"
#include "graph/generators.hpp"
#include "runtime/cluster.hpp"

namespace aa {
namespace {

// Path graph 0-1-2-3, weights 1; rank 0 owns {0,1}, rank 1 owns {2,3}.
struct TwoRankFixture {
    Cluster cluster{2};
    LocalSubgraph sg0{0, {0, 0, 1, 1}};
    LocalSubgraph sg1{1, {0, 0, 1, 1}};
    DistanceStore store0{4};
    DistanceStore store1{4};

    TwoRankFixture() {
        for (const VertexId v : sg0.local_vertices()) {
            store0.add_row(v);
        }
        for (const VertexId v : sg1.local_vertices()) {
            store1.add_row(v);
        }
        sg0.add_local_edge(0, 1, 1.0);
        sg0.add_local_edge(1, 2, 1.0);
        sg1.add_local_edge(1, 2, 1.0);
        sg1.add_local_edge(2, 3, 1.0);
    }

    void run_ia() {
        ThreadPool pool(1);
        ia_dijkstra_all(sg0, store0, pool);
        ia_dijkstra_all(sg1, store1, pool);
    }
};

TEST(RcKernels, PostSendsOnlyToNeighborRanks) {
    TwoRankFixture fx;
    fx.run_ia();
    const double ops = rc_post_boundary_updates(fx.sg0, fx.store0, fx.cluster);
    EXPECT_GT(ops, 0.0);
    // Rank 0's only boundary vertex is 1 (cut edge 1-2), so exactly one
    // message, to rank 1.
    fx.cluster.exchange();
    const auto inbox1 = fx.cluster.receive(1);
    ASSERT_EQ(inbox1.size(), 1u);
    EXPECT_EQ(inbox1[0].tag, MessageTag::BoundaryDvUpdate);
    std::vector<VertexId> arena;
    const auto blocks = decode_boundary_block_soa_views(inbox1[0].bytes(), arena);
    // Interior row 0's changes are drained but not shipped.
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].vertex, 1u);
    EXPECT_FALSE(fx.store0.any_send_pending());
}

TEST(RcKernels, InteriorRowChangesAreDrainedSilently) {
    TwoRankFixture fx;
    // Only touch interior row 0 (global 0 has no cut edges).
    fx.store0.relax(fx.sg0.local_id(0), 3, 9.0);
    EXPECT_TRUE(fx.store0.any_send_pending());
    rc_post_boundary_updates(fx.sg0, fx.store0, fx.cluster);
    EXPECT_FALSE(fx.store0.any_send_pending());
    EXPECT_FALSE(fx.cluster.has_pending_messages());
}

TEST(RcKernels, IngestRelaxesThroughCutEdges) {
    TwoRankFixture fx;
    fx.run_ia();
    // Rank 1 announces boundary vertex 2's distances.
    rc_post_boundary_updates(fx.sg1, fx.store1, fx.cluster);
    fx.cluster.exchange();
    const auto inbox0 = fx.cluster.receive(0);
    ASSERT_FALSE(inbox0.empty());
    const double ops = rc_ingest_updates(fx.sg0, fx.store0, inbox0);
    EXPECT_GT(ops, 0.0);
    // d(1, 3) <= w(1,2) + d(2,3) = 2 now known on rank 0.
    EXPECT_NEAR(fx.store0.at(fx.sg0.local_id(1), 3), 2.0, 1e-12);
}

TEST(RcKernels, IngestIgnoresForeignTags) {
    TwoRankFixture fx;
    fx.run_ia();
    Message odd;
    odd.from = 1;
    odd.to = 0;
    odd.tag = MessageTag::Control;
    odd.payload = Message::share(std::vector<std::byte>(8));
    const double ops = rc_ingest_updates(fx.sg0, fx.store0, {odd});
    EXPECT_EQ(ops, 0.0);
}

TEST(RcKernels, PropagateReachesLocalFixpoint) {
    TwoRankFixture fx;
    fx.run_ia();
    // Inject an improvement at row 1 (pretend an external update): then row 0
    // must learn it through the local edge 0-1.
    fx.store0.relax(fx.sg0.local_id(1), 3, 2.0);
    const double ops = rc_propagate_local(fx.sg0, fx.store0);
    EXPECT_GT(ops, 0.0);
    EXPECT_NEAR(fx.store0.at(fx.sg0.local_id(0), 3), 3.0, 1e-12);
    EXPECT_FALSE(fx.store0.any_prop_pending());
}

TEST(RcKernels, PropagateChainsAcrossMultipleHops) {
    // Path 0-1-2-3-4 all on one rank: an improvement at one end must walk
    // the whole chain in a single propagate call.
    Cluster cluster(1);
    LocalSubgraph sg(0, std::vector<RankId>(5, 0));
    DistanceStore store(5);
    for (const VertexId v : sg.local_vertices()) {
        store.add_row(v);
    }
    for (VertexId v = 0; v + 1 < 5; ++v) {
        sg.add_local_edge(v, v + 1, 1.0);
    }
    // Seed only vertex 4's row with a fake remote fact: d(4, 0)... rather,
    // set d(4,4)=0 is already there; give row 4 a new column value and
    // propagate: d(4, 0) = 9 (valid upper bound via some imaginary path).
    store.relax(sg.local_id(4), 0, 9.0);
    rc_propagate_local(sg, store);
    // Rows 3..1 learn 0-column values through the chain; row 0 keeps its
    // exact self-distance.
    EXPECT_NEAR(store.at(sg.local_id(3), 0), 10.0, 1e-12);
    EXPECT_NEAR(store.at(sg.local_id(1), 0), 12.0, 1e-12);
    EXPECT_EQ(store.at(sg.local_id(0), 0), 0.0);
}

TEST(RcKernels, ZeroTileWidthIsRejected) {
    // A zero-width tile would never advance the row-blocked sweep.
    TwoRankFixture fx;
    fx.run_ia();
    fx.store0.relax(fx.sg0.local_id(1), 3, 2.0);
    EXPECT_DEATH(rc_propagate_local(fx.sg0, fx.store0, nullptr,
                                    kRcPropagateParallelGrain, nullptr,
                                    /*tile_cols=*/0),
                 "tile width");
}

TEST(RcKernels, FullCycleConverges) {
    TwoRankFixture fx;
    fx.run_ia();
    // Alternate post/exchange/ingest/propagate until quiescent; the fixture
    // must reach the exact path-graph distances.
    for (int step = 0; step < 6; ++step) {
        rc_post_boundary_updates(fx.sg0, fx.store0, fx.cluster);
        rc_post_boundary_updates(fx.sg1, fx.store1, fx.cluster);
        fx.cluster.exchange();
        rc_ingest_updates(fx.sg0, fx.store0, fx.cluster.receive(0));
        rc_ingest_updates(fx.sg1, fx.store1, fx.cluster.receive(1));
        rc_propagate_local(fx.sg0, fx.store0);
        rc_propagate_local(fx.sg1, fx.store1);
    }
    EXPECT_NEAR(fx.store0.at(fx.sg0.local_id(0), 3), 3.0, 1e-12);
    EXPECT_NEAR(fx.store1.at(fx.sg1.local_id(3), 0), 3.0, 1e-12);
    EXPECT_FALSE(fx.store0.any_send_pending());
    EXPECT_FALSE(fx.store1.any_send_pending());
}

// DistanceStore::take_prop/take_send, the ascending drains the post and
// propagate kernels consume without sorting. The drain sizes straddle one
// 64-column word, the column spaces leave a partial last word, every drain of
// two or more columns holds both extreme columns, marks arrive shuffled, and
// one output buffer serves every call as in the kernels: each drain must
// replace its contents and leave the row clean.
TEST(RcKernels, OrderDrainedColumnsMatchesSortAndClearsScratch) {
    Rng rng(2024);
    std::vector<VertexId> out;
    for (const std::size_t n : {std::size_t{100}, std::size_t{130}, std::size_t{2000}}) {
        std::vector<VertexId> middle(n - 2);
        std::iota(middle.begin(), middle.end(), VertexId{1});
        for (const std::size_t k : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                    std::size_t{65}, n - 1}) {
            rng.shuffle(middle);
            std::vector<VertexId> cols{static_cast<VertexId>(n - 1)};
            if (k > 1) {
                cols.push_back(0);
                cols.insert(cols.end(), middle.begin(), middle.begin() + (k - 2));
                rng.shuffle(cols);
            }
            DistanceStore store(n);
            const LocalId r = store.add_row(0);
            for (const VertexId col : cols) {
                store.mark_for_prop(r, col);
                store.mark_for_send(r, col);
            }
            std::vector<VertexId> expected = cols;
            std::sort(expected.begin(), expected.end());
            store.take_prop(r, out);
            EXPECT_EQ(out, expected) << "n=" << n << " k=" << k;
            store.take_send(r, out);
            EXPECT_EQ(out, expected) << "n=" << n << " k=" << k;
            EXPECT_FALSE(store.has_prop(r)) << "n=" << n << " k=" << k;
            EXPECT_FALSE(store.has_send(r)) << "n=" << n << " k=" << k;
            store.take_prop(r, out);
            EXPECT_TRUE(out.empty()) << "n=" << n << " k=" << k;
            store.take_send(r, out);
            EXPECT_TRUE(out.empty()) << "n=" << n << " k=" << k;
        }
    }
}

/// Append the block of `entries` (strictly ascending, finite) as
/// encode_row_block writes it from a dense row of `n` columns: the
/// independent oracle for the bytes the block encoder must produce.
void append_row_block(Serializer& out, VertexId vertex, std::span<const DvEntry> entries,
                      std::size_t n) {
    std::vector<Weight> row(n, kInfinity);
    for (const DvEntry& e : entries) {
        row[e.column] = e.distance;
    }
    ASSERT_EQ(encode_row_block(out, vertex, row), entries.size());
}

// Post encodes each drain as it comes, ascending, at sizes on both sides of
// one 64-column word; every destination must receive exactly the row block
// of the std::sort-ed finite entries. Every fifth drained column is
// invalidated to +inf first, and post must drop it.
TEST(RcKernels, PostLargeDrainsMatchSortedEncoding) {
    constexpr std::size_t n = 200;  // not a multiple of 64
    // Vertex 0 (rank 0) has cut edges to vertex 1 (rank 1) and 2 (rank 2).
    std::vector<RankId> owners(n, 0);
    owners[1] = 1;
    owners[2] = 2;
    Rng rng(7);
    for (const std::size_t k : {std::size_t{63}, std::size_t{64}, n - 1}) {
        Cluster cluster(3);
        LocalSubgraph sg(0, owners);
        DistanceStore store(n);
        for (const VertexId v : sg.local_vertices()) {
            store.add_row(v);
        }
        sg.add_local_edge(0, 1, 1.0);
        sg.add_local_edge(0, 2, 1.0);
        for (LocalId r = 0; r < store.num_rows(); ++r) {
            (void)store.take_send(r);
        }
        // Mark k distinct columns of row 0, all but the self column when
        // k = n - 1, in shuffled order.
        std::vector<VertexId> cols(n - 1);
        std::iota(cols.begin(), cols.end(), VertexId{1});
        rng.shuffle(cols);
        cols.resize(k);
        const LocalId l = sg.local_id(0);
        std::vector<DvEntry> finite;
        for (std::size_t i = 0; i < k; ++i) {
            const Weight d = 1.0 + static_cast<Weight>(rng.uniform(1000)) / 8;
            ASSERT_TRUE(store.relax(l, cols[i], d));
            if (i % 5 == 0) {
                store.mark_invalidated(l, cols[i]);
            } else {
                finite.push_back({cols[i], d});
            }
        }
        std::sort(finite.begin(), finite.end(),
                  [](const DvEntry& a, const DvEntry& b) { return a.column < b.column; });
        Serializer oracle;
        append_row_block(oracle, 0, finite, n);
        const auto expected = oracle.take();

        RcPostProfile profile;
        const double ops =
            rc_post_boundary_updates(sg, store, cluster, BoundaryWireFormat::V2Soa,
                                     &profile);
        EXPECT_EQ(ops, static_cast<double>(k + finite.size()));
        EXPECT_EQ(profile.entries, finite.size());
        EXPECT_EQ(profile.messages, 2u);
        EXPECT_EQ(profile.bytes, 2 * expected.size());
        cluster.exchange();
        for (const RankId dest : {RankId{1}, RankId{2}}) {
            const auto inbox = cluster.receive(dest);
            ASSERT_EQ(inbox.size(), 1u);
            const auto got = inbox[0].bytes();
            EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                                   expected.end()))
                << "k=" << k << " dest=" << dest;
        }
    }
}

// BoundaryFanOut encodes each block once and appends it to every
// destination: each payload must equal the row blocks of that destination's
// blocks in arrival order, and post() must send one message per non-empty
// payload and count entries x destinations.
TEST(RcKernels, FanOutMatchesPerDestinationEncoding) {
    constexpr std::size_t n = 10;
    const std::vector<std::pair<VertexId, std::vector<DvEntry>>> blocks = {
        {5, {{1, 0.5}, {2, 1.5}, {9, 2.0}}},
        {6, {{0, 3.0}}},
        {7, {{3, 1.0}, {4, 1.25}}},
    };
    const std::vector<std::vector<RankId>> destinations = {{1, 3}, {3}, {1, 2, 3}};
    Cluster cluster(4);
    BoundaryFanOut fan_out(4);
    std::vector<Serializer> per_dest(4);  // the oracle payload per destination
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto& [vertex, entries] = blocks[b];
        std::vector<VertexId> cols;
        std::vector<Weight> dists;
        for (const DvEntry& e : entries) {
            cols.push_back(e.column);
            dists.push_back(e.distance);
        }
        fan_out.add(vertex, cols, dists, destinations[b]);
        for (const RankId dest : destinations[b]) {
            append_row_block(per_dest[dest], vertex, entries, n);
        }
    }
    const auto posted = fan_out.post(cluster, 0, MessageTag::ShrinkRaise);
    EXPECT_EQ(posted.messages, 3u);
    EXPECT_EQ(posted.entries, 3u * 2 + 1u * 1 + 2u * 3);  // entries x destinations
    cluster.exchange();
    std::size_t bytes = 0;
    for (RankId dest = 1; dest < 4; ++dest) {
        const auto inbox = cluster.receive(dest);
        ASSERT_EQ(inbox.size(), 1u);
        EXPECT_EQ(inbox[0].tag, MessageTag::ShrinkRaise);
        const auto expected = per_dest[dest].take();
        const auto got = inbox[0].bytes();
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                               expected.end()))
            << "dest=" << dest;
        bytes += got.size();
    }
    EXPECT_EQ(posted.bytes, bytes);
}

// post() allocates each destination's payload at its exact size: every
// posted message holds no growth slack, and its bytes still equal the row
// blocks of that destination's blocks in arrival order.
TEST(BoundaryFanOut, PostsExactSizePayloads) {
    constexpr std::size_t kRanks = 4;
    constexpr std::size_t n = 300;
    Rng rng(11);
    Cluster cluster(kRanks);
    BoundaryFanOut fan_out(kRanks);
    std::vector<Serializer> per_dest(kRanks);  // the oracle payload per destination
    for (VertexId v = 0; v < 200; ++v) {
        std::vector<DvEntry> entries;
        std::vector<VertexId> cols;
        std::vector<Weight> dists;
        for (VertexId c = 0; c < n; ++c) {
            if (rng.chance(1.0 / 3)) {
                cols.push_back(c);
                dists.push_back(rng.uniform(1.0, 9.0));
                entries.push_back({c, dists.back()});
            }
        }
        std::vector<RankId> destinations;
        for (RankId dest = 1; dest < kRanks; ++dest) {
            if ((v + dest) % 3 != 0) {
                destinations.push_back(dest);
                append_row_block(per_dest[dest], v, entries, n);
            }
        }
        fan_out.add(v, cols, dists, destinations);
    }
    const auto posted = fan_out.post(cluster, 0, MessageTag::BoundaryDvUpdate);
    EXPECT_EQ(posted.messages, kRanks - 1);
    cluster.exchange();
    for (RankId dest = 1; dest < kRanks; ++dest) {
        const auto inbox = cluster.receive(dest);
        ASSERT_EQ(inbox.size(), 1u);
        const std::vector<std::byte>& payload = *inbox[0].payload;
        EXPECT_EQ(payload.capacity(), payload.size()) << "dest=" << dest;
        EXPECT_EQ(payload, per_dest[dest].take()) << "dest=" << dest;
    }
}

// ---------------------------------------------------------------------------
// Kernel-equivalence property tests.
//
// A MiniCluster distributes one random graph across P ranks with a random
// ownership map, runs IA to seed the distance stores, and then drives the RC
// post/exchange/ingest/propagate cycle to its global fixpoint with one of the
// three kernel modes. All modes execute the same relaxation schedule, so they
// must agree bit for bit — on every matrix entry, on every op count, and on
// the dirty-set contents in between kernels.

// The scalar reference: one DistanceStore::relax() per (row, column), in
// block-arrival order for ingest and FIFO drain order for propagate, charging
// one op per attempt — the semantics the library's batched sweeps reproduce.
double scalar_ingest(const LocalSubgraph& sg, DistanceStore& store,
                     const std::vector<Message>& inbox) {
    double ops = 0;
    std::vector<VertexId> arena;
    for (const Message& message : inbox) {
        if (message.tag != MessageTag::BoundaryDvUpdate) {
            continue;
        }
        for (const BoundaryBlockSoaView& block :
             decode_boundary_block_soa_views(message.bytes(), arena)) {
            // d(local, t) <= w(local, ext) + d(ext, t) through each cut edge.
            for (const auto& [local, w] : sg.external_neighbors(block.vertex)) {
                for (std::size_t i = 0; i < block.cols.size(); ++i) {
                    store.relax(local, block.cols[i], w + block.dists[i]);
                    ops += 1;
                }
            }
        }
    }
    return ops;
}

double scalar_propagate(const LocalSubgraph& sg, DistanceStore& store) {
    double ops = 0;
    std::deque<LocalId> worklist;
    std::vector<std::uint8_t> queued(sg.num_local(), 0);
    for (LocalId l = 0; l < sg.num_local(); ++l) {
        if (store.has_prop(l)) {
            worklist.push_back(l);
            queued[l] = 1;
        }
    }
    while (!worklist.empty()) {
        const LocalId u = worklist.front();
        worklist.pop_front();
        queued[u] = 0;
        const auto cols = store.take_prop(u);
        const auto row_u = store.row(u);
        for (const Neighbor& nb : sg.neighbors(u)) {
            if (!sg.owns(nb.to)) {
                continue;  // cross-rank propagation happens via RC messages
            }
            const LocalId v = sg.local_id(nb.to);
            bool improved = false;
            for (const VertexId col : cols) {
                improved |= store.relax(v, col, row_u[col] + nb.weight);
                ops += 1;
            }
            if (improved && queued[v] == 0) {
                worklist.push_back(v);
                queued[v] = 1;
            }
        }
    }
    return ops;
}

enum class Mode { Scalar, Batched, Threaded };

struct RcOps {
    double post{0};
    double ingest{0};
    double propagate{0};
};

struct MiniCluster {
    Cluster cluster;
    std::vector<LocalSubgraph> sgs;
    std::vector<DistanceStore> stores;

    MiniCluster(const DynamicGraph& g, const std::vector<RankId>& owners,
                std::uint32_t num_ranks)
        : cluster(num_ranks) {
        const std::size_t n = g.num_vertices();
        for (RankId r = 0; r < num_ranks; ++r) {
            sgs.emplace_back(r, owners);
            stores.emplace_back(n);
            for (const VertexId v : sgs[r].local_vertices()) {
                stores[r].add_row(v);
            }
        }
        for (VertexId u = 0; u < n; ++u) {
            for (const Neighbor& nb : g.neighbors(u)) {
                if (u >= nb.to) {
                    continue;  // undirected: place each edge once
                }
                sgs[owners[u]].add_local_edge(u, nb.to, nb.weight);
                if (owners[nb.to] != owners[u]) {
                    sgs[owners[nb.to]].add_local_edge(u, nb.to, nb.weight);
                }
            }
        }
        ThreadPool ia_pool(1);
        for (RankId r = 0; r < num_ranks; ++r) {
            ia_dijkstra_all(sgs[r], stores[r], ia_pool);
        }
    }
};

std::vector<RankId> random_owners(std::size_t n, std::uint32_t num_ranks, Rng& rng) {
    std::vector<RankId> owners(n);
    for (std::size_t v = 0; v < n; ++v) {
        // Guarantee every rank owns at least one vertex so no rank is empty.
        owners[v] = v < num_ranks ? static_cast<RankId>(v)
                                  : static_cast<RankId>(rng.uniform(num_ranks));
    }
    return owners;
}

// Drive post/exchange/ingest/propagate until globally quiescent. The Threaded
// mode passes parallel_grain = 1 so even these small graphs exercise the
// parallel_for branches in both rc_ingest_updates and rc_propagate_local.
// `window_bytes` feeds the ingest windowing (results must be independent of
// it).
RcOps run_rc_fixpoint(MiniCluster& mc, Mode mode, std::size_t threads = 1,
                      std::size_t window_bytes = kRcIngestWindowBytes) {
    std::unique_ptr<ThreadPool> pool;
    if (mode == Mode::Threaded) {
        pool = std::make_unique<ThreadPool>(threads);
    }
    RcOps ops;
    const std::uint32_t num_ranks = mc.cluster.num_ranks();
    bool converged = false;
    for (int step = 0; step < 100 && !converged; ++step) {
        for (RankId r = 0; r < num_ranks; ++r) {
            ops.post += rc_post_boundary_updates(mc.sgs[r], mc.stores[r], mc.cluster);
        }
        if (!mc.cluster.has_pending_messages()) {
            converged = true;
            break;
        }
        mc.cluster.exchange();
        for (RankId r = 0; r < num_ranks; ++r) {
            const auto inbox = mc.cluster.receive(r);
            switch (mode) {
                case Mode::Scalar:
                    ops.ingest += scalar_ingest(mc.sgs[r], mc.stores[r], inbox);
                    ops.propagate += scalar_propagate(mc.sgs[r], mc.stores[r]);
                    break;
                case Mode::Batched:
                    ops.ingest += rc_ingest_updates(mc.sgs[r], mc.stores[r], inbox,
                                                    BoundaryWireFormat::V2Soa, nullptr,
                                                    kRcIngestParallelGrain,
                                                    window_bytes);
                    ops.propagate += rc_propagate_local(mc.sgs[r], mc.stores[r]);
                    break;
                case Mode::Threaded:
                    ops.ingest += rc_ingest_updates(mc.sgs[r], mc.stores[r], inbox,
                                                    BoundaryWireFormat::V2Soa, pool.get(),
                                                    /*parallel_grain=*/1, window_bytes);
                    ops.propagate += rc_propagate_local(mc.sgs[r], mc.stores[r],
                                                        pool.get(), /*parallel_grain=*/1);
                    break;
            }
        }
    }
    EXPECT_TRUE(converged) << "RC cycle failed to converge within 100 steps";
    return ops;
}

// Count entries whose bit patterns differ between two runs (0 == identical).
std::size_t matrix_mismatches(const MiniCluster& a, const MiniCluster& b) {
    std::size_t bad = 0;
    for (std::size_t r = 0; r < a.stores.size(); ++r) {
        EXPECT_EQ(a.stores[r].num_rows(), b.stores[r].num_rows());
        for (LocalId l = 0; l < a.stores[r].num_rows(); ++l) {
            const auto ra = a.stores[r].row(l);
            const auto rb = b.stores[r].row(l);
            if (std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) {
                for (std::size_t c = 0; c < ra.size(); ++c) {
                    bad += std::memcmp(&ra[c], &rb[c], sizeof(Weight)) != 0;
                }
            }
        }
    }
    return bad;
}

void expect_equivalent(MiniCluster& reference, MiniCluster& candidate, Mode mode,
                       std::size_t threads, const char* what,
                       std::size_t cand_window = kRcIngestWindowBytes) {
    // Reference: the scalar per-element kernels — the original semantics
    // every optimized configuration must reproduce.
    const RcOps ref = run_rc_fixpoint(reference, Mode::Scalar);
    const RcOps got = run_rc_fixpoint(candidate, mode, threads, cand_window);
    EXPECT_EQ(ref.post, got.post) << what;
    EXPECT_EQ(ref.ingest, got.ingest) << what;
    EXPECT_EQ(ref.propagate, got.propagate) << what;
    EXPECT_EQ(matrix_mismatches(reference, candidate), 0u) << what;
    for (RankId r = 0; r < candidate.cluster.num_ranks(); ++r) {
        EXPECT_FALSE(candidate.stores[r].any_prop_pending()) << what;
        EXPECT_FALSE(candidate.stores[r].any_send_pending()) << what;
    }
}

TEST(RcKernelEquivalence, BatchedMatchesScalarOnRmat) {
    for (const std::uint64_t seed : {11u, 137u, 4242u}) {
        Rng rng(seed);
        const DynamicGraph g = rmat(8, 700, rng, {}, {0.5, 2.0});
        const auto owners = random_owners(g.num_vertices(), 4, rng);
        MiniCluster scalar(g, owners, 4);
        MiniCluster batched(g, owners, 4);
        expect_equivalent(scalar, batched, Mode::Batched, 1, "rmat batched");
    }
}

TEST(RcKernelEquivalence, BatchedMatchesScalarOnGnm) {
    for (const std::uint64_t seed : {3u, 77u}) {
        Rng rng(seed);
        const DynamicGraph g = erdos_renyi_gnm(300, 900, rng, {0.25, 4.0});
        const auto owners = random_owners(g.num_vertices(), 5, rng);
        MiniCluster scalar(g, owners, 5);
        MiniCluster batched(g, owners, 5);
        expect_equivalent(scalar, batched, Mode::Batched, 1, "gnm batched");
    }
}

TEST(RcKernelEquivalence, ThreadedMatchesScalarAcrossThreadCounts) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        Rng rng(900 + threads);
        const DynamicGraph g = rmat(8, 700, rng, {}, {0.5, 2.0});
        const auto owners = random_owners(g.num_vertices(), 4, rng);
        MiniCluster scalar(g, owners, 4);
        MiniCluster threaded(g, owners, 4);
        expect_equivalent(scalar, threaded, Mode::Threaded, threads, "rmat threaded");
    }
}

TEST(RcKernelEquivalence, ThreadedMatchesScalarOnGnm) {
    Rng rng(5150);
    const DynamicGraph g = erdos_renyi_gnm(300, 900, rng, {0.25, 4.0});
    const auto owners = random_owners(g.num_vertices(), 3, rng);
    MiniCluster scalar(g, owners, 3);
    MiniCluster threaded(g, owners, 3);
    expect_equivalent(scalar, threaded, Mode::Threaded, 8, "gnm threaded");
}

TEST(RcKernelEquivalence, IngestDirtySetsMatchScalar) {
    // One post/exchange/ingest round, then compare the *contents* of every
    // row's prop and send dirty sets (as sets: the batched kernel may record
    // a row's improved columns in a different order than per-element relax).
    Rng rng(31337);
    const DynamicGraph g = rmat(8, 700, rng, {}, {0.5, 2.0});
    const auto owners = random_owners(g.num_vertices(), 4, rng);
    MiniCluster scalar(g, owners, 4);
    MiniCluster batched(g, owners, 4);
    ThreadPool pool(4);

    for (RankId r = 0; r < 4; ++r) {
        rc_post_boundary_updates(scalar.sgs[r], scalar.stores[r], scalar.cluster);
        rc_post_boundary_updates(batched.sgs[r], batched.stores[r], batched.cluster);
    }
    scalar.cluster.exchange();
    batched.cluster.exchange();
    for (RankId r = 0; r < 4; ++r) {
        const double ops_s =
            scalar_ingest(scalar.sgs[r], scalar.stores[r], scalar.cluster.receive(r));
        const double ops_b = rc_ingest_updates(batched.sgs[r], batched.stores[r],
                                               batched.cluster.receive(r),
                                               BoundaryWireFormat::V2Soa, &pool,
                                               /*parallel_grain=*/1);
        EXPECT_EQ(ops_s, ops_b);
        for (LocalId l = 0; l < scalar.stores[r].num_rows(); ++l) {
            const auto sp = scalar.stores[r].take_prop(l);
            const auto bp = batched.stores[r].take_prop(l);
            std::vector<VertexId> s_prop(sp.begin(), sp.end());
            std::vector<VertexId> b_prop(bp.begin(), bp.end());
            std::sort(s_prop.begin(), s_prop.end());
            std::sort(b_prop.begin(), b_prop.end());
            EXPECT_EQ(s_prop, b_prop) << "rank " << r << " row " << l;
            const auto ss = scalar.stores[r].take_send(l);
            const auto bs = batched.stores[r].take_send(l);
            std::vector<VertexId> s_send(ss.begin(), ss.end());
            std::vector<VertexId> b_send(bs.begin(), bs.end());
            std::sort(s_send.begin(), s_send.end());
            std::sort(b_send.begin(), b_send.end());
            EXPECT_EQ(s_send, b_send) << "rank " << r << " row " << l;
        }
    }
    EXPECT_EQ(matrix_mismatches(scalar, batched), 0u);
}

// ---------------------------------------------------------------------------
// Knobs that must never change results: the ingest window and the SIMD sweep.

TEST(RcWireFormat, TinyIngestWindowIsBitIdentical) {
    // A 256-byte window forces a window split at nearly every block; results
    // and op counts must not move (satellite: windowing can never change
    // results).
    Rng rng(99);
    const DynamicGraph g = rmat(8, 700, rng, {}, {0.5, 2.0});
    const auto owners = random_owners(g.num_vertices(), 4, rng);
    MiniCluster reference(g, owners, 4);
    MiniCluster tiny(g, owners, 4);
    expect_equivalent(reference, tiny, Mode::Batched, 1, "tiny window",
                      /*cand_window=*/256);
}

TEST(RcWireFormat, SimdToggleIsBitIdentical) {
    // On an AVX2 host this pins the vector sweeps to the scalar fallback bit
    // for bit; otherwise both runs take the scalar path and the test
    // degenerates to determinism (still worth keeping: it guards the toggle
    // plumbing).
    Rng rng(512);
    const DynamicGraph g = erdos_renyi_gnm(300, 900, rng, {0.25, 4.0});
    const auto owners = random_owners(g.num_vertices(), 4, rng);
    MiniCluster simd_on(g, owners, 4);
    MiniCluster simd_off(g, owners, 4);
    for (auto& store : simd_off.stores) {
        store.set_simd_enabled(false);
    }
    const RcOps on = run_rc_fixpoint(simd_on, Mode::Batched);
    const RcOps off = run_rc_fixpoint(simd_off, Mode::Batched);
    EXPECT_EQ(on.post, off.post);
    EXPECT_EQ(on.ingest, off.ingest);
    EXPECT_EQ(on.propagate, off.propagate);
    EXPECT_EQ(matrix_mismatches(simd_on, simd_off), 0u);
}

}  // namespace
}  // namespace aa
