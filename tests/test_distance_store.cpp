#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/distance_store.hpp"
#include "core/rc.hpp"

namespace aa {
namespace {

TEST(DistanceStore, FreshRowIsInfExceptSelf) {
    DistanceStore store(4);
    const LocalId r = store.add_row(2);
    EXPECT_EQ(store.at(r, 2), 0.0);
    for (VertexId c : {0u, 1u, 3u}) {
        EXPECT_GE(store.at(r, c), kInfinity);
    }
    EXPECT_FALSE(store.has_prop(r));
    EXPECT_FALSE(store.has_send(r));
}

TEST(DistanceStore, RelaxImprovesAndMarks) {
    DistanceStore store(3);
    const LocalId r = store.add_row(0);
    EXPECT_TRUE(store.relax(r, 1, 5.0));
    EXPECT_EQ(store.at(r, 1), 5.0);
    EXPECT_TRUE(store.has_prop(r));
    EXPECT_TRUE(store.has_send(r));
    // Worse or equal candidates are rejected.
    EXPECT_FALSE(store.relax(r, 1, 5.0));
    EXPECT_FALSE(store.relax(r, 1, 6.0));
    EXPECT_TRUE(store.relax(r, 1, 4.0));
    EXPECT_EQ(store.at(r, 1), 4.0);
}

TEST(DistanceStore, MarkFlagsControlLists) {
    DistanceStore store(3);
    const LocalId r = store.add_row(0);
    store.relax(r, 1, 2.0, /*mark_prop=*/false, /*mark_send=*/true);
    EXPECT_FALSE(store.has_prop(r));
    EXPECT_TRUE(store.has_send(r));
    store.relax(r, 2, 3.0, /*mark_prop=*/true, /*mark_send=*/false);
    EXPECT_TRUE(store.has_prop(r));
}

TEST(DistanceStore, TakeDrainsAndDeduplicates) {
    DistanceStore store(5);
    const LocalId r = store.add_row(0);
    store.relax(r, 1, 5.0);
    store.relax(r, 1, 4.0);  // same column twice
    store.relax(r, 2, 7.0);
    const auto cols = store.take_send(r);
    EXPECT_EQ(cols.size(), 2u);
    EXPECT_FALSE(store.has_send(r));
    // After draining, a further improvement re-marks.
    store.relax(r, 1, 3.0);
    EXPECT_TRUE(store.has_send(r));
    EXPECT_EQ(store.take_send(r).size(), 1u);
}

TEST(DistanceStore, GrowColumnsPreservesValues) {
    DistanceStore store(2);
    const LocalId r = store.add_row(0);
    store.relax(r, 1, 2.0);
    store.grow_columns(5);
    EXPECT_EQ(store.num_columns(), 5u);
    EXPECT_EQ(store.at(r, 1), 2.0);
    EXPECT_GE(store.at(r, 4), kInfinity);
    EXPECT_TRUE(store.relax(r, 4, 1.0));
}

TEST(DistanceStore, MarkRowForSendCollectsFinite) {
    DistanceStore store(4);
    const LocalId r = store.add_row(1);
    store.relax(r, 0, 3.0);
    (void)store.take_send(r);
    (void)store.take_prop(r);
    store.mark_row_for_send(r);
    const auto cols = store.take_send(r);
    // Finite entries: column 0 (3.0) and the self column 1 (0.0).
    EXPECT_EQ(cols.size(), 2u);
}

TEST(DistanceStore, MarkRowForPropCollectsFinite) {
    DistanceStore store(4);
    const LocalId r = store.add_row(0);
    store.relax(r, 2, 1.0);
    (void)store.take_prop(r);
    store.mark_row_for_prop(r);
    EXPECT_EQ(store.take_prop(r).size(), 2u);  // self + column 2
}

TEST(DistanceStore, ExtractAndInstallRow) {
    // A row that arrives over the wire (the row move of shard migration and
    // Repartition-S) installs from its block's view.
    DistanceStore store(3);
    const LocalId r = store.add_row(1);
    const std::vector<VertexId> cols{0, 1};
    const std::vector<Weight> dists{4.0, 0.0};
    store.relax(r, 2, 6.0);
    store.install_row(r, cols, dists);
    EXPECT_EQ(store.at(r, 0), 4.0);
    EXPECT_EQ(store.at(r, 1), 0.0);
    EXPECT_GE(store.at(r, 2), kInfinity);  // columns absent from the view
}

TEST(DistanceStore, FiniteEntries) {
    // A row's finite entries travel as one row block.
    DistanceStore store(4);
    const LocalId r = store.add_row(3);
    store.relax(r, 1, 2.5);
    Serializer out;
    EXPECT_EQ(encode_row_block(out, 3, store.row(r)), 2u);
    const auto payload = out.take();
    std::vector<VertexId> arena;
    const auto blocks = decode_boundary_block_soa_views(payload, arena);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].vertex, 3u);
    EXPECT_EQ(std::vector<VertexId>(blocks[0].cols.begin(), blocks[0].cols.end()),
              (std::vector<VertexId>{1, 3}));
    EXPECT_EQ(std::vector<Weight>(blocks[0].dists.begin(), blocks[0].dists.end()),
              (std::vector<Weight>{2.5, 0.0}));
}

TEST(DistanceStore, PendingQueries) {
    DistanceStore store(3);
    const LocalId a = store.add_row(0);
    const LocalId b = store.add_row(1);
    EXPECT_FALSE(store.any_send_pending());
    store.relax(b, 2, 1.0);
    EXPECT_TRUE(store.any_send_pending());
    EXPECT_TRUE(store.any_prop_pending());
    (void)store.take_send(b);
    (void)store.take_prop(b);
    (void)a;
    EXPECT_FALSE(store.any_send_pending());
    EXPECT_FALSE(store.any_prop_pending());
}

TEST(DistanceStore, RelaxBatchMatchesRelaxLoop) {
    // Repeated relax_batch calls on one row must track a per-entry relax()
    // loop exactly — values, improved counts, dirty-set contents — as the
    // row's state builds up. Each batch covers a dense column range (the
    // shape of run-length columns and of propagate's gathered tiles), and
    // some candidates sit inside the acceptance epsilon of the current value,
    // where neither side may accept them.
    for (const bool simd : {true, false}) {
        SCOPED_TRACE(simd ? "simd" : "scalar");
        Rng rng(99);
        DistanceStore a(64);
        DistanceStore b(64);
        b.set_simd_enabled(simd);
        const LocalId ra = a.add_row(0);
        const LocalId rb = b.add_row(0);
        for (int round = 0; round < 20; ++round) {
            const auto first = static_cast<VertexId>(rng.uniform(32));
            const auto count = 1 + static_cast<std::size_t>(rng.uniform(64 - first));
            const Weight offset = rng.uniform(0.0, 2.0);
            std::vector<VertexId> cols(count);
            std::vector<Weight> dists(count);
            for (std::size_t i = 0; i < count; ++i) {
                cols[i] = first + static_cast<VertexId>(i);
                const Weight current = a.at(ra, cols[i]);
                dists[i] = current < kInfinity && rng.uniform01() < 0.3
                               ? current * (1 - 1e-14) - offset  // inside epsilon
                               : rng.uniform(0.0, 10.0);
            }
            std::size_t improved_loop = 0;
            for (std::size_t i = 0; i < count; ++i) {
                improved_loop += a.relax(ra, cols[i], offset + dists[i]) ? 1 : 0;
            }
            EXPECT_EQ(b.relax_batch_soa(rb, cols, dists, offset), improved_loop);
            for (VertexId c = 0; c < 64; ++c) {
                EXPECT_EQ(a.at(ra, c), b.at(rb, c)) << "round " << round << " col " << c;
            }
            const auto pa = a.take_prop(ra);
            const auto pb = b.take_prop(rb);
            std::vector<VertexId> sa(pa.begin(), pa.end());
            std::vector<VertexId> sb(pb.begin(), pb.end());
            std::sort(sa.begin(), sa.end());
            std::sort(sb.begin(), sb.end());
            EXPECT_EQ(sa, sb) << "round " << round;
        }
    }
}

TEST(DistanceStore, RelaxBatchHonoursMarkFlags) {
    // Both sweeps — the AVX2 one (where the host has it) and the scalar one —
    // record improvements only in the requested dirty sets.
    for (const bool simd : {true, false}) {
        SCOPED_TRACE(simd ? "simd" : "scalar");
        DistanceStore store(4);
        store.set_simd_enabled(simd);
        const LocalId r = store.add_row(0);
        const std::vector<VertexId> cols{1, 2};
        const std::vector<Weight> dists{1.0, 2.0};
        EXPECT_EQ(store.relax_batch_soa(r, cols, dists, 0.0, /*mark_prop=*/false,
                                        /*mark_send=*/true),
                  2u);
        EXPECT_FALSE(store.has_prop(r));
        EXPECT_TRUE(store.has_send(r));
        (void)store.take_send(r);
        const std::vector<VertexId> more_cols{3};
        const std::vector<Weight> more_dists{1.5};
        EXPECT_EQ(store.relax_batch_soa(r, more_cols, more_dists, 0.0,
                                        /*mark_prop=*/true, /*mark_send=*/false),
                  1u);
        EXPECT_TRUE(store.has_prop(r));
        EXPECT_FALSE(store.has_send(r));
    }
}

TEST(DistanceStore, EpochWrapKeepsDirtyTrackingExact) {
    // The epoch stamp is 8 bits; exceed 255 drains per worklist to force the
    // wrap-around path (arena reset) and check marks never leak or get lost.
    DistanceStore store(8);
    const LocalId r = store.add_row(0);
    (void)store.take_prop(r);
    (void)store.take_send(r);
    double value = 1000.0;
    for (int cycle = 0; cycle < 600; ++cycle) {
        const VertexId col = 1 + static_cast<VertexId>(cycle % 7);
        value -= 1.0;
        ASSERT_TRUE(store.relax(r, col, value));
        const auto prop = store.take_prop(r);
        ASSERT_EQ(prop.size(), 1u);
        EXPECT_EQ(prop[0], col);
        const auto send = store.take_send(r);
        ASSERT_EQ(send.size(), 1u);
        EXPECT_EQ(send[0], col);
        EXPECT_FALSE(store.has_prop(r));
        EXPECT_FALSE(store.has_send(r));
    }
}

TEST(DistanceStore, EpochWrapCannotAliasStaleMarks) {
    // The dedupe check is `mark[col] == epoch` over 8-bit stamps. A column
    // marked once and then left untouched for a full 255-drain cycle ends up
    // with a stale stamp numerically equal to the live epoch again; without
    // the wrap-time arena reset in bump_epoch() the next improvement on that
    // column would look already-marked and silently vanish from the drained
    // set. This pins the memset branch as load-bearing.
    DistanceStore store(4);
    const LocalId r = store.add_row(0);
    (void)store.take_prop(r);
    (void)store.take_send(r);
    // Stamp column 1 at the current epoch, then drain once.
    store.relax(r, 1, 100.0);
    ASSERT_EQ(store.take_prop(r).size(), 1u);
    ASSERT_EQ(store.take_send(r).size(), 1u);
    // 254 further drains on a different column bring the 8-bit epoch back
    // around to column 1's stale stamp (255 drains per cycle).
    double value = 100.0;
    for (int i = 0; i < 254; ++i) {
        value -= 0.1;
        ASSERT_TRUE(store.relax(r, 2, value));
        ASSERT_EQ(store.take_prop(r).size(), 1u);
        ASSERT_EQ(store.take_send(r).size(), 1u);
    }
    // Column 1 must be re-recorded exactly once and in append order.
    ASSERT_TRUE(store.relax(r, 1, 50.0));
    ASSERT_TRUE(store.relax(r, 3, 60.0));
    const auto prop = store.take_prop(r);
    ASSERT_EQ(prop.size(), 2u);
    EXPECT_EQ(prop[0], 1u);
    EXPECT_EQ(prop[1], 3u);
    const auto send = store.take_send(r);
    ASSERT_EQ(send.size(), 2u);
    EXPECT_EQ(send[0], 1u);
    EXPECT_EQ(send[1], 3u);
}

TEST(DistanceStore, MarkInvalidatedRaisesWithoutMinCompare) {
    // The shrink path's single door: unlike relax(), mark_invalidated must
    // overwrite unconditionally (infinity never wins a min-compare) and
    // stamp both worklists so the raise is re-propagated and re-sent.
    DistanceStore store(5);
    const LocalId r = store.add_row(0);
    (void)store.take_prop(r);
    (void)store.take_send(r);
    ASSERT_TRUE(store.relax(r, 2, 7.0));
    (void)store.take_prop(r);
    (void)store.take_send(r);

    store.mark_invalidated(r, 2);
    EXPECT_GE(store.row(r)[2], kInfinity);
    const auto prop = store.take_prop(r);
    ASSERT_EQ(prop.size(), 1u);
    EXPECT_EQ(prop[0], 2u);
    const auto send = store.take_send(r);
    ASSERT_EQ(send.size(), 1u);
    EXPECT_EQ(send[0], 2u);

    // Invalidating an already-infinite column is idempotent: marked once,
    // value still infinite, and a later relax can re-learn it.
    store.mark_invalidated(r, 2);
    store.mark_invalidated(r, 2);
    EXPECT_EQ(store.take_prop(r).size(), 1u);
    ASSERT_TRUE(store.relax(r, 2, 9.0));  // worse than the old 7.0, but fresh
    EXPECT_EQ(store.row(r)[2], 9.0);
}

TEST(DistanceStore, EpochWrapSurvivesInterleavedInvalidation) {
    // Satellite regression for the fully-dynamic path: mark_invalidated
    // shares the 8-bit epoch machinery with relax(), so interleave raises
    // through several full 255-drain cycles and check that (a) no mark is
    // ever lost to a stale stamp aliasing the live epoch and (b) the
    // invalidate-then-relearn sequence drains exactly once per cycle.
    DistanceStore store(8);
    const LocalId r = store.add_row(0);
    (void)store.take_prop(r);
    (void)store.take_send(r);
    double value = 2000.0;
    for (int cycle = 0; cycle < 600; ++cycle) {
        const VertexId col = 1 + static_cast<VertexId>(cycle % 7);
        value -= 1.0;
        if (cycle % 3 == 0) {
            // Raise an entry that was finite in some earlier cycle (or is
            // still fresh-infinite: idempotent) and re-learn it worse —
            // legal after invalidation, impossible under pure relax().
            store.mark_invalidated(r, col);
            ASSERT_TRUE(store.relax(r, col, value + 0.5));
        } else {
            ASSERT_TRUE(store.relax(r, col, value));
        }
        const auto prop = store.take_prop(r);
        ASSERT_EQ(prop.size(), 1u) << "cycle " << cycle;
        EXPECT_EQ(prop[0], col);
        const auto send = store.take_send(r);
        ASSERT_EQ(send.size(), 1u) << "cycle " << cycle;
        EXPECT_EQ(send[0], col);
        EXPECT_FALSE(store.has_prop(r));
        EXPECT_FALSE(store.has_send(r));
    }
}

TEST(DistanceStore, RelaxBatchSoaMatchesRelaxLoop) {
    // relax_batch_soa (the ingest and propagate sweep: strictly-ascending column span
    // plus a parallel distance span) must match per-column relax() exactly —
    // values, improved count, and dirty-append order — with the SIMD sweep
    // both enabled and disabled.
    for (const bool simd : {true, false}) {
        Rng rng(4242);
        for (int round = 0; round < 20; ++round) {
            DistanceStore a(128);
            DistanceStore b(128);
            b.set_simd_enabled(simd);
            const LocalId ra = a.add_row(0);
            const LocalId rb = b.add_row(0);
            // Strictly-ascending columns with random gaps; pre-populate a
            // third of them so the sweep sees a mix of improvements,
            // rejections, and epsilon-window near-ties.
            std::vector<VertexId> cols;
            std::vector<Weight> dists;
            for (VertexId c = static_cast<VertexId>(rng.uniform(3)); c < 128;
                 c += 1 + static_cast<VertexId>(rng.uniform(4))) {
                cols.push_back(c);
                dists.push_back(rng.uniform(0.0, 10.0));
            }
            for (std::size_t i = 0; i < cols.size(); i += 3) {
                const Weight w = rng.uniform(0.0, 12.0);
                a.relax(ra, cols[i], w);
                b.relax(rb, cols[i], w);
            }
            (void)a.take_prop(ra);
            (void)a.take_send(ra);
            (void)b.take_prop(rb);
            (void)b.take_send(rb);
            const Weight offset = rng.uniform(0.0, 2.0);
            std::size_t improved_loop = 0;
            for (std::size_t i = 0; i < cols.size(); ++i) {
                improved_loop +=
                    a.relax(ra, cols[i], offset + dists[i]) ? 1 : 0;
            }
            const std::size_t improved_batch =
                b.relax_batch_soa(rb, cols, dists, offset);
            EXPECT_EQ(improved_loop, improved_batch) << "simd " << simd;
            for (VertexId c = 0; c < 128; ++c) {
                EXPECT_EQ(a.at(ra, c), b.at(rb, c))
                    << "col " << c << " simd " << simd;
            }
            // Ascending input columns make the loop's append order
            // deterministic, so the batch must reproduce it exactly.
            const auto pa = a.take_prop(ra);
            const auto pb = b.take_prop(rb);
            ASSERT_EQ(pa.size(), pb.size());
            EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()));
            const auto sa = a.take_send(ra);
            const auto sb = b.take_send(rb);
            ASSERT_EQ(sa.size(), sb.size());
            EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
        }
    }
}

TEST(DistanceStore, TakeSpanSurvivesOtherRowActivity) {
    // The drained span stays valid while *other* rows are relaxed and drained
    // (the propagate kernel depends on this: it holds row u's drained columns
    // while batch-relaxing into u's neighbours).
    DistanceStore store(6);
    const LocalId u = store.add_row(0);
    const LocalId v = store.add_row(1);
    store.relax(u, 2, 5.0);
    store.relax(u, 3, 6.0);
    const auto cols = store.take_prop(u);
    ASSERT_EQ(cols.size(), 2u);
    store.relax(v, 2, 7.0);
    store.relax(u, 4, 1.0);  // new marks on u itself do not invalidate either
    (void)store.take_prop(v);
    EXPECT_EQ(cols[0], 2u);
    EXPECT_EQ(cols[1], 3u);
}

TEST(DistanceStore, EpsilonGuardsFloatNoise) {
    DistanceStore store(2);
    const LocalId r = store.add_row(0);
    store.relax(r, 1, 1.0);
    (void)store.take_send(r);
    // A candidate smaller by less than epsilon must be ignored (no dirty
    // churn from floating-point noise).
    EXPECT_FALSE(store.relax(r, 1, 1.0 - 1e-15));
    EXPECT_FALSE(store.has_send(r));
}

TEST(DistanceStore, DrainsAscendingWhateverTheMarkOrder) {
    // Relaxation marks columns in whatever order it finds improvements:
    // descending, across word boundaries, the same column twice. Every drain
    // still comes out ascending and duplicate-free, which is the order the
    // post and propagate kernels consume without sorting.
    DistanceStore store(200);
    const LocalId r = store.add_row(0);
    (void)store.take_prop(r);
    (void)store.take_send(r);
    const std::vector<VertexId> order{199, 64, 3, 130, 63, 1, 128, 65, 3, 199};
    for (std::size_t i = 0; i < order.size(); ++i) {
        ASSERT_TRUE(store.relax(r, order[i], 100.0 - static_cast<Weight>(i)));
    }
    const std::vector<VertexId> expected{1, 3, 63, 64, 65, 128, 130, 199};
    const auto prop = store.take_prop(r);
    EXPECT_EQ(std::vector<VertexId>(prop.begin(), prop.end()), expected);
    const auto send = store.take_send(r);
    EXPECT_EQ(std::vector<VertexId>(send.begin(), send.end()), expected);
    EXPECT_FALSE(store.has_prop(r));
    EXPECT_FALSE(store.has_send(r));
}

TEST(DistanceStore, GrowColumnsHeadroomIsBounded) {
    // Rows that must grow reserve 1/8 headroom, never a doubling: through
    // 2000 -> 2010 -> 2420 columns (grow's vertex-addition sizes), the
    // reserved bytes stay within 9/8 of the distances in use plus the dirty
    // bitsets, and every value survives.
    constexpr std::size_t kRows = 8;
    DistanceStore store(2000);
    for (VertexId v = 0; v < kRows; ++v) {
        const LocalId r = store.add_row(v);
        for (VertexId c = 0; c < 2000; c += 7) {
            store.relax(r, c, 1.0 + v + c / 1000.0);
        }
    }
    const auto row_bytes = [&](std::size_t columns) {
        return kRows * columns * sizeof(Weight);
    };
    // Fresh rows are exact, so the rest of the reserve is the bitsets.
    const std::size_t bitset_bytes = store.reserved_bytes() - row_bytes(2000);
    EXPECT_GE(bitset_bytes, 2 * kRows * ((2000 + 63) / 64) * sizeof(std::uint64_t));

    store.grow_columns(2010);  // same word count per row: bitsets unchanged
    EXPECT_LE(store.reserved_bytes(), row_bytes(2010) * 9 / 8 + bitset_bytes);
    store.grow_columns(2420);  // re-strided bitsets are exact
    const std::size_t wider_bitset_bytes =
        2 * kRows * ((2420 + 63) / 64) * sizeof(std::uint64_t);
    EXPECT_GE(store.reserved_bytes(), row_bytes(2420) + wider_bitset_bytes);
    EXPECT_LE(store.reserved_bytes(), row_bytes(2420) * 9 / 8 + wider_bitset_bytes);

    for (VertexId v = 0; v < kRows; ++v) {
        for (VertexId c = 0; c < 2420; ++c) {
            const Weight want = c == v                      ? 0.0
                                : c < 2000 && c % 7 == 0 ? 1.0 + v + c / 1000.0
                                                         : kInfinity;
            ASSERT_EQ(store.at(v, c), want) << "row " << v << " col " << c;
        }
    }
}

TEST(DistanceStore, GrowColumnsAcrossWordBoundaryKeepsMarks) {
    // Growing n through 63 -> 64 -> 65 -> 130 keeps one 64-bit word per row,
    // then needs a second, then a third: the re-stride must carry every
    // row's pending marks and values to the new stride, and a row added
    // after the growth starts clean.
    DistanceStore store(63);
    const LocalId a = store.add_row(0);
    const LocalId b = store.add_row(62);
    ASSERT_TRUE(store.relax(a, 62, 1.0));
    ASSERT_TRUE(store.relax(b, 0, 2.0));
    store.grow_columns(64);
    ASSERT_TRUE(store.relax(a, 63, 3.0));
    store.grow_columns(65);
    ASSERT_TRUE(store.relax(a, 64, 4.0));
    ASSERT_TRUE(store.relax(b, 63, 5.0));
    store.grow_columns(130);
    ASSERT_TRUE(store.relax(a, 129, 6.0));
    ASSERT_TRUE(store.relax(b, 128, 7.0));
    const LocalId c = store.add_row(129);
    EXPECT_FALSE(store.has_prop(c));
    EXPECT_FALSE(store.has_send(c));

    EXPECT_EQ(store.at(a, 62), 1.0);
    EXPECT_EQ(store.at(b, 0), 2.0);
    EXPECT_GE(store.at(a, 128), kInfinity);
    const std::vector<VertexId> want_a{62, 63, 64, 129};
    const std::vector<VertexId> want_b{0, 63, 128};
    EXPECT_EQ(store.take_prop(a), want_a);
    EXPECT_EQ(store.take_send(a), want_a);
    EXPECT_EQ(store.take_prop(b), want_b);
    EXPECT_EQ(store.take_send(b), want_b);
    EXPECT_FALSE(store.any_prop_pending());
    EXPECT_FALSE(store.any_send_pending());
}

TEST(DistanceStore, RestorePendingAcceptsAnyOrderRejectsRepeats) {
    // Checkpoint restore hands back pending columns in the order the file
    // holds them: ascending from this store, mark order from older writers.
    // Any order loads; a repeated or out-of-range column is rejected.
    DistanceStore store(130);
    const LocalId r = store.add_row(0);
    const std::vector<VertexId> prop{129, 5, 64, 0};
    const std::vector<VertexId> send{70, 3};
    ASSERT_TRUE(store.restore_pending(r, prop, send));
    std::vector<VertexId> out;
    store.pending_prop(r, out);
    EXPECT_EQ(out, (std::vector<VertexId>{0, 5, 64, 129}));
    store.pending_send(r, out);
    EXPECT_EQ(out, (std::vector<VertexId>{3, 70}));
    // Reading the pending lists leaves the sets as they are.
    EXPECT_TRUE(store.has_prop(r));
    store.take_prop(r, out);
    EXPECT_EQ(out, (std::vector<VertexId>{0, 5, 64, 129}));
    store.take_send(r, out);
    EXPECT_EQ(out, (std::vector<VertexId>{3, 70}));

    const std::vector<VertexId> none;
    const std::vector<VertexId> repeated{7, 100, 7};
    const std::vector<VertexId> out_of_range{1, 130};
    EXPECT_FALSE(store.restore_pending(store.add_row(1), repeated, none));
    EXPECT_FALSE(store.restore_pending(store.add_row(2), none, repeated));
    EXPECT_FALSE(store.restore_pending(store.add_row(3), out_of_range, none));
    EXPECT_FALSE(store.restore_pending(store.add_row(4), none, out_of_range));
}

TEST(DistanceStore, AdjacentRowsMarkConcurrently) {
    // The row-disjoint concurrency contract at word level. n = 100 is not a
    // multiple of 64, so rows that were packed back to back would share a
    // word; padded rows never do. Two threads sweep, mark and drain adjacent
    // rows at once, and each row must see exactly its own marks (TSan
    // reports any shared word).
    constexpr std::size_t n = 100;
    DistanceStore store(n);
    const LocalId a = store.add_row(0);
    const LocalId b = store.add_row(1);
    std::vector<VertexId> cols(n);
    std::iota(cols.begin(), cols.end(), VertexId{0});
    const std::vector<Weight> zeros(n, 0.0);
    constexpr int kRounds = 40;
    const auto sweep = [&](LocalId r, std::size_t& wrong) {
        std::vector<VertexId> out;
        for (int round = 0; round < kRounds; ++round) {
            // Every column but the zero diagonal improves by 1 each round.
            const Weight offset = 1000.0 - round;
            if (store.relax_batch_soa(r, cols, zeros, offset) != n - 1) {
                ++wrong;
            }
            if (round + 1 == kRounds) {
                break;  // leave the last round's marks pending
            }
            store.take_prop(r, out);
            wrong += out.size() == n - 1 ? 0 : 1;
            store.take_send(r, out);
            wrong += out.size() == n - 1 ? 0 : 1;
        }
    };
    std::size_t wrong_a = 0;
    std::size_t wrong_b = 0;
    std::thread ta(sweep, a, std::ref(wrong_a));
    std::thread tb(sweep, b, std::ref(wrong_b));
    ta.join();
    tb.join();
    EXPECT_EQ(wrong_a, 0u);
    EXPECT_EQ(wrong_b, 0u);
    const std::pair<LocalId, VertexId> rows[] = {{a, 0}, {b, 1}};
    for (const auto& [r, self] : rows) {
        std::vector<VertexId> want = cols;
        want.erase(want.begin() + self);
        EXPECT_EQ(store.take_prop(r), want) << "row " << r;
        EXPECT_EQ(store.take_send(r), want) << "row " << r;
    }
}

}  // namespace
}  // namespace aa
