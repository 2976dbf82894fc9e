#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "core/distance_store.hpp"
#include "core/rc.hpp"
#include "runtime/cluster.hpp"
#include "runtime/message.hpp"

namespace aa {
namespace {

TEST(Serializer, ScalarRoundTrip) {
    Serializer out;
    out.write<std::uint32_t>(42);
    out.write<double>(3.5);
    out.write<std::uint8_t>(7);
    const auto buffer = out.take();
    Deserializer in(buffer);
    EXPECT_EQ(in.read<std::uint32_t>(), 42u);
    EXPECT_EQ(in.read<double>(), 3.5);
    EXPECT_EQ(in.read<std::uint8_t>(), 7);
    EXPECT_TRUE(in.exhausted());
}

TEST(Serializer, SpanRoundTrip) {
    const std::vector<double> values{1.0, 2.5, -3.0};
    Serializer out;
    out.write_span(std::span<const double>(values));
    const auto buffer = out.take();
    Deserializer in(buffer);
    EXPECT_EQ(in.read_vector<double>(), values);
}

TEST(Serializer, EmptySpan) {
    Serializer out;
    out.write_span(std::span<const int>{});
    const auto buffer = out.take();
    Deserializer in(buffer);
    EXPECT_TRUE(in.read_vector<int>().empty());
    EXPECT_TRUE(in.exhausted());
}

TEST(Serializer, TakeResets) {
    Serializer out;
    out.write<int>(1);
    EXPECT_GT(out.size(), 0u);
    (void)out.take();
    EXPECT_EQ(out.size(), 0u);
}

TEST(Deserializer, RemainingTracksCursor) {
    Serializer out;
    out.write<std::uint64_t>(1);
    out.write<std::uint64_t>(2);
    const auto buffer = out.take();
    Deserializer in(buffer);
    EXPECT_EQ(in.remaining(), 16u);
    in.read<std::uint64_t>();
    EXPECT_EQ(in.remaining(), 8u);
}

TEST(Message, SharedPayloadZeroCopy) {
    auto shared = Message::share(std::vector<std::byte>(256));
    Message a;
    a.payload = shared;
    Message b;
    b.payload = shared;
    EXPECT_EQ(a.bytes().data(), b.bytes().data());
    EXPECT_EQ(a.size_bytes(), 256u + 16);
}

TEST(Message, EmptyPayloadIsSafe) {
    Message m;
    EXPECT_TRUE(m.bytes().empty());
    EXPECT_EQ(m.size_bytes(), 16u);  // header only
}

TEST(BoundaryBlocks, RoundTrip) {
    std::vector<Weight> row(12, kInfinity);
    Serializer out;
    row[1] = 2.0;
    row[3] = 4.5;
    EXPECT_EQ(encode_row_block(out, 7, row), 2u);
    row.assign(12, kInfinity);
    row[0] = 1.0;
    EXPECT_EQ(encode_row_block(out, 9, row), 1u);
    row.assign(12, kInfinity);
    EXPECT_EQ(encode_row_block(out, 11, row), 0u);
    const auto payload = out.take();
    std::vector<VertexId> arena;
    const auto back = decode_boundary_block_soa_views(payload, arena);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].vertex, 7u);
    ASSERT_EQ(back[0].cols.size(), 2u);
    EXPECT_EQ(back[0].cols[1], 3u);
    EXPECT_EQ(back[0].dists[1], 4.5);
    EXPECT_EQ(back[1].vertex, 9u);
    EXPECT_TRUE(back[2].cols.empty());
}

TEST(BoundaryBlocks, EmptyPayload) {
    std::vector<VertexId> arena;
    EXPECT_TRUE(decode_boundary_block_soa_views({}, arena).empty());
}

TEST(BoundaryBlocks, RowEncoderMatchesBlockEncoder) {
    // encode_row_block writes a dense row's finite entries; BoundaryFanOut
    // encodes explicit (column, distance) lists. Both must give the same
    // bytes for the same entries.
    const std::size_t n = 700;  // columns past 127 and 16383 need 2-3 byte varints
    std::vector<std::pair<VertexId, std::vector<Weight>>> rows;
    // Dense: one run, run-length wins.
    std::vector<Weight> dense(n);
    for (std::size_t c = 0; c < n; ++c) {
        dense[c] = 0.5 * static_cast<double>(c) + 1.0;
    }
    dense[3] = 0;
    rows.emplace_back(3, dense);
    // Infinity gaps of every width, at the row's ends too.
    std::vector<Weight> gaps = dense;
    for (std::size_t c = 0; c < n; ++c) {
        if (c < 2 || c % 97 < c % 7 || (c > 300 && c < 450) || c + 1 == n) {
            gaps[c] = kInfinity;
        }
    }
    rows.emplace_back(3, gaps);
    // Isolated finite entries: runs of one, delta-varints win.
    std::vector<Weight> scattered(n, kInfinity);
    for (std::size_t c = 5; c < n; c += 3) {
        scattered[c] = 2.0;
    }
    rows.emplace_back(5, scattered);
    // Diagonal-only: a fresh row (a vertex that reaches nothing yet).
    std::vector<Weight> diagonal(n, kInfinity);
    diagonal[n - 2] = 0;
    rows.emplace_back(static_cast<VertexId>(n - 2), diagonal);

    // Each row alone, then every row in one payload: rank 0 sends to rank 1
    // through the fan-out.
    const auto fan_out_payload = [](const auto& blocks) {
        Cluster cluster(2);
        BoundaryFanOut fan_out(2);
        const std::array<RankId, 1> to{1};
        for (const auto& [vertex, row] : blocks) {
            std::vector<VertexId> cols;
            std::vector<Weight> dists;
            for (VertexId c = 0; c < row.size(); ++c) {
                if (row[c] < kInfinity) {
                    cols.push_back(c);
                    dists.push_back(row[c]);
                }
            }
            fan_out.add(vertex, cols, dists, to);
        }
        fan_out.post(cluster, 0, MessageTag::BoundaryDvUpdate);
        cluster.exchange();
        return *cluster.receive(1).at(0).payload;
    };
    Serializer all;  // every row, concatenated
    for (const auto& [vertex, row] : rows) {
        Serializer one;
        encode_row_block(one, vertex, row);
        EXPECT_EQ(one.take(), fan_out_payload(std::vector{std::pair{vertex, row}}))
            << "vertex " << vertex;
        encode_row_block(all, vertex, row);
    }
    EXPECT_EQ(all.take(), fan_out_payload(rows));
}

TEST(BoundaryBlocks, RowPayloadHeaderThenBlocks) {
    // A typed header, the zero pad to 8, then row blocks read in place.
    std::vector<Weight> row(40, kInfinity);
    row[2] = 0;
    row[9] = 1.5;
    row[10] = 2.5;
    Serializer out;
    out.write(VertexId{17});
    out.write(Weight{0.25});
    out.pad_to(sizeof(Weight));
    EXPECT_EQ(out.size(), 16u);
    encode_row_block(out, 2, row);
    encode_row_block(out, 2, row);
    const auto payload = out.take();

    Deserializer in(payload);
    EXPECT_EQ(in.read<VertexId>(), 17u);
    EXPECT_EQ(in.read<Weight>(), 0.25);
    std::vector<VertexId> arena;
    const auto blocks = decode_boundary_block_soa_views(payload, arena, in.consumed());
    ASSERT_EQ(blocks.size(), 2u);
    for (const BoundaryBlockSoaView& block : blocks) {
        EXPECT_EQ(block.vertex, 2u);
        EXPECT_EQ(std::vector<VertexId>(block.cols.begin(), block.cols.end()),
                  (std::vector<VertexId>{2, 9, 10}));
        EXPECT_EQ(std::vector<Weight>(block.dists.begin(), block.dists.end()),
                  (std::vector<Weight>{0, 1.5, 2.5}));
        // In place: the distances point into the payload.
        EXPECT_GE(reinterpret_cast<const std::byte*>(block.dists.data()), payload.data());
    }
}

}  // namespace
}  // namespace aa
