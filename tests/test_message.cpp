#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/distance_store.hpp"
#include "core/rc.hpp"
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
    std::vector<BoundaryBlock> blocks;
    blocks.push_back({7, {{1, 2.0}, {3, 4.5}}});
    blocks.push_back({9, {{0, 1.0}}});
    blocks.push_back({11, {}});
    const auto payload = encode_boundary_blocks(blocks);
    const auto back = decode_boundary_blocks(payload);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].vertex, 7u);
    ASSERT_EQ(back[0].entries.size(), 2u);
    EXPECT_EQ(back[0].entries[1].column, 3u);
    EXPECT_EQ(back[0].entries[1].distance, 4.5);
    EXPECT_EQ(back[1].vertex, 9u);
    EXPECT_TRUE(back[2].entries.empty());
}

TEST(BoundaryBlocks, EmptyPayload) {
    EXPECT_TRUE(decode_boundary_blocks({}).empty());
}

/// The AoS form of a row's finite entries, for the block encoder.
BoundaryBlock finite_block(VertexId vertex, const std::vector<Weight>& row) {
    BoundaryBlock block{vertex, {}};
    for (VertexId c = 0; c < row.size(); ++c) {
        if (row[c] < kInfinity) {
            block.entries.push_back({c, row[c]});
        }
    }
    return block;
}

TEST(BoundaryBlocks, RowEncoderMatchesBlockEncoder) {
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

    Serializer all;  // every row, concatenated
    std::vector<BoundaryBlock> blocks;
    for (const auto& [vertex, row] : rows) {
        const BoundaryBlock block = finite_block(vertex, row);
        Serializer one;
        EXPECT_EQ(encode_row_block(one, vertex, row), block.entries.size());
        EXPECT_EQ(one.take(), encode_boundary_blocks({block})) << "vertex " << vertex;
        encode_row_block(all, vertex, row);
        blocks.push_back(block);
    }
    EXPECT_EQ(all.take(), encode_boundary_blocks(blocks));
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
