// Randomized round-trip sweeps for the wire codecs — the closest thing to
// fuzzing that stays deterministic and offline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/rc.hpp"
#include "runtime/cluster.hpp"
#include "runtime/message.hpp"

namespace aa {
namespace {

namespace v2 {
constexpr std::uint8_t kDelta = 0;    // delta-varint column encoding tag
constexpr std::uint8_t kRunLen = 1;   // run-length column encoding tag
}  // namespace v2

/// One block as its (column, distance) entries, columns strictly ascending.
struct Block {
    VertexId vertex{0};
    std::vector<DvEntry> entries;
};

/// The payload the library's block encoder gives `blocks`: each added to a
/// BoundaryFanOut bound for rank 1 and posted from rank 0 of a two-rank
/// cluster.
std::vector<std::byte> encode_blocks(const std::vector<Block>& blocks) {
    Cluster cluster(2);
    BoundaryFanOut fan_out(2);
    const std::array<RankId, 1> to{1};
    std::vector<VertexId> cols;
    std::vector<Weight> dists;
    for (const Block& block : blocks) {
        cols.clear();
        dists.clear();
        for (const DvEntry& entry : block.entries) {
            cols.push_back(entry.column);
            dists.push_back(entry.distance);
        }
        fan_out.add(block.vertex, cols, dists, to);
    }
    if (fan_out.post(cluster, 0, MessageTag::BoundaryDvUpdate).messages == 0) {
        return {};
    }
    cluster.exchange();
    return *cluster.receive(1).at(0).payload;
}

/// Run the in-place view decoder over `payload` behind a typed header of
/// `header_end` bytes, for the death tests.
void decode(std::span<const std::byte> payload, std::size_t header_end = 0) {
    std::vector<VertexId> arena;
    (void)decode_boundary_block_soa_views(payload, arena, header_end);
}

/// A row message's typed header (edge broadcast, shard migration): the
/// blocks follow it.
constexpr std::size_t kHeaderBytes = sizeof(std::uint64_t);
Serializer after_header() {
    Serializer out;
    out.write(std::uint64_t{0x5A5A5A5A5A5A5A5A});
    return out;
}

class SerializerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializerFuzz, MixedScalarsRoundTrip) {
    Rng rng(GetParam());
    Serializer out;
    // Random interleaving of types, recorded for replay.
    std::vector<int> kinds;
    std::vector<std::uint32_t> u32s;
    std::vector<double> doubles;
    std::vector<std::vector<float>> spans;
    const int count = 1 + static_cast<int>(rng.uniform(64));
    for (int i = 0; i < count; ++i) {
        const int kind = static_cast<int>(rng.uniform(3));
        kinds.push_back(kind);
        if (kind == 0) {
            u32s.push_back(static_cast<std::uint32_t>(rng()));
            out.write(u32s.back());
        } else if (kind == 1) {
            doubles.push_back(rng.uniform(-1e9, 1e9));
            out.write(doubles.back());
        } else {
            std::vector<float> span(rng.uniform(20));
            for (auto& x : span) {
                x = static_cast<float>(rng.uniform01());
            }
            spans.push_back(span);
            out.write_span(std::span<const float>(spans.back()));
        }
    }

    const auto buffer = out.take();
    Deserializer in(buffer);
    std::size_t iu = 0;
    std::size_t id = 0;
    std::size_t is = 0;
    for (const int kind : kinds) {
        if (kind == 0) {
            ASSERT_EQ(in.read<std::uint32_t>(), u32s[iu++]);
        } else if (kind == 1) {
            ASSERT_EQ(in.read<double>(), doubles[id++]);
        } else {
            ASSERT_EQ(in.read_vector<float>(), spans[is++]);
        }
    }
    EXPECT_TRUE(in.exhausted());
}

/// ShrinkRaise payloads (core/edge_delete.cpp) reuse the codec with a
/// distinctive shape: columns are an ascending *subset* of the
/// affected-column set (dense runs where a whole region was invalidated,
/// gaps where entries survived) and distances carry the finite pre-raise
/// values.
std::vector<Block> raise_blocks(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Block> blocks;
    const std::size_t block_count = 1 + rng.uniform(8);
    for (std::size_t b = 0; b < block_count; ++b) {
        Block block;
        block.vertex = static_cast<VertexId>(rng.uniform(1u << 20));
        // Walk a sorted universe of affected columns, keeping ~half: long
        // kept stretches exercise RLE, skipped stretches the delta path.
        VertexId col = static_cast<VertexId>(rng.uniform(1u << 10));
        const std::size_t universe = rng.uniform(60);
        for (std::size_t e = 0; e < universe; ++e) {
            col += 1;
            if (rng.uniform01() < 0.55) {
                block.entries.push_back({col, rng.uniform(1.0, 1e4)});
            }
        }
        blocks.push_back(std::move(block));
    }
    return blocks;
}

/// Expect the view decoder to read `payload` back as exactly `blocks`.
void expect_decodes_to(std::span<const std::byte> payload,
                       const std::vector<Block>& blocks) {
    std::vector<VertexId> arena;
    const auto views = decode_boundary_block_soa_views(payload, arena);
    ASSERT_EQ(views.size(), blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        EXPECT_EQ(views[b].vertex, blocks[b].vertex);
        ASSERT_EQ(views[b].cols.size(), blocks[b].entries.size());
        ASSERT_EQ(views[b].dists.size(), blocks[b].entries.size());
        for (std::size_t e = 0; e < blocks[b].entries.size(); ++e) {
            EXPECT_EQ(views[b].cols[e], blocks[b].entries[e].column);
            EXPECT_EQ(views[b].dists[e], blocks[b].entries[e].distance);
        }
    }
}

/// Round-trip `blocks` through the encoder and the in-place view decoder,
/// which must reproduce every entry.
void expect_round_trip(const std::vector<Block>& blocks) {
    const auto payload = encode_blocks(blocks);
    expect_decodes_to(payload, blocks);
    // Every block occupies a multiple of 8 bytes (that is what keeps the f64
    // runs aligned under concatenation), so the whole payload must too.
    EXPECT_EQ(payload.size() % sizeof(Weight), 0u);
}

TEST_P(SerializerFuzz, BoundaryBlocksRoundTripV2) {
    // The format requires strictly-ascending columns per block (the post
    // kernel sorts). Mix dense consecutive runs with sparse gaps so both
    // column encodings (run-length and delta-varint) get exercised.
    Rng rng(GetParam() ^ 0x50A2);
    std::vector<Block> blocks;
    const std::size_t block_count = rng.uniform(16);
    for (std::size_t b = 0; b < block_count; ++b) {
        Block block;
        block.vertex = static_cast<VertexId>(rng.uniform(1u << 20));
        const std::size_t entries = rng.uniform(40);
        VertexId col = static_cast<VertexId>(rng.uniform(1u << 16));
        for (std::size_t e = 0; e < entries; ++e) {
            // 70% consecutive step, 30% random jump: dense prefixes favour
            // RLE, jumpy tails favour delta-varint.
            col += rng.uniform01() < 0.7
                       ? 1
                       : 1 + static_cast<VertexId>(rng.uniform(1u << 12));
            block.entries.push_back({col, rng.uniform(0.0, 1e6)});
        }
        blocks.push_back(std::move(block));
    }
    expect_round_trip(blocks);
    expect_round_trip(raise_blocks(GetParam() ^ 0x5A15E));
}

/// Hand-encode one block with a forced column encoding; the library encoder
/// picks the smaller of the two itself. Returns the column section's size.
std::size_t encode_forced(Serializer& out, const Block& block,
                          std::uint8_t encoding) {
    out.write(block.vertex);
    out.write_varint(block.entries.size());
    out.write(encoding);
    const std::size_t columns_begin = out.size();
    const auto& e = block.entries;
    if (encoding == v2::kDelta) {
        for (std::size_t i = 0; i < e.size(); ++i) {
            out.write_varint(i == 0 ? e[i].column : e[i].column - e[i - 1].column);
        }
    } else if (!e.empty()) {
        std::vector<std::pair<VertexId, VertexId>> runs;  // (first, last)
        for (const DvEntry& entry : e) {
            if (!runs.empty() && entry.column == runs.back().second + 1) {
                runs.back().second = entry.column;
            } else {
                runs.push_back({entry.column, entry.column});
            }
        }
        out.write_varint(runs.size());
        for (std::size_t r = 0; r < runs.size(); ++r) {
            out.write_varint(r == 0 ? runs[r].first : runs[r].first - runs[r - 1].second);
            out.write_varint(runs[r].second - runs[r].first);
        }
    }
    const std::size_t column_bytes = out.size() - columns_begin;
    out.pad_to(sizeof(Weight));
    for (const DvEntry& entry : e) {
        out.write(entry.distance);
    }
    return column_bytes;
}

TEST_P(SerializerFuzz, RaiseBlocksAgreeAcrossFormats) {
    // Every block can carry its columns in either column format —
    // delta-varints or run-length runs — and the decoder must read both to
    // the same entries. The encoder emits only the smaller one (ties go to
    // deltas), so on its own it would exercise each format only where that
    // one wins. Raise-shaped blocks mix long runs with gaps, so both formats
    // win somewhere.
    const std::vector<Block> blocks = raise_blocks(GetParam() ^ 0x5A15E);
    Serializer delta;
    Serializer rle;
    Serializer smaller;
    for (const Block& block : blocks) {
        Serializer one_delta;
        Serializer one_rle;
        const std::size_t delta_bytes = encode_forced(one_delta, block, v2::kDelta);
        const std::size_t rle_bytes = encode_forced(one_rle, block, v2::kRunLen);
        delta.write_bytes(one_delta.view());
        rle.write_bytes(one_rle.view());
        smaller.write_bytes(rle_bytes < delta_bytes ? one_rle.view() : one_delta.view());
    }
    const auto encoded = encode_blocks(blocks);
    const auto expected = smaller.take();
    EXPECT_TRUE(std::equal(encoded.begin(), encoded.end(), expected.begin(), expected.end()));
    for (const auto& payload : {delta.take(), rle.take()}) {
        expect_decodes_to(payload, blocks);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// Malformed-payload cases: the view decoder validates the structure before
// allocating anything, so a hostile length prefix must die on the contract
// check instead of attempting a huge allocation (or an in-place f64 view
// reaching past the payload).

TEST(BoundaryBlockValidation, OversizedEntryCountDies) {
    Serializer out;
    out.write(VertexId{7});
    out.write_varint(0xFFFFFFFFull);  // the largest count, with nothing behind it
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload), "entry count exceeds payload");
}

TEST(BoundaryBlockValidation, OverflowWrappingEntryCountDies) {
    // 2^32 + 1 does not fit the u32 count. Truncated to 32 bits it would read
    // as 1, and the one-entry block behind it would then parse; the varint
    // reader must reject it instead of wrapping.
    Serializer out;
    out.write(VertexId{1});
    out.write_varint((std::uint64_t{1} << 32) + 1);
    out.write(v2::kDelta);
    out.write_varint(4);
    out.pad_to(sizeof(Weight));
    out.write(1.5);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload), "varint overlong");
}

TEST(BoundaryBlockValidation, DeclaredCountPastPayloadEndDies) {
    // A structurally plausible block whose count is one larger than the
    // distances actually shipped: three columns, two values. The padding
    // makes the payload long enough to pass the bound taken right after the
    // count, so this dies on the exact check after the padding.
    Serializer out;
    out.write(VertexId{3});
    out.write_varint(3);
    out.write(v2::kDelta);
    out.write_varint(0);
    out.write_varint(1);
    out.write_varint(1);
    out.pad_to(sizeof(Weight));
    out.write(1.5);
    out.write(2.5);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload), "entry count exceeds payload");
}

TEST(BoundaryBlockValidation, TruncatedHeaderDies) {
    // A vertex and a zero count, then the stream ends before the
    // column-encoding byte.
    Serializer out;
    out.write(VertexId{7});
    out.write_varint(0);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload), "header truncated");
}

TEST(BoundaryBlockValidation, TrailingGarbageAfterValidBlockDies) {
    auto payload = encode_blocks({{9, {{4, 2.5}}}});
    payload.resize(payload.size() + 3);  // 3 stray bytes: not even a vertex
    EXPECT_DEATH(decode(payload), "header truncated");
}

// A row message (edge broadcast, shard migration) carries its blocks behind a
// typed header; the same hostile prefixes must die there too.

TEST(BoundaryBlockValidation, ViewDecoderOversizedEntryCountDies) {
    Serializer out = after_header();
    out.write(VertexId{7});
    out.write_varint(0xFFFFFFFFull);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload, kHeaderBytes), "entry count exceeds payload");
}

TEST(BoundaryBlockValidation, ViewDecoderTruncatedHeaderDies) {
    Serializer out = after_header();
    out.write(VertexId{7});
    out.write_varint(0);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload, kHeaderBytes), "header truncated");
}

// Hostile payloads. The decoder walks [u32 vertex][varint count]
// [u8 encoding][columns][zero pad to 8][count × f64] and must reject every
// malformed shape on a contract check — no UB, no allocation driven by a
// hostile count. Payloads are crafted byte-by-byte with the Serializer.

TEST(BoundaryBlockV2Validation, TruncatedCountVarintDies) {
    Serializer out;
    out.write(VertexId{7});
    out.write(std::uint8_t{0x80});  // continuation bit set, stream ends
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "varint truncated");
}

TEST(BoundaryBlockV2Validation, OverlongCountVarintDies) {
    // Six continuation bytes: a u32 varint never legitimately needs more
    // than five, so this must die before it can fabricate a huge count.
    Serializer out;
    out.write(VertexId{7});
    for (int i = 0; i < 5; ++i) {
        out.write(std::uint8_t{0x80});
    }
    out.write(std::uint8_t{0x01});
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "varint overlong");
}

TEST(BoundaryBlockV2Validation, DeclaredCountPastPayloadEndDies) {
    // A count of 2^28 with no bytes behind it: the division-based bound
    // check must reject it before any column materialization, so a hostile
    // count can never drive allocation.
    Serializer out;
    out.write(VertexId{3});
    out.write_varint(std::uint64_t{1} << 28);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "entry count exceeds payload");
}

TEST(BoundaryBlockV2Validation, NonMonotoneColumnDeltaDies) {
    // Delta 0 between columns encodes a duplicate/regressing column; the
    // format requires strictly-ascending columns (delta >= 1 after the
    // first).
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);          // two entries
    out.write(v2::kDelta);
    out.write_varint(9);          // first column, absolute
    out.write_varint(0);          // zero delta: non-monotone
    out.pad_to(sizeof(Weight));
    out.write(1.5);
    out.write(2.5);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "non-monotone column delta");
}

TEST(BoundaryBlockV2Validation, RunLengthSumMismatchDies) {
    // RLE runs must produce exactly `count` columns; one run of length 2
    // behind a declared count of 3 is a lie.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(3);          // declares three entries
    out.write(v2::kRunLen);
    out.write_varint(1);          // one run
    out.write_varint(4);          // run starts at column 4
    out.write_varint(1);          // run length 2 (encoded as len - 1)
    out.pad_to(sizeof(Weight));
    out.write(1.0);
    out.write(2.0);
    out.write(3.0);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "run length mismatch");
}

TEST(BoundaryBlockV2Validation, ZeroRunCountDies) {
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);
    out.write(v2::kRunLen);
    out.write_varint(0);          // zero runs behind a nonzero count
    out.pad_to(sizeof(Weight));
    out.write(1.0);
    out.write(2.0);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "run count invalid");
}

TEST(BoundaryBlockV2Validation, UnknownColumnEncodingDies) {
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(1);
    out.write(std::uint8_t{7});   // no such encoding
    out.write_varint(4);
    out.pad_to(sizeof(Weight));
    out.write(1.0);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "unknown column encoding");
}

TEST(BoundaryBlockV2Validation, NonZeroPaddingByteDies) {
    // Craft a valid one-entry block, then flip its single pad byte: the
    // decoder checks padding is zero so corruption cannot hide there.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(1);
    out.write(v2::kDelta);
    out.write_varint(4);          // 7 bytes so far: exactly one pad byte
    out.write(std::uint8_t{0xAB});
    out.write(1.0);
    const auto payload = out.take();
    ASSERT_EQ(payload.size() % sizeof(Weight), 0u);
    EXPECT_DEATH(decode(payload),
                 "padding corrupt");
}

TEST(BoundaryBlockV2Validation, PayloadEndingInsidePaddingDies) {
    // A five-byte column varint pushes the pad region past the hostile-count
    // bound (which only needs count * 8 bytes behind the count field), so the
    // stream can end mid-padding without tripping an earlier check.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(1);
    out.write(v2::kDelta);
    out.write_varint(0xFFFFFFFFull);  // 5-byte varint: columns end at byte 11
    out.write(std::uint8_t{0});       // 3 of the 5 pad bytes, then the stream
    out.write(std::uint8_t{0});       // stops short of the 16-byte boundary
    out.write(std::uint8_t{0});
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "padding truncated");
}

TEST(BoundaryBlockV2Validation, TruncatedHeaderDies) {
    const std::vector<std::byte> payload(sizeof(VertexId) - 1);
    EXPECT_DEATH(decode(payload),
                 "header truncated");
}

// Hostile shrink payloads: a raise message names the columns being pushed to
// infinity, so corruption there silently redirects the invalidation. Every
// malformed column stream must die on a contract check before ingest.

TEST(BoundaryBlockV2Validation, InflatedRunLengthOnRaiseColumnsDies) {
    // One RLE run claiming *more* columns than the declared entry count: the
    // run would invalidate columns the sender never named.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);          // declares two raised columns
    out.write(v2::kRunLen);
    out.write_varint(1);          // one run
    out.write_varint(10);         // starting at column 10
    out.write_varint(3);          // run length 4 (len - 1): two columns extra
    out.pad_to(sizeof(Weight));
    out.write(1.0);
    out.write(2.0);
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "run length mismatch");
}

TEST(BoundaryBlockV2Validation, ColumnVarintCorruptionCannotEatValueRun) {
    // Flip the second column delta into a continuation-bit run: the varint
    // reader would otherwise march through the padding and pre-raise values
    // reinterpreting them as column bytes. The overlong guard (a u32 varint
    // never needs more than five bytes) stops it first. A *short* payload
    // with the same corruption instead dies on the count bound before the
    // column walk even starts — both paths are pinned here.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);
    out.write(v2::kDelta);
    out.write_varint(4);               // first column, absolute
    for (int i = 0; i < 16; ++i) {     // "values" now look like continuations
        out.write(std::uint8_t{0x80});
    }
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "varint overlong");

    Serializer short_out;
    short_out.write(VertexId{5});
    short_out.write_varint(2);
    short_out.write(v2::kDelta);
    short_out.write_varint(4);
    short_out.write(std::uint8_t{0x80});  // stream ends mid-varint
    const auto short_payload = short_out.take();
    EXPECT_DEATH(decode(short_payload),
                 "entry count exceeds payload");
}

TEST(BoundaryBlockV2Validation, TruncatedPreRaiseValueRunDies) {
    // A structurally valid two-column block whose f64 value run was cut to
    // one value: the count-versus-payload bound must reject it up front.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);
    out.write(v2::kDelta);
    out.write_varint(4);
    out.write_varint(1);
    out.pad_to(sizeof(Weight));
    out.write(1.0);               // second value missing
    const auto payload = out.take();
    EXPECT_DEATH(decode(payload),
                 "entry count exceeds payload");
}

TEST(BoundaryBlockV2Validation, TrailingGarbageAfterValidBlockDies) {
    // Five stray zero bytes after a valid block parse as a vertex and a zero
    // count, then run out before the column-encoding byte.
    auto payload = encode_blocks({{9, {{4, 2.5}}}});
    payload.resize(payload.size() + 5);
    EXPECT_DEATH(decode(payload), "header truncated");
}

TEST(BoundaryBlockV2Validation, SoaViewDecoderRejectsTheSamePayloads) {
    // Behind a row message's typed header the walk is the same validation
    // pass; spot-check the two highest-risk cases (hostile count, truncated
    // varint) there.
    {
        Serializer out = after_header();
        out.write(VertexId{3});
        out.write_varint(std::uint64_t{1} << 28);
        const auto payload = out.take();
        EXPECT_DEATH(decode(payload, kHeaderBytes), "entry count exceeds payload");
    }
    {
        Serializer out = after_header();
        out.write(VertexId{7});
        out.write(std::uint8_t{0x80});
        const auto payload = out.take();
        EXPECT_DEATH(decode(payload, kHeaderBytes), "varint truncated");
    }
}

TEST(BoundaryPayloadError, ReportsWhatTheDecodersDieOn) {
    // The non-aborting check used for payloads from outside the process
    // (checkpointed in-flight messages): the view decoder's structural verdicts
    // as a message, plus range and sign checks against the column count.
    const auto error = [](const std::vector<std::byte>& payload) -> std::string {
        const char* message = boundary_payload_error(payload, 10);
        return message == nullptr ? "" : message;
    };
    const auto block = [](VertexId vertex, VertexId col, Weight d) {
        return encode_blocks({{vertex, {{1, 0.5}, {col, d}}}});
    };
    EXPECT_EQ(error(block(3, 7, 2.0)), "");
    EXPECT_EQ(error(block(3, 7, kInfinity)), "");
    EXPECT_EQ(error(block(10, 7, 2.0)), "boundary block vertex out of range");
    EXPECT_EQ(error(block(3, 10, 2.0)), "boundary block column out of range");
    EXPECT_EQ(error(block(3, 7, -1.0)), "boundary block distance negative or NaN");
    EXPECT_EQ(error(block(3, 7, std::numeric_limits<Weight>::quiet_NaN())),
              "boundary block distance negative or NaN");
    std::vector<std::byte> truncated = block(3, 7, 2.0);
    truncated.pop_back();
    EXPECT_NE(error(truncated), "");
    Serializer out;
    out.write(VertexId{7});
    out.write(std::uint8_t{0x80});
    EXPECT_EQ(error(out.take()), "varint truncated");
}

}  // namespace
}  // namespace aa
