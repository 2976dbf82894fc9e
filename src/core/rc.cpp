#include "core/rc.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <limits>
#include <numeric>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "runtime/message.hpp"

namespace aa {

namespace {

/// Column-encoding selectors (the u8 after the entry-count varint).
constexpr std::uint8_t kColDeltaVarint = 0;
constexpr std::uint8_t kColRunLength = 1;

/// A maximal run of consecutive columns: both column encodings are sized and
/// written from a block's runs.
struct ColumnRun {
    VertexId start;
    std::uint32_t length;
};

/// Per-thread run scratch of the encoders (rank closures encode
/// concurrently), cleared, its capacity reused across blocks.
std::vector<ColumnRun>& run_scratch() {
    static thread_local std::vector<ColumnRun> runs;
    runs.clear();
    return runs;
}

/// Write a block's [u32 vertex][varint count][u8 col_encoding][columns] and
/// the zero pad that 8-aligns its distance run. Both encodings spend a varint
/// per run on the gap to it (absolute for the first run, else from the
/// previous run's last column — always >= 2, or the runs would merge).
/// Delta-varints (encoding 0) then spend one byte (a delta of 1) per further
/// column; run-length (encoding 1) spends a leading varint run count and a
/// varint (length - 1) per run, so dense blocks — later RC rounds ship
/// near-full rows — collapse to a few bytes. The smaller encoding wins, ties
/// to delta-varints, so identical inputs always produce identical bytes.
void write_block_header(Serializer& out, VertexId vertex, std::size_t count,
                        std::span<const ColumnRun> runs) {
    const auto gap = [&](std::size_t i) -> std::uint32_t {
        return i == 0 ? runs[0].start
                      : runs[i].start - runs[i - 1].start - runs[i - 1].length + 1;
    };
    std::size_t delta_bytes = 0;
    std::size_t rle_bytes = varint_size(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        delta_bytes += varint_size(gap(i)) + runs[i].length - 1;
        rle_bytes += varint_size(gap(i)) + varint_size(runs[i].length - 1);
    }
    const bool rle = count > 0 && rle_bytes < delta_bytes;
    out.write(vertex);
    out.write_varint(count);
    out.write(rle ? kColRunLength : kColDeltaVarint);
    if (rle) {
        out.write_varint(runs.size());
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
        out.write_varint(gap(i));
        if (rle) {
            out.write_varint(runs[i].length - 1);
        } else {
            for (std::uint32_t k = 1; k < runs[i].length; ++k) {
                out.write_varint(1);
            }
        }
    }
    out.pad_to(sizeof(Weight));
}

/// Encode one block. `cols` must be strictly ascending (asserted). The
/// block's size is a multiple of 8 — every block in a concatenated payload
/// therefore starts 8-aligned and its f64 run can be read in place.
void encode_block(Serializer& out, VertexId vertex, std::span<const VertexId> cols,
                  std::span<const Weight> dists) {
    AA_ASSERT(cols.size() == dists.size());
    std::vector<ColumnRun>& runs = run_scratch();
    for (std::size_t i = 0; i < cols.size(); ++i) {
        AA_ASSERT_MSG(i == 0 || cols[i] > cols[i - 1],
                      "boundary block columns not ascending");
        if (i == 0 || cols[i] != cols[i - 1] + 1) {
            runs.push_back({cols[i], 0});
        }
        ++runs.back().length;
    }
    write_block_header(out, vertex, cols.size(), runs);
    out.write_bytes(std::as_bytes(dists));
}

/// Structural parse result of a boundary payload: nullptr on success, else
/// the greppable failure message (see rc.hpp). The view decoder asserts on
/// it for in-process payloads; boundary_payload_error() hands it to the
/// caller.
using ParseError = const char*;

#define AA_PARSE_CHECK(cond, message) \
    do {                              \
        if (!(cond)) {                \
            return (message);         \
        }                             \
    } while (0)
#define AA_PARSE_TRY(expr)                      \
    do {                                        \
        if (const ParseError error_ = (expr)) { \
            return error_;                      \
        }                                       \
    } while (0)

/// Decode the column section of one block into `out` (appending exactly
/// `count` strictly ascending columns) and advance `cursor` past it.
ParseError decode_columns(std::span<const std::byte> payload, std::size_t& cursor,
                             std::uint32_t count, std::uint8_t encoding,
                             std::vector<VertexId>& out) {
    std::uint32_t value = 0;
    if (encoding == kColDeltaVarint) {
        AA_PARSE_TRY(try_read_varint_u32(payload, cursor, value));
        std::uint64_t col = value;
        out.push_back(static_cast<VertexId>(col));
        for (std::uint32_t i = 1; i < count; ++i) {
            AA_PARSE_TRY(try_read_varint_u32(payload, cursor, value));
            AA_PARSE_CHECK(value >= 1, "boundary block non-monotone column delta");
            col += value;
            AA_PARSE_CHECK(col <= std::numeric_limits<VertexId>::max(),
                           "boundary block column overflow");
            out.push_back(static_cast<VertexId>(col));
        }
        return nullptr;
    }
    AA_PARSE_TRY(try_read_varint_u32(payload, cursor, value));
    const std::uint32_t num_runs = value;
    AA_PARSE_CHECK(num_runs >= 1 && num_runs <= count,
                   "boundary block run count invalid");
    std::uint64_t produced = 0;
    std::uint64_t prev_end = 0;
    for (std::uint32_t r = 0; r < num_runs; ++r) {
        AA_PARSE_TRY(try_read_varint_u32(payload, cursor, value));
        std::uint64_t start = value;
        if (r != 0) {
            AA_PARSE_CHECK(value >= 1, "boundary block non-monotone column delta");
            start = prev_end + value;
        }
        AA_PARSE_TRY(try_read_varint_u32(payload, cursor, value));
        const std::uint64_t len = static_cast<std::uint64_t>(value) + 1;
        AA_PARSE_CHECK(produced + len <= count, "boundary block run length mismatch");
        const std::uint64_t end = start + len - 1;
        AA_PARSE_CHECK(end <= std::numeric_limits<VertexId>::max(),
                       "boundary block column overflow");
        const std::size_t at = out.size();
        out.resize(at + len);
        std::iota(out.begin() + static_cast<std::ptrdiff_t>(at), out.end(),
                  static_cast<VertexId>(start));
        produced += len;
        prev_end = end;
    }
    AA_PARSE_CHECK(produced == count, "boundary block run length mismatch");
    return nullptr;
}

/// One parsed block, as offsets: the column arena may still reallocate
/// while blocks stream in, so spans are formed only once the walk is done.
struct RawSoaBlock {
    VertexId vertex;
    std::size_t col_start;
    std::uint32_t count;
    std::size_t dist_offset;
};

/// The structural walk, appending every block's columns to `column_arena`
/// and its offsets to `raw`. Any hostile count is bounded before columns are
/// materialized: `count` entries need count * 8 distance bytes later in the
/// payload, so a block can never append more than remaining/8 columns before
/// the exact check below rejects it — total allocation stays O(payload size),
/// and a walk appends at most payload.size() / 8 columns in all.
ParseError walk_blocks(std::span<const std::byte> payload,
                          std::vector<VertexId>& column_arena,
                          std::vector<RawSoaBlock>& raw) {
    std::size_t cursor = 0;
    while (cursor < payload.size()) {
        AA_PARSE_CHECK(payload.size() - cursor >= sizeof(VertexId),
                       "boundary block header truncated");
        VertexId vertex;
        std::memcpy(&vertex, payload.data() + cursor, sizeof(vertex));
        cursor += sizeof(vertex);
        std::uint32_t count = 0;
        AA_PARSE_TRY(try_read_varint_u32(payload, cursor, count));
        AA_PARSE_CHECK(count <= (payload.size() - cursor) / sizeof(Weight),
                       "boundary block entry count exceeds payload");
        AA_PARSE_CHECK(cursor < payload.size(), "boundary block header truncated");
        const auto encoding = static_cast<std::uint8_t>(payload[cursor++]);
        AA_PARSE_CHECK(encoding == kColDeltaVarint || encoding == kColRunLength,
                       "boundary block unknown column encoding");
        const std::size_t col_start = column_arena.size();
        if (count > 0) {
            AA_PARSE_TRY(
                decode_columns(payload, cursor, count, encoding, column_arena));
        }
        while ((cursor & (sizeof(Weight) - 1)) != 0) {
            AA_PARSE_CHECK(cursor < payload.size(), "boundary block padding truncated");
            AA_PARSE_CHECK(payload[cursor] == std::byte{0},
                           "boundary block padding corrupt");
            ++cursor;
        }
        AA_PARSE_CHECK(count <= (payload.size() - cursor) / sizeof(Weight),
                       "boundary block entry count exceeds payload");
        raw.push_back({vertex, col_start, count, cursor});
        cursor += static_cast<std::size_t>(count) * sizeof(Weight);
    }
    return nullptr;
}

#undef AA_PARSE_TRY
#undef AA_PARSE_CHECK

/// The zero-copy view of one walked block: columns in `column_arena`,
/// distances in place in `payload`.
BoundaryBlockSoaView soa_view(std::span<const std::byte> payload,
                              const std::vector<VertexId>& column_arena,
                              const RawSoaBlock& block) {
    const std::byte* dist_bytes = payload.data() + block.dist_offset;
    // In-place f64 view: the encoder's 8-byte block quantum plus the
    // allocator's >= 8-byte base alignment make this cast safe; asserted
    // because a caller handing us an offset sub-span would break it.
    AA_ASSERT((reinterpret_cast<std::uintptr_t>(dist_bytes) &
               (alignof(Weight) - 1)) == 0);
    return {block.vertex,
            {column_arena.data() + block.col_start, block.count},
            {reinterpret_cast<const Weight*>(dist_bytes), block.count}};
}

}  // namespace

std::size_t encode_row_block(Serializer& out, VertexId vertex,
                             std::span<const Weight> row) {
    std::vector<ColumnRun>& runs = run_scratch();
    std::size_t count = 0;
    for (std::size_t col = 0; col < row.size();) {
        const std::size_t start = col;
        while (col < row.size() && row[col] < kInfinity) {
            ++col;
        }
        if (col > start) {
            runs.push_back({static_cast<VertexId>(start),
                            static_cast<std::uint32_t>(col - start)});
            count += col - start;
        }
        while (col < row.size() && !(row[col] < kInfinity)) {
            ++col;
        }
    }
    write_block_header(out, vertex, count, runs);
    for (const ColumnRun& run : runs) {
        out.write_bytes(std::as_bytes(row.subspan(run.start, run.length)));
    }
    return count;
}

std::vector<BoundaryBlockSoaView> decode_boundary_block_soa_views(
    std::span<const std::byte> payload, std::vector<VertexId>& column_arena,
    std::size_t header_end) {
    const std::size_t start = (header_end + sizeof(Weight) - 1) & ~(sizeof(Weight) - 1);
    AA_ASSERT_MSG(start <= payload.size(), "row payload header padding truncated");
    for (std::size_t i = header_end; i < start; ++i) {
        AA_ASSERT_MSG(payload[i] == std::byte{0}, "row payload header padding corrupt");
    }
    payload = payload.subspan(start);
    std::vector<RawSoaBlock> raw;
    column_arena.clear();
    column_arena.reserve(payload.size() / sizeof(Weight));  // the walk's bound
    const ParseError error = walk_blocks(payload, column_arena, raw);
    AA_ASSERT_MSG(error == nullptr, error);
    std::vector<BoundaryBlockSoaView> views;
    views.reserve(raw.size());
    for (const RawSoaBlock& block : raw) {
        views.push_back(soa_view(payload, column_arena, block));
    }
    return views;
}

const char* boundary_payload_error(std::span<const std::byte> payload,
                                   std::size_t num_columns) {
    std::vector<VertexId> arena;
    std::vector<RawSoaBlock> raw;
    if (const ParseError error = walk_blocks(payload, arena, raw)) {
        return error;
    }
    for (const RawSoaBlock& block : raw) {
        if (block.vertex >= num_columns) {
            return "boundary block vertex out of range";
        }
        // Columns are strictly ascending, so the last one bounds them all.
        if (block.count > 0 && arena[block.col_start + block.count - 1] >= num_columns) {
            return "boundary block column out of range";
        }
        for (std::uint32_t i = 0; i < block.count; ++i) {
            Weight d;
            std::memcpy(&d, payload.data() + block.dist_offset + i * sizeof(Weight),
                        sizeof(d));
            if (!(d >= 0)) {  // NaN fails too
                return "boundary block distance negative or NaN";
            }
        }
    }
    return nullptr;
}

BoundaryFanOut::BoundaryFanOut(std::size_t num_ranks) : routes_(num_ranks) {}

void BoundaryFanOut::add(VertexId vertex, std::span<const VertexId> cols,
                         std::span<const Weight> dists,
                         std::span<const RankId> destinations) {
    // Every block is a multiple of 8 bytes, so each one starts 8-aligned in
    // the shared buffer and pads exactly as it would encoded alone.
    const std::size_t offset = blocks_.size();
    encode_block(blocks_, vertex, cols, dists);
    const BlockRef block{offset, blocks_.size() - offset};
    for (const RankId dest : destinations) {
        routes_[dest].push_back(block);
    }
    entries_ += cols.size() * destinations.size();
}

BoundaryFanOut::Posted BoundaryFanOut::post(Cluster& cluster, RankId from,
                                            MessageTag tag) {
    Posted posted;
    const auto encoded = blocks_.view();
    for (RankId dest = 0; dest < routes_.size(); ++dest) {
        if (routes_[dest].empty()) {
            continue;
        }
        AA_ASSERT_MSG(dest != from, "boundary block addressed to its own rank");
        // Exact-size payload: reserved once at its final size, so the message
        // that outlives this call holds no growth slack.
        std::size_t size = 0;
        for (const BlockRef& block : routes_[dest]) {
            size += block.size;
        }
        std::vector<std::byte> payload;
        payload.reserve(size);
        for (const BlockRef& block : routes_[dest]) {
            const auto bytes = encoded.subspan(block.offset, block.size);
            payload.insert(payload.end(), bytes.begin(), bytes.end());
        }
        ++posted.messages;
        posted.bytes += payload.size();
        cluster.send(from, dest, tag, std::move(payload));
        routes_[dest].clear();
    }
    posted.entries = entries_;
    entries_ = 0;
    blocks_.clear();
    return posted;
}

double rc_post_boundary_updates(const LocalSubgraph& sg, DistanceStore& store,
                                Cluster& cluster, BoundaryWireFormat /*format*/,
                                RcPostProfile* profile,
                                std::span<const LocalId> row_order) {
    AA_ASSERT_MSG(row_order.empty() || row_order.size() == sg.num_local(),
                  "refine plan must be a permutation of all local rows");
    double ops = 0;
    // Each sending row's block is encoded exactly once and its bytes shared
    // by every destination payload (see BoundaryFanOut).
    BoundaryFanOut fan_out(cluster.num_ranks());
    std::vector<VertexId> sorted_cols;  // reused: drained columns in column order
    std::vector<Weight> dists;          // reused: their finite distances

    for (std::size_t i = 0; i < sg.num_local(); ++i) {
        // A refine plan visits rows in planner priority order; the empty
        // default is the historical ascending sweep (see rc.hpp).
        const LocalId l =
            row_order.empty() ? static_cast<LocalId>(i) : row_order[i];
        if (!store.has_send(l)) {
            continue;
        }
        store.take_send(l, sorted_cols);
        const auto destinations = sg.neighbor_ranks(l);
        ops += static_cast<double>(sorted_cols.size());
        if (profile != nullptr) {
            ++profile->rows_drained;
        }
        if (destinations.empty()) {
            continue;  // interior row: changes have no external audience
        }
        // The drain is ascending and duplicate-free, which makes the block
        // bytes a pure function of the drained set (the delta encoding
        // requires it).
        // Non-finite entries are dropped at drain time: an invalidated column
        // may sit in the send set (the deletion path re-dirties what it
        // raises), but infinity relaxes nothing remotely — raises travel as
        // explicit ShrinkRaise messages, never as boundary-DV entries. The
        // filter and the distance gather share one ascending pass over the
        // row, compacting the kept columns in place.
        const auto row = store.row(l);
        dists.clear();
        std::size_t kept = 0;
        for (const VertexId col : sorted_cols) {
            if (row[col] < kInfinity) {
                sorted_cols[kept++] = col;
                dists.push_back(row[col]);
            }
        }
        sorted_cols.resize(kept);
        if (kept == 0) {
            continue;
        }
        fan_out.add(sg.global_id(l), sorted_cols, dists, destinations);
        // Serialization cost is charged once per block, not once per
        // destination: the encoded bytes are shared (see rc.hpp).
        ops += static_cast<double>(kept);
        if (profile != nullptr) {
            ++profile->blocks;
            profile->entries += kept;
        }
    }

    const auto posted = fan_out.post(cluster, sg.rank(), MessageTag::BoundaryDvUpdate);
    if (profile != nullptr) {
        profile->messages += posted.messages;
        profile->bytes += posted.bytes;
    }
    return ops;
}

std::size_t adaptive_rc_ingest_window_bytes(std::size_t live_ranks) {
    long llc = -1;
#if defined(_SC_LEVEL3_CACHE_SIZE)
    llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
    if (llc <= 0) {
        llc = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
    }
#endif
    const std::size_t cache =
        llc > 0 ? static_cast<std::size_t>(llc) : (std::size_t{32} << 20);
    const std::size_t share = cache / std::max<std::size_t>(live_ranks, 1);
    return std::clamp(share, std::size_t{4} << 20, std::size_t{128} << 20);
}

namespace {

/// One relaxation work item: apply block `block` to local row `row` through
/// a cut edge of weight `w`.
struct IngestPair {
    LocalId row;
    std::uint32_t block;
    Weight w;
};

}  // namespace

double rc_ingest_updates(const LocalSubgraph& sg, DistanceStore& store,
                         const std::vector<Message>& inbox, BoundaryWireFormat /*format*/,
                         ThreadPool* pool, std::size_t parallel_grain,
                         std::size_t window_bytes, RcIngestProfile* profile) {
    // Pass 1: decode every received block in place (zero copy — distance
    // spans point into the message payloads, which outlive this call; column
    // spans point into one arena shared by all messages) and flatten the
    // work into (row, block, weight) pairs, one per incident cut edge, in
    // block-arrival order. Every decoded column carries an 8-byte distance
    // in its payload, so Σ payload bytes / 8 columns is an exact bound on the
    // arena: reserved up front, it never reallocates, and the column spans
    // can be formed as each message is walked.
    double ops = 0;
    std::size_t payload_bytes = 0;
    for (const Message& message : inbox) {
        if (message.tag == MessageTag::BoundaryDvUpdate) {
            payload_bytes += message.bytes().size();
        }
    }
    std::vector<VertexId> arena;
    arena.reserve(payload_bytes / sizeof(Weight));
    const VertexId* const arena_base = arena.data();
    std::vector<RawSoaBlock> raw;              // one message's walked blocks
    std::vector<BoundaryBlockSoaView> blocks;  // blocks with a local audience
    std::vector<IngestPair> pairs;
    for (const Message& message : inbox) {
        if (message.tag != MessageTag::BoundaryDvUpdate) {
            continue;
        }
        raw.clear();
        const ParseError error = walk_blocks(message.bytes(), arena, raw);
        AA_ASSERT_MSG(error == nullptr, error);
        AA_ASSERT(arena.data() == arena_base);  // the bound held: no reallocation
        for (const RawSoaBlock& walked : raw) {
            const BoundaryBlockSoaView block = soa_view(message.bytes(), arena, walked);
            const auto locals = sg.external_neighbors(block.vertex);
            const std::size_t entry_count = block.cols.size();
            if (locals.empty() || entry_count == 0) {
                continue;
            }
            ops += static_cast<double>(entry_count) * static_cast<double>(locals.size());
            if (profile != nullptr) {
                ++profile->blocks;
                profile->entries += entry_count;
                profile->relax_attempts += entry_count * locals.size();
            }
            const auto index = static_cast<std::uint32_t>(blocks.size());
            for (const auto& [local, w] : locals) {
                pairs.push_back({local, index, w});
            }
            blocks.push_back(block);
        }
    }
    if (pairs.empty()) {
        return ops;
    }
    const auto relax_block = [&](const IngestPair& pr) {
        const BoundaryBlockSoaView& b = blocks[pr.block];
        store.relax_batch_soa(pr.row, b.cols, b.dists, pr.w);
    };

    // Pass 2: process the pairs in payload *windows*. A round's inbox can be
    // far larger than the cache, and the blocks incident to one row arrive
    // scattered across it — sweeping in raw arrival order re-streams every
    // destination row from DRAM once per incident block. Instead, take blocks
    // (in arrival order) until their entries total ~kRcIngestWindowBytes,
    // bucket that window's pairs stably by destination row, and sweep each
    // row's pairs back to back: the row's cache lines are loaded once per
    // window instead of once per block, and the window's payload stays
    // LLC-resident across all of its sweeps. Relaxation outcomes are
    // bit-identical to a per-element relax() loop in arrival order: rows are
    // independent, and within one row the stable bucketing preserves
    // block-arrival order, so every (row, column) sees the same candidates in
    // the same order.
    const std::size_t num_rows = sg.num_local();
    std::vector<std::uint32_t> bucket(num_rows + 1);
    std::vector<IngestPair> by_row;        // window pairs grouped by row
    std::vector<std::uint32_t> group_start;  // pair index where each row group begins
    std::size_t p = 0;
    while (p < pairs.size()) {
        const std::size_t begin = p;
        std::size_t accumulated_bytes = 0;
        std::size_t window_attempts = 0;
        std::uint32_t last_block = std::numeric_limits<std::uint32_t>::max();
        while (p < pairs.size()) {
            const IngestPair& pr = pairs[p];
            if (pr.block != last_block) {
                // Pairs of one block are consecutive, so windows split only
                // at block boundaries (a block is never torn across windows,
                // and a window always takes at least one block even when a
                // single block exceeds window_bytes). Windows are measured in
                // decoded entry footprint, not wire bytes.
                const std::size_t bytes = blocks[pr.block].cols.size() * sizeof(DvEntry);
                if (accumulated_bytes != 0 && accumulated_bytes + bytes > window_bytes) {
                    break;
                }
                accumulated_bytes += bytes;
                last_block = pr.block;
            }
            window_attempts += blocks[pr.block].cols.size();
            ++p;
        }

        if (profile != nullptr) {
            ++profile->windows;
        }

        // Stable counting sort of the window's pairs by destination row.
        const std::span<const IngestPair> window(pairs.data() + begin, p - begin);
        std::fill(bucket.begin(), bucket.end(), 0);
        for (const IngestPair& pr : window) {
            ++bucket[pr.row + 1];
        }
        for (std::size_t r = 0; r < num_rows; ++r) {
            bucket[r + 1] += bucket[r];
        }
        by_row.resize(window.size());
        for (const IngestPair& pr : window) {
            by_row[bucket[pr.row]++] = pr;
        }

        group_start.clear();
        for (std::size_t i = 0; i < by_row.size(); ++i) {
            if (i == 0 || by_row[i].row != by_row[i - 1].row) {
                group_start.push_back(static_cast<std::uint32_t>(i));
            }
        }
        group_start.push_back(static_cast<std::uint32_t>(by_row.size()));

        // Each group is one destination row — groups are pairwise disjoint,
        // so they can fan out to the pool with the worklist merge inside the
        // store as the only shared state per row.
        const std::size_t num_groups = group_start.size() - 1;
        if (pool != nullptr && pool->num_threads() > 1 && num_groups > 1 &&
            window_attempts >= parallel_grain) {
            pool->parallel_for(0, num_groups, [&](std::size_t g) {
                for (std::uint32_t i = group_start[g]; i < group_start[g + 1]; ++i) {
                    relax_block(by_row[i]);
                }
            });
        } else {
            for (std::size_t g = 0; g < num_groups; ++g) {
                for (std::uint32_t i = group_start[g]; i < group_start[g + 1]; ++i) {
                    relax_block(by_row[i]);
                }
            }
        }
    }
    return ops;
}

double rc_propagate_local(const LocalSubgraph& sg, DistanceStore& store,
                          ThreadPool* pool, std::size_t parallel_grain,
                          RcPropagateProfile* profile, std::size_t tile_cols,
                          std::span<const LocalId> seed_order, double max_ops) {
    AA_ASSERT_MSG(seed_order.empty() || seed_order.size() == sg.num_local(),
                  "refine plan must be a permutation of all local rows");
    AA_ASSERT_MSG(tile_cols > 0, "propagate tile width must be positive");
    double ops = 0;
    std::deque<LocalId> worklist;
    std::vector<std::uint8_t> queued(sg.num_local(), 0);
    for (std::size_t i = 0; i < sg.num_local(); ++i) {
        const LocalId l =
            seed_order.empty() ? static_cast<LocalId>(i) : seed_order[i];
        if (store.has_prop(l)) {
            worklist.push_back(l);
            queued[l] = 1;
        }
    }

    struct Target {
        LocalId v;
        Weight w;
    };
    std::vector<Target> targets;       // reused: local neighbour rows
    std::vector<std::uint8_t> improved;  // reused: per-target improvement flags
    std::vector<VertexId> sorted_cols;   // reused: drained columns in column order
    std::vector<Weight> gathered;        // reused: contiguous drained source values

    while (!worklist.empty()) {
        // Budget check *before* the pop: an exhausted call leaves every
        // undrained row marked, so nothing is lost — later steps finish the
        // drain (see rc.hpp). ops starts at 0 < max_ops, so at least one
        // marked row always drains per call.
        if (max_ops > 0 && ops >= max_ops) {
            break;
        }
        const LocalId u = worklist.front();
        worklist.pop_front();
        queued[u] = 0;
        store.take_prop(u, sorted_cols);
        if (sorted_cols.empty()) {
            continue;
        }
        if (profile != nullptr) {
            ++profile->rows_drained;
        }
        // The drain is ascending, so the sweep walks both the source and the
        // target row forward instead of scattering.
        const auto row_u = store.row(u);
        targets.clear();
        for (const Neighbor& nb : sg.neighbors(u)) {
            if (!sg.owns(nb.to)) {
                continue;  // cross-rank propagation happens via RC messages
            }
            targets.push_back({sg.local_id(nb.to), nb.weight});
        }
        if (targets.empty()) {
            continue;
        }
        ops += static_cast<double>(sorted_cols.size()) *
               static_cast<double>(targets.size());
        if (profile != nullptr) {
            profile->relax_attempts += sorted_cols.size() * targets.size();
        }

        // Fan the sweep out only when the work dwarfs the dispatch cost.
        // Neighbour rows are pairwise distinct (simple graph) and distinct
        // from u, so each task owns its destination row exclusively; the
        // worklist merge below is the only synchronization point.
        const bool fan_out = pool != nullptr && pool->num_threads() > 1 &&
                             targets.size() > 1 &&
                             sorted_cols.size() * targets.size() >= parallel_grain;

        // Row-blocked sweep: gather the drained source values once into a
        // contiguous buffer, then sweep each tile through every neighbour
        // while the tile is still cache-hot (see kRcPropagateTileCols in
        // rc.hpp for why this cannot change results). The parallel branch
        // sweeps each neighbour's full span instead — threads share the
        // read-only gathered buffer and tiling across tasks would only
        // multiply dispatches.
        gathered.resize(sorted_cols.size());
        for (std::size_t i = 0; i < sorted_cols.size(); ++i) {
            gathered[i] = row_u[sorted_cols[i]];
        }
        const std::span<const VertexId> all_cols(sorted_cols);
        const std::span<const Weight> all_dists(gathered);
        improved.assign(targets.size(), 0);
        if (fan_out) {
            pool->parallel_for(0, targets.size(), [&](std::size_t i) {
                improved[i] = store.relax_batch_soa(targets[i].v, all_cols,
                                                    all_dists, targets[i].w) > 0
                                  ? 1
                                  : 0;
            });
        } else {
            for (std::size_t tile = 0; tile < all_cols.size(); tile += tile_cols) {
                const std::size_t n = std::min(tile_cols, all_cols.size() - tile);
                const auto tile_colspan = all_cols.subspan(tile, n);
                const auto tile_dists = all_dists.subspan(tile, n);
                for (std::size_t i = 0; i < targets.size(); ++i) {
                    if (store.relax_batch_soa(targets[i].v, tile_colspan,
                                              tile_dists, targets[i].w) > 0) {
                        improved[i] = 1;
                    }
                }
            }
        }
        for (std::size_t i = 0; i < targets.size(); ++i) {
            const LocalId v = targets[i].v;
            if (improved[i] != 0 && queued[v] == 0) {
                worklist.push_back(v);
                queued[v] = 1;
            }
        }
    }
    return ops;
}

}  // namespace aa
