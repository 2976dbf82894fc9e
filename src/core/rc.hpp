// Recombination (RC) step primitives.
//
// One RC step (paper Figure 1) is:
//   1. every rank packages the changed entries of its boundary-vertex DVs
//      into one personalized message per neighbouring rank,
//   2. a personalized all-to-all exchange delivers them (priced by the
//      cluster's LogP model under the serialized schedule),
//   3. every rank relaxes its local vertices through the incident cut edges
//      using the received external boundary DVs, then propagates the
//      improvements within its sub-graph to a local fixpoint (the paper's
//      Floyd-Warshall-style local DV refresh, realized as worklist
//      Bellman-Ford relaxations — same fixpoint, incremental cost).
//
// The engine sequences these per rank; the functions here are the per-rank
// kernels and each returns the abstract op count it executed.
//
// Execution modes. The kernels run *batched*: whole DV-entry spans are
// relaxed through DistanceStore::relax_batch_soa instead of per-element
// relax() calls, and, when a ThreadPool is supplied, the row
// sweeps run in parallel (rows are written by exactly one task each; the
// worklist merge is the only synchronization point). Each phase has exactly
// one sweep; the per-element reference the kernel-equivalence tests compare
// against lives in tests/test_rc_kernels.cpp. Batched and threaded runs
// execute the same relaxation schedule as that reference, so they produce
// bit-identical distance matrices, identical dirty-set contents, and
// identical op counts — threading changes host wall-clock time only, never
// the simulated LogP accounting.
//
// Op accounting (what each kernel charges to the simulated clock):
//   * rc_post_boundary_updates — one op per drained send column (drain +
//     pack; invalidated — non-finite — columns are drained and charged but
//     never serialized: infinity relaxes nothing remotely, and distance
//     raises travel as explicit ShrinkRaise messages in the deletion path,
//     see core/edge_delete.cpp), plus one op per serialized DV entry *per
//     block*, charged once
//     even when the block is replicated to several destination ranks: the
//     block is encoded once and the bytes are shared across the outgoing
//     messages, so charging per destination would double-count work the
//     implementation (and an MPI rank) does not do. The per-message wire
//     cost is priced separately by the LogP model from the payload bytes.
//   * rc_ingest_updates — one op per received DV entry per incident cut
//     edge (each is one relaxation attempt).
//   * rc_propagate_local — one op per drained column per local neighbour of
//     the drained row (again one attempted relaxation each).
//
// The wire format (BoundaryWireFormat in distance_store.hpp) is one layout:
// struct-of-arrays blocks of delta/run-length varint columns plus an aligned
// f64 run. Ops are charged per drained column and per serialized entry per
// block, never per byte; the byte count goes to the LogP model. The post
// kernel canonicalizes each block's columns into ascending order (columns
// within a block are unique, so ordering cannot change any relaxation
// outcome, op count, or dirty-set content — it only fixes the within-block
// entry order and makes payload bytes a pure function of the drained set),
// and the ingest window accounting below measures blocks by their *decoded*
// footprint (entries x sizeof(DvEntry)), not their wire bytes.
#pragma once

#include "core/distance_store.hpp"
#include "core/subgraph.hpp"
#include "runtime/cluster.hpp"
#include "runtime/thread_pool.hpp"

namespace aa {

/// Optional kernel-level telemetry, filled when the caller passes a profile
/// (the engine does so only while its MetricsRegistry is enabled). Counters
/// are incremented once per block / window / drained row — never inside the
/// relaxation loops — so profiling cannot perturb kernel-equivalence or the
/// op accounting above.
struct RcPostProfile {
    std::size_t rows_drained{0};  // send-lists drained (incl. interior rows)
    std::size_t blocks{0};        // boundary blocks encoded
    std::size_t entries{0};       // DV entries serialized (once per block)
    std::size_t messages{0};      // personalized messages posted
    std::size_t bytes{0};         // payload bytes posted (replicas counted)
};
struct RcIngestProfile {
    std::size_t blocks{0};          // received blocks with a local audience
    std::size_t entries{0};         // wire entries in those blocks
    std::size_t windows{0};         // payload windows processed
    std::size_t relax_attempts{0};  // (row, entry) relaxation attempts
};
struct RcPropagateProfile {
    std::size_t rows_drained{0};    // worklist pops with a non-empty drain
    std::size_t relax_attempts{0};  // drained columns x neighbour rows
};

/// Phase 1: drain every row's send-list and post one BoundaryDvUpdate message
/// per neighbouring rank that shares a cut edge with the row's vertex. Each
/// row's block is serialized once — columns in the ascending order
/// DistanceStore::take_send drains them in — and the encoded bytes are
/// appended to every destination payload through BoundaryFanOut
/// (see the accounting note above). Send-lists of interior rows are drained
/// too (they have no audience; a row that later becomes boundary is
/// re-marked in full by the edge-addition path).
///
/// `row_order` (the refine planner's output, see refine/planner.hpp) makes
/// the drain visit rows in that order instead of ascending LocalId; it must
/// be a permutation of all local rows when non-empty. Reordering the drain
/// changes which blocks land earlier in each destination payload — and
/// therefore the receivers' relaxation order — never the drained set, the
/// op count, or any converged value. An empty order is the historical
/// ascending sweep, byte-identical to the pre-refine kernel.
/// `format` names the wire format; V2Soa is the only one.
/// Returns ops.
double rc_post_boundary_updates(const LocalSubgraph& sg, DistanceStore& store,
                                Cluster& cluster,
                                BoundaryWireFormat format = BoundaryWireFormat::V2Soa,
                                RcPostProfile* profile = nullptr,
                                std::span<const LocalId> row_order = {});

/// Minimum relaxation-attempt count per payload window before the window's
/// row groups fan out to the pool: below this, parallel_for dispatch latency
/// outweighs the sweeps. Tests force the parallel branch by passing 1.
inline constexpr std::size_t kRcIngestParallelGrain = 8192;

/// Default payload-window size for the ingest kernel, chosen to keep one
/// window of decoded wire entries resident in the last-level cache while its
/// destination rows are swept. Configurable per engine via
/// EngineConfig::rc_ingest_window_bytes; windowing never changes results
/// (blocks are never torn, within-row arrival order is preserved), only the
/// cache behaviour of the sweep.
inline constexpr std::size_t kRcIngestWindowBytes = std::size_t{128} << 20;

/// Adaptive resolution of the window size for EngineConfig's 0 sentinel: the
/// host's last-level cache size divided by the number of ranks whose ingest
/// phases share it (the rank executors run them concurrently), clamped to
/// [4 MiB, 128 MiB]. Falls back to the L2 size, then to 32 MiB, when the host
/// does not report an LLC. Windowing never changes results, so the adaptive
/// choice only moves the cache sweet spot — an explicit config value always
/// wins (pinned by RcIngest.AdaptiveWindowMatchesFixed).
std::size_t adaptive_rc_ingest_window_bytes(std::size_t live_ranks);

/// Phase 3a: apply received BoundaryDvUpdate messages — relax every local
/// endpoint of each cut edge incident to an updated external vertex.
/// Non-BoundaryDvUpdate messages are ignored (callers drain those contexts
/// separately). `format` names the wire format; V2Soa is the only one.
/// Batched: blocks are decoded in place (zero copy — the column arrays are
/// the one materialized piece) and processed in payload windows of ~window_bytes of
/// decoded entries whose work is grouped by destination row, so a row is
/// streamed from memory once per window instead of once per incident block
/// and the window's entries stay cache-resident across all their sweeps;
/// within each row, block-arrival order is preserved, keeping results
/// bit-identical to a per-element relax() loop in arrival order. With a multi-thread `pool`, a
/// window's row groups (pairwise-disjoint rows) are relaxed in parallel.
/// Returns ops.
double rc_ingest_updates(const LocalSubgraph& sg, DistanceStore& store,
                         const std::vector<Message>& inbox,
                         BoundaryWireFormat format = BoundaryWireFormat::V2Soa,
                         ThreadPool* pool = nullptr,
                         std::size_t parallel_grain = kRcIngestParallelGrain,
                         std::size_t window_bytes = kRcIngestWindowBytes,
                         RcIngestProfile* profile = nullptr);

/// Minimum relaxation-attempt count (drained columns x neighbour rows) before
/// one drained row's sweep fans out to the pool: below this, parallel_for
/// dispatch latency outweighs the sweep. Tests force the parallel branch by
/// passing 1.
inline constexpr std::size_t kRcPropagateParallelGrain = 8192;

/// Column-tile width of the row-blocked propagate sweep. A drained row's
/// changed source values are gathered tile-by-tile into a contiguous scratch
/// buffer (tile_cols x 8 bytes — the default keeps it L1-resident) which is
/// then swept into *every* neighbour row while still hot, so the scattered
/// source-row gather happens once per tile instead of once per neighbour.
/// The width must be positive (rc_propagate_local asserts it). Tiling cannot
/// change results: each (neighbour, column) pair is relaxed exactly once with
/// the same candidate, columns stay in ascending order per neighbour, and
/// worklist pushes happen in neighbour order after the row's full sweep
/// whatever the width.
inline constexpr std::size_t kRcPropagateTileCols = 4096;

/// Phase 3b: within-rank propagation to fixpoint. Drains the prop worklists
/// in FIFO order, relaxing neighbouring rows through local edges until
/// quiescent. Batched and row-blocked: each drained row's changed columns are
/// gathered into contiguous tiles (see kRcPropagateTileCols) and swept into
/// every local neighbour row with relax_batch_soa; with a multi-thread
/// `pool`, the neighbour rows of one drained row are relaxed in parallel
/// (they are pairwise distinct, so only the worklist merge needs
/// coordination).
///
/// `seed_order` (the refine planner's output) seeds the FIFO in that order
/// instead of ascending LocalId, so hot rows drain — and their improvements
/// recirculate — first. It must be a permutation of all local rows when
/// non-empty; an empty order is the historical ascending seed, byte-identical
/// schedule to the pre-refine kernel. Either way every marked row drains and
/// the same fixpoint is reached (relaxations are monotone), though epsilon-
/// band acceptance means intermediate bits can differ between orders.
///
/// `max_ops` > 0 bounds this call's relaxation attempts: the budget is
/// checked at the top of the drain loop, *before* a row is popped, so an
/// exhausted call leaves every undrained row still marked (convergence is
/// deferred to later steps, never lost) and at least one marked row always
/// drains. 0 = unlimited (the historical drain-to-fixpoint behaviour).
/// Returns ops.
double rc_propagate_local(const LocalSubgraph& sg, DistanceStore& store,
                          ThreadPool* pool = nullptr,
                          std::size_t parallel_grain = kRcPropagateParallelGrain,
                          RcPropagateProfile* profile = nullptr,
                          std::size_t tile_cols = kRcPropagateTileCols,
                          std::span<const LocalId> seed_order = {},
                          double max_ops = 0);

/// The boundary block, the one wire format of every row-carrying payload:
///   [u32 vertex][varint count][u8 col_encoding][columns]
///   [zero pad to 8][count x f64], where the columns are either
///   delta-varints (encoding 0: first column absolute, then raw deltas >= 1)
///   or run-length runs (encoding 1: varint run count, then per run a varint
///   start gap and a varint (length - 1)); the encoder picks whichever is
///   smaller per block (ties -> deltas). Every block's total size is a
///   multiple of 8, so concatenated blocks keep each distance run 8-aligned
///   — the property that lets receivers view it in place as an aligned f64
///   span. A block's columns are strictly ascending.
///
/// Append one block of a dense DV row's finite entries: the encoder of every
/// row-carrying message. One pass finds the row's runs of finite entries;
/// the column encoding is picked from the runs and each run's distances are
/// copied straight from the row — byte-equal to BoundaryFanOut's block of
/// the same (column, distance) entries. `out` must be 8-aligned where the
/// block starts. Returns the number of entries written.
std::size_t encode_row_block(Serializer& out, VertexId vertex, std::span<const Weight> row);

/// Per-destination boundary payloads, built block by block: each block is
/// encoded once into one shared buffer and its destinations recorded; post()
/// then allocates every destination's payload at its exact size and copies
/// its blocks in, in arrival order (a payload is a plain concatenation of
/// self-contained blocks), so no posted message carries growth slack. The
/// post kernel and the deletion path's view and raise exchanges share it.
class BoundaryFanOut {
public:
    explicit BoundaryFanOut(std::size_t num_ranks);

    /// Encode one block (`cols` strictly ascending, `dists` alongside) and
    /// route it to each of `destinations`.
    void add(VertexId vertex, std::span<const VertexId> cols,
             std::span<const Weight> dists, std::span<const RankId> destinations);

    struct Posted {
        std::size_t messages{0};
        std::size_t bytes{0};
        std::size_t entries{0};  // block entries x destinations
    };
    /// Send one `tag` message per non-empty payload from rank `from`, in
    /// ascending destination order, and start over empty.
    Posted post(Cluster& cluster, RankId from, MessageTag tag);

private:
    struct BlockRef {
        std::size_t offset;  // into blocks_
        std::size_t size;
    };
    Serializer blocks_;                          // every block, encoded once
    std::vector<std::vector<BlockRef>> routes_;  // per destination, arrival order
    std::size_t entries_{0};                     // Posted::entries so far
};

/// Decode a boundary-update payload in place: per block, a strictly
/// ascending column span and the aligned in-place f64 distance span —
/// exactly the shape DistanceStore::relax_batch_soa consumes. The distance
/// spans point into `payload`; the column spans point into `column_arena`,
/// which the call clears and refills (varint columns are the one piece that
/// must be materialized). Views are valid while both the payload bytes and
/// the arena remain alive and the arena is not mutated. The payload is
/// validated structurally before anything proportional to a declared count
/// is allocated; malformed payloads (truncated headers or varints, overlong
/// varints, unknown column encodings, non-monotone or overflowing column
/// deltas, run lengths that disagree with the entry count, nonzero padding,
/// entry counts past the payload end — overflow-safely) fail an AA_ASSERT
/// contract check, so a hostile payload can never force an allocation
/// larger than O(payload size). This is the reader of every row-carrying
/// payload: a typed header ending at `header_end` — (to, weight) for an edge
/// broadcast, (shard, count, adjacency) for a shard migration, none for the
/// rest — then zero padding to the next multiple of 8 (asserted), then the
/// blocks, so every distance run stays 8-aligned in place.
struct BoundaryBlockSoaView {
    VertexId vertex;
    std::span<const VertexId> cols;
    std::span<const Weight> dists;
};
std::vector<BoundaryBlockSoaView> decode_boundary_block_soa_views(
    std::span<const std::byte> payload, std::vector<VertexId>& column_arena,
    std::size_t header_end = 0);

/// The receiving half of the header-less row messages: drain rank r's inbox
/// — every message must carry `tag` — decode each payload in place and hand
/// each block to fn(vertex, cols, dists).
template <class Fn>
void for_each_received_block(Cluster& cluster, RankId r, MessageTag tag, Fn&& fn) {
    std::vector<VertexId> arena;  // column arena, reused across messages
    for (const Message& m : cluster.receive(r)) {
        AA_ASSERT_MSG(m.tag == tag, "unexpected message tag in a row receive");
        for (const BoundaryBlockSoaView& block :
             decode_boundary_block_soa_views(m.bytes(), arena)) {
            fn(block.vertex, block.cols, block.dists);
        }
    }
}

/// Non-aborting check of a boundary-update payload that comes from outside
/// the process (a checkpoint's in-flight messages): the view decoder's
/// structural validation, plus every block vertex and column below
/// `num_columns` and every distance >= 0 or +inf. Returns nullptr if the RC
/// ingest kernel can consume the payload, else the failure message.
const char* boundary_payload_error(std::span<const std::byte> payload,
                                   std::size_t num_columns);

}  // namespace aa
