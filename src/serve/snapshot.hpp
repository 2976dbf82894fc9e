// Versioned, immutable result snapshots: the payload the serve layer hands
// to concurrent readers while the anytime engine keeps refining.
//
// The anytime property says a valid (monotonically improving) closeness
// result exists after every RC step; the serve layer turns that into a
// query-able artifact. At each engine boundary (initialize, RC step, dynamic
// addition) the publisher freezes the current per-vertex closeness scores,
// reachable counts and quality metadata into a `ResultSnapshot` and swaps it
// into the `SnapshotStore` through an atomic shared_ptr slot (SharedSlot).
// Readers therefore never observe a half-built result, never block the RC
// loop, and keep any snapshot they hold alive for exactly as long as they
// need it.
//
// Memory bound: the store retains one snapshot; during a publication the
// outgoing and incoming snapshots briefly coexist, so the *store* pins at
// most two. Older snapshots survive only while a reader still holds its
// `shared_ptr`, and die with the last reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/closeness.hpp"
#include "serve/shared_slot.hpp"

namespace aa {

class AnytimeEngine;

/// Chunked copy-on-write score planes. Publication used to copy all n
/// closeness values every boundary even when the changed-vertex list was
/// tiny; CowScores shares the unchanged backing chunks with the previous
/// snapshot instead (groundwork for full snapshot deltas, ROADMAP item 5).
/// Chunks are immutable once built, so sharing them across snapshots is as
/// sound as sharing the snapshots themselves; a quiescent re-publication
/// shares every chunk and allocates only the chunk-pointer table.
class CowScores {
public:
    /// Vertices per chunk: small enough that test-scale graphs (a few
    /// hundred vertices) span several chunks, large enough that the
    /// per-chunk pointer overhead is negligible at production n.
    static constexpr std::size_t kChunkSize = 256;

    struct Chunk {
        std::vector<Weight> closeness;
        std::vector<std::size_t> reachable;
    };

    CowScores() = default;

    std::size_t size() const { return size_; }
    Weight closeness(std::size_t v) const {
        return chunks_[v / kChunkSize]->closeness[v % kChunkSize];
    }
    std::size_t reachable(std::size_t v) const {
        return chunks_[v / kChunkSize]->reachable[v % kChunkSize];
    }

    /// Build from fully materialized planes, sharing each chunk with
    /// `previous` when it has a size-compatible chunk at the same index and
    /// no vertex in `changed` (ascending ids) falls inside the chunk's
    /// range; chunks touched by a change (or beyond the previous snapshot)
    /// are freshly copied.
    static CowScores build(const std::vector<Weight>& closeness,
                           const std::vector<std::size_t>& reachable,
                           const CowScores* previous,
                           std::span<const VertexId> changed);

    /// Copy-on-write patch — the O(changed) publication path. Requires the
    /// new planes to have the same vertex count as `previous`: chunks
    /// containing a changed vertex are copied from `previous` and overwritten
    /// at exactly the changed positions, every other chunk pointer is shared.
    /// Produces chunk-for-chunk identical content (and the identical
    /// share/copy pattern) to build() over the fully materialized planes, so
    /// the delta and full publication paths are bit-indistinguishable.
    /// `changed` ascending; `closeness`/`reachable` parallel to it.
    static CowScores patch(const CowScores& previous,
                           std::span<const VertexId> changed,
                           std::span<const Weight> closeness,
                           std::span<const std::size_t> reachable);

    /// Adopt plain planes with every chunk freshly owned (no sharing) —
    /// test fixtures and adapters.
    static CowScores from(const ClosenessScores& scores);

    /// Copy back out to plain planes.
    ClosenessScores materialize() const;

    // Chunk identity, exposed for the memory-behaviour tests: two snapshots
    // share storage exactly when their chunk pointers compare equal.
    std::size_t num_chunks() const { return chunks_.size(); }
    const std::shared_ptr<const Chunk>& chunk(std::size_t i) const {
        return chunks_[i];
    }

private:
    std::size_t size_{0};
    std::vector<std::shared_ptr<const Chunk>> chunks_;
};

/// One frozen, immutable view of the engine's current answer. All fields are
/// set before publication and never mutated afterwards, which is what makes
/// lock-free sharing across reader threads sound.
struct ResultSnapshot {
    /// Strictly increasing across publications of one service.
    std::uint64_t version{0};
    /// RC steps the engine had completed when the snapshot was taken.
    std::size_t rc_step{0};
    /// Simulated clock at publication.
    double sim_seconds{0};
    /// True iff the engine was quiescent (answers are the exact APSP of the
    /// current graph — additions *and* deletions/reweights settled; exactly
    /// so for uniform weights, within the relaxation epsilon otherwise).
    bool quiescent{false};
    /// Self-measured unknown fraction: the share of distance-matrix entries
    /// still at infinity. An upper bound on QualityMetrics::frac_unknown
    /// (which also needs the exact matrix to exclude truly unreachable
    /// pairs); on connected graphs the two coincide at quiescence (both 0).
    double frac_unknown{0};
    /// Sum of reachable counts over all rows — the integer frac_unknown is
    /// derived from (unknown entries = n*n - total_reachable). Carried on
    /// the snapshot so the delta path can maintain it exactly (add the
    /// changed rows' reachable deltas) instead of re-scanning all rows.
    std::size_t total_reachable{0};
    /// Wall-clock publication time in seconds on the publisher's clock
    /// (QueryService's epoch); responses derive their staleness bound from
    /// it. 0 for snapshots built outside a service.
    double published_wall{0};
    /// Closeness + reachable per vertex, bit-identical to
    /// closeness_from_matrix(full_distance_matrix(), variant) at the same
    /// boundary (same per-row summation order). Chunks unchanged since the
    /// previous snapshot share its backing storage (copy-on-write).
    CowScores scores;
    /// Vertices whose (closeness, reachable) differ from the previous
    /// snapshot — newly added vertices included. The service re-selects
    /// only the shard planes holding one of these vertices.
    std::vector<VertexId> changed;
    /// Certified closeness intervals, present iff has_bounds (the service's
    /// enable_bounds config). bound_lo/bound_hi bracket the converged score
    /// of every vertex via the wavefront certificate (see refine/bounds.hpp);
    /// bound_exact[v] != 0 means the interval has collapsed — v's published
    /// score is already its converged value.
    bool has_bounds{false};
    std::vector<double> bound_lo;
    std::vector<double> bound_hi;
    std::vector<std::uint8_t> bound_exact;
};

/// Freeze the engine's current state into a snapshot. Observer-only: reads
/// rank state directly and charges nothing to the simulated clock. Must be
/// called from the thread driving the engine (snapshot construction races
/// with RC relaxation otherwise). `previous` (may be null) seeds the
/// `changed` list and donates unchanged score chunks. `with_bounds` also
/// captures per-vertex closeness intervals (one extra pass-free scan of the
/// same rows; needed by the BoundedError freshness policy).
std::shared_ptr<ResultSnapshot> build_snapshot(const AnytimeEngine& engine,
                                               std::uint64_t version,
                                               const ResultSnapshot* previous,
                                               bool with_bounds = false);

/// The O(changed) publication payload: everything a predecessor snapshot
/// needs to become the next one. Only rows the engine actually mutated since
/// `previous` are re-summed and carried; a boundary that changed c rows costs
/// O(c * n) row scans + O(c) payload instead of O(n^2) + O(n).
struct SnapshotDelta {
    std::uint64_t version{0};
    std::size_t rc_step{0};
    double sim_seconds{0};
    bool quiescent{false};
    /// Vertices whose (closeness, reachable) bits differ from `previous` —
    /// exactly the list build_snapshot would have produced (touched but
    /// bit-unchanged rows are filtered out). Ascending.
    std::vector<VertexId> changed;
    /// New values, parallel to `changed`.
    std::vector<Weight> closeness;
    std::vector<std::size_t> reachable;
    /// Updated ResultSnapshot::total_reachable after applying the delta.
    std::size_t total_reachable{0};
    /// Rows actually re-summed to produce this delta (touched rows before
    /// the bit-unchanged filter) — the delta path's work measure.
    std::size_t rows_scanned{0};
};

/// Build the delta from `previous` to the engine's current boundary by
/// re-summing only the rows the engine reports as touched
/// (AnytimeEngine::take_changed_rows — which this call drains). Returns null
/// when a delta is not applicable and the caller must fall back to
/// build_snapshot: no identical-n predecessor (structural changes
/// re-normalize every score), a bounds-carrying predecessor (the wavefront
/// certificate tightens for *unchanged* rows every step), or a conservative
/// "all rows changed" report. Driver thread only, engine idle.
std::unique_ptr<SnapshotDelta> build_snapshot_delta(AnytimeEngine& engine,
                                                    std::uint64_t version,
                                                    const ResultSnapshot& previous);

/// Materialize the successor snapshot from `previous` + `delta`. Bit-identical
/// in every field (scores, changed list, frac_unknown, metadata) to
/// build_snapshot at the same boundary; only chunks containing changed
/// vertices are copied. published_wall is left 0 for the caller to stamp.
std::shared_ptr<ResultSnapshot> apply_snapshot_delta(
    const ResultSnapshot& previous, const SnapshotDelta& delta);

/// Single-slot snapshot holder. One writer (the RC/driver thread) swaps
/// snapshots in; any number of readers copy the current `shared_ptr` out.
/// A reader's critical section is a refcount bump (see SharedSlot), so
/// readers never wait on engine work and the RC loop never waits on readers.
class SnapshotStore {
public:
    SnapshotStore() = default;
    SnapshotStore(const SnapshotStore&) = delete;
    SnapshotStore& operator=(const SnapshotStore&) = delete;

    /// Publish a snapshot. Versions must strictly increase (assert-checked).
    void publish(std::shared_ptr<const ResultSnapshot> snapshot);

    /// The latest published snapshot (null before the first publication).
    /// Never blocks on engine work (see SharedSlot); the returned pointer
    /// keeps the snapshot alive.
    std::shared_ptr<const ResultSnapshot> current() const {
        return current_.load();
    }

    /// Version of the latest published snapshot; 0 before the first.
    std::uint64_t latest_version() const {
        return latest_version_.load(std::memory_order_acquire);
    }

private:
    SharedSlot<const ResultSnapshot> current_;
    std::atomic<std::uint64_t> latest_version_{0};
};

}  // namespace aa
