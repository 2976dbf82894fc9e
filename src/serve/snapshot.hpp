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
// Each snapshot also carries the exact top-K of its scores, selected by the
// builder, so top-k reads with k <= K copy a prefix instead of ranking n
// vertices per query.
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

struct TopKEntry {
    VertexId vertex{0};
    Weight score{0};

    friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

/// True if `a` outranks `b`: higher score, ties broken by smaller id — the
/// library-wide ranking order (closeness_ranking), a strict total order.
inline bool topk_outranks(const TopKEntry& a, const TopKEntry& b) {
    if (a.score != b.score) {
        return a.score > b.score;
    }
    return a.vertex < b.vertex;
}

/// Chunked copy-on-write score planes. Chunks are immutable once built, so
/// sharing them across snapshots is as sound as sharing the snapshots
/// themselves: a snapshot copies only the chunks holding a changed vertex,
/// and a quiescent re-publication shares every chunk and allocates only the
/// chunk-pointer table.
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

    /// The n-vertex successor of `previous` (null: no predecessor, an empty
    /// one) with `changed` (ascending) overwritten by the parallel
    /// `closeness`/`reachable` values. A chunk with no changed vertex and the
    /// same size as the predecessor's chunk at its index is shared; every
    /// other chunk is copied from the predecessor's prefix and overwritten at
    /// the changed positions. Vertices at or past the predecessor's size have
    /// no value to copy, so each must be in `changed` (assert-checked).
    static CowScores patch(const CowScores* previous, std::size_t n,
                           std::span<const VertexId> changed,
                           std::span<const Weight> closeness,
                           std::span<const std::size_t> reachable);

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
    /// the snapshot so a touched-row build can maintain it exactly (add the
    /// re-summed rows' reachable deltas) instead of re-scanning all rows.
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
    /// snapshot — newly added vertices included. Empty means every score is
    /// bit-equal to the predecessor's, so the builder carries its `topk`
    /// over instead of re-selecting.
    std::vector<VertexId> changed;
    /// The exact top-min(K, n) of `scores` in topk_outranks order, K being
    /// the builder's `topk` argument (ServeConfig::topk_maintained): the
    /// K-prefix of closeness_ranking over the same scores.
    std::vector<TopKEntry> topk;
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

/// What one build_snapshot call produced and what it cost.
struct SnapshotBuild {
    std::shared_ptr<ResultSnapshot> snapshot;
    /// Distance rows re-summed into closeness.
    std::size_t rows_scanned{0};
    /// True iff the row set was every row rather than the touched rows.
    bool every_row{false};
    /// True iff `topk` was copied from `previous` rather than re-selected.
    bool topk_carried{false};
};

/// Freeze the engine's current state into a snapshot. Observer-only: reads
/// rank state directly and charges nothing to the simulated clock. Driver
/// thread only, engine idle (snapshot construction races with RC relaxation
/// otherwise).
///
/// Always drains AnytimeEngine::take_changed_rows(), then re-sums a row
/// set: every row when there is no `previous`, when `with_bounds` is set
/// (the wavefront certificate tightens the bounds of unchanged rows every
/// step), when the vertex count differs from `previous` (structural changes
/// re-normalize every score) or when the engine reports every row changed;
/// the touched rows otherwise. Rows whose (closeness, reachable) bits equal
/// `previous` are filtered out, the rest become `changed` and patch the
/// predecessor's copy-on-write chunks. Untouched rows cannot have changed
/// (no store mutation, same n, same column-order summation), so the result
/// is the same whichever row set was scanned. Draining the stamps makes this
/// the only consumer of take_changed_rows(): `previous` must be the
/// snapshot built by the preceding call on the same engine. The snapshot's
/// top-`topk` is `previous`'s when nothing changed at the same n (bit-equal
/// scores rank identically) and a full selection otherwise. `with_bounds`
/// also captures every vertex's certified closeness interval
/// (refine/bounds.hpp; needed by the BoundedError freshness policy).
SnapshotBuild build_snapshot(AnytimeEngine& engine, std::uint64_t version,
                             const ResultSnapshot* previous, std::size_t topk,
                             bool with_bounds);

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
    /// On its own cache line: every response reads it, and a line shared
    /// with the slot's spin flag, which each reader writes, would bounce
    /// between reader cores on every query.
    alignas(64) std::atomic<std::uint64_t> latest_version_{0};
};

}  // namespace aa
