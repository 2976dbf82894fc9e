// Distance vectors (DVs) — the per-rank partial APSP state.
//
// Rank p stores one row per owned vertex: row(v)[t] = the current upper bound
// on d(v, t) for every global vertex t. Under additive updates rows only ever
// decrease via relax() (the distance-vector-routing invariant), which is both
// the anytime monotonicity property and the termination argument. The fully
// dynamic shrink path (core/edge_delete.cpp) raises entries through exactly
// one door: mark_invalidated() resets an entry to kInfinity — no min-compare —
// and re-dirties it, after which re-settlement is monotone decrease again.
//
// Two pieces of dirty tracking drive the incremental algorithm:
//   * prop columns  — entries changed but not yet propagated to the rank's
//     *local* neighbours (the within-rank relaxation worklist),
//   * send columns  — entries changed but not yet shared with *other* ranks
//     (the boundary-DV payload of the next RC step).
//
// Layout:
//   * distances live in one contiguous array per row;
//   * each dirty set is one flat bitset with a bit per (row, column). A
//     row's slice is padded to whole 64-bit words, so distinct rows never
//     share a word, and a per-row pending count keeps has_prop/has_send and
//     any_*_pending O(1) per row. Marking is one word OR; draining
//     (take_prop/take_send) walks the row's words, writes the set columns in
//     ascending order into a caller-owned vector and zeroes the words it
//     read, so a steady-state drain never allocates and its consumers never
//     sort. grow_columns re-strides the bitsets only when the word count per
//     row changes.
//
// Concurrency contract: distinct rows may be mutated from distinct threads
// concurrently (all per-row state — distances, bitset words, pending counts —
// is disjoint). Concurrent mutation of the *same* row, or structural changes
// (add_row / grow_columns / install_row / swap_remove_row) concurrent with any
// access, are data races.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace aa {

/// One (column, distance) DV entry.
struct DvEntry {
    VertexId column;
    Weight distance;
};
static_assert(std::is_trivially_copyable_v<DvEntry>);

/// Layout of the boundary-DV payload blocks exchanged in the RC step (see
/// core/rc.hpp for the encoders, the decoder and the byte-accounting
/// contract). One layout remains; EngineConfig::wire_format names it.
enum class BoundaryWireFormat : std::uint8_t {
    /// Struct-of-arrays: [u32 vertex][varint count][columns: delta-varint or
    /// run-length, ascending][zero pad to 8][count x aligned f64]. Columns
    /// cost ~1-2 bytes each, and the contiguous aligned distance run is what
    /// the vectorized relaxation sweeps consume in place.
    V2Soa = 2,
};

class DistanceStore {
public:
    explicit DistanceStore(std::size_t num_columns = 0)
        : num_columns_(num_columns), words_per_row_((num_columns + 63) / 64) {}

    std::size_t num_rows() const { return rows_.size(); }
    std::size_t num_columns() const { return num_columns_; }

    /// Append a row of kInfinity except dist[self] = 0. Rows are indexed by
    /// LocalId in creation order, matching LocalSubgraph::adopt order.
    LocalId add_row(VertexId self);

    /// Append a row that takes ownership of `dist` (num_columns() values,
    /// zero at `self`) with empty dirty sets — checkpoint restore reads each
    /// row straight into the vector it hands over here.
    LocalId append_row(VertexId self, std::vector<Weight> dist);

    /// Grow every row (and the column space) to `new_count` columns. A row
    /// whose capacity falls short is reallocated with new_count / 8 columns
    /// of headroom, so capacity stays within 9/8 of the columns in use.
    void grow_columns(std::size_t new_count);

    /// Bytes the store holds reserved for its rows (distance capacity) and
    /// its two dirty bitsets.
    std::size_t reserved_bytes() const;

    std::span<const Weight> row(LocalId r) const {
        AA_ASSERT(r < rows_.size());
        return rows_[r].dist;
    }

    Weight at(LocalId r, VertexId col) const {
        AA_ASSERT(r < rows_.size() && col < num_columns_);
        return rows_[r].dist[col];
    }

    /// Attempt to lower row r's entry for `col` to `candidate`. On success
    /// marks the column in the prop and/or send dirty sets. Returns true if
    /// the value improved.
    bool relax(LocalId r, VertexId col, Weight candidate, bool mark_prop = true,
               bool mark_send = true);

    /// Batched relaxation: attempt to lower row r's entry for column cols[i]
    /// to offset + dists[i] in one compare-and-store sweep (the RC inner
    /// loop: offset is the connecting edge weight, the pairs are another
    /// vertex's DV columns). `dists` is a contiguous (8-aligned) f64 run —
    /// the shape the boundary wire format delivers, viewable in place, and
    /// also the shape of the row-blocked propagate sweep's gathered tiles
    /// (see kRcPropagateTileCols in core/rc.hpp). Improved columns are
    /// recorded in the dirty sets once at the end rather than per element.
    /// Exactly equivalent to calling relax() per pair in order, including
    /// the acceptance epsilon. Returns the number of improved columns.
    /// Preconditions: cols.size() == dists.size() and cols strictly
    /// increasing (the decoder guarantees both); sortedness makes the bounds
    /// check O(1) and rules out intra-batch column aliasing, which is what
    /// lets the AVX2 sweep (taken when simd_enabled() on an AVX2 host) keep
    /// exactly the scalar semantics: same IEEE adds, same epsilon compare,
    /// same improved columns.
    std::size_t relax_batch_soa(LocalId r, std::span<const VertexId> cols,
                                std::span<const Weight> dists, Weight offset,
                                bool mark_prop = true, bool mark_send = true);

    /// Drain the propagation worklist of row r (columns changed since last
    /// local propagation) into `out`, replacing its contents, in ascending
    /// column order. Clears the set. `out` is the caller's reused buffer:
    /// once its capacity covers a row, draining allocates nothing.
    void take_prop(LocalId r, std::vector<VertexId>& out);

    /// Drain the send worklist of row r. Same contract as take_prop.
    void take_send(LocalId r, std::vector<VertexId>& out);

    /// Allocating forms of the drains, for callers with no buffer to reuse
    /// (tests).
    std::vector<VertexId> take_prop(LocalId r) {
        std::vector<VertexId> out;
        take_prop(r, out);
        return out;
    }
    std::vector<VertexId> take_send(LocalId r) {
        std::vector<VertexId> out;
        take_send(r, out);
        return out;
    }

    bool has_prop(LocalId r) const {
        AA_ASSERT(r < rows_.size());
        return prop_.pending[r] != 0;
    }
    bool has_send(LocalId r) const {
        AA_ASSERT(r < rows_.size());
        return send_.pending[r] != 0;
    }

    /// Pending (not yet drained) prop / send columns of row r, ascending,
    /// written into `out` (checkpoint save). The sets are left as they are.
    void pending_prop(LocalId r, std::vector<VertexId>& out) const {
        collect(prop_, r, out);
    }
    void pending_send(LocalId r, std::vector<VertexId>& out) const {
        collect(send_, r, out);
    }

    /// Re-mark row r's pending columns, given in any order (checkpoint
    /// restore; the row's sets must be empty). Returns false, with the sets
    /// in an unspecified state, if a column is out of range or repeats
    /// within one set.
    bool restore_pending(LocalId r, std::span<const VertexId> prop,
                         std::span<const VertexId> send);

    /// Any row with unsent changes?
    bool any_send_pending() const;
    /// Any row with unpropagated changes?
    bool any_prop_pending() const;

    /// Mark every finite entry of row r as needing (re)send — used after IA
    /// and when a row gains a new neighbouring rank (the paper's "start
    /// sending DV" notification).
    void mark_row_for_send(LocalId r);

    /// Mark every finite entry of row r for local propagation — used after
    /// a row move: newly co-located rows have never been relaxed against
    /// each other, so a full local sweep is owed.
    void mark_row_for_prop(LocalId r);

    /// Mark a single (finite) entry for local propagation without touching
    /// its value — the deletion path's re-seed: a surviving neighbour entry
    /// must re-relax into a freshly invalidated one even though it never
    /// improved.
    void mark_for_prop(LocalId r, VertexId col);

    /// Single-entry analogue of mark_row_for_send, same re-seed purpose but
    /// for cut edges: the surviving value must travel to the rank that just
    /// invalidated its neighbour.
    void mark_for_send(LocalId r, VertexId col);

    /// Invalidate one entry: reset it to kInfinity *without* the min-compare
    /// (the only operation that may raise a value) and re-dirty both
    /// worklists through the same bitsets relax() uses. The self column
    /// is never invalidated (d(v, v) = 0 by definition).
    void mark_invalidated(LocalId r, VertexId col);

    /// Overwrite row r with exactly the given entries, every other column
    /// kInfinity: a migrated row, read in place from its boundary block. The
    /// entries must include the zero diagonal; dirty sets are left as is.
    void install_row(LocalId r, std::span<const VertexId> cols,
                     std::span<const Weight> dists);

    /// Free row r's values once they have been shipped (the row move's
    /// sources, right after encoding, so the rows arriving next reuse the
    /// memory). Until swap_remove_row(r) removes the slot, the row must not
    /// be read or written.
    void free_row(LocalId r);

    /// Remove row r entirely by swapping the last row into its slot — the
    /// DistanceStore mirror of LocalSubgraph::release (the row move). The
    /// displaced row keeps its dirty sets (its bitset slices and pending
    /// counts move with it).
    void swap_remove_row(LocalId r);

    /// Drain the touched-row set: invoke fn(self VertexId) once for every row
    /// whose values were mutated since the previous drain (relax/invalidate/
    /// install/move — anything that can change the row's closeness sum),
    /// then reset the set. Driver thread only, engine idle (same contract as
    /// the boundary hook). The serve layer's snapshot builder reads this to
    /// re-sum only the touched rows instead of all of them. Stamps are
    /// epoch-validated: a drain is O(rows) loads, the stamp array is
    /// rewritten only when the 32-bit epoch wraps.
    template <typename Fn>
    void drain_touched(Fn&& fn) {
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            if (touch_stamp_[r] == touch_epoch_) {
                fn(rows_[r].self);
            }
        }
        if (++touch_epoch_ == 0) {
            std::fill(touch_stamp_.begin(), touch_stamp_.end(), 0u);
            touch_epoch_ = 1;
        }
    }

    /// Whether the explicit SIMD sweeps may run (effective only on an x86-64
    /// host whose CPU has AVX2; the scalar loop is the reference semantics
    /// either way and results are bit-identical by construction). Benchmarks
    /// flip this off to ablate the vector path; EngineConfig::rc_simd plumbs
    /// it per engine.
    void set_simd_enabled(bool enabled) { simd_enabled_ = enabled; }
    bool simd_enabled() const { return simd_enabled_; }

private:
    /// One dirty set over every row: bit (col & 63) of words[r *
    /// words_per_row_ + (col >> 6)] is set iff column col of row r is in the
    /// set, and pending[r] counts row r's set bits.
    struct DirtyBits {
        std::vector<std::uint64_t> words;
        std::vector<std::uint32_t> pending;
    };

    struct Row {
        VertexId self{kInvalidVertex};
        std::vector<Weight> dist;
    };

    std::uint64_t* slice(DirtyBits& set, LocalId r) {
        return set.words.data() + static_cast<std::size_t>(r) * words_per_row_;
    }
    const std::uint64_t* slice(const DirtyBits& set, LocalId r) const {
        return set.words.data() + static_cast<std::size_t>(r) * words_per_row_;
    }

    /// Set column col's bit in one row's slice; returns 1 if it was clear.
    static std::uint32_t set_bit(std::uint64_t* words, VertexId col) {
        std::uint64_t& word = words[col >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (col & 63);
        const std::uint32_t added = (word & bit) == 0 ? 1u : 0u;
        word |= bit;
        return added;
    }

    /// Add column col to row r's slice of `set` (idempotent).
    void mark(DirtyBits& set, LocalId r, VertexId col) {
        set.pending[r] += set_bit(slice(set, r), col);
    }

    /// Shared tail of the batched sweeps: mark each improved column in the
    /// requested dirty sets.
    void record_improved(LocalId r, std::span<const VertexId> improved, bool mark_prop,
                         bool mark_send);

    /// Mark every finite entry of row r in `set`, a word at a time.
    void mark_row_finite(DirtyBits& set, LocalId r);

    /// Write row r's set columns into `out`, ascending; drain() also clears
    /// them.
    void collect(const DirtyBits& set, LocalId r, std::vector<VertexId>& out) const;
    void drain(DirtyBits& set, LocalId r, std::vector<VertexId>& out);

    /// Stamp row r as touched since the last drain_touched(). Row-disjoint
    /// like the rest of the per-row state: concurrent sweeps over distinct
    /// rows write distinct stamp slots.
    void touch(LocalId r) { touch_stamp_[r] = touch_epoch_; }

    std::vector<Row> rows_;
    std::size_t num_columns_{0};
    bool simd_enabled_{true};
    // 64-bit words per row in each dirty bitset: ceil(num_columns_ / 64).
    std::size_t words_per_row_{0};
    DirtyBits prop_;
    DirtyBits send_;
    // Touched-row stamps (see drain_touched): row r was mutated since the
    // last drain iff touch_stamp_[r] == touch_epoch_.
    std::vector<std::uint32_t> touch_stamp_;
    std::uint32_t touch_epoch_{1};
};

}  // namespace aa
