#include "serve/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "refine/bounds.hpp"
#include "serve/topk.hpp"

namespace aa {

namespace {

/// Bit-level equality: the "changed" list must treat any representational
/// difference as a change (responses promise bit-identity with the matrix
/// path), and must not trip on NaN-style surprises.
bool same_bits(Weight a, Weight b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

CowScores CowScores::patch(const CowScores* previous, std::size_t n,
                           std::span<const VertexId> changed,
                           std::span<const Weight> closeness,
                           std::span<const std::size_t> reachable) {
    AA_ASSERT_MSG(changed.size() == closeness.size() &&
                      changed.size() == reachable.size(),
                  "patch values must be parallel to the changed list");
    const std::size_t prev_n = previous != nullptr ? previous->size_ : 0;
    CowScores out;
    out.size_ = n;
    const std::size_t num_chunks = (n + kChunkSize - 1) / kChunkSize;
    out.chunks_.reserve(num_chunks);
    std::size_t next = 0;  // cursor into the ascending changed list
    for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::size_t lo = c * kChunkSize;
        const std::size_t hi = std::min(lo + kChunkSize, n);
        const std::size_t first = next;
        while (next < changed.size() &&
               static_cast<std::size_t>(changed[next]) < hi) {
            ++next;
        }
        if (first == next && previous != nullptr &&
            c < previous->chunks_.size() &&
            previous->chunks_[c]->closeness.size() == hi - lo) {
            out.chunks_.push_back(previous->chunks_[c]);  // untouched: share
            continue;
        }
        // Copy what the predecessor holds of [lo, hi), then overwrite.
        const std::size_t kept = prev_n > lo ? std::min(hi, prev_n) - lo : 0;
        auto chunk = std::make_shared<Chunk>();
        if (kept > 0) {
            const Chunk& from = *previous->chunks_[c];
            const auto end = static_cast<std::ptrdiff_t>(kept);
            chunk->closeness.assign(from.closeness.begin(),
                                    from.closeness.begin() + end);
            chunk->reachable.assign(from.reachable.begin(),
                                    from.reachable.begin() + end);
        }
        chunk->closeness.resize(hi - lo);
        chunk->reachable.resize(hi - lo);
        std::size_t fresh = 0;  // overwritten positions at or past prev_n
        for (std::size_t i = first; i < next; ++i) {
            const std::size_t v = changed[i];
            chunk->closeness[v - lo] = closeness[i];
            chunk->reachable[v - lo] = reachable[i];
            fresh += v >= prev_n ? 1 : 0;
        }
        AA_ASSERT_MSG(fresh == hi - lo - kept,
                      "a vertex past the previous snapshot is not in the "
                      "changed list");
        out.chunks_.push_back(std::move(chunk));
    }
    AA_ASSERT_MSG(next == changed.size(), "changed vertex beyond n");
    return out;
}

ClosenessScores CowScores::materialize() const {
    ClosenessScores out;
    out.closeness.reserve(size_);
    out.reachable.reserve(size_);
    for (const auto& chunk : chunks_) {
        out.closeness.insert(out.closeness.end(), chunk->closeness.begin(),
                             chunk->closeness.end());
        out.reachable.insert(out.reachable.end(), chunk->reachable.begin(),
                             chunk->reachable.end());
    }
    return out;
}

SnapshotBuild build_snapshot(AnytimeEngine& engine, std::uint64_t version,
                             const ResultSnapshot* previous, std::size_t topk,
                             bool with_bounds) {
    // Drain before choosing the row set: an every-row scan must also reset
    // the stamps (and the engine's "all rows changed" flag), or the next
    // boundary would scan every row again.
    AnytimeEngine::ChangedRows touched = engine.take_changed_rows();
    const std::size_t n = engine.num_vertices();
    const std::size_t prev_n =
        previous != nullptr ? previous->scores.size() : 0;

    SnapshotBuild out;
    out.every_row =
        previous == nullptr || with_bounds || n != prev_n || touched.all;
    std::vector<VertexId>& rows = touched.rows;
    if (out.every_row) {
        rows.resize(n);
        std::iota(rows.begin(), rows.end(), VertexId{0});
    }
    out.rows_scanned = rows.size();

    auto snapshot = std::make_shared<ResultSnapshot>();
    snapshot->version = version;
    snapshot->rc_step = engine.rc_steps_completed();
    snapshot->sim_seconds = engine.sim_seconds();
    snapshot->quiescent = engine.quiescent();
    const ClosenessVariant variant = engine.config().closeness_variant;
    const BoundsParams bounds_params =
        with_bounds ? engine.bounds_params() : BoundsParams{};
    if (with_bounds) {
        snapshot->has_bounds = true;
        snapshot->bound_lo.assign(n, 0);
        snapshot->bound_hi.assign(n, 0);
        snapshot->bound_exact.assign(n, 0);
    }

    std::size_t total_reachable =
        out.every_row ? 0 : previous->total_reachable;
    std::vector<Weight> closeness;
    std::vector<std::size_t> reachable;
    for (const VertexId v : rows) {
        // Summed in column order — the identical order closeness_from_matrix
        // uses, so scores agree bit-for-bit with the full_distance_matrix()
        // path for the same engine state.
        const std::span<const Weight> row = engine.row_view(v);
        Weight sum = 0;
        std::size_t reached = 0;
        for (const Weight d : row) {
            if (d < kInfinity) {
                sum += d;
                ++reached;
            }
        }
        const Weight score = closeness_score(sum, reached, n, variant);
        if (with_bounds) {
            const ClosenessInterval interval =
                row_closeness_interval(row, v, bounds_params);
            snapshot->bound_lo[v] = interval.lo;
            snapshot->bound_hi[v] = interval.hi;
            snapshot->bound_exact[v] = interval.exact ? 1 : 0;
        }
        total_reachable += reached;
        if (!out.every_row) {
            total_reachable -= previous->scores.reachable(v);
        }
        if (v < prev_n && same_bits(score, previous->scores.closeness(v)) &&
            reached == previous->scores.reachable(v)) {
            continue;
        }
        snapshot->changed.push_back(v);
        closeness.push_back(score);
        reachable.push_back(reached);
    }
    // unknown entries = n*n - total_reachable (every row spans n columns):
    // the same integer the per-row (row.size - reached) accumulation yields.
    snapshot->total_reachable = total_reachable;
    snapshot->frac_unknown =
        n > 0 ? static_cast<double>(n * n - total_reachable) /
                    (static_cast<double>(n) * static_cast<double>(n))
              : 0.0;
    snapshot->scores = CowScores::patch(
        previous != nullptr ? &previous->scores : nullptr, n,
        snapshot->changed, closeness, reachable);
    // No changed vertex at the same n: every score is bit-equal to the
    // predecessor's, so its ranking is this snapshot's too.
    out.topk_carried = previous != nullptr && n == prev_n &&
                       snapshot->changed.empty() &&
                       previous->topk.size() == std::min(topk, n);
    snapshot->topk = out.topk_carried ? previous->topk
                                      : topk_from_snapshot(*snapshot, topk);
    out.snapshot = std::move(snapshot);
    return out;
}

void SnapshotStore::publish(std::shared_ptr<const ResultSnapshot> snapshot) {
    AA_ASSERT_MSG(snapshot != nullptr, "cannot publish a null snapshot");
    AA_ASSERT_MSG(snapshot->version > latest_version_.load(std::memory_order_relaxed),
                  "snapshot versions must strictly increase");
    // Version first, pointer second: latest_version() is always >= the
    // version of whatever current() returns, so a reader computing
    // `latest_version() - snapshot->version` never underflows (it may
    // over-report staleness by one publication mid-swap, never under).
    latest_version_.store(snapshot->version, std::memory_order_release);
    current_.store(std::move(snapshot));
}

}  // namespace aa
