#include "core/distance_store.hpp"

#include <algorithm>
#include <bit>
#include <utility>

// Explicit SIMD sweeps: compiled on x86-64 (function-level target
// attributes, no global -mavx2), taken at runtime only when the CPU reports
// AVX2 and the store's simd_enabled() toggle is on. The scalar loops
// below remain the reference semantics; the vector paths reproduce them bit
// for bit (same IEEE adds, same epsilon compare, same improved columns,
// reconstructed from the compare mask).
#if defined(__x86_64__)
#define AA_SIMD_X86 1
#include <immintrin.h>
#endif

namespace aa {

namespace {
/// Required relative improvement; guards against float-noise ping-pong when
/// the same path length is derived via different summation orders.
constexpr Weight kEpsilon = 1e-12;

#if defined(AA_SIMD_X86)

bool detect_avx2() {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}
const bool kHostHasAvx2 = detect_avx2();

/// AVX2 min-plus compare-and-store sweep over an SoA batch: four candidates
/// offset + dists[i..i+3] are compared against a gather of dist[cols[...]]
/// at once; stores stay conditional (mask-driven, lane order ascending via
/// countr_zero) so sweeps that improve nothing never dirty a cache line and
/// the improved-column sequence matches the scalar loop exactly. The caller
/// guarantees cols strictly increasing and cols.back() < num_columns, which
/// rules out intra-gather aliasing and makes the bounds check O(1). The i32
/// gather indices are read as signed, which is safe because a row of 2^31
/// doubles (16 GiB) is beyond any per-rank matrix slice this store holds.
/// Appends improved columns to `improved` and returns how many.
/// All-lanes-active gather through the masked intrinsic: the plain
/// _mm256_i32gather_pd leaves its source register formally undefined, which
/// gcc 12 flags under -Wmaybe-uninitialized; the masked form with an
/// explicit zero source emits the identical vgatherdpd.
__attribute__((target("avx2"))) inline __m256d gather_pd(const Weight* base,
                                                         __m128i vindex) {
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, vindex, all, 8);
}

__attribute__((target("avx2"))) std::size_t relax_soa_avx2(
    Weight* dist, const VertexId* cols, const Weight* dists, std::size_t count,
    Weight offset, VertexId* improved) {
    const __m256d voffset = _mm256_set1_pd(offset);
    const __m256d veps = _mm256_set1_pd(kEpsilon);
    std::size_t m = 0;
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m128i vcols =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + i));
        const __m256d current = gather_pd(dist, vcols);
        const __m256d cand = _mm256_add_pd(voffset, _mm256_loadu_pd(dists + i));
        const __m256d better =
            _mm256_cmp_pd(cand, _mm256_sub_pd(current, veps), _CMP_LT_OQ);
        int mask = _mm256_movemask_pd(better);
        if (mask == 0) {
            continue;
        }
        alignas(32) Weight cand_lanes[4];
        _mm256_store_pd(cand_lanes, cand);
        while (mask != 0) {
            const int lane = std::countr_zero(static_cast<unsigned>(mask));
            mask &= mask - 1;
            const VertexId col = cols[i + lane];
            dist[col] = cand_lanes[lane];
            improved[m++] = col;
        }
    }
    for (; i < count; ++i) {  // tail: the scalar reference loop verbatim
        const VertexId col = cols[i];
        const Weight candidate = offset + dists[i];
        const bool better = candidate < dist[col] - kEpsilon;
        if (better) {
            dist[col] = candidate;
        }
        improved[m] = col;
        m += better;
    }
    return m;
}

#endif  // AA_SIMD_X86
}  // namespace

LocalId DistanceStore::add_row(VertexId self) {
    AA_ASSERT(self < num_columns_);
    std::vector<Weight> dist(num_columns_, kInfinity);
    dist[self] = 0;
    return append_row(self, std::move(dist));
}

LocalId DistanceStore::append_row(VertexId self, std::vector<Weight> dist) {
    AA_ASSERT(self < num_columns_ && dist.size() == num_columns_);
    AA_ASSERT_MSG(dist[self] == 0, "appended row lacks its zero diagonal");
    Row row;
    row.self = self;
    row.dist = std::move(dist);
    rows_.push_back(std::move(row));
    for (DirtyBits* set : {&prop_, &send_}) {
        set->words.resize(rows_.size() * words_per_row_, 0);
        set->pending.push_back(0);
    }
    touch_stamp_.push_back(touch_epoch_);  // a fresh row is by definition touched
    return static_cast<LocalId>(rows_.size() - 1);
}

bool DistanceStore::restore_pending(LocalId r, std::span<const VertexId> prop,
                                    std::span<const VertexId> send) {
    AA_ASSERT(r < rows_.size());
    AA_ASSERT(prop_.pending[r] == 0 && send_.pending[r] == 0);
    const auto restore = [this, r](DirtyBits& set, std::span<const VertexId> cols) {
        std::uint64_t* words = slice(set, r);
        for (const VertexId col : cols) {
            if (col >= num_columns_ || set_bit(words, col) == 0) {
                return false;  // out of range, or a repeated column
            }
            ++set.pending[r];
        }
        return true;
    };
    return restore(prop_, prop) && restore(send_, send);
}

void DistanceStore::grow_columns(std::size_t new_count) {
    AA_ASSERT(new_count >= num_columns_);
    num_columns_ = new_count;
    // A row that must grow reserves 1/8 headroom for the next additions
    // instead of letting resize() double it: rows are the bulk of the store,
    // and a doubled row is mostly slack (grow's first addition would take
    // every row from 2000 to 4000 columns of capacity).
    const std::size_t reserve = new_count + new_count / 8;
    for (Row& row : rows_) {
        if (row.dist.capacity() < new_count) {
            row.dist.reserve(reserve);
        }
        row.dist.resize(new_count, kInfinity);
    }
    // Re-stride the bitsets only when a row's slice needs more words; within
    // a word the new columns' bits are already clear (bits at or past the
    // column count are never set).
    const std::size_t old_words = words_per_row_;
    words_per_row_ = (new_count + 63) / 64;
    if (words_per_row_ != old_words) {
        for (DirtyBits* set : {&prop_, &send_}) {
            std::vector<std::uint64_t> wider(rows_.size() * words_per_row_, 0);
            for (std::size_t r = 0; r < rows_.size(); ++r) {
                std::copy_n(set->words.data() + r * old_words, old_words,
                            wider.data() + r * words_per_row_);
            }
            set->words = std::move(wider);
        }
    }
}

std::size_t DistanceStore::reserved_bytes() const {
    std::size_t bytes = 0;
    for (const Row& row : rows_) {
        bytes += row.dist.capacity() * sizeof(Weight);
    }
    for (const DirtyBits* set : {&prop_, &send_}) {
        bytes += set->words.capacity() * sizeof(std::uint64_t);
    }
    return bytes;
}

bool DistanceStore::relax(LocalId r, VertexId col, Weight candidate, bool mark_prop,
                          bool mark_send) {
    AA_ASSERT(r < rows_.size() && col < num_columns_);
    Row& row = rows_[r];
    if (!(candidate < row.dist[col] - kEpsilon)) {
        return false;
    }
    row.dist[col] = candidate;
    touch(r);
    if (mark_prop) {
        mark(prop_, r, col);
    }
    if (mark_send) {
        mark(send_, r, col);
    }
    return true;
}

std::size_t DistanceStore::relax_batch_soa(LocalId r, std::span<const VertexId> cols,
                                           std::span<const Weight> dists, Weight offset,
                                           bool mark_prop, bool mark_send) {
    AA_ASSERT(r < rows_.size());
    AA_ASSERT(cols.size() == dists.size());
    Row& row = rows_[r];
    Weight* dist = row.dist.data();
    // cols ascending (decoder-validated), so the back() check bounds them all.
    AA_ASSERT(cols.empty() || cols.back() < num_columns_);

    // Scratch for improved columns; thread_local so concurrent sweeps over
    // distinct rows don't share it and its capacity is reused across calls.
    // Grow-only: resize() value-initializes any regrown tail, so shrinking for
    // a small batch would make every later large batch pay a memset.
    static thread_local std::vector<VertexId> improved;
    if (improved.size() < cols.size()) {
        improved.resize(cols.size());
    }

    const std::size_t count = cols.size();
    std::size_t m = 0;
#if defined(AA_SIMD_X86)
    if (simd_enabled_ && kHostHasAvx2) {
        m = relax_soa_avx2(dist, cols.data(), dists.data(), count, offset,
                           improved.data());
    } else
#endif
    {
        // Scalar reference sweep with compacting append of the improved
        // column indices: the `m += better` compaction keeps the bookkeeping
        // free of data-dependent branches. The store itself is conditional on
        // purpose — an unconditional cmov-style store would dirty every
        // touched cache line and force a DRAM writeback even for sweeps that
        // improve nothing, which for matrix-scale rows costs far more than
        // the occasional branch miss. Callers keep the destination row
        // cache-resident across consecutive batches (ingest groups a window's
        // blocks by row; propagate reuses one gathered tile across all
        // neighbour rows), so the dist[] accesses rarely leave the cache
        // hierarchy mid-sweep.
        for (std::size_t i = 0; i < count; ++i) {
            const VertexId col = cols[i];
            const Weight candidate = offset + dists[i];
            const Weight current = dist[col];
            const bool better = candidate < current - kEpsilon;
            if (better) {
                dist[col] = candidate;
            }
            improved[m] = col;
            m += better;
        }
    }
    if (m == 0) {
        return 0;
    }
    record_improved(r, std::span<const VertexId>(improved.data(), m), mark_prop,
                    mark_send);
    return m;
}

void DistanceStore::record_improved(LocalId r, std::span<const VertexId> improved,
                                    bool mark_prop, bool mark_send) {
    // All batched sweeps funnel their improvements through here, so one
    // stamp covers every batch variant.
    touch(r);
    // Record dirtiness once per improved column, after the sweep.
    const auto mark_all = [&](DirtyBits& set) {
        std::uint64_t* words = slice(set, r);
        std::uint32_t added = 0;
        for (const VertexId col : improved) {
            added += set_bit(words, col);
        }
        set.pending[r] += added;
    };
    if (mark_prop) {
        mark_all(prop_);
    }
    if (mark_send) {
        mark_all(send_);
    }
}

void DistanceStore::collect(const DirtyBits& set, LocalId r,
                            std::vector<VertexId>& out) const {
    AA_ASSERT(r < rows_.size());
    const std::uint64_t* words = slice(set, r);
    out.resize(set.pending[r]);
    // The count bounds the walk: it stops at the word holding the last set
    // column instead of scanning the whole slice.
    VertexId* dst = out.data();
    VertexId* const end = dst + out.size();
    for (VertexId base = 0; dst != end; base += 64, ++words) {
        for (std::uint64_t word = *words; word != 0; word &= word - 1) {
            *dst++ = base + static_cast<VertexId>(std::countr_zero(word));
        }
    }
}

void DistanceStore::drain(DirtyBits& set, LocalId r, std::vector<VertexId>& out) {
    collect(set, r, out);
    if (!out.empty()) {
        // Zero exactly the words the walk read: up to the last column's.
        std::fill_n(slice(set, r), (out.back() >> 6) + 1, std::uint64_t{0});
        set.pending[r] = 0;
    }
}

void DistanceStore::take_prop(LocalId r, std::vector<VertexId>& out) {
    drain(prop_, r, out);
}

void DistanceStore::take_send(LocalId r, std::vector<VertexId>& out) {
    drain(send_, r, out);
}

bool DistanceStore::any_send_pending() const {
    return std::any_of(send_.pending.begin(), send_.pending.end(),
                       [](std::uint32_t count) { return count != 0; });
}

bool DistanceStore::any_prop_pending() const {
    return std::any_of(prop_.pending.begin(), prop_.pending.end(),
                       [](std::uint32_t count) { return count != 0; });
}

void DistanceStore::mark_row_finite(DirtyBits& set, LocalId r) {
    AA_ASSERT(r < rows_.size());
    const Weight* dist = rows_[r].dist.data();
    std::uint64_t* words = slice(set, r);
    for (std::size_t w = 0; w < words_per_row_; ++w) {
        const std::size_t base = w << 6;
        const std::size_t end = std::min(base + 64, num_columns_);
        std::uint64_t finite = 0;
        for (std::size_t col = base; col < end; ++col) {
            finite |= static_cast<std::uint64_t>(dist[col] < kInfinity) << (col - base);
        }
        set.pending[r] += static_cast<std::uint32_t>(std::popcount(finite & ~words[w]));
        words[w] |= finite;
    }
}

void DistanceStore::mark_row_for_send(LocalId r) { mark_row_finite(send_, r); }

void DistanceStore::mark_row_for_prop(LocalId r) { mark_row_finite(prop_, r); }

void DistanceStore::mark_for_prop(LocalId r, VertexId col) {
    AA_ASSERT(r < rows_.size() && col < num_columns_);
    mark(prop_, r, col);
}

void DistanceStore::mark_for_send(LocalId r, VertexId col) {
    AA_ASSERT(r < rows_.size() && col < num_columns_);
    mark(send_, r, col);
}

void DistanceStore::mark_invalidated(LocalId r, VertexId col) {
    AA_ASSERT(r < rows_.size() && col < num_columns_);
    Row& row = rows_[r];
    AA_ASSERT_MSG(col != row.self, "the zero diagonal cannot be invalidated");
    row.dist[col] = kInfinity;
    touch(r);
    mark_for_prop(r, col);
    mark_for_send(r, col);
}

void DistanceStore::install_row(LocalId r, std::span<const VertexId> cols,
                                std::span<const Weight> dists) {
    AA_ASSERT(r < rows_.size());
    AA_ASSERT(cols.size() == dists.size());
    AA_ASSERT(cols.empty() || cols.back() < num_columns_);
    Row& row = rows_[r];
    std::fill(row.dist.begin(), row.dist.end(), kInfinity);
    for (std::size_t i = 0; i < cols.size(); ++i) {
        row.dist[cols[i]] = dists[i];
    }
    touch(r);
    AA_ASSERT_MSG(row.dist[row.self] == 0, "migrated row lost its zero diagonal");
}

void DistanceStore::free_row(LocalId r) {
    AA_ASSERT(r < rows_.size());
    std::vector<Weight>().swap(rows_[r].dist);
}

void DistanceStore::swap_remove_row(LocalId r) {
    AA_ASSERT(r < rows_.size());
    const auto last = static_cast<LocalId>(rows_.size() - 1);
    if (r != last) {
        rows_[r] = std::move(rows_[last]);
        // The displaced row's bitset slices, pending counts and touch stamp
        // move with it.
        for (DirtyBits* set : {&prop_, &send_}) {
            std::copy_n(slice(*set, last), words_per_row_, slice(*set, r));
            set->pending[r] = set->pending[last];
        }
        touch_stamp_[r] = touch_stamp_[last];
    }
    rows_.pop_back();
    for (DirtyBits* set : {&prop_, &send_}) {
        set->words.resize(rows_.size() * words_per_row_);
        set->pending.pop_back();
    }
    touch_stamp_.resize(rows_.size());
}

}  // namespace aa
