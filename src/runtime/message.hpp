// Message payloads and byte-level serialization.
//
// Rank-to-rank messages are flat byte buffers, as they would be on an MPI
// wire. Serializing for real (rather than passing pointers between "ranks")
// keeps the ranks' address spaces honestly separate and gives the LogP model
// exact byte counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace aa {

/// Application-level tag identifying what a payload contains.
enum class MessageTag : std::uint32_t {
    BoundaryDvUpdate = 1,   // RC step: changed boundary distance-vector entries
    // Edge broadcast: header (to, weight), then the *existing* endpoint's DV
    // row — for vertex additions, add_edges and weight decreases alike.
    NewVertexDvRow = 2,
    // 3 is retired (Repartition-S's own row message; rows now move as
    // ShardMigration) and not reused.
    Control = 4,            // small control messages (counts, convergence votes)
    // Fully-dynamic shrink path (core/edge_delete.cpp):
    ShrinkEndpointRow = 5,      // pre-cascade DV row of a deleted edge's endpoint
    ShrinkAffectedColumns = 6,  // gather/broadcast of the affected-column union
    ShrinkBoundaryView = 7,     // boundary rows restricted to affected columns
    ShrinkRaise = 8,            // invalidated (vertex, column, old value) raises
    // The row move (core/migrate.cpp) of shard migration and Repartition-S:
    ShardMigration = 9,  // DV rows + adjacency moving from one rank to another
};

struct Message {
    RankId from{0};
    RankId to{0};
    MessageTag tag{MessageTag::Control};
    /// Immutable payload. Shared so that a tree broadcast can hand the same
    /// bytes to P-1 receivers without physical copies (receivers only read;
    /// the LogP model still charges every logical transmission).
    std::shared_ptr<const std::vector<std::byte>> payload;

    static std::shared_ptr<const std::vector<std::byte>> share(
        std::vector<std::byte> bytes) {
        return std::make_shared<const std::vector<std::byte>>(std::move(bytes));
    }

    std::span<const std::byte> bytes() const {
        return payload ? std::span<const std::byte>(*payload)
                       : std::span<const std::byte>{};
    }
    std::size_t size_bytes() const {
        return (payload ? payload->size() : 0) + 16;  // +header
    }
};

/// Append-only little-endian writer.
class Serializer {
public:
    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void write(const T& value) {
        const auto* raw = reinterpret_cast<const std::byte*>(&value);
        buffer_.insert(buffer_.end(), raw, raw + sizeof(T));
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void write_span(std::span<const T> values) {
        write(static_cast<std::uint64_t>(values.size()));
        const auto* raw = reinterpret_cast<const std::byte*>(values.data());
        buffer_.insert(buffer_.end(), raw, raw + values.size_bytes());
    }

    /// LEB128 unsigned varint: 7 payload bits per byte, high bit = "more
    /// bytes follow". Small values — sorted-column deltas, entry counts —
    /// shrink from 4-8 fixed bytes to 1-2, which is what makes the
    /// boundary-DV column array cheap on the (simulated) wire.
    void write_varint(std::uint64_t value) {
        while (value >= 0x80) {
            buffer_.push_back(static_cast<std::byte>((value & 0x7F) | 0x80));
            value >>= 7;
        }
        buffer_.push_back(static_cast<std::byte>(value));
    }

    /// Append raw bytes with no length prefix — for caller-framed data whose
    /// extent is recoverable from context (e.g. the boundary block's f64
    /// run, whose length is the already-written entry count).
    void write_bytes(std::span<const std::byte> bytes) {
        buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    }

    /// Append zero bytes until the buffer size is a multiple of `alignment`
    /// (a power of two). The boundary-block encoder uses this to land each
    /// block's f64 distance run on an 8-byte boundary so receivers can read
    /// it in place as an aligned span.
    void pad_to(std::size_t alignment) {
        AA_ASSERT((alignment & (alignment - 1)) == 0);
        while ((buffer_.size() & (alignment - 1)) != 0) {
            buffer_.push_back(std::byte{0});
        }
    }

    std::vector<std::byte> take() { return std::move(buffer_); }
    std::size_t size() const { return buffer_.size(); }

    /// The bytes written so far, without giving up the buffer — for callers
    /// that copy one encoding into several payloads (e.g. a boundary block
    /// shared by multiple destination ranks).
    std::span<const std::byte> view() const { return buffer_; }

    /// Forget the contents but keep the capacity, so one Serializer can be
    /// reused across many small encodings without reallocating.
    void clear() { buffer_.clear(); }

private:
    std::vector<std::byte> buffer_;
};

/// Sequential reader over a received payload.
class Deserializer {
public:
    explicit Deserializer(std::span<const std::byte> data) : data_(data) {}

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    T read() {
        AA_ASSERT_MSG(cursor_ + sizeof(T) <= data_.size(), "payload underrun");
        T value;
        std::memcpy(&value, data_.data() + cursor_, sizeof(T));
        cursor_ += sizeof(T);
        return value;
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    std::vector<T> read_vector() {
        const auto count = read<std::uint64_t>();
        // Divide instead of multiplying: count * sizeof(T) can wrap for a
        // hostile length prefix, which would pass the check and then attempt
        // a huge allocation.
        AA_ASSERT_MSG(count <= (data_.size() - cursor_) / sizeof(T), "payload underrun");
        std::vector<T> values(count);
        if (count != 0) {  // empty vector data() may be null: UB for memcpy
            std::memcpy(values.data(), data_.data() + cursor_, count * sizeof(T));
        }
        cursor_ += count * sizeof(T);
        return values;
    }

    bool exhausted() const { return cursor_ == data_.size(); }
    std::size_t consumed() const { return cursor_; }
    std::size_t remaining() const { return data_.size() - cursor_; }

private:
    std::span<const std::byte> data_;
    std::size_t cursor_{0};
};

/// Decode one LEB128 varint that must fit a u32 into `value`, advancing
/// `cursor`. Returns nullptr on success, else what is wrong: a continuation
/// bit set at the end of the payload ("varint truncated") or an encoding of
/// five bytes whose final byte spills past 32 bits ("varint overlong"). A
/// hostile payload can never make the decoder read past `data` or return a
/// silently wrapped value.
inline const char* try_read_varint_u32(std::span<const std::byte> data,
                                       std::size_t& cursor, std::uint32_t& value) {
    value = 0;
    for (unsigned shift = 0; shift < 35; shift += 7) {
        if (cursor >= data.size()) {
            return "varint truncated";
        }
        const auto byte = static_cast<std::uint8_t>(data[cursor++]);
        if (shift == 28 && (byte & 0xF0) != 0) {
            return "varint overlong";
        }
        value |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) {
            return nullptr;
        }
    }
    return "varint overlong";
}

/// Wire size of a value under the LEB128 encoding above.
inline constexpr std::size_t varint_size(std::uint64_t value) {
    std::size_t bytes = 1;
    while (value >= 0x80) {
        value >>= 7;
        ++bytes;
    }
    return bytes;
}

}  // namespace aa
