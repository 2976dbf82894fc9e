#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aa {
namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78u;

/// table[k][b]: the CRC contribution of byte b followed by k zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
    std::array<std::array<std::uint32_t, 256>, 8> table{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t crc = b;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPolynomial : 0u);
        }
        table[0][b] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t b = 0; b < 256; ++b) {
            const std::uint32_t prev = table[k - 1][b];
            table[k][b] = (prev >> 8) ^ table[0][prev & 0xFFu];
        }
    }
    return table;
}

constexpr auto kTables = make_tables();

/// Raw (un-finalized) slicing-by-8 update.
std::uint32_t update_portable(std::uint32_t crc, const unsigned char* p, std::size_t n) {
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));  // little-endian host (x86-64, arm64)
        word ^= crc;
        crc = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
              kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
              kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
              kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
        p += 8;
        n -= 8;
    }
    while (n-- > 0) {
        crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xFFu];
    }
    return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t update_sse42(std::uint32_t crc,
                                                             const unsigned char* p,
                                                             std::size_t n) {
    std::uint64_t wide = crc;
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        wide = _mm_crc32_u64(wide, word);
        p += 8;
        n -= 8;
    }
    auto narrow = static_cast<std::uint32_t>(wide);
    while (n-- > 0) {
        narrow = _mm_crc32_u8(narrow, *p++);
    }
    return narrow;
}

bool detect_sse42() {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}
const bool kHostHasSse42 = detect_sse42();
#endif

}  // namespace

std::uint32_t crc32c_portable(std::span<const std::byte> data, std::uint32_t crc) {
    const auto* p = reinterpret_cast<const unsigned char*>(data.data());
    return ~update_portable(~crc, p, data.size());
}

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t crc) {
#if defined(__x86_64__)
    if (kHostHasSse42) {
        const auto* p = reinterpret_cast<const unsigned char*>(data.data());
        return ~update_sse42(~crc, p, data.size());
    }
#endif
    return crc32c_portable(data, crc);
}

}  // namespace aa
