// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum that
// seals every checkpoint section (see ARCHITECTURE.md, "Checkpoints").
//
// The x86-64 SSE4.2 `crc32` instruction computes exactly this polynomial, so
// hosts that report SSE4.2 at runtime take an 8-bytes-per-instruction loop;
// everything else takes a table-driven slicing-by-8 loop. Both produce the
// same value for every input (pinned on the standard check vector
// "123456789" -> 0xE3069283).
#pragma once

#include <cstdint>
#include <span>

namespace aa {

/// CRC32C of `data`, continuing from `crc` — the finalized CRC of the bytes
/// that precede `data` (0 for none). So crc32c(b, crc32c(a)) == crc32c(a ++ b),
/// which lets a writer checksum a section piece by piece as it streams out.
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t crc = 0);

/// The portable slicing-by-8 loop, regardless of the host (tests pin it
/// against the hardware path).
std::uint32_t crc32c_portable(std::span<const std::byte> data, std::uint32_t crc = 0);

}  // namespace aa
