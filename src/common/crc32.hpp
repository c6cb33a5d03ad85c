// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over byte
// ranges. Used by the serve wire protocol to detect corrupted frame
// payloads before any payload decoding runs, so a flipped bit on the
// wire surfaces as a typed BAD_CRC error instead of garbage records,
// and by the checkpoint and log-store manifests.
//
// Two kernels compute the same values (common/crc32.cpp):
//   - slicing-by-8: eight compile-time 256-entry tables fold eight
//     input bytes per step; portable, and the whole of every input under
//     64 bytes and every tail under 16 bytes;
//   - folded: on x86-64 CPUs with PCLMULQDQ and SSE4.1, the 16-byte-
//     multiple prefix of an input of 64 bytes or more is folded by
//     carry-less multiplication (Gopal et al., Intel 2009), then the
//     slicing kernel finishes the tail.
// crc32() picks the folded kernel once, from the CPU's feature bits.
// Values are those of the bytewise definition (tests/crc32_oracle.hpp
// pins both kernels at every length and alignment), so wire frames and
// stored CRCs are the same on every CPU.
#pragma once

#include <cstdint>
#include <string_view>

namespace bglpred {

/// CRC-32 of `data`. `seed` chains multi-part computations: pass the
/// previous call's result to continue a running checksum.
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

/// The slicing-by-8 kernel alone, on any CPU.
std::uint32_t crc32_slicing(std::string_view data, std::uint32_t seed = 0);

/// True when this build and CPU run the folded kernel; crc32() uses it
/// exactly then.
bool crc32_folded_supported();

/// The folded kernel, which crc32() runs where crc32_folded_supported().
/// Call it only there: on an x86-64 CPU without PCLMULQDQ it faults. A
/// build for another architecture has no folded prefix, so this is the
/// slicing kernel there.
std::uint32_t crc32_folded(std::string_view data, std::uint32_t seed = 0);

}  // namespace bglpred
