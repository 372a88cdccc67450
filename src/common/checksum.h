/**
 * @file
 * End-to-end integrity checksums. The CL-log protocol (rack/cl_log.h)
 * stamps every record with a CRC32 so the memory-node receiver can
 * detect payload corruption that the transport's own checks missed
 * (DMA bit flips, landing-area scribbles) — the FaRM-style end-to-end
 * check the paper's log design presumes.
 */

#ifndef KONA_COMMON_CHECKSUM_H
#define KONA_COMMON_CHECKSUM_H

#include <cstddef>
#include <cstdint>

namespace kona {

/**
 * CRC32 (IEEE 802.3 polynomial, reflected) over @p len bytes, computed
 * slicing-by-8 (eight bytes per step, same values as the bytewise
 * table loop).
 * Pass a previous return value as @p seed to checksum discontiguous
 * buffers as one logical stream.
 */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

} // namespace kona

#endif // KONA_COMMON_CHECKSUM_H
