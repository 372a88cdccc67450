/**
 * @file
 * BackingStore: a flat, sparsely populated simulated DRAM.
 *
 * The whole capacity is one MAP_NORESERVE anonymous reservation, so an
 * access is pointer arithmetic plus one memcpy and multi-GB simulated
 * address spaces cost only the pages actually written: the kernel
 * supplies zero-filled pages on first touch. A bitmap in the same
 * reservation records which pages have been written (materialized).
 * This models both CMem on the compute node and the DRAM of memory
 * nodes.
 */

#ifndef KONA_MEM_BACKING_STORE_H
#define KONA_MEM_BACKING_STORE_H

#include <cstdint>
#include <span>

#include "common/types.h"
#include "mem/memory_interface.h"

namespace kona {

/** Flat page-granularity byte store. Zero-filled on first touch. */
class BackingStore : public MemoryInterface
{
  public:
    /** @param capacity Maximum legal address + 1 (checked on access). */
    explicit BackingStore(std::size_t capacity);
    ~BackingStore() override;

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    void read(Addr addr, void *buf, std::size_t size) override;
    void write(Addr addr, const void *buf, std::size_t size) override;

    std::size_t capacity() const { return capacity_; }

    /** Number of pages materialized so far (resident footprint). */
    std::size_t residentPages() const { return resident_; }

    /**
     * Direct view of [addr, addr + size), materializing its pages; used
     * by zero-copy paths (FMem frames, CL logs verified in place).
     */
    std::span<std::uint8_t> bytes(Addr addr, std::size_t size);

    /** Whether the page containing @p addr has been materialized. */
    bool pageResident(Addr addr) const;

    /** Discard the page containing @p addr (reads as zero afterwards). */
    void dropPage(Addr addr);

  private:
    /** Overflow-safe: [addr, addr + size) lies inside the capacity. */
    bool
    inBounds(Addr addr, std::size_t size) const
    {
        return size <= capacity_ && addr <= capacity_ - size;
    }

    /** Mark the pages of [addr, addr + size) materialized (size > 0). */
    void materialize(Addr addr, std::size_t size);

    std::size_t capacity_;
    std::size_t reservedBytes_;      ///< data + bitmap, page aligned
    std::uint8_t *data_;             ///< the reservation
    std::uint64_t *materialized_;    ///< one bit per page, after data
    std::size_t resident_ = 0;
};

} // namespace kona

#endif // KONA_MEM_BACKING_STORE_H
