/**
 * @file
 * DirtyLineBitmap: per-4KB-page 64-bit masks of dirty cache-lines.
 *
 * This is the data structure the coherent FPGA maintains from observed
 * writebacks (track-local-data) and the Eviction Handler scans to build
 * the CL log. One bit per 64-byte line, 64 lines per page.
 *
 * Two hot-path refinements (see DESIGN.md "Simulator performance"):
 * the total dirty-line count is maintained incrementally (popcount
 * deltas on every mutation) so totalDirtyLines()/totalDirtyBytes() —
 * called on the eviction path and by telemetry export — are O(1); and
 * a one-entry memo of the last page touched short-circuits the hash
 * probe for the common run of writebacks landing in one page. Map
 * nodes come from a pool that recycles the nodes of cleaned pages, so
 * dirtying a page does not reach the heap in steady state.
 */

#ifndef KONA_MEM_DIRTY_BITMAP_H
#define KONA_MEM_DIRTY_BITMAP_H

#include <bit>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>

#include "common/types.h"

namespace kona {

/** Sparse map of page number -> dirty-line mask. */
class DirtyLineBitmap
{
  public:
    /** Mark all cache-lines overlapped by [addr, addr+size) dirty. */
    void
    markRange(Addr addr, std::size_t size)
    {
        if (size == 0)
            return;
        Addr firstLine = alignDown(addr, cacheLineSize) / cacheLineSize;
        Addr lastLine =
            alignDown(addr + size - 1, cacheLineSize) / cacheLineSize;
        // One mask OR per page instead of one markLine per line.
        for (Addr pn = firstLine / linesPerPage;
             pn <= lastLine / linesPerPage; ++pn) {
            Addr lo = pn == firstLine / linesPerPage
                          ? firstLine % linesPerPage
                          : 0;
            Addr hi = pn == lastLine / linesPerPage
                          ? lastLine % linesPerPage
                          : linesPerPage - 1;
            std::uint64_t mask = hi - lo == 63
                                     ? ~std::uint64_t{0}
                                     : ((std::uint64_t{1}
                                         << (hi - lo + 1)) -
                                        1)
                                           << lo;
            orMask(pn, mask);
        }
    }

    /** Mark the single cache-line containing @p addr dirty. */
    void
    markLine(Addr addr)
    {
        std::uint64_t *mask = maskFor(pageNumber(addr));
        std::uint64_t bit = 1ULL << lineInPage(addr);
        if ((*mask & bit) == 0) {
            *mask |= bit;
            ++dirtyLineCount_;
        }
    }

    /** Dirty mask for page @p pn (0 if clean/untracked). */
    std::uint64_t
    pageMask(Addr pn) const
    {
        if (memoPn_ == pn && memoMask_ != nullptr)
            return *memoMask_;
        auto it = masks_.find(pn);
        return it == masks_.end() ? 0 : it->second;
    }

    bool pageDirty(Addr pn) const { return pageMask(pn) != 0; }

    /** Number of dirty lines in page @p pn. */
    unsigned
    dirtyLines(Addr pn) const
    {
        return static_cast<unsigned>(std::popcount(pageMask(pn)));
    }

    /**
     * OR @p mask back into page @p pn's mask. The pipelined eviction
     * path clears a page's mask when it packs the lines into a CL log;
     * if the shipment later fails terminally, the packed mask is
     * restored here so those lines are not silently lost.
     */
    void
    orMask(Addr pn, std::uint64_t mask)
    {
        if (mask == 0)
            return;
        std::uint64_t *slot = maskFor(pn);
        dirtyLineCount_ += static_cast<std::uint64_t>(
            std::popcount(mask & ~*slot));
        *slot |= mask;
    }

    /** Forget page @p pn (after writeback). Returns old mask. */
    std::uint64_t
    clearPage(Addr pn)
    {
        auto it = masks_.find(pn);
        if (it == masks_.end())
            return 0;
        std::uint64_t mask = it->second;
        dirtyLineCount_ -=
            static_cast<std::uint64_t>(std::popcount(mask));
        // erase invalidates references into the map; drop the memo.
        memoMask_ = nullptr;
        memoPn_ = invalidAddr;
        masks_.erase(it);
        return mask;
    }

    void
    clearAll()
    {
        masks_.clear();
        dirtyLineCount_ = 0;
        memoMask_ = nullptr;
        memoPn_ = invalidAddr;
    }

    /** Total dirty lines across all pages (O(1)). */
    std::uint64_t totalDirtyLines() const { return dirtyLineCount_; }

    std::uint64_t totalDirtyBytes() const
    {
        return totalDirtyLines() * cacheLineSize;
    }

    std::size_t dirtyPages() const { return masks_.size(); }

    const std::pmr::unordered_map<Addr, std::uint64_t> &pages() const
    {
        return masks_;
    }

  private:
    /**
     * Mutable mask slot for @p pn, creating it if needed. The memo is
     * safe because unordered_map references survive insertions; only
     * erase() (clearPage/clearAll) invalidates it, and both drop it.
     */
    std::uint64_t *
    maskFor(Addr pn)
    {
        if (memoPn_ == pn && memoMask_ != nullptr)
            return memoMask_;
        memoPn_ = pn;
        memoMask_ = &masks_[pn];
        return memoMask_;
    }

    std::pmr::unsynchronized_pool_resource pool_;
    std::pmr::unordered_map<Addr, std::uint64_t> masks_{&pool_};
    std::uint64_t dirtyLineCount_ = 0;
    Addr memoPn_ = invalidAddr;
    std::uint64_t *memoMask_ = nullptr;
};

/**
 * Count the contiguous dirty segments in a 64-bit line mask, the metric
 * behind Fig 3 and the CL-log aggregation efficiency.
 */
inline unsigned
segmentCount(std::uint64_t mask)
{
    // A segment starts at every set bit whose lower neighbour is clear.
    return static_cast<unsigned>(std::popcount(mask & ~(mask << 1)));
}

} // namespace kona

#endif // KONA_MEM_DIRTY_BITMAP_H
