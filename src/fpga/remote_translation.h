/**
 * @file
 * RemoteTranslation: the shared-memory hashmap of §4.4 recording, for
 * each VFMem slab, where its bytes live in the rack. The Resource
 * Manager populates it on allocation; the FPGA only consults it when
 * fetching or writing back. Slabs may carry replicas (§4.5): eviction
 * writes to every copy, fetches read the primary and fail over.
 */

#ifndef KONA_FPGA_REMOTE_TRANSLATION_H
#define KONA_FPGA_REMOTE_TRANSLATION_H

#include <array>
#include <functional>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "rack/controller.h"

namespace kona {

/** Where a VFMem address lives remotely. */
struct RemoteLocation
{
    NodeId node = 0;
    Addr addr = 0;              ///< absolute address on the node
    std::uint32_t regionKey = 0;
};

/** Most copies (primary + replicas) one slab may have. */
inline constexpr std::size_t maxSlabCopies = 8;

/**
 * Every copy of one VFMem address, primary first: a fixed-capacity
 * snapshot, so translating on the fetch and eviction paths never
 * touches the heap and stays valid while the placement is rewritten.
 */
class RemoteCopies
{
  public:
    void
    push_back(const RemoteLocation &loc)
    {
        KONA_ASSERT(count_ < copies_.size(), "too many slab copies");
        copies_[count_++] = loc;
    }

    std::size_t size() const { return count_; }
    const RemoteLocation &operator[](std::size_t i) const
    {
        return copies_[i];
    }
    const RemoteLocation *begin() const { return copies_.data(); }
    const RemoteLocation *end() const { return copies_.data() + count_; }

  private:
    std::array<RemoteLocation, maxSlabCopies> copies_{};
    std::size_t count_ = 0;
};

/** One VFMem slab's remote placement: primary plus optional replicas. */
struct MappedSlab
{
    SlabGrant primary;
    std::vector<SlabGrant> replicas;
    /**
     * True for slabs of a coherence-shared region: the placement is
     * owned by the DirectoryService's registry (identical across every
     * compute node mapping the region), so rack-level rebuild and
     * decommission must not rewrite it per-runtime.
     */
    bool shared = false;
};

/** VFMem slab base -> placement map with range lookup. */
class RemoteTranslation
{
  public:
    /** Record VFMem range [vfmemBase, +primary.size) -> placement. */
    void
    addSlab(Addr vfmemBase, const SlabGrant &primary,
            std::vector<SlabGrant> replicas = {}, bool shared = false)
    {
        KONA_ASSERT(primary.size > 0, "empty slab grant");
        KONA_ASSERT(replicas.size() < maxSlabCopies,
                    "a slab holds at most ", maxSlabCopies, " copies");
        for (const SlabGrant &r : replicas) {
            KONA_ASSERT(r.size == primary.size,
                        "replica size mismatch");
        }
        slabs_[vfmemBase] = {primary, std::move(replicas), shared};
    }

    /** Remove the slab starting at @p vfmemBase. */
    void
    removeSlab(Addr vfmemBase)
    {
        KONA_ASSERT(slabs_.erase(vfmemBase) == 1,
                    "unknown slab at VFMem ", vfmemBase);
    }

    /** Promote replica @p index of the slab covering @p vfmemAddr to
     *  primary (fail-over after a memory-node loss). */
    void
    promoteReplica(Addr vfmemAddr, std::size_t index)
    {
        MappedSlab &slab = slabRef(vfmemAddr);
        KONA_ASSERT(index < slab.replicas.size(), "no such replica");
        std::swap(slab.primary, slab.replicas[index]);
    }

    /** Translate one VFMem address to its primary location. */
    RemoteLocation
    translate(Addr vfmemAddr) const
    {
        const auto &[base, slab] = slabAt(vfmemAddr);
        Addr delta = vfmemAddr - base;
        return {slab.primary.where.node,
                slab.primary.where.offset + delta,
                slab.primary.regionKey};
    }

    /** Translate to every copy: primary first, then replicas. */
    RemoteCopies
    translateAll(Addr vfmemAddr) const
    {
        const auto &[base, slab] = slabAt(vfmemAddr);
        Addr delta = vfmemAddr - base;
        RemoteCopies out;
        out.push_back({slab.primary.where.node,
                       slab.primary.where.offset + delta,
                       slab.primary.regionKey});
        for (const SlabGrant &r : slab.replicas) {
            out.push_back({r.where.node, r.where.offset + delta,
                           r.regionKey});
        }
        return out;
    }

    bool
    mapped(Addr vfmemAddr) const
    {
        auto it = slabs_.upper_bound(vfmemAddr);
        if (it == slabs_.begin())
            return false;
        --it;
        return vfmemAddr - it->first < it->second.primary.size;
    }

    std::size_t slabCount() const { return slabs_.size(); }
    const std::map<Addr, MappedSlab> &slabs() const { return slabs_; }

    /**
     * Visit every slab's placement mutably. The rack Controller uses
     * this (via PlacementRefs collected by the runtime) to rewrite
     * placements during rebuild and decommission without this layer
     * depending on the FPGA's address space.
     */
    void
    forEachSlab(const std::function<void(MappedSlab &)> &fn)
    {
        for (auto &[base, slab] : slabs_)
            fn(slab);
    }

  private:
    std::pair<Addr, const MappedSlab &>
    slabAt(Addr vfmemAddr) const
    {
        auto it = slabs_.upper_bound(vfmemAddr);
        if (it == slabs_.begin())
            fatal("VFMem address ", vfmemAddr, " below all slabs");
        --it;
        if (vfmemAddr - it->first >= it->second.primary.size)
            fatal("VFMem address ", vfmemAddr, " not backed by a slab");
        return {it->first, it->second};
    }

    MappedSlab &
    slabRef(Addr vfmemAddr)
    {
        auto it = slabs_.upper_bound(vfmemAddr);
        KONA_ASSERT(it != slabs_.begin(), "unmapped VFMem address");
        --it;
        KONA_ASSERT(vfmemAddr - it->first < it->second.primary.size,
                    "unmapped VFMem address");
        return it->second;
    }

    std::map<Addr, MappedSlab> slabs_;
};

} // namespace kona

#endif // KONA_FPGA_REMOTE_TRANSLATION_H
