/**
 * @file
 * Differential oracles for the flat-array hot-path stores.
 *
 * The simulator's per-access path was rebuilt on flat arrays (see
 * DESIGN.md "Simulator performance"); these tests keep the legacy
 * list-/map-based implementations alive as reference models and drive
 * both through long randomized traces, asserting that every
 * observable — hit/miss outcomes, victim sequences, writeback counts,
 * flush/invalidate results, frame placement, dirty-line totals —
 * matches the historical behaviour exactly. The one-pass page snoop is
 * held to the line-by-line walk it replaced the same way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/set_assoc_cache.h"
#include "common/rng.h"
#include "fpga/fmem_cache.h"
#include "mem/dirty_bitmap.h"

namespace kona {
namespace {

// ---------------------------------------------------------------------
// Legacy list-based SetAssocCache (the pre-flat-array implementation),
// kept verbatim as the behavioural reference.
// ---------------------------------------------------------------------

struct RefEviction
{
    Addr blockAddr = 0;
    bool dirty = false;
    bool valid = false;
};

class ListCacheRef
{
  public:
    explicit ListCacheRef(const CacheConfig &config) : config_(config)
    {
        numSets_ = config.sizeBytes /
                   (config.blockSize * config.associativity);
        sets_.resize(numSets_);
    }

    CacheOutcome
    access(Addr addr, AccessType type, RefEviction &eviction)
    {
        Addr blockNum = addr / config_.blockSize;
        Set &set = sets_[setIndex(blockNum)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == blockNum) {
                if (type == AccessType::Write)
                    it->dirty = true;
                set.splice(set.begin(), set, it);
                ++hits;
                eviction.valid = false;
                return CacheOutcome::Hit;
            }
        }
        ++misses;
        evictIfFull(set, eviction);
        set.push_front({blockNum, type == AccessType::Write});
        return CacheOutcome::Miss;
    }

    void
    fillDirty(Addr addr, RefEviction &eviction)
    {
        Addr blockNum = addr / config_.blockSize;
        Set &set = sets_[setIndex(blockNum)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == blockNum) {
                it->dirty = true;
                set.splice(set.begin(), set, it);
                eviction.valid = false;
                return;
            }
        }
        evictIfFull(set, eviction);
        set.push_front({blockNum, true});
    }

    bool
    contains(Addr addr) const
    {
        Addr blockNum = addr / config_.blockSize;
        const Set &set = sets_[setIndex(blockNum)];
        for (const Way &way : set) {
            if (way.tag == blockNum)
                return true;
        }
        return false;
    }

    std::optional<bool>
    invalidateBlock(Addr addr)
    {
        Addr blockNum = addr / config_.blockSize;
        Set &set = sets_[setIndex(blockNum)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == blockNum) {
                bool dirty = it->dirty;
                set.erase(it);
                return dirty;
            }
        }
        return std::nullopt;
    }

    std::vector<RefEviction>
    flushAll()
    {
        std::vector<RefEviction> evictions;
        for (Set &set : sets_) {
            for (const Way &way : set) {
                if (way.dirty)
                    ++writebacks;
                evictions.push_back({way.tag * config_.blockSize,
                                     way.dirty, true});
            }
            set.clear();
        }
        return evictions;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Way
    {
        Addr tag;
        bool dirty;
    };
    using Set = std::list<Way>;

    void
    evictIfFull(Set &set, RefEviction &eviction)
    {
        if (set.size() >= config_.associativity) {
            const Way &victim = set.back();
            if (victim.dirty)
                ++writebacks;
            eviction = {victim.tag * config_.blockSize, victim.dirty,
                        true};
            set.pop_back();
        } else {
            eviction.valid = false;
        }
    }

    std::size_t setIndex(Addr blockNum) const
    {
        return static_cast<std::size_t>(blockNum % numSets_);
    }

    CacheConfig config_;
    std::size_t numSets_;
    std::vector<Set> sets_;
};

CacheConfig
geometry(std::size_t sets, std::size_t ways, std::size_t block)
{
    CacheConfig cfg;
    cfg.name = "diff";
    cfg.blockSize = block;
    cfg.associativity = ways;
    cfg.sizeBytes = sets * ways * block;
    return cfg;
}

struct DiffGeometry
{
    std::size_t sets, ways, block;
};

class CacheDifferential : public ::testing::TestWithParam<DiffGeometry>
{
};

TEST_P(CacheDifferential, MatchesLegacyListImplementation)
{
    const DiffGeometry &g = GetParam();
    CacheConfig cfg = geometry(g.sets, g.ways, g.block);
    SetAssocCache cache(cfg);
    ListCacheRef ref(cfg);
    Rng rng(0xd1ffull + g.sets * 31 + g.ways);
    Addr span = g.sets * g.ways * g.block * 4;

    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(span);
        double dice = rng.uniform();
        CacheEviction ev;
        RefEviction refEv;
        if (dice < 0.60) {
            auto type = rng.chance(0.3) ? AccessType::Write
                                        : AccessType::Read;
            CacheOutcome got = cache.access(addr, type, ev);
            CacheOutcome want = ref.access(addr, type, refEv);
            ASSERT_EQ(got, want) << "access #" << i;
            ASSERT_EQ(ev.valid, refEv.valid) << "access #" << i;
            if (ev.valid) {
                ASSERT_EQ(ev.blockAddr, refEv.blockAddr)
                    << "access #" << i;
                ASSERT_EQ(ev.dirty, refEv.dirty) << "access #" << i;
            }
        } else if (dice < 0.75) {
            cache.fillDirty(addr, ev);
            ref.fillDirty(addr, refEv);
            ASSERT_EQ(ev.valid, refEv.valid) << "fill #" << i;
            if (ev.valid) {
                ASSERT_EQ(ev.blockAddr, refEv.blockAddr)
                    << "fill #" << i;
                ASSERT_EQ(ev.dirty, refEv.dirty) << "fill #" << i;
            }
        } else if (dice < 0.85) {
            ASSERT_EQ(cache.invalidateBlock(addr),
                      ref.invalidateBlock(addr))
                << "invalidate #" << i;
        } else if (dice < 0.95) {
            ASSERT_EQ(cache.contains(addr), ref.contains(addr))
                << "contains #" << i;
        } else if (dice < 0.98) {
            // invalidatePage must equal invalidateBlock on each block
            // of the page in ascending order.
            Addr pn = addr / pageSize;
            std::uint64_t expected = 0;
            std::size_t blocks = pageSize / cfg.blockSize;
            for (std::size_t b = 0; b < blocks; ++b) {
                auto dirty = ref.invalidateBlock(pn * pageSize +
                                                 b * cfg.blockSize);
                if (dirty.value_or(false))
                    expected |= std::uint64_t{1} << b;
            }
            ASSERT_EQ(cache.invalidatePage(pn), expected)
                << "page invalidate #" << i;
        } else {
            std::vector<CacheEviction> flushed;
            cache.flushAll(flushed);
            std::vector<RefEviction> refFlushed = ref.flushAll();
            ASSERT_EQ(flushed.size(), refFlushed.size())
                << "flush #" << i;
            for (std::size_t k = 0; k < flushed.size(); ++k) {
                ASSERT_EQ(flushed[k].blockAddr,
                          refFlushed[k].blockAddr);
                ASSERT_EQ(flushed[k].dirty, refFlushed[k].dirty);
            }
        }
        ASSERT_TRUE(cache.checkInvariants()) << "op #" << i;
    }
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.writebacks(), ref.writebacks);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(DiffGeometry{1, 1, 64}, DiffGeometry{4, 2, 64},
                      DiffGeometry{16, 8, 64},
                      DiffGeometry{64, 16, 64},
                      DiffGeometry{8, 4, 4096},
                      DiffGeometry{2, 4, 1024}));

// ---------------------------------------------------------------------
// Fused page snoop against the line-by-line walk it replaced.
// ---------------------------------------------------------------------

/** Records the ordered writeback stream a hierarchy emits. */
struct WritebackLog : MemorySideListener
{
    void onLineRequest(Addr, AccessType) override {}
    void onWriteback(Addr lineAddr) override { lines.push_back(lineAddr); }

    std::vector<Addr> lines;
};

class SnoopDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SnoopDifferential, SnoopPageMatchesPerLineSnoop)
{
    // Small levels (4 to 16 sets, fewer than a page's 64 lines), so a
    // page's lines share sets with each other and with other pages.
    HierarchyConfig cfg;
    cfg.levels = {{"L1d", 1 * KiB, 4, cacheLineSize},
                  {"L2", 4 * KiB, 8, cacheLineSize},
                  {"L3", 16 * KiB, 16, cacheLineSize}};
    CacheHierarchy fused(cfg), perLine(cfg);
    WritebackLog fusedLog, perLineLog;
    fused.setListener(&fusedLog);
    perLine.setListener(&perLineLog);

    Rng rng(GetParam());
    const Addr pages = 24;   // hot pages, 96 KiB > the whole hierarchy
    for (int i = 0; i < 20000; ++i) {
        Addr pn = rng.below(pages);
        if (rng.chance(0.97)) {
            Addr addr = pn * pageSize + rng.below(pageSize);
            auto type = rng.chance(0.4) ? AccessType::Write
                                        : AccessType::Read;
            fused.access(addr, 8, type);
            perLine.access(addr, 8, type);
            continue;
        }
        fused.snoopPage(pn);
        for (std::size_t line = 0; line < linesPerPage; ++line)
            perLine.snoopLine(pn * pageSize + line * cacheLineSize);
        ASSERT_EQ(fusedLog.lines, perLineLog.lines) << "snoop #" << i;
        ASSERT_EQ(fused.memoryWritebacks(), perLine.memoryWritebacks());
        for (std::size_t l = 0; l < fused.numLevels(); ++l) {
            for (Addr a = 0; a < pages * pageSize; a += cacheLineSize) {
                ASSERT_EQ(fused.level(l).contains(a),
                          perLine.level(l).contains(a))
                    << "level " << l << " line " << a << " snoop #" << i;
            }
        }
    }
    // Equal flush streams: the surviving lines' dirty bits agree too.
    fused.flushAll();
    perLine.flushAll();
    EXPECT_EQ(fusedLog.lines, perLineLog.lines);
    EXPECT_EQ(fused.memoryWritebacks(), perLine.memoryWritebacks());
    EXPECT_GT(fused.memoryWritebacks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnoopDifferential,
                         ::testing::Values(1u, 7u, 611u, 0x5eedu));

// ---------------------------------------------------------------------
// Legacy list-based FMemCache reference (per-set std::list plus
// per-set free-frame vectors, exactly as before the flat layout).
// ---------------------------------------------------------------------

class ListFMemRef
{
  public:
    ListFMemRef(std::size_t sizeBytes, std::size_t associativity)
        : assoc_(associativity)
    {
        std::size_t frames = sizeBytes / pageSize;
        numSets_ = frames / assoc_;
        sets_.resize(numSets_);
        freeFrames_.resize(numSets_);
        for (std::size_t set = 0; set < numSets_; ++set) {
            for (std::size_t way = 0; way < assoc_; ++way)
                freeFrames_[set].push_back(set * assoc_ + way);
        }
    }

    std::optional<std::size_t>
    lookup(Addr vpn)
    {
        Set &set = sets_[setOf(vpn)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->vpn == vpn) {
                set.splice(set.begin(), set, it);
                ++hits;
                return it->frame;
            }
        }
        ++misses;
        return std::nullopt;
    }

    bool
    contains(Addr vpn) const
    {
        const Set &set = sets_[setOf(vpn)];
        for (const Way &way : set) {
            if (way.vpn == vpn)
                return true;
        }
        return false;
    }

    std::optional<std::size_t>
    frameOf(Addr vpn) const
    {
        const Set &set = sets_[setOf(vpn)];
        for (const Way &way : set) {
            if (way.vpn == vpn)
                return way.frame;
        }
        return std::nullopt;
    }

    std::size_t
    insert(Addr vpn)
    {
        std::size_t si = setOf(vpn);
        std::size_t frame = freeFrames_[si].back();
        freeFrames_[si].pop_back();
        sets_[si].push_front({vpn, frame, false});
        return frame;
    }

    void
    setEvictionInFlight(Addr vpn, bool inFlight)
    {
        for (Way &way : sets_[setOf(vpn)]) {
            if (way.vpn == vpn) {
                way.evicting = inFlight;
                return;
            }
        }
    }

    std::optional<FMemCache::Victim>
    victimFor(Addr vpn) const
    {
        std::size_t si = setOf(vpn);
        if (!freeFrames_[si].empty())
            return std::nullopt;
        for (auto it = sets_[si].rbegin(); it != sets_[si].rend();
             ++it) {
            if (!it->evicting)
                return FMemCache::Victim{it->vpn, it->frame};
        }
        const Way &lru = sets_[si].back();
        return FMemCache::Victim{lru.vpn, lru.frame};
    }

    void
    remove(Addr vpn)
    {
        std::size_t si = setOf(vpn);
        Set &set = sets_[si];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->vpn == vpn) {
                freeFrames_[si].push_back(it->frame);
                set.erase(it);
                return;
            }
        }
        FAIL() << "reference remove of absent page " << vpn;
    }

    std::vector<FMemCache::Victim>
    overOccupiedVictims(std::size_t freeWays) const
    {
        std::vector<FMemCache::Victim> victims;
        for (std::size_t si = 0; si < numSets_; ++si) {
            std::size_t free = freeFrames_[si].size();
            if (free >= freeWays)
                continue;
            std::size_t need = freeWays - free;
            for (auto it = sets_[si].rbegin();
                 need > 0 && it != sets_[si].rend(); ++it) {
                if (it->evicting)
                    continue;
                victims.push_back({it->vpn, it->frame});
                --need;
            }
        }
        return victims;
    }

    std::vector<Addr>
    residentPages() const
    {
        std::vector<Addr> pages;
        for (const Set &set : sets_) {
            for (const Way &way : set)
                pages.push_back(way.vpn);
        }
        return pages;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Way
    {
        Addr vpn;
        std::size_t frame;
        bool evicting = false;
    };
    using Set = std::list<Way>;

    std::size_t setOf(Addr vpn) const { return vpn % numSets_; }

    std::size_t assoc_;
    std::size_t numSets_;
    std::vector<Set> sets_;
    std::vector<std::vector<std::size_t>> freeFrames_;
};

TEST(FMemDifferential, MatchesLegacyListImplementation)
{
    constexpr std::size_t sizeBytes = 16 * 4 * pageSize;  // 16 sets
    FMemCache fmem(sizeBytes, 4);
    ListFMemRef ref(sizeBytes, 4);
    Rng rng(0xf3e1ull);
    constexpr Addr vpnSpan = 16 * 4 * 3;   // 3x capacity

    for (int i = 0; i < 20000; ++i) {
        Addr vpn = rng.below(vpnSpan);
        double dice = rng.uniform();
        if (dice < 0.55) {
            // The serve-line pattern: lookup, evict a victim if the
            // set is full, insert.
            auto got = fmem.lookup(vpn);
            auto want = ref.lookup(vpn);
            ASSERT_EQ(got, want) << "lookup #" << i;
            if (!got.has_value()) {
                auto victim = fmem.victimFor(vpn);
                auto refVictim = ref.victimFor(vpn);
                ASSERT_EQ(victim.has_value(), refVictim.has_value());
                if (victim.has_value()) {
                    ASSERT_EQ(victim->vfmemPage,
                              refVictim->vfmemPage);
                    ASSERT_EQ(victim->frame, refVictim->frame);
                    fmem.remove(victim->vfmemPage);
                    ref.remove(refVictim->vfmemPage);
                }
                ASSERT_EQ(fmem.insert(vpn), ref.insert(vpn))
                    << "insert #" << i;
            }
        } else if (dice < 0.70) {
            ASSERT_EQ(fmem.contains(vpn), ref.contains(vpn));
            ASSERT_EQ(fmem.frameOf(vpn), ref.frameOf(vpn));
        } else if (dice < 0.80) {
            bool fence = rng.chance(0.5);
            fmem.setEvictionInFlight(vpn, fence);
            ref.setEvictionInFlight(vpn, fence);
        } else if (dice < 0.90) {
            std::size_t freeWays = 1 + rng.below(2);
            FMemCache::Victim got[64];
            std::size_t owed =
                fmem.overOccupiedVictims(freeWays, got, 64);
            ASSERT_LE(owed, 64u);
            auto want = ref.overOccupiedVictims(freeWays);
            ASSERT_EQ(owed, want.size()) << "pump #" << i;
            for (std::size_t k = 0; k < owed; ++k) {
                ASSERT_EQ(got[k].vfmemPage, want[k].vfmemPage);
                ASSERT_EQ(got[k].frame, want[k].frame);
            }
        } else if (dice < 0.97) {
            if (fmem.contains(vpn)) {
                fmem.remove(vpn);
                ref.remove(vpn);
            }
        } else {
            auto got = fmem.residentPages();
            auto want = ref.residentPages();
            ASSERT_EQ(got, want) << "resident #" << i;
        }
        ASSERT_TRUE(fmem.checkInvariants()) << "op #" << i;
        ASSERT_EQ(fmem.pagesResident(), ref.residentPages().size());
    }
    EXPECT_EQ(fmem.hits(), ref.hits);
    EXPECT_EQ(fmem.misses(), ref.misses);
}

// ---------------------------------------------------------------------
// DirtyLineBitmap: the incremental dirty-line count must equal a full
// recount after any mutation sequence.
// ---------------------------------------------------------------------

std::uint64_t
recount(const DirtyLineBitmap &bitmap)
{
    std::uint64_t total = 0;
    for (const auto &[pn, mask] : bitmap.pages())
        total += static_cast<std::uint64_t>(std::popcount(mask));
    return total;
}

TEST(DirtyBitmapDifferential, IncrementalCountMatchesRecount)
{
    DirtyLineBitmap bitmap;
    std::unordered_map<Addr, std::uint64_t> shadow;
    Rng rng(0xb17ull);
    constexpr Addr span = 64 * pageSize;

    for (int i = 0; i < 20000; ++i) {
        double dice = rng.uniform();
        if (dice < 0.45) {
            Addr addr = rng.below(span);
            bitmap.markLine(addr);
            shadow[pageNumber(addr)] |= 1ULL << lineInPage(addr);
        } else if (dice < 0.75) {
            Addr addr = rng.below(span);
            std::size_t size = 1 + rng.below(3 * pageSize);
            size = std::min<std::size_t>(size, span - addr);
            bitmap.markRange(addr, size);
            if (size > 0) {
                Addr first = alignDown(addr, cacheLineSize);
                Addr last = alignDown(addr + size - 1, cacheLineSize);
                for (Addr line = first; line <= last;
                     line += cacheLineSize)
                    shadow[pageNumber(line)] |= 1ULL
                                                << lineInPage(line);
            }
        } else if (dice < 0.85) {
            Addr pn = rng.below(span / pageSize);
            std::uint64_t mask = rng.next();
            bitmap.orMask(pn, mask);
            if (mask != 0)
                shadow[pn] |= mask;
        } else if (dice < 0.97) {
            Addr pn = rng.below(span / pageSize);
            std::uint64_t got = bitmap.clearPage(pn);
            std::uint64_t want = 0;
            auto it = shadow.find(pn);
            if (it != shadow.end()) {
                want = it->second;
                shadow.erase(it);
            }
            ASSERT_EQ(got, want) << "clear #" << i;
        } else {
            Addr pn = rng.below(span / pageSize);
            auto it = shadow.find(pn);
            ASSERT_EQ(bitmap.pageMask(pn),
                      it == shadow.end() ? 0 : it->second);
        }
        ASSERT_EQ(bitmap.totalDirtyLines(), recount(bitmap))
            << "op #" << i;
        ASSERT_EQ(bitmap.dirtyPages(), shadow.size()) << "op #" << i;
    }
    bitmap.clearAll();
    EXPECT_EQ(bitmap.totalDirtyLines(), 0u);
    EXPECT_EQ(bitmap.totalDirtyBytes(), 0u);
    EXPECT_EQ(bitmap.dirtyPages(), 0u);
}

} // namespace
} // namespace kona
