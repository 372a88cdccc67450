#include "cache/set_assoc_cache.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace kona {

SetAssocCache::SetAssocCache(const CacheConfig &config,
                             MetricScope scope)
    : config_(config), scope_(std::move(scope)),
      hits_(scope_.counter("hits")),
      misses_(scope_.counter("misses")),
      writebacks_(scope_.counter("writebacks"))
{
    // A way keeps the block number shifted left by one, so blocks are
    // at least two bytes and the number never loses its top bit.
    KONA_ASSERT(config.blockSize > 1 &&
                    (config.blockSize & (config.blockSize - 1)) == 0,
                "block size must be a power of two >= 2");
    KONA_ASSERT(config.associativity > 0, "associativity must be > 0");
    KONA_ASSERT(config.sizeBytes % (config.blockSize *
                                    config.associativity) == 0,
                "cache size must be a multiple of way size for ",
                config.name);
    numSets_ = config.sizeBytes / (config.blockSize *
                                   config.associativity);
    KONA_ASSERT(numSets_ > 0, "cache too small for its geometry");
    ways_.resize(numSets_ * config.associativity);
    used_.assign(numSets_, 0);
}

CacheOutcome
SetAssocCache::access(Addr addr, AccessType type,
                      CacheEviction &eviction)
{
    Addr blockNum = addr / config_.blockSize;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];

    for (std::size_t i = 0; i < used; ++i) {
        if (tagOf(set[i]) == blockNum) {
            Way hit = set[i];
            if (type == AccessType::Write)
                hit |= 1;
            for (std::size_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = hit;
            hits_.add();
            eviction.valid = false;
            return CacheOutcome::Hit;
        }
    }

    misses_.add();
    if (used >= config_.associativity) {
        Way victim = set[config_.associativity - 1];
        if (dirtyOf(victim))
            writebacks_.add();
        eviction = {tagOf(victim) * config_.blockSize, dirtyOf(victim),
                    true};
        used = config_.associativity - 1;
    } else {
        eviction.valid = false;
        used_[s] = static_cast<std::uint32_t>(used + 1);
    }
    for (std::size_t j = used; j > 0; --j)
        set[j] = set[j - 1];
    set[0] = makeWay(blockNum, type == AccessType::Write);
    return CacheOutcome::Miss;
}

void
SetAssocCache::fillDirty(Addr addr, CacheEviction &eviction)
{
    Addr blockNum = addr / config_.blockSize;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];

    for (std::size_t i = 0; i < used; ++i) {
        if (tagOf(set[i]) == blockNum) {
            for (std::size_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = makeWay(blockNum, true);
            eviction.valid = false;
            return;
        }
    }
    if (used >= config_.associativity) {
        Way victim = set[config_.associativity - 1];
        if (dirtyOf(victim))
            writebacks_.add();
        eviction = {tagOf(victim) * config_.blockSize, dirtyOf(victim),
                    true};
        used = config_.associativity - 1;
    } else {
        eviction.valid = false;
        used_[s] = static_cast<std::uint32_t>(used + 1);
    }
    for (std::size_t j = used; j > 0; --j)
        set[j] = set[j - 1];
    set[0] = makeWay(blockNum, true);
}

bool
SetAssocCache::contains(Addr addr) const
{
    Addr blockNum = addr / config_.blockSize;
    std::size_t s = setIndex(blockNum);
    const Way *set = setBase(s);
    std::size_t used = used_[s];
    for (std::size_t i = 0; i < used; ++i) {
        if (tagOf(set[i]) == blockNum)
            return true;
    }
    return false;
}

std::optional<bool>
SetAssocCache::invalidateBlock(Addr addr)
{
    Addr blockNum = addr / config_.blockSize;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];
    for (std::size_t i = 0; i < used; ++i) {
        if (tagOf(set[i]) == blockNum) {
            bool dirty = dirtyOf(set[i]);
            for (std::size_t j = i; j + 1 < used; ++j)
                set[j] = set[j + 1];
            used_[s] = static_cast<std::uint32_t>(used - 1);
            return dirty;
        }
    }
    return std::nullopt;
}

std::uint64_t
SetAssocCache::invalidatePage(Addr pn)
{
    KONA_ASSERT(config_.blockSize >= cacheLineSize &&
                    config_.blockSize <= pageSize,
                "invalidatePage needs 64B..4KB blocks (one mask bit each)");
    Addr firstBlock = pn * pageSize / config_.blockSize;
    Addr blocks = pageSize / config_.blockSize;
    // The page's blocks are consecutive block numbers, so they occupy
    // min(blocks, numSets) consecutive sets (wrapping); visit each once.
    std::size_t sets = std::min<std::size_t>(blocks, numSets_);
    std::uint64_t dirtyMask = 0;
    std::size_t s = setIndex(firstBlock);
    for (std::size_t k = 0; k < sets;
         ++k, s = s + 1 == numSets_ ? 0 : s + 1) {
        Way *set = setBase(s);
        std::size_t used = used_[s];
        // Read-only probe first: a set holding nothing of the page
        // needs no rewrite.
        bool held = false;
        for (std::size_t i = 0; i < used; ++i)
            held |= tagOf(set[i]) - firstBlock < blocks;
        if (!held)
            continue;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < used; ++i) {
            Addr block = tagOf(set[i]) - firstBlock;   // wraps below
            if (block < blocks) {
                if (dirtyOf(set[i]))
                    dirtyMask |= std::uint64_t{1} << block;
                continue;
            }
            set[kept++] = set[i];
        }
        used_[s] = static_cast<std::uint32_t>(kept);
    }
    return dirtyMask;
}

void
SetAssocCache::flushAll(std::vector<CacheEviction> &evictions)
{
    for (std::size_t s = 0; s < numSets_; ++s) {
        const Way *set = setBase(s);
        std::size_t used = used_[s];
        for (std::size_t i = 0; i < used; ++i) {
            if (dirtyOf(set[i]))
                writebacks_.add();
            evictions.push_back({tagOf(set[i]) * config_.blockSize,
                                 dirtyOf(set[i]), true});
        }
        used_[s] = 0;
    }
}

bool
SetAssocCache::checkInvariants() const
{
    for (std::size_t s = 0; s < numSets_; ++s) {
        std::size_t used = used_[s];
        if (used > config_.associativity)
            return false;
        const Way *set = setBase(s);
        std::unordered_set<Addr> tags;
        for (std::size_t i = 0; i < used; ++i) {
            if (!tags.insert(tagOf(set[i])).second)
                return false;      // duplicate tag in a set
            if (setIndex(tagOf(set[i])) != s)
                return false;      // tag hashed to the wrong set
        }
    }
    return true;
}

} // namespace kona
