#include "mem/backing_store.h"

#include <sys/mman.h>

#include <cstring>

#include "common/logging.h"

namespace kona {

namespace {

constexpr std::size_t bitsPerWord = 64;

} // namespace

BackingStore::BackingStore(std::size_t capacity) : capacity_(capacity)
{
    KONA_ASSERT(capacity > 0, "empty backing store");
    std::size_t dataBytes = alignUp(capacity, pageSize);
    std::size_t words =
        (dataBytes / pageSize + bitsPerWord - 1) / bitsPerWord;
    reservedBytes_ =
        dataBytes + alignUp(words * sizeof(std::uint64_t), pageSize);
    void *base = mmap(nullptr, reservedBytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED)
        fatal("cannot reserve ", reservedBytes_,
              " bytes for a backing store");
    // Sparse by design: a transparent huge page would turn one written
    // byte into 2 MiB of resident memory.
    madvise(base, reservedBytes_, MADV_NOHUGEPAGE);
    data_ = static_cast<std::uint8_t *>(base);
    materialized_ = reinterpret_cast<std::uint64_t *>(data_ + dataBytes);
}

BackingStore::~BackingStore()
{
    munmap(data_, reservedBytes_);
}

void
BackingStore::materialize(Addr addr, std::size_t size)
{
    for (Addr pn = pageNumber(addr); pn <= pageNumber(addr + size - 1);
         ++pn) {
        std::uint64_t bit = std::uint64_t{1} << (pn % bitsPerWord);
        std::uint64_t &word = materialized_[pn / bitsPerWord];
        if ((word & bit) == 0) {
            word |= bit;
            ++resident_;
        }
    }
}

void
BackingStore::read(Addr addr, void *buf, std::size_t size)
{
    KONA_ASSERT(inBounds(addr, size),
                "read past end of backing store at ", addr);
    if (size > 0)
        std::memcpy(buf, data_ + addr, size);
}

void
BackingStore::write(Addr addr, const void *buf, std::size_t size)
{
    KONA_ASSERT(inBounds(addr, size),
                "write past end of backing store at ", addr);
    if (size == 0)
        return;
    std::memcpy(data_ + addr, buf, size);
    materialize(addr, size);
}

std::span<std::uint8_t>
BackingStore::bytes(Addr addr, std::size_t size)
{
    KONA_ASSERT(inBounds(addr, size),
                "view past end of backing store at ", addr);
    if (size > 0)
        materialize(addr, size);
    return {data_ + addr, size};
}

bool
BackingStore::pageResident(Addr addr) const
{
    if (addr >= capacity_)
        return false;
    Addr pn = pageNumber(addr);
    return (materialized_[pn / bitsPerWord] >> (pn % bitsPerWord)) & 1;
}

void
BackingStore::dropPage(Addr addr)
{
    if (!pageResident(addr))
        return;
    Addr pn = pageNumber(addr);
    materialized_[pn / bitsPerWord] &=
        ~(std::uint64_t{1} << (pn % bitsPerWord));
    --resident_;
    // Hand the frame back to the kernel; the next touch reads zeros.
    madvise(data_ + pn * pageSize, pageSize, MADV_DONTNEED);
}

} // namespace kona
