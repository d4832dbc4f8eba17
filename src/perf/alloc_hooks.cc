/**
 * @file
 * Process-wide allocation counters behind `c4bench --perf`.
 *
 * Replaces the global operator new/delete family with thin malloc/
 * free wrappers that count every allocation and its requested bytes,
 * so the harness can report an allocation count and byte total per
 * workload next to its wall-clock numbers. malloc-based (not a custom
 * arena) so the sanitizer builds keep their heap instrumentation
 * underneath.
 *
 * Counting is always on, so it must not serialize concurrent trials.
 * Each thread owns one cache-line-aligned slot and bumps it with a
 * relaxed load and store — no locked read-modify-write, no line
 * shared with another thread. A thread links its slot into an
 * intrusive list on its first allocation (registering allocates
 * nothing), and a pthread-key destructor folds the slot into a
 * retired total when the thread exits. allocStatsNow() sums the
 * retired total and every live slot under the registry mutex, which
 * the hot path never takes, so the totals stay exact and monotonic:
 * the same numbers one pair of process-global counters would give.
 *
 * Callers measure deltas around the region of interest (see
 * runPerf). The hooks land in every binary that links c4::perf —
 * perf.cc references allocStatsNow(), which pulls this archive
 * member in.
 */

#include <pthread.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

#include "perf/perf.h"

namespace {

enum class SlotState : unsigned char
{
    Unregistered, ///< this thread has not allocated yet
    Live,         ///< linked into the registry; bumped in place
    Retired,      ///< folded into gRetired at thread exit
};

/** One thread's counters. Only the owning thread writes count/bytes;
 * readers load them under gRegistryMutex. */
struct alignas(64) ThreadSlot
{
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> bytes{0};
    ThreadSlot *next = nullptr;
    SlotState state = SlotState::Unregistered;
};

// Constant-initialized, so operator new works before (and after)
// dynamic initialization of this translation unit.
constinit thread_local ThreadSlot tSlot;
constinit std::mutex gRegistryMutex;
constinit ThreadSlot *gLiveSlots = nullptr; // guarded by gRegistryMutex
constinit c4::perf::AllocStats gRetired;    // guarded by gRegistryMutex
constinit pthread_key_t gExitKey;
constinit pthread_once_t gExitKeyOnce = PTHREAD_ONCE_INIT;

/** Thread-exit hook: move the slot's totals into gRetired. Allocations
 * later in this thread's teardown take the Retired path below. */
void
retireSlot(void *arg)
{
    auto *slot = static_cast<ThreadSlot *>(arg);
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    gRetired.count += slot->count.load(std::memory_order_relaxed);
    gRetired.bytes += slot->bytes.load(std::memory_order_relaxed);
    ThreadSlot **link = &gLiveSlots;
    while (*link != slot)
        link = &(*link)->next;
    *link = slot->next;
    slot->state = SlotState::Retired;
}

void
createExitKey()
{
    if (pthread_key_create(&gExitKey, retireSlot) != 0)
        std::abort();
}

/** Single writer: a plain load + store, never a locked RMW. */
inline void
bump(ThreadSlot &s, std::size_t size)
{
    s.count.store(s.count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    s.bytes.store(s.bytes.load(std::memory_order_relaxed) + size,
                  std::memory_order_relaxed);
}

/** First allocation on this thread (register, then bump), or one made
 * during its teardown after retireSlot() (count straight into
 * gRetired). */
[[gnu::noinline]] void
countSlow(std::size_t size)
{
    if (tSlot.state == SlotState::Retired) {
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        ++gRetired.count;
        gRetired.bytes += size;
        return;
    }
    // The key's destructor only runs for a non-null value; without it
    // the slot would outlive its thread in the list.
    pthread_once(&gExitKeyOnce, createExitKey);
    if (pthread_setspecific(gExitKey, &tSlot) != 0)
        std::abort();
    {
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        tSlot.next = gLiveSlots;
        gLiveSlots = &tSlot;
        tSlot.state = SlotState::Live;
    }
    bump(tSlot, size);
}

inline void
count(std::size_t size)
{
    if (tSlot.state != SlotState::Live) [[unlikely]] {
        countSlow(size);
        return;
    }
    bump(tSlot, size);
}

void *
countedAlloc(std::size_t size)
{
    // malloc(0) may return null; operator new must not.
    void *p = std::malloc(size > 0 ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    count(size);
    return p;
}

void *
countedAllocAligned(std::size_t size, std::size_t align)
{
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size > 0 ? size : align) != 0)
        throw std::bad_alloc();
    count(size);
    return p;
}

} // namespace

namespace c4::perf {

AllocStats
allocStatsNow()
{
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    AllocStats stats = gRetired;
    for (const ThreadSlot *s = gLiveSlots; s != nullptr; s = s->next) {
        stats.count += s->count.load(std::memory_order_relaxed);
        stats.bytes += s->bytes.load(std::memory_order_relaxed);
    }
    return stats;
}

} // namespace c4::perf

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAllocAligned(size,
                               static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAllocAligned(size,
                               static_cast<std::size_t>(align));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    try {
        return countedAllocAligned(size,
                                   static_cast<std::size_t>(align));
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    try {
        return countedAllocAligned(size,
                                   static_cast<std::size_t>(align));
    } catch (...) {
        return nullptr;
    }
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t,
                const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}
