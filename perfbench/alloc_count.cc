// Counts heap allocations binary-wide for runtime.allocs_per_trial by
// replacing the primary global allocation functions and their matching
// deallocation functions ([replacement.functions]); libstdc++'s array and
// nothrow forms forward to these.
#include <atomic>
#include <cstdlib>
#include <new>

#include "report.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

std::uint64_t meecc::perfbench::allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(alignment);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded != 0 ? rounded : align))
    return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
