// Counting replacement of the global allocation functions. While counting
// is on, every path bumps a relaxed counter of its own thread's slot: one
// shared counter made the thread pool's allocations contend on a single
// cache line and slowed traced decisions by half. The deallocation functions
// forward to free() so the pair stays consistent.
#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc.hpp"

namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

constexpr std::size_t kSlots = 64;  // threads beyond this share slots
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
std::atomic<bool> g_counting{false};

void count_one() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  // Trivially initialized, so reading it never allocates.
  thread_local std::size_t slot = kSlots;
  if (slot == kSlots) {
    slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* counted(std::size_t size) {
  count_one();
  void* ptr = std::malloc(size > 0 ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* ptr = std::aligned_alloc(alignment, rounded > 0 ? rounded : alignment);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

namespace perfbench {

bool counts_allocations() { return true; }

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
// The nothrow forms too, so no allocation reaches another allocator that
// the replaced deletes below would then free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
