// Bump-pointer arena allocator (DESIGN.md §5.9 "search-core internals").
//
// The routing inner loop (A* open-list buckets, the flipping DP tables,
// OCG edge storage) used to hammer the global allocator once per net; under
// the concurrent --batch driver those allocations contend on the malloc
// arena locks. An Arena turns them into pointer bumps against run-local
// blocks that are recycled wholesale.
//
// Two usage patterns, both per-RunContext:
//
//   - scratch:   open an ArenaScope, allocate freely, and let the scope
//                rewind the arena to its entry mark on destruction. Scopes
//                nest LIFO (asserted); one route()/colorFlip() call each
//                opens one. After the first call warms the block list, a
//                search allocates zero bytes from the global allocator.
//   - persistent: allocate through the std::pmr::memory_resource interface
//                (Arena is one) and never deallocate; memory is reclaimed
//                when the owning RunContext dies. Backs the OCG edge and
//                adjacency vectors, whose lifetime is the run itself.
//
// Thread contract: an Arena is NOT thread-safe. The RunContext-owned
// arenas are touched only by the run's driving thread (the router, A*,
// coloring). Distinct concurrent runs use distinct contexts and therefore
// distinct arenas -- the same isolation contract the metrics registries
// follow.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <new>

namespace sadp {

class Arena : public std::pmr::memory_resource {
 public:
  /// First block size; later blocks double up to kMaxBlockBytes.
  static constexpr std::size_t kInitialBlockBytes = std::size_t(64) << 10;
  static constexpr std::size_t kMaxBlockBytes = std::size_t(8) << 20;

  Arena() = default;
  ~Arena() override;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (power of two). Never
  /// returns null; oversized requests get a dedicated block.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  /// Typed array allocation (uninitialized storage).
  template <typename T>
  T* allocArray(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds everything: all blocks become reusable, nothing is freed
  /// back to the system (the block list is the warm cache). Only valid
  /// when no ArenaScope is open and no persistent allocation is live.
  void reset();

  /// Bytes handed out since construction / the last reset().
  std::size_t bytesAllocated() const { return bytesAllocated_; }
  /// Bytes of system memory held in blocks.
  std::size_t bytesReserved() const { return bytesReserved_; }

 private:
  struct Block {
    Block* prev = nullptr;
    std::size_t capacity = 0;  ///< usable bytes after the header
    std::size_t used = 0;
    // payload follows the header
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  /// Position snapshot for ArenaScope rewind.
  struct Mark {
    Block* block;
    std::size_t used;
  };

  void* do_allocate(std::size_t bytes, std::size_t align) override {
    return allocate(bytes, align);
  }
  void do_deallocate(void*, std::size_t, std::size_t) override {}
  bool do_is_equal(const std::pmr::memory_resource& o) const noexcept override {
    return this == &o;
  }

  Block* newBlock(std::size_t minBytes);
  void* allocSlow(std::size_t bytes, std::size_t align);

  Block* head_ = nullptr;   ///< current block (top of the chain)
  Block* spare_ = nullptr;  ///< recycled blocks ahead of head_ (after rewind)
  std::size_t bytesAllocated_ = 0;
  std::size_t bytesReserved_ = 0;
  int openScopes_ = 0;

  friend class ArenaScope;
};

/// RAII rewind: captures the arena position at construction and rewinds to
/// it on destruction, invalidating everything allocated inside the scope.
/// Scopes must nest LIFO (debug-asserted via the open-scope counter).
class ArenaScope {
 public:
  explicit ArenaScope(Arena& a)
      : arena_(&a),
        mark_{a.head_, a.head_ ? a.head_->used : 0},
        depth_(++a.openScopes_) {}

  ~ArenaScope() {
    assert(arena_->openScopes_ == depth_ && "ArenaScope must nest LIFO");
    --arena_->openScopes_;
    rewind();
  }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  void rewind();

  Arena* arena_;
  Arena::Mark mark_;
  int depth_;
};

/// Minimal growable array over an Arena: push_back, index, size. Growth
/// abandons the old storage inside the arena (reclaimed at scope rewind),
/// so total waste is bounded by 2x the peak size -- the price of O(1)
/// amortized growth with zero allocator traffic.
template <typename T>
class ArenaVector {
 public:
  explicit ArenaVector(Arena& a, std::size_t reserveN = 0) : arena_(&a) {
    if (reserveN) grow(reserveN);
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(cap_ ? cap_ * 2 : 64);
    data_[size_++] = v;
  }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  void clear() { size_ = 0; }

 private:
  void grow(std::size_t n) {
    T* next = arena_->allocArray<T>(n);
    for (std::size_t i = 0; i < size_; ++i) next[i] = data_[i];
    data_ = next;
    cap_ = n;
  }

  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace sadp
