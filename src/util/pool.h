// Free-list pool and the pool-backed vector that stores provenance
// lists.
//
// NodePool carves size-class blocks out of an Arena (util/arena.h) and
// recycles freed blocks through per-class free lists, so the sparse
// merge loop's constant grow/shrink/swap churn is served from recycled
// blocks instead of malloc. PooledVec<T> is the minimal contiguous
// container the trackers need on top of it: trivially-copyable
// elements, geometric growth, a hysteresis shrink (ShrinkIfSparse) that
// keeps capacity proportional to the live contents, raw-pointer
// iterators, and — crucially for the merge kernel — an uninitialized
// resize, so scratch space costs zero writes before the kernel fills
// it.
//
// Neither class is thread-safe; each tracker (and each replay shard)
// owns its own pool.
#ifndef TINPROV_UTIL_POOL_H_
#define TINPROV_UTIL_POOL_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

#include "util/arena.h"

namespace tinprov {

/// Size-class free-list allocator over an Arena. Blocks are rounded up
/// to the next power of two (minimum 16 bytes) so a freed block can
/// serve any later request of its class.
class NodePool {
 public:
  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  void* Allocate(size_t bytes) {
    const size_t cls = ClassIndex(bytes);
    if (free_lists_[cls] != nullptr) {
      FreeNode* node = free_lists_[cls];
      free_lists_[cls] = node->next;
      return node;
    }
    return arena_.Allocate(ClassBytes(cls));
  }

  void Deallocate(void* block, size_t bytes) {
    if (block == nullptr) return;
    const size_t cls = ClassIndex(bytes);
    FreeNode* node = static_cast<FreeNode*>(block);
    node->next = free_lists_[cls];
    free_lists_[cls] = node;
  }

  /// Pre-sizes the backing arena (see Arena::Reserve).
  void Reserve(size_t bytes) { arena_.Reserve(bytes); }

  size_t bytes_reserved() const { return arena_.bytes_reserved(); }
  size_t bytes_used() const { return arena_.bytes_used(); }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  // 2^4 .. 2^47 byte classes; class 0 holds everything <= 16 bytes so a
  // block always fits a FreeNode when it returns.
  static constexpr size_t kMinClassLog2 = 4;
  static constexpr size_t kNumClasses = 44;

  static size_t ClassIndex(size_t bytes) {
    size_t cls = 0;
    size_t size = size_t{1} << kMinClassLog2;
    while (size < bytes) {
      size <<= 1;
      ++cls;
    }
    assert(cls < kNumClasses);
    return cls;
  }

  static size_t ClassBytes(size_t cls) {
    return size_t{1} << (kMinClassLog2 + cls);
  }

  Arena arena_;
  FreeNode* free_lists_[kNumClasses] = {};
};

/// Contiguous vector of trivially copyable elements whose storage comes
/// from a NodePool (or, with a null pool, from the global heap, so
/// default-constructed instances — tests, ad-hoc lists — keep working).
/// The subset of std::vector's interface the trackers use is provided
/// with identical semantics — in particular clear() and shrinking
/// resizes keep the capacity. Two extra operations: ResizeUninitialized
/// makes the merge scratch free of redundant writes, and ShrinkIfSparse
/// is the one rule that gives storage back.
template <typename T>
class PooledVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "PooledVec elements must be trivially copyable");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  PooledVec() = default;
  explicit PooledVec(NodePool* pool) : pool_(pool) {}

  PooledVec(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
  }

  PooledVec(const PooledVec& other) : pool_(other.pool_) {
    assign(other.begin(), other.end());
  }

  PooledVec& operator=(const PooledVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  PooledVec(PooledVec&& other) noexcept
      : data_(other.data_),
        size_(other.size_),
        capacity_(other.capacity_),
        pool_(other.pool_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }

  PooledVec& operator=(PooledVec&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      pool_ = other.pool_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }

  ~PooledVec() { Release(); }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  T& back() {
    assert(size_ > 0);
    return data_[size_ - 1];
  }

  void clear() { size_ = 0; }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  /// Grows or shrinks to exactly n elements; new elements are
  /// value-initialized (std::vector::resize semantics).
  void resize(size_t n) {
    if (n > size_) {
      reserve(n);
      std::memset(static_cast<void*>(data_ + size_), 0,
                  (n - size_) * sizeof(T));
    }
    size_ = n;
  }

  /// Grows or shrinks to exactly n elements leaving new elements
  /// unwritten. The caller must write an element before reading it —
  /// this is the merge-scratch fast path.
  void ResizeUninitialized(size_t n) {
    if (n > capacity_) Grow(n);
    size_ = n;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = value;
  }

  /// Inserts before `pos` (a pointer into this vector), shifting the
  /// tail; returns the position of the inserted element.
  T* insert(T* pos, const T& value) {
    const size_t offset = static_cast<size_t>(pos - data_);
    assert(offset <= size_);
    if (size_ == capacity_) Grow(size_ + 1);
    pos = data_ + offset;
    std::memmove(static_cast<void*>(pos + 1), pos,
                 (size_ - offset) * sizeof(T));
    *pos = value;
    ++size_;
    return pos;
  }

  void assign(const T* first, const T* last) {
    const size_t n = static_cast<size_t>(last - first);
    ResizeUninitialized(n);
    if (n > 0) std::memcpy(data_, first, n * sizeof(T));
  }

  /// Hysteresis shrink: when fewer than a quarter of the slots are in
  /// use, reallocates to twice the size; an empty vector releases its
  /// block to the pool (or heap). Contents are unchanged byte for byte.
  /// The gap between the 1/4 trigger and the 1/2 fill it leaves behind
  /// means alternating growth and shrinkage around either boundary
  /// cannot reallocate on every step.
  void ShrinkIfSparse() {
    if (size_ * 4 >= capacity_) return;
    if (size_ == 0) {
      Release();
      capacity_ = 0;
      return;
    }
    Reallocate(size_ * 2);
  }

  /// O(1) storage exchange. The pool pointer travels with the storage,
  /// so vectors backed by different pools may swap safely; each block
  /// still returns to the pool it came from.
  void swap(PooledVec& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    std::swap(pool_, other.pool_);
  }

 private:
  void Grow(size_t min_capacity) {
    size_t next = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    if (next < min_capacity) next = min_capacity;
    Reallocate(next);
  }

  /// Moves the contents into a fresh block of exactly `capacity`
  /// (>= size_) elements and returns the old block.
  void Reallocate(size_t capacity) {
    assert(capacity >= size_);
    T* block = static_cast<T*>(AllocateBytes(capacity * sizeof(T)));
    if (size_ > 0) std::memcpy(block, data_, size_ * sizeof(T));
    Release();
    data_ = block;
    capacity_ = capacity;
  }

  void* AllocateBytes(size_t bytes) {
    if (pool_ != nullptr) return pool_->Allocate(bytes);
    return ::operator new(bytes);
  }

  void Release() {
    if (data_ == nullptr) return;
    if (pool_ != nullptr) {
      pool_->Deallocate(data_, capacity_ * sizeof(T));
    } else {
      ::operator delete(data_);
    }
    data_ = nullptr;
  }

  static constexpr size_t kInitialCapacity = 4;

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
  NodePool* pool_ = nullptr;
};

template <typename T>
void swap(PooledVec<T>& a, PooledVec<T>& b) noexcept {
  a.swap(b);
}

}  // namespace tinprov

#endif  // TINPROV_UTIL_POOL_H_
