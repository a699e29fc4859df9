// Power-of-two ring FIFO: the wait queue of sim::Station, the FIFO lanes
// of sim::EventQueue and the packets riding them in net::Fabric.
//
// Elements live in one vector whose size is zero or a power of two, so an
// index wraps with a mask. The ring doubles when full and never shrinks:
// once it has held its high-water depth, pushing allocates nothing.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace netrs::sim {

/// FIFO over a power-of-two ring that doubles when full and never shrinks
/// (see the file comment). `T` must be default-constructible and movable.
template <typename T>
class Ring {
 public:
  /// Elements held.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// True when no element is held.
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Elements the ring holds before it next doubles (0, 4, 8, ...).
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// The i-th element from the front. Precondition: i < size().
  T& operator[](std::size_t i) {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  /// The i-th element from the front, read-only. Precondition: i < size().
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  /// Appends `v` at the back, doubling the ring first when it is full.
  void push_back(T v) { push_back_slot() = std::move(v); }
  /// Appends a slot at the back, doubling the ring first when it is full,
  /// and returns it to be filled in place. The slot still holds the
  /// element last popped from it, so assigning reuses its storage.
  T& push_back_slot() {
    if (size_ == buf_.size()) [[unlikely]] {
      grow(buf_.empty() ? 4 : 2 * buf_.size());
    }
    return (*this)[size_++];
  }
  /// Grows the ring, keeping its elements, to the least power of two that
  /// holds `n` elements; never shrinks. A ring reserved at its owner's
  /// construction allocates nothing until it exceeds that depth.
  void reserve(std::size_t n) {
    if (n <= buf_.size()) return;
    std::size_t cap = buf_.empty() ? 4 : buf_.size();
    while (cap < n) cap *= 2;
    grow(cap);
  }
  /// Drops the front element. Precondition: !empty().
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  /// Drops the back element. Precondition: !empty().
  void pop_back() { --size_; }

 private:
  void grow(std::size_t cap) {
    std::vector<T> bigger(cap);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace netrs::sim
