// Grow-only ring FIFO.
//
// A first-in first-out queue over one power-of-two array that doubles
// when full and never shrinks, so a queue that has reached its working
// depth pushes and pops without allocating. (std::deque allocates a block
// whenever its back crosses a block boundary, even at constant depth.)
// Elements are held by value; a popped slot keeps its moved-from value
// until a later push overwrites it, so T must be default-constructible
// and move-assignable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace hpcos {

template <class T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  // Removes and returns the oldest element (the queue must not be empty).
  T pop_front() {
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return out;
  }

  // Removes every element equal to `value`, keeping the others in order.
  void erase(const T& value) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& x = slots_[(head_ + i) & mask];
      if (x == value) continue;
      if (kept != i) slots_[(head_ + kept) & mask] = std::move(x);
      ++kept;
    }
    size_ = kept;
  }

 private:
  // Doubles the capacity (first allocation: 8), unwrapping the elements
  // to the front of the new array.
  void grow() {
    std::vector<T> next(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // capacity: 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hpcos
