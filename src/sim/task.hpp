// Move-only callable with small-buffer inline storage, replacing
// std::function on the simulator's per-event hot path.
//
// Scheduling a callback with std::function heap-allocates whenever the
// capture outgrows its tiny (two-pointer) inline buffer — which is nearly
// every simulation event. Task inlines captures up to kInlineSize bytes
// (sized so every hot-path capture in this codebase fits: delivery events
// are {pointer, index}, service completions {pointer, slot, duration}) and
// falls back to the heap only for oversized callables, so steady-state
// event churn performs no allocations.
//
// Unlike std::function, Task is move-only: it can own move-only captures
// (pooled packets, unique_ptrs) and never silently copies state. The
// scheduling entry points (Simulator::at/after, EventQueue::push) take it
// as `Callback&&`, so a lambda becomes a Task in place and is relocated
// once into the queue's slot arena and once out of it to fire.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace netrs::sim {

/// Move-only `void()` callable with small-buffer inline storage; the
/// simulator's per-event callback type (see the file comment for why not
/// std::function).
class Task {
 public:
  /// Inline capture capacity. Total object size is kInlineSize + one
  /// vtable pointer (128 bytes with the default).
  static constexpr std::size_t kInlineSize = 120;

  /// Constructs an empty Task (operator bool() returns false).
  Task() noexcept = default;

  /// Wraps any `void()` callable; captures up to kInlineSize bytes are
  /// stored inline, larger ones on the heap.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Task> &&
                                        std::is_invocable_r_v<void, D&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for lambdas
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &inline_vtable<D>;
    } else {
      auto* heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof(heap));
      vt_ = &heap_vtable<D>;
    }
  }

  /// Move constructor; `other` is left empty.
  Task(Task&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) vt_->relocate(buf_, other.buf_);
    other.vt_ = nullptr;
  }

  /// Move assignment; destroys any held callable first, leaves `other`
  /// empty.
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// Destroys the held callable, if any.
  ~Task() { reset(); }

  /// Invokes the stored callable. Precondition: non-empty.
  void operator()() {
    assert(vt_ != nullptr && "invoking an empty Task");
    vt_->invoke(buf_);
  }

  /// True when a callable is held.
  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  /// Destroys the stored callable (releasing everything it captured)
  /// immediately, leaving the Task empty.
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  /// True when the callable lives in the inline buffer (diagnostics and
  /// allocation-regression tests).
  [[nodiscard]] bool is_inline() const noexcept {
    return vt_ != nullptr && vt_->inline_storage;
  }

 private:
  struct VTable {
    void (*invoke)(void* obj);
    /// Move-constructs the callable into `dst` and destroys the source
    /// representation. Must be noexcept: the event heap relocates entries.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* obj) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr VTable inline_vtable = {
      [](void* obj) { (*static_cast<D*>(obj))(); },
      [](void* dst, void* src) noexcept {
        auto* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* obj) noexcept { static_cast<D*>(obj)->~D(); },
      /*inline_storage=*/true,
  };

  template <typename D>
  static constexpr VTable heap_vtable = {
      [](void* obj) {
        D* heap = nullptr;
        std::memcpy(&heap, obj, sizeof(heap));
        (*heap)();
      },
      [](void* dst, void* src) noexcept {
        std::memcpy(dst, src, sizeof(D*));  // ownership moves with the ptr
      },
      [](void* obj) noexcept {
        D* heap = nullptr;
        std::memcpy(&heap, obj, sizeof(heap));
        delete heap;
      },
      /*inline_storage=*/false,
  };

  alignas(std::max_align_t) std::byte buf_[kInlineSize];
  const VTable* vt_ = nullptr;
};

static_assert(sizeof(Task) == Task::kInlineSize + sizeof(void*));

}  // namespace netrs::sim
