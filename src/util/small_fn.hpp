// Small-buffer-optimized move-only callable for the event hot path.
//
// std::function heap-allocates any capture larger than its tiny internal
// buffer (16 bytes on libstdc++), which means one malloc per scheduled
// event. SmallFn inlines captures up to kInlineBytes — sized so every
// hot-path closure in the simulator fits — and falls back to the heap only
// for oversized captures (the cold
// install/bind paths). Global counters expose the fallback rate so benches
// can gate on allocator traffic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace psf::util {

class SmallFn {
 public:
  // Large enough for the simulator's hop-walker and timer closures
  // (shared_ptr + a couple of words).
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every schedule() call site
    using D = std::decay_t<F>;
    counters().constructed.fetch_add(1, std::memory_order_relaxed);
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
      destroy_ = [](void* p) { static_cast<D*>(p)->~D(); };
      relocate_ = [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      };
    } else {
      counters().heap_fallbacks.fetch_add(1, std::memory_order_relaxed);
      heap_ = new D(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
      destroy_ = [](void* p) { delete static_cast<D*>(p); };
      relocate_ = nullptr;  // heap targets move by pointer steal
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() {
    PSF_CHECK_MSG(invoke_ != nullptr, "calling an empty SmallFn");
    invoke_(target());
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  // ---- allocator telemetry (process-wide, relaxed counters) ---------------
  // constructed: SmallFns built from a callable (moves don't count).
  // heap_fallbacks: the subset whose capture exceeded kInlineBytes.
  static std::uint64_t constructed_count() {
    return counters().constructed.load(std::memory_order_relaxed);
  }
  static std::uint64_t heap_fallback_count() {
    return counters().heap_fallbacks.load(std::memory_order_relaxed);
  }
  static void reset_counters() {
    counters().constructed.store(0, std::memory_order_relaxed);
    counters().heap_fallbacks.store(0, std::memory_order_relaxed);
  }

 private:
  struct Counters {
    std::atomic<std::uint64_t> constructed{0};
    std::atomic<std::uint64_t> heap_fallbacks{0};
  };
  static Counters& counters() {
    // detlint:allow(DET020 Counters holds only std::atomic fields)
    static Counters c;
    return c;
  }

  void* target() { return heap_ != nullptr ? heap_ : static_cast<void*>(buf_); }

  void reset() {
    if (invoke_ != nullptr) destroy_(target());
    heap_ = nullptr;
    invoke_ = nullptr;
    destroy_ = nullptr;
    relocate_ = nullptr;
  }

  void move_from(SmallFn& other) noexcept {
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    relocate_ = other.relocate_;
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;  // pointer steal
    } else if (other.invoke_ != nullptr) {
      other.relocate_(buf_, other.buf_);
    }
    other.heap_ = nullptr;
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
    other.relocate_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void* heap_ = nullptr;
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  void (*relocate_)(void* dst, void* src) = nullptr;
};

}  // namespace psf::util
