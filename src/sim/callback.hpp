// Move-only, type-erased callables with small-buffer optimisation.
//
// `std::function` heap-allocates for any capture list larger than two
// pointers, which makes it the dominant cost on the engine's schedule path
// and on the RPC layer's per-call completions.  `InlinedFn<void(Args...), N>`
// stores captures up to `N` bytes directly inside the object and falls back
// to the heap only for oversized or throwing-move captures.
// `InlinedCallback` is the engine's `void()` instance (one cache line
// together with the event-pool slot header).
//
// Compared to `std::function` it drops everything the simulator does not
// need: no copy, no target_type(), no allocator support — just construct,
// move, invoke, destroy.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace now::sim {

template <typename Sig, std::size_t N = 48>
class InlinedFn;

template <typename... Args, std::size_t N>
class InlinedFn<void(Args...), N> {
 public:
  /// Captures up to this many bytes live inline; larger closures
  /// heap-allocate.
  static constexpr std::size_t kInlineSize = N;

  InlinedFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlinedFn> &&
                                        std::is_invocable_v<D&, Args...>>>
  InlinedFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  InlinedFn(InlinedFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
  }

  InlinedFn& operator=(InlinedFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(o.buf_, buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlinedFn(const InlinedFn&) = delete;
  InlinedFn& operator=(const InlinedFn&) = delete;

  ~InlinedFn() { reset(); }

  /// Destroys the held callable (if any), leaving the object empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Constructs a callable in place in an *empty* InlinedFn — the
  /// zero-move path the engine uses to build closures directly inside pool
  /// slots.  Precondition: !*this.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& fn) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()(Args... args) {
    ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// Invokes the callable and destroys it, leaving the object empty — the
  /// engine's dispatch path, fused into a single indirect call.
  void invoke_and_reset(Args... args) {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_, std::forward<Args>(args)...);
  }

  /// True if a callable of type `D` is stored inline (no heap allocation).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  // One static dispatch table per erased type; a single pointer compare
  // replaces std::function's vtable-per-operation indirection.
  struct Ops {
    void (*invoke)(void* self, Args&&... args);
    // Invoke, then destroy — one indirect call on the dispatch hot path.
    void (*invoke_destroy)(void* self, Args&&... args);
    // Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self, Args&&... args) {
        (*static_cast<D*>(self))(std::forward<Args>(args)...);
      },
      [](void* self, Args&&... args) {
        D* d = static_cast<D*>(self);
        (*d)(std::forward<Args>(args)...);
        d->~D();
      },
      [](void* src, void* dst) noexcept {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* self, Args&&... args) {
        (**static_cast<D**>(self))(std::forward<Args>(args)...);
      },
      [](void* self, Args&&... args) {
        D* d = *static_cast<D**>(self);
        (*d)(std::forward<Args>(args)...);
        delete d;
      },
      [](void* src, void* dst) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// The engine's event callback.  48 bytes keeps the engine's pool slot
/// (callback + generation + free-list link) at exactly one 64-byte cache
/// line while still fitting a `std::function` (32 bytes on libstdc++) or a
/// `this` pointer plus five words of captures.
using InlinedCallback = InlinedFn<void()>;

}  // namespace now::sim
