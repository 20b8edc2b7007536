// A minimal test-and-set spinlock for the few cross-lane touch points of
// the partitioned engine (shared statistics structs, the tracer ring).
//
// The critical sections it guards are a handful of arithmetic ops, orders
// of magnitude shorter than a context switch.  A serial run has nothing to
// guard against, and the message path's callers skip the lock there (see
// SpinGuard): an uncontended acquire and release still cost two atomic
// read-modify-writes per counter update.
#pragma once

#include <atomic>

namespace now::sim {

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() noexcept {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      // C++20: spin on a plain load so contended waiters don't bounce the
      // cache line with RMWs.
      while (flag_.test(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// RAII guard (std::lock_guard works too; this avoids the <mutex> include
/// in hot headers).  A guard built with `engaged` false takes no lock: the
/// protocol and network layers pass whether the cluster runs partitioned,
/// so a serial run's statistics updates are plain stores.
class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& l, bool engaged = true) noexcept
      : l_(engaged ? &l : nullptr) {
    if (l_ != nullptr) l_->lock();
  }
  ~SpinGuard() {
    if (l_ != nullptr) l_->unlock();
  }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock* l_;
};

}  // namespace now::sim
