#pragma once
/// \file queue.hpp
/// Minimal blocking channel used for the server's MPSC request inbox and
/// each connection's SPSC response stream.  Producers push batches; the
/// consumer drains everything pending in one lock acquisition, which is
/// exactly the shape the tick loop wants (gather all pending requests,
/// answer them in one fused batch).

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace oic::serve {

/// Outcome of a bounded-wait drain (Channel::drain_for).
enum class DrainStatus {
  kItems,    ///< at least one item was delivered
  kTimeout,  ///< the wait expired with nothing pending (channel still open)
  kClosed,   ///< closed and fully drained; no more items will ever arrive
};

template <typename T>
class Channel {
 public:
  /// Enqueue one item.  No-op after close().
  void push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return;
      items_.push_back(std::move(item));
    }
    cv_.notify_all();
  }

  /// Enqueue a batch in one lock acquisition.  No-op after close().
  void push_all(std::vector<T>&& items) {
    if (items.empty()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return;
      for (T& item : items) items_.push_back(std::move(item));
    }
    items.clear();
    cv_.notify_all();
  }

  /// Block until at least one item is pending, the channel closes, or
  /// `timeout` passes, then move everything pending into `out` (cleared
  /// first).  The consumer loop blocks on the condition variable
  /// (no spinning) yet regains control at a bounded cadence, which is what
  /// a tick thread wants: sleep while idle, still notice shutdown and do
  /// periodic housekeeping.  Pending items always win over both closure
  /// and the deadline, so a closed channel drains fully before kClosed.
  DrainStatus drain_for(std::vector<T>& out, std::chrono::milliseconds timeout) {
    out.clear();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, timeout, [&] { return closed_ || !items_.empty(); });
    if (!items_.empty()) {
      out.swap(items_);
      return DrainStatus::kItems;
    }
    return closed_ ? DrainStatus::kClosed : DrainStatus::kTimeout;
  }

  /// Block until `n` items arrived, then append them to `out` in one splice.
  /// Returns false if the channel closed before all `n` were available; in
  /// that case neither the queue nor `out` is touched, so a caller that can
  /// tolerate partial delivery may still drain_for() the remainder.
  bool pop_n(std::size_t n, std::vector<T>& out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || items_.size() >= n; });
    if (items_.size() < n) return false;
    for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(items_[i]));
    items_.erase(items_.begin(), items_.begin() + static_cast<long>(n));
    return true;
  }

  /// Wake all blocked consumers; pending items stay drainable.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<T> items_;
  bool closed_ = false;
};

}  // namespace oic::serve
