#pragma once
// The one single-flight memo behind every cross-scenario cache: the sweep
// engine's ROM models (rom::ModelCache), global and conduction
// factorizations (la::FactorCache) and demo packages all do expensive work
// once per key and hand every later caller the same immutable value.
//
// get_or_create is single-flight: when several workers race on one absent
// key, exactly one claims a pending slot and runs the builder while the rest
// wait on it, so the number of builds stays deterministic (one per distinct
// key) no matter the thread schedule. A throwing builder erases its slot and
// wakes the waiters, which race to claim the retry; a failed build never
// poisons the key. Entries are never evicted; the owner's lifetime (or
// clear()) bounds the cache. Values are copied out, so `Value` should be a
// cheap handle (shared_ptr or a struct of them) to something immutable.
//
// Traffic is recorded under the cache's metric name, e.g. "la.factor_cache":
// `<metric>.hits`, `.misses`, `.build_failures` and the `.wait_seconds`
// histogram, through obs::count / obs::observe_seconds, so each scenario row
// carries its own cache traffic under the same names.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"

namespace ms::util {

template <typename Value>
class SingleFlightCache {
 public:
  /// `metric` prefixes every metric name ("<subsystem>.<cache>").
  explicit SingleFlightCache(std::string metric) : metric_(std::move(metric)) {}

  /// Return the value under `key`, running `build` if absent. Concurrent
  /// callers of one absent key block until the single in-flight build
  /// finishes. `built` (optional) reports whether *this* call ran the
  /// builder. A throwing builder clears the slot (the next caller retries)
  /// and rethrows.
  Value get_or_create(const std::string& key, const std::function<Value()>& build,
                      bool* built = nullptr) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Loop until we either observe a ready slot (hit) or claim the build by
      // inserting the pending slot (miss). A failed builder erases its slot,
      // so waiters loop back and race to claim the retry.
      while (true) {
        auto [it, inserted] = slots_.try_emplace(key);
        if (inserted) break;  // we own the build
        if (!it->second.ready) {
          // Time blocked on a peer's build is real query latency that no
          // stage timer sees, so it is recorded (and query-attributed) apart.
          const auto wait_begin = std::chrono::steady_clock::now();
          ready_cv_.wait(lock, [&] {
            auto found = slots_.find(key);
            return found == slots_.end() || found->second.ready;
          });
          const double waited =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - wait_begin)
                  .count();
          obs::observe_seconds(metric_ + ".wait_seconds", waited);
        }
        auto found = slots_.find(key);
        if (found != slots_.end() && found->second.ready) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          record(".hits");
          if (built != nullptr) *built = false;
          return found->second.value;
        }
      }
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    record(".misses");
    Value value;
    try {
      value = build();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        slots_.erase(key);
      }
      ready_cv_.notify_all();
      record(".build_failures");
      throw;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      Slot& slot = slots_[key];
      slot.value = value;
      slot.ready = true;
    }
    ready_cv_.notify_all();
    if (built != nullptr) *built = true;
    return value;
  }

  /// True when `key` is resident and ready; a build in flight does not
  /// count. No product path calls it: the solve stage hands its assembler to
  /// the build instead. The benchmark's layer replay (perfbench) does, to
  /// skip assembling a resident operator.
  [[nodiscard]] bool contains(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    return it != slots_.end() && it->second.ready;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t ready = 0;
    for (const auto& [key, slot] : slots_) ready += slot.ready ? 1 : 0;
    return ready;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Drop every entry (callers holding values keep theirs alive). Not safe
  /// to call concurrently with get_or_create.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
  }

 private:
  struct Slot {
    bool ready = false;  // false while the owning builder runs
    Value value;
  };

  void record(const char* event) const { obs::count(metric_ + event); }

  const std::string metric_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::unordered_map<std::string, Slot> slots_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace ms::util
