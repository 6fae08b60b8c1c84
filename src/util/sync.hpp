#pragma once

/// \file sync.hpp
/// Annotated synchronisation primitives: the only place in the repo that
/// touches std::mutex / std::condition_variable / std::thread directly.
///
/// Every other layer locks through these wrappers so Clang Thread Safety
/// Analysis (util/thread_annotations.hpp, -Wthread-safety) can check lock
/// discipline at compile time: util::Mutex is a `capability`, util::MutexLock
/// a `scoped_lockable`, and util::CondVar::wait declares REQUIRES(mutex) so
/// a wait outside the lock is a build error.  hdlock_lint's
/// `raw-sync-primitive` rule enforces the funnel: raw std primitives outside
/// the util layer fail the lint gate.
///
/// Waiting is deliberately loop-shaped (`while (!pred) cv.wait(mutex);`)
/// rather than predicate-lambda-shaped: the analysis treats a lambda body as
/// a separate unannotated function, so a predicate lambda reading guarded
/// fields would need suppressions — the explicit loop keeps every guarded
/// access inside the function that visibly holds the lock.
///
/// util::Thread joins in its destructor and has no detach() at all — the
/// lint `thread-detach` rule bans detaching repo-wide, and a joining type
/// makes the safe thing the only expressible thing.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

#include "util/thread_annotations.hpp"

namespace hdlock::util {

/// Annotated exclusive mutex over std::mutex.  Prefer MutexLock; the raw
/// lock()/unlock() exist for the RAII types and the rare adopt cases.
class HDLOCK_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() HDLOCK_ACQUIRE() {
        raw_.lock();  // hdlock-lint: allow(manual-lock) — the wrapper implementation itself
    }
    void unlock() HDLOCK_RELEASE() {
        raw_.unlock();  // hdlock-lint: allow(manual-lock) — the wrapper implementation itself
    }

private:
    friend class CondVar;
    std::mutex raw_;
};

/// RAII lock over util::Mutex (the repo's std::lock_guard).  Scoped
/// acquisition is the only locking idiom the lint gate admits.
class HDLOCK_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mutex) HDLOCK_ACQUIRE(mutex) : mutex_(mutex) {
        mutex_.lock();  // hdlock-lint: allow(manual-lock) — the RAII scope implementation itself
    }
    ~MutexLock() HDLOCK_RELEASE() {
        mutex_.unlock();  // hdlock-lint: allow(manual-lock) — the RAII scope implementation itself
    }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    Mutex& mutex_;
};

/// Condition variable bound to util::Mutex.  wait/wait_until require the
/// mutex to be held (checked); they adopt it into a std::unique_lock for the
/// underlying std primitive and hand it straight back, so the fast
/// std::condition_variable is used rather than condition_variable_any.
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /// Atomically releases `mutex`, blocks, and re-acquires before
    /// returning.  Spurious wakeups happen: always wait in a predicate loop.
    void wait(Mutex& mutex) HDLOCK_REQUIRES(mutex) {
        std::unique_lock<std::mutex> lock(mutex.raw_, std::adopt_lock);
        cv_.wait(lock);
        lock.release();  // the caller's MutexLock still owns the mutex
    }

    /// wait() with a deadline; returns std::cv_status::timeout when the
    /// deadline passed (the mutex is re-acquired either way).
    template <typename Clock, typename Duration>
    std::cv_status wait_until(Mutex& mutex,
                              const std::chrono::time_point<Clock, Duration>& deadline)
        HDLOCK_REQUIRES(mutex) {
        std::unique_lock<std::mutex> lock(mutex.raw_, std::adopt_lock);
        const std::cv_status status = cv_.wait_until(lock, deadline);
        lock.release();
        return status;
    }

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

/// Joining thread wrapper (std::jthread without the stop-token machinery):
/// the destructor joins, and there is deliberately no detach() — a detached
/// thread outliving the state it captured is exactly the bug class the
/// lint `thread-detach` rule exists to prevent.
class Thread {
public:
    Thread() noexcept = default;

    template <typename Fn, typename = std::enable_if_t<std::is_invocable_v<Fn&&> &&
                                                       !std::is_same_v<std::decay_t<Fn>, Thread>>>
    explicit Thread(Fn&& fn) : thread_(std::forward<Fn>(fn)) {}

    Thread(Thread&& other) noexcept = default;
    Thread& operator=(Thread&& other) noexcept {
        join();
        thread_ = std::move(other.thread_);
        return *this;
    }
    Thread(const Thread&) = delete;
    Thread& operator=(const Thread&) = delete;

    ~Thread() { join(); }

    /// Joins if joinable; a no-op on an empty or already-joined thread.
    void join() {
        if (thread_.joinable()) thread_.join();
    }

    bool joinable() const noexcept { return thread_.joinable(); }

private:
    std::thread thread_;
};

/// Build-once holder (the repo's std::call_once): get_or_build() runs the
/// build function at most once per holder across concurrent first callers
/// — they serialize on the mutex, one builds, the rest find the value
/// published — and every later call is one acquire load.  A build that
/// throws publishes nothing, so the next caller retries.  Copies and assignments
/// start empty: a copy rebuilds its own value on first use.
template <typename T>
class OnceCell {
public:
    OnceCell() = default;
    OnceCell(const OnceCell& /*other*/) noexcept {}
    OnceCell& operator=(const OnceCell& other) {
        if (this != &other) {
            MutexLock lock(mutex_);
            ready_.store(nullptr, std::memory_order_release);
            value_.reset();
        }
        return *this;
    }

    template <typename Build>
    const T& get_or_build(Build&& build) HDLOCK_EXCLUDES(mutex_) {
        if (const T* ready = ready_.load(std::memory_order_acquire)) return *ready;
        MutexLock lock(mutex_);
        if (value_ == nullptr) {
            value_ = std::make_unique<const T>(std::forward<Build>(build)());
            ready_.store(value_.get(), std::memory_order_release);
        }
        return *value_;
    }

    /// The value if some caller built it, else nullptr.
    const T* get() const noexcept { return ready_.load(std::memory_order_acquire); }

private:
    Mutex mutex_;
    std::unique_ptr<const T> value_ HDLOCK_GUARDED_BY(mutex_);
    std::atomic<const T*> ready_{nullptr};
};

/// Thread identity for tests ("did this run inline or on a worker?").
using ThreadId = std::thread::id;
inline ThreadId this_thread_id() noexcept { return std::this_thread::get_id(); }

/// Polite spin-wait helper for tests.
inline void yield_now() noexcept { std::this_thread::yield(); }

/// Sleep wrapper so layers above util never touch std::this_thread directly.
inline void sleep_for(std::chrono::microseconds duration) {
    std::this_thread::sleep_for(duration);
}

/// std::thread::hardware_concurrency clamped to at least 1 (the standard
/// allows it to return 0) — the one place that query lives, so layers above
/// util never need the raw std::thread type.
inline std::size_t hardware_concurrency() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace hdlock::util
