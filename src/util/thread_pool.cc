#include "util/thread_pool.h"

#include <algorithm>

namespace willow::util {
namespace {

/// Bounded spin before a worker falls back to the condvar.  The tick engine
/// issues batches every few hundred microseconds; catching the next one
/// without a futex round-trip is what lets modest fleets break even.  ~8 us
/// on current hardware — long enough to bridge the serial apply phases
/// between fan-outs, short enough not to matter when the pool goes idle.
constexpr int kSpinIters = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

constexpr std::uint64_t kChunkMask = 0xffffffffULL;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  hw_threads_ = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads == 0) threads = hw_threads_;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_batch_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::chunk_count(std::size_t n, std::size_t pool_size) {
  // A few chunks per worker smooths out uneven per-index cost without
  // inflating claim traffic.
  return std::min(n, std::max<std::size_t>(1, pool_size * 4));
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk_bounds(std::size_t n,
                                                             std::size_t chunks,
                                                             std::size_t c) {
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t begin = c * base + std::min(c, extra);
  return {begin, begin + base + (c < extra ? 1 : 0)};
}

void ThreadPool::run_batch(std::size_t n, const RangeBody& body) {
  if (n == 0) return;
  const std::size_t chunks = chunk_count(n, size());
  // One hardware thread (or a trivial partition): waking workers only adds
  // context switches on the core the caller already holds, so execute the
  // same partition inline.  Results are identical either way — the partition
  // does not depend on who runs it.
  if (chunks <= 1 || workers_.size() <= 1 ||
      (hw_threads_ <= 1 && !force_dispatch_)) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = chunk_bounds(n, chunks, c);
      body(begin, end);
    }
    return;
  }

  std::uint32_t gen;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    gen = ++batch_gen_;
    batch_body_ = &body;
    batch_n_ = n;
    batch_chunks_ = chunks;
    batch_done_.store(0, std::memory_order_relaxed);
    batch_ticket_.store(static_cast<std::uint64_t>(gen) << 32,
                        std::memory_order_release);
  }
  cv_batch_.notify_all();  // the single wake for the whole batch

  // The producer is a participant: it claims chunks like any worker, so the
  // batch completes even if every worker is busy (or asleep on a one-core
  // host under force_dispatch_).
  work_chunks(&body, n, chunks, gen);

  // Wait for stragglers still finishing claimed chunks.  Usually zero wait:
  // the producer tends to run the last chunk itself.
  std::size_t done = batch_done_.load(std::memory_order_acquire);
  while (done != chunks) {
    batch_done_.wait(done, std::memory_order_acquire);
    done = batch_done_.load(std::memory_order_acquire);
  }
}

void ThreadPool::work_chunks(const RangeBody* body, std::size_t n,
                             std::size_t chunks, std::uint32_t gen) {
  // `body` is dereferenced only after a successful claim: a claim proves the
  // producer is still blocked inside run_batch (it cannot return before
  // batch_done_ reaches batch_chunks_), so the pointee is alive.
  for (;;) {
    std::uint64_t ticket = batch_ticket_.load(std::memory_order_acquire);
    for (;;) {
      if (static_cast<std::uint32_t>(ticket >> 32) != gen) return;
      if ((ticket & kChunkMask) >= chunks) return;
      if (batch_ticket_.compare_exchange_weak(ticket, ticket + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        break;
      }
    }
    const auto [begin, end] =
        chunk_bounds(n, chunks, static_cast<std::size_t>(ticket & kChunkMask));
    (*body)(begin, end);
    if (batch_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
      batch_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint32_t seen_gen = 0;
  for (;;) {
    // Spin briefly for the next batch before sleeping; see kSpinIters.
    // Never spin on a single hardware thread — it would steal the core from
    // the producer.
    if (hw_threads_ > 1) {
      for (int s = 0; s < kSpinIters; ++s) {
        const std::uint64_t ticket =
            batch_ticket_.load(std::memory_order_acquire);
        if (static_cast<std::uint32_t>(ticket >> 32) != seen_gen) break;
        if (stop_.load(std::memory_order_relaxed)) break;
        cpu_relax();
      }
    }

    const RangeBody* body = nullptr;
    std::size_t n = 0;
    std::size_t chunks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_batch_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) || batch_gen_ != seen_gen;
      });
      if (batch_gen_ == seen_gen) return;  // stop requested, no new batch
      // Snapshot the descriptor under the lock: a worker late to one batch
      // can never observe the next one's fields half-written.
      seen_gen = batch_gen_;
      body = batch_body_;
      n = batch_n_;
      chunks = batch_chunks_;
    }
    work_chunks(body, n, chunks, seen_gen);
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  parallel_for_ranges(&pool, n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

void parallel_for_ranges(ThreadPool* pool, std::size_t n,
                         const ThreadPool::RangeBody& body) {
  if (n == 0) return;
  if (pool == nullptr || pool->size() <= 1) {
    body(0, n);
    return;
  }
  pool->run_batch(n, body);
}

}  // namespace willow::util
