// Fixed-size worker pool with blocking parallel_for / parallel_for_ranges.
//
// Two kinds of callers fan out here: the bench harnesses, which sweep
// independent scenarios (utilization points, seeds, margin values), and the
// simulation tick engine, which shards its per-server phases (demand refresh,
// thermal stepping, churn sampling) across workers a few times per tick.
//
// The pool is a *batch engine*, not a task queue.  A queue costs one
// heap-allocated std::function plus two mutex round-trips per task; at a few
// fan-outs per tick over sub-millisecond phases that overhead made threads>1
// measurably slower than serial (see DESIGN.md §8).  Instead, run_batch
// publishes one generation-counted batch descriptor (body pointer, n, chunk
// count) and wakes the persistent workers once; the caller and the workers
// then *claim* chunks of the pure partition of [0, n) from a single atomic
// ticket, and a single atomic countdown signals completion.  Per batch:
// zero allocations, one mutex acquisition by the producer, one wake.
//
// Determinism: the chunk partition is a pure function of (n, pool size) —
// chunk_count / chunk_bounds below — and never depends on which participant
// executes a chunk or when.  Callers that write per-index (or per-chunk)
// slots and reduce serially get bit-identical results for any schedule.
//
// Single-core hosts: when the machine has one hardware thread, waking
// workers only adds context switches, so run_batch executes the partition
// inline on the caller — threads>1 then costs the same as threads=1 and the
// byte-identical-results contract is unchanged.  set_force_worker_dispatch
// lets tests exercise the concurrent path regardless.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace willow::util {

class ThreadPool {
 public:
  /// body(begin, end) over one contiguous chunk of a batch's index space.
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  /// @param threads worker count; 0 means std::thread::hardware_concurrency()
  ///        (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Execute `body` over the chunk partition of [0, n); blocks until every
  /// chunk has run.  The caller participates in executing chunks, so this
  /// completes even before any worker has woken.
  /// Must be called from one orchestrating thread at a time (the tick loop);
  /// nested run_batch from inside a body is not supported.
  void run_batch(std::size_t n, const RangeBody& body);

  /// Number of chunks [0, n) is split into for a pool of `pool_size`
  /// workers: min(n, pool_size * 4), at least 1.  Pure function — the
  /// partition cannot depend on scheduling.
  [[nodiscard]] static std::size_t chunk_count(std::size_t n,
                                               std::size_t pool_size);

  /// Half-open bounds of chunk `c` of the partition of [0, n) into `chunks`
  /// chunks: contiguous, sizes differing by at most one, pure in all
  /// arguments.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> chunk_bounds(
      std::size_t n, std::size_t chunks, std::size_t c);

  /// Testing hook: dispatch batches to the workers even where run_batch
  /// would run inline (single hardware thread), so the concurrent claim /
  /// countdown machinery can be exercised (and TSan-checked) anywhere.
  void set_force_worker_dispatch(bool force) { force_dispatch_ = force; }

 private:
  void worker_loop();
  /// Claim-and-run loop shared by the producer and the workers: take chunks
  /// from batch_ticket_ while it still names generation `gen`.  `body` is
  /// dereferenced only after a successful claim (see the .cc for why that
  /// keeps a late worker off a dead batch's pointee).
  void work_chunks(const RangeBody* body, std::size_t n, std::size_t chunks,
                   std::uint32_t gen);

  std::vector<std::thread> workers_;
  std::size_t hw_threads_ = 1;
  bool force_dispatch_ = false;

  // Producer/worker handshake.  The descriptor fields are published under
  // mutex_ (workers snapshot them under the same lock, so a late worker can
  // never see a half-written batch); the hot per-chunk traffic runs on the
  // two padded atomics below, off the lock.
  std::mutex mutex_;
  std::condition_variable cv_batch_;
  std::atomic<bool> stop_{false};
  std::uint32_t batch_gen_ = 0;       ///< guarded by mutex_
  const RangeBody* batch_body_ = nullptr;  ///< guarded by mutex_
  std::size_t batch_n_ = 0;           ///< guarded by mutex_
  std::size_t batch_chunks_ = 0;      ///< guarded by mutex_

  /// (generation << 32) | next-unclaimed-chunk.  Packing the generation into
  /// the claim word makes a stale claim impossible: a worker descheduled
  /// between snapshotting one batch and claiming cannot consume a chunk of
  /// the next one.  Padded — this line and batch_done_'s are the only
  /// cache-line traffic during a batch.
  alignas(64) std::atomic<std::uint64_t> batch_ticket_{0};
  /// Chunks completed in the current batch; the single countdown the
  /// producer blocks on.
  alignas(64) std::atomic<std::size_t> batch_done_{0};
};

/// Run body(i) for i in [0, n), partitioned across `pool`; blocks until done.
/// Routed through the chunked batch engine (one claim per chunk, not one
/// queue operation per index) while keeping per-index call semantics.
/// Exceptions thrown by `body` terminate (tasks must not throw); scenario
/// code reports failures through its results instead.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Run body(begin, end) over a partition of [0, n) into contiguous chunks
/// (a few per worker); blocks until done.  The partition is a pure function
/// of (n, pool.size()) — it does not depend on scheduling — so callers that
/// reduce per-chunk results indexed by chunk get identical partials on every
/// run.  With a null pool or a pool of size <= 1 the body runs inline on the
/// caller as the single chunk [0, n).
void parallel_for_ranges(ThreadPool* pool, std::size_t n,
                         const ThreadPool::RangeBody& body);

}  // namespace willow::util
