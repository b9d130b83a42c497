// Chunked data-parallel helpers over a ThreadPool.
//
// Determinism contract (relied on by the pipeline's 1-vs-N-thread
// invariant): work is split into chunks whose boundaries are a pure
// function of (n, grain) — never of the thread count — and every index is
// handled exactly once, so a caller whose per-index work writes only its
// own slot (ParallelMap) gets bit-identical results with a null pool, a
// 1-thread pool or an 8-thread pool.
//
// Exceptions thrown by user callables are captured per chunk and the one
// from the lowest-indexed failing chunk is rethrown on the calling thread
// after all chunks finish.

#ifndef PGHIVE_RUNTIME_PARALLEL_H_
#define PGHIVE_RUNTIME_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace pghive {

/// Default elements per chunk. Small enough to load-balance the pipeline's
/// per-element work (hashing, encoding), large enough that queue overhead
/// is negligible.
inline constexpr size_t kDefaultGrain = 256;

namespace runtime_internal {

/// Traced invocation of one chunk. The span costs one relaxed atomic
/// branch when tracing is off; attributes are only materialized when a
/// trace is actually being recorded.
template <typename Fn>
void RunChunk(Fn& fn, size_t chunk, size_t begin, size_t end) {
  obs::ScopedSpan span("runtime.chunk");
  if (span.recording()) {
    span.AddAttr("chunk", static_cast<uint64_t>(chunk));
    span.AddAttr("items", static_cast<uint64_t>(end - begin));
  }
  fn(chunk, begin, end);
}

/// Completion latch for one batch of chunk tasks; keeps the exception of
/// the lowest-indexed failing chunk so the rethrow is deterministic.
class TaskGroup {
 public:
  explicit TaskGroup(size_t total) : pending_(total) {}

  void Finish(size_t chunk_index, std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error && chunk_index < error_chunk_) {
      error_chunk_ = chunk_index;
      error_ = std::move(error);
    }
    if (--pending_ == 0) cv_.notify_all();
  }

  /// Blocks until every chunk finished, then rethrows the stored exception
  /// (if any) on the calling thread.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_;
  size_t error_chunk_ = std::numeric_limits<size_t>::max();
  std::exception_ptr error_;
};

}  // namespace runtime_internal

/// Invokes fn(chunk_index, begin, end) for every chunk of [0, n), chunk c
/// covering [c*grain, min(n, (c+1)*grain)). Runs inline (in chunk order)
/// when `pool` is null or single-threaded; otherwise chunks run
/// concurrently and this call blocks until all complete.
template <typename Fn>
void ParallelForChunks(ThreadPool* pool, size_t n, size_t grain, Fn&& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = (n + grain - 1) / grain;
  if (pool == nullptr || pool->num_threads() <= 1 || num_chunks == 1) {
    for (size_t c = 0; c < num_chunks; ++c) {
      runtime_internal::RunChunk(fn, c, c * grain,
                                 std::min(n, (c + 1) * grain));
    }
    return;
  }
  runtime_internal::TaskGroup group(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    pool->Submit([&fn, &group, c, grain, n] {
      std::exception_ptr error;
      try {
        runtime_internal::RunChunk(fn, c, c * grain,
                                   std::min(n, (c + 1) * grain));
      } catch (...) {
        error = std::current_exception();
      }
      group.Finish(c, std::move(error));
    });
  }
  group.Wait();
}

/// Invokes fn(i) for every i in [0, n), exactly once each.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, Fn&& fn,
                 size_t grain = kDefaultGrain) {
  ParallelForChunks(pool, n, grain,
                    [&fn](size_t /*chunk*/, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) fn(i);
                    });
}

/// Maps fn over [0, n) into a vector with out[i] == fn(i); element order is
/// index order by construction (each slot is written by exactly one task).
/// The element type must be default-constructible.
template <typename Fn>
auto ParallelMap(ThreadPool* pool, size_t n, Fn&& fn,
                 size_t grain = kDefaultGrain)
    -> std::vector<std::decay_t<decltype(fn(size_t{0}))>> {
  std::vector<std::decay_t<decltype(fn(size_t{0}))>> out(n);
  ParallelFor(
      pool, n, [&fn, &out](size_t i) { out[i] = fn(i); }, grain);
  return out;
}

}  // namespace pghive

#endif  // PGHIVE_RUNTIME_PARALLEL_H_
