#ifndef AQUA_EXEC_PARALLEL_H_
#define AQUA_EXEC_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "aqua/common/exec_context.h"
#include "aqua/exec/thread_pool.h"

namespace aqua::exec {

/// How a parallel region may execute. The policy never changes *what* is
/// computed — work is partitioned into chunks as a pure function of the
/// problem size, so answers are identical at every thread count — only how
/// many workers drain the chunks.
struct ExecPolicy {
  /// Worker upper bound for a parallel region. 1 = run inline on the
  /// calling thread (the serial path; the pool is never touched).
  /// 0 or negative = hardware concurrency.
  int threads = 1;

  /// Pool override for tests; null = ThreadPool::Shared().
  ThreadPool* pool = nullptr;

  int ResolvedThreads() const {
    return threads >= 1 ? threads
                        : static_cast<int>(ThreadPool::HardwareThreads());
  }

  bool Serial() const { return ResolvedThreads() <= 1; }
};

/// One contiguous slice [begin, end) of the iteration space.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
  size_t index = 0;

  size_t size() const { return end - begin; }
};

/// Fixed partition of [0, n) into ceil(n / chunk_size) chunks — a pure
/// function of (n, chunk_size), never of the thread count, which is what
/// keeps budget splits and per-chunk RNG streams identical for any
/// `--threads` value.
std::vector<Chunk> MakeChunks(size_t n, size_t chunk_size);

/// Runs `body` once per chunk of [0, n), possibly concurrently.
///
/// Budget: the parent context's *remaining* step/byte budget is split
/// across the chunks proportionally to `weights` (default: chunk sizes;
/// the shares sum to the remaining budget exactly), and each chunk charges
/// its own child context — workers never share a counter, so the
/// accounting is race-free by construction. At the join every child's
/// charges are absorbed back into the parent, so `parent->steps()` ends up
/// the exact sum of what the chunks charged.
///
/// Deadline and cancellation: children share the parent's absolute
/// deadline and observe a group token linked to the parent's token. The
/// first chunk to fail fires the group token, so siblings polling their
/// child context stop promptly and queued chunks are abandoned; the call
/// returns only after every worker involved has exited (no detached
/// tasks).
///
/// Error reporting: the lowest-index failure whose code is not kCancelled
/// wins (deterministic for deterministic bodies); pure group-cancellation
/// statuses are suppressed unless the caller's own token fired.
///
/// `body` must confine itself to its chunk and its child context; writes
/// to caller state must target disjoint, pre-sized slots (index by
/// chunk.index or the element range).
using ChunkBody = std::function<Status(const Chunk&, ExecContext*)>;
Status ParallelFor(const ExecPolicy& policy, size_t n, size_t chunk_size,
                   ExecContext* parent, const ChunkBody& body,
                   const std::vector<uint64_t>* weights = nullptr);

}  // namespace aqua::exec

#endif  // AQUA_EXEC_PARALLEL_H_
