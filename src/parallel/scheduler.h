// Thread plumbing for the sharded replay engine: the hardware width
// and the resident worker pool its streaming shard runner uses.
#ifndef TINPROV_PARALLEL_SCHEDULER_H_
#define TINPROV_PARALLEL_SCHEDULER_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace tinprov {

/// std::thread::hardware_concurrency() with the zero-means-unknown case
/// mapped to 1; always 1 under TINPROV_NO_THREADS.
size_t HardwareThreads();

/// Spawns one dedicated thread per task and joins them in Join() (or
/// the destructor). For resident pipeline workers — the streaming
/// replay's shard consumers — whose tasks block on queues and therefore
/// must not share threads. Callers are expected to take their
/// TINPROV_NO_THREADS / 1-thread inline path instead of constructing
/// one of these; doing so anyway runs the tasks sequentially in the
/// constructor, which deadlocks tasks that wait on each other.
class ResidentPool {
 public:
  explicit ResidentPool(std::vector<std::function<void()>> tasks);
  ~ResidentPool();

  ResidentPool(const ResidentPool&) = delete;
  ResidentPool& operator=(const ResidentPool&) = delete;

  /// Blocks until every task returned. Idempotent.
  void Join();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace tinprov

#endif  // TINPROV_PARALLEL_SCHEDULER_H_
