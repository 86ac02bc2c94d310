#include "parallel/scheduler.h"

#include <utility>

#if !defined(TINPROV_NO_THREADS)
#include <thread>
#endif

namespace tinprov {

size_t HardwareThreads() {
#if defined(TINPROV_NO_THREADS)
  return 1;
#else
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
#endif
}

struct ResidentPool::Impl {
#if !defined(TINPROV_NO_THREADS)
  std::vector<std::thread> threads;
#endif
};

ResidentPool::ResidentPool(std::vector<std::function<void()>> tasks)
    : impl_(new Impl) {
#if defined(TINPROV_NO_THREADS)
  // Documented fallback only — blocking pipelines must not get here.
  for (auto& task : tasks) task();
#else
  impl_->threads.reserve(tasks.size());
  for (auto& task : tasks) impl_->threads.emplace_back(std::move(task));
#endif
}

ResidentPool::~ResidentPool() {
  Join();
  delete impl_;
}

void ResidentPool::Join() {
#if !defined(TINPROV_NO_THREADS)
  for (std::thread& thread : impl_->threads) {
    if (thread.joinable()) thread.join();
  }
#endif
}

}  // namespace tinprov
