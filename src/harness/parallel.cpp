#include "harness/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace netrs::harness {

int resolve_jobs(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const auto workers = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(resolve_jobs(jobs)), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  {
    // The caller is worker #0. jthreads join when this scope ends, also
    // when a thread fails to start and its exception propagates.
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t) threads.emplace_back(drain);
    drain();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace netrs::harness
