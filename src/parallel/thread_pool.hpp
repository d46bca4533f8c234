// Worker threads for trial-level parallelism.
//
// Discrete-event trials are single-threaded by design (determinism); Monte
// Carlo sweeps run many independent trials, so the parallelism lives here.
// ThreadPool::run starts a fixed set of workers on one body, joins them and
// rethrows the first exception. There is no task queue: a sweep's work is
// known up front, so the body claims it itself (see trial_runner.hpp).
#pragma once

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dyna::par {

class ThreadPool {
 public:
  /// Run body() once on each of `threads` new threads (0 => one) and join
  /// them all. Rethrows the first exception a worker threw.
  template <typename Body>
  static void run(unsigned threads, const Body& body) {
    threads = std::max(threads, 1u);
    std::mutex mu;
    std::exception_ptr first_error;
    {
      std::vector<std::jthread> workers;
      workers.reserve(threads);
      for (unsigned w = 0; w < threads; ++w) {
        workers.emplace_back([&, w] {
          tls_worker_ = static_cast<int>(w);
          try {
            body();
          } catch (...) {
            const std::lock_guard lock(mu);
            if (!first_error) first_error = std::current_exception();
          }
        });
      }
    }  // joins every worker
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Index of the calling thread within the run() that started it, in
  /// [0, threads), or -1 on any other thread. Trial callables key
  /// worker-local state (reused simulation substrates) on it.
  [[nodiscard]] static int current_worker() noexcept { return tls_worker_; }

 private:
  static thread_local int tls_worker_;
};

inline thread_local int ThreadPool::tls_worker_ = -1;

}  // namespace dyna::par
