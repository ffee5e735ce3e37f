#include "srs/common/connection_threads.h"

#include <algorithm>
#include <utility>

namespace srs {

void ConnectionThreads::Spawn(std::function<void()> fn) {
  std::vector<std::thread> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // An id in finished_ belongs to a thread not yet joined, so no newer
    // thread can share it.
    for (std::thread::id id : finished_) {
      const auto it = std::find_if(
          threads_.begin(), threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      reap.push_back(std::move(*it));
      threads_.erase(it);
    }
    finished_.clear();
    // The new thread records itself under mu_, so it cannot appear in
    // finished_ before it is in threads_.
    threads_.emplace_back([this, fn = std::move(fn)] {
      fn();
      std::lock_guard<std::mutex> done(mu_);
      finished_.push_back(std::this_thread::get_id());
    });
  }
  // A finished thread only has to return from the lambda above: these
  // joins end at once.
  for (std::thread& t : reap) t.join();
}

void ConnectionThreads::JoinAll() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  finished_.clear();
}

}  // namespace srs
