#pragma once

/// \file connection_threads.h
/// \brief The thread-per-connection set both TCP servers share.
///
/// An exited thread that nobody has joined keeps its stack mapped (about
/// 8 MiB by glibc default), so a server that only joins its connection
/// threads at shutdown grows with every connection it ever accepted. Here
/// each thread records itself as finished on the way out, and the next
/// Spawn() joins every finished thread before starting a new one: the set
/// holds the live connections plus at most the few that ended since the
/// last accept.

#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace srs {

/// \brief Owns one thread per open connection and joins them as they end.
class ConnectionThreads {
 public:
  ConnectionThreads() = default;
  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;

  /// Joins the remaining threads.
  ~ConnectionThreads() { JoinAll(); }

  /// Joins every thread that has finished, then runs `fn` on a new one.
  void Spawn(std::function<void()> fn);

  /// Joins every thread. Call only once no further Spawn() can happen
  /// (the accept loop has exited).
  void JoinAll();

 private:
  std::mutex mu_;
  std::vector<std::thread> threads_;       // guarded by mu_
  std::vector<std::thread::id> finished_;  // guarded by mu_; not yet joined
};

}  // namespace srs
