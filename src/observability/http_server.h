#pragma once

/// \file http_server.h
/// \brief Minimal HTTP/1.0 exposition endpoint for the metrics registry.
///
/// Serves exactly three paths on 127.0.0.1:
///
///   * `GET /metrics`  — Prometheus text exposition of a fresh
///     `MetricsRegistry::Snapshot()` (scrape target);
///   * `GET /statusz`  — the same snapshot as a JSON object, plus any
///     extra top-level fields the embedder supplies (build info, serving
///     identity);
///   * `GET /healthz`  — `ok\n` (liveness probe).
///
/// Anything else is 404. The server is deliberately tiny: an accept
/// thread hands each connection to a short-lived handler thread (a scrape
/// every few seconds is the design load — this is not a traffic port)
/// that reads until the header terminator, answers with
/// `Connection: close`, and closes. Every accepted socket carries
/// SO_RCVTIMEO / SO_SNDTIMEO (`io_timeout_ms`), so a client that
/// connects and then stalls mid-request is dropped when its timer fires
/// instead of wedging the endpoint — `/healthz` keeps answering while a
/// scraper hangs. Shutdown mirrors server/server.h: shutdown(2) the
/// listener and every in-flight connection, then join all threads.

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "srs/common/connection_threads.h"
#include "srs/common/json.h"
#include "srs/common/result.h"
#include "srs/observability/metrics.h"

namespace srs {

/// Configuration of a MetricsHttpServer.
struct MetricsHttpOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  int port = 0;

  /// Registry to snapshot per request; null means GlobalMetrics().
  MetricsRegistry* registry = nullptr;

  /// Optional extra top-level `/statusz` fields, merged before the
  /// "metrics" object (e.g. serving identity). Called per request.
  std::function<JsonValue()> statusz_extra;

  /// Per-connection receive/send timeout. A client that stalls for this
  /// long mid-request or mid-response is closed without an answer.
  int io_timeout_ms = 5000;
};

/// \brief A running exposition endpoint.
class MetricsHttpServer {
 public:
  /// Binds and starts serving. IoError when the socket cannot be bound.
  static Result<std::unique_ptr<MetricsHttpServer>> Start(
      const MetricsHttpOptions& options = {});

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Stops and joins.
  ~MetricsHttpServer();

  /// The bound port (the ephemeral one when options.port was 0).
  int port() const { return port_; }

  /// Stops accepting and joins the serving thread. Idempotent.
  void Stop();

 private:
  explicit MetricsHttpServer(const MetricsHttpOptions& options);

  void ServeLoop();
  void HandlerEntry(int fd);
  void HandleConnection(int fd);

  MetricsHttpOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread serve_thread_;

  std::mutex mu_;
  /// In-flight connection sockets; Stop() shuts each down so handler
  /// threads unblock immediately instead of waiting out their timeouts.
  std::vector<int> active_fds_;  // guarded by mu_
  ConnectionThreads handlers_;
};

}  // namespace srs
