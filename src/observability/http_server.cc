#include "srs/observability/http_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "srs/observability/exposition.h"

namespace srs {

namespace {

/// Upper bound on a request's header block; a scraper never comes close.
constexpr size_t kMaxRequestBytes = 16 * 1024;

void WriteAllBestEffort(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // scraper went away; nothing to do
    }
    sent += static_cast<size_t>(n);
  }
}

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Path of `GET <path> HTTP/1.x`; empty when the request line is not a
/// GET.
std::string ParseGetPath(const std::string& request) {
  if (request.rfind("GET ", 0) != 0) return "";
  const size_t path_begin = 4;
  const size_t path_end = request.find(' ', path_begin);
  if (path_end == std::string::npos) return "";
  std::string path = request.substr(path_begin, path_end - path_begin);
  // Scrapers may append query parameters; the path alone routes.
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(const MetricsHttpOptions& options)
    : options_(options) {
  if (options_.registry == nullptr) options_.registry = &GlobalMetrics();
}

Result<std::unique_ptr<MetricsHttpServer>> MetricsHttpServer::Start(
    const MetricsHttpOptions& options) {
  std::unique_ptr<MetricsHttpServer> server(new MetricsHttpServer(options));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("metrics bind 127.0.0.1:" +
                           std::to_string(options.port) + ": " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("metrics listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);

  server->listen_fd_ = fd;
  server->port_ = static_cast<int>(ntohs(bound.sin_port));
  server->serve_thread_ =
      std::thread([s = server.get()] { s->ServeLoop(); });
  return server;
}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

void MetricsHttpServer::Stop() {
  if (!stopping_.exchange(true)) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    // Unblock every in-flight handler; each closes its own socket on the
    // way out.
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (serve_thread_.joinable()) serve_thread_.join();
  // The accept loop has exited, so no new handlers can appear.
  handlers_.JoinAll();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::ServeLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // A stalled client trips these timers and is dropped; it never blocks
    // the accept loop, which is already back in accept().
    timeval timeout{};
    timeout.tv_sec = options_.io_timeout_ms / 1000;
    timeout.tv_usec =
        static_cast<suseconds_t>(options_.io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    std::lock_guard<std::mutex> lock(mu_);
    // Stop() may have swept active_fds_ between accept() and here; under
    // the same lock, make sure a late arrival is shut down too.
    if (stopping_.load()) ::shutdown(fd, SHUT_RDWR);
    active_fds_.push_back(fd);
    handlers_.Spawn([this, fd] { HandlerEntry(fd); });
  }
}

void MetricsHttpServer::HandlerEntry(int fd) {
  HandleConnection(fd);
  std::lock_guard<std::mutex> lock(mu_);
  ::close(fd);
  active_fds_.erase(std::remove(active_fds_.begin(), active_fds_.end(), fd),
                    active_fds_.end());
}

void MetricsHttpServer::HandleConnection(int fd) {
  // Read until the header terminator (the request has no body).
  std::string request;
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    char chunk[2048];
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;  // stalled client: timeout fired, drop without an answer
      }
      if (request.empty()) return;
      break;  // header-only request without terminator: route what we have
    }
    request.append(chunk, static_cast<size_t>(got));
  }

  const std::string path = ParseGetPath(request);
  if (path == "/metrics") {
    const std::string body =
        RenderPrometheus(options_.registry->Snapshot());
    WriteAllBestEffort(
        fd, HttpResponse("200 OK",
                         "text/plain; version=0.0.4; charset=utf-8", body));
  } else if (path == "/statusz") {
    JsonValue body = options_.statusz_extra ? options_.statusz_extra()
                                            : JsonValue::MakeObject();
    body.Set("metrics", RenderStatusz(options_.registry->Snapshot()));
    WriteAllBestEffort(
        fd, HttpResponse("200 OK", "application/json", body.Encode()));
  } else if (path == "/healthz") {
    WriteAllBestEffort(
        fd, HttpResponse("200 OK", "text/plain; charset=utf-8", "ok\n"));
  } else {
    WriteAllBestEffort(
        fd, HttpResponse("404 Not Found", "text/plain; charset=utf-8",
                         "not found\n"));
  }
}

}  // namespace srs
