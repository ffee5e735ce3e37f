// Load generation over raw protocol lines, plus the small statistics and
// process probes the reports use.
//
// The timed path of every operation is send → receive of one raw line:
// request lines are formatted before the clock starts and responses are
// only scanned (status, version) after it stops, so client-side JSON work
// is never charged to the server.

#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>

#include "perfbench.h"
#include "srs/common/memory_tracker.h"
#include "srs/common/rng.h"

namespace perfbench {

// --- transport --------------------------------------------------------------

namespace {

// Blocking line transport over one loopback connection.
class Connection {
 public:
  static std::unique_ptr<Connection> Open(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::unique_ptr<Connection>(new Connection(fd));
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { ::close(fd_); }

  // Sends `line` plus '\n'.
  bool Send(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one line, without its '\n'.
  bool Receive(std::string* line) {
    size_t scanned = 0;
    while (true) {
      const size_t nl = buffer_.find('\n', scanned);
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      scanned = buffer_.size();
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;
};

}  // namespace

std::string CallOnce(int port, const std::string& line) {
  std::unique_ptr<Connection> conn = Connection::Open(port);
  std::string response;
  if (conn == nullptr || !conn->Send(line) || !conn->Receive(&response)) {
    return "";
  }
  return response;
}

// --- response scanning --------------------------------------------------------

bool ResponseOk(const std::string& line) {
  // MakeResponse writes "id" then "status" first; look only at the head.
  return std::string_view(line).substr(0, 64).find("\"status\":\"ok\"") !=
         std::string_view::npos;
}

bool ReadUintField(const std::string& line, const char* field,
                   uint64_t* out) {
  const std::string key = std::string("\"") + field + "\":";
  const size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + key.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin || value < 0) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

// --- statistics ---------------------------------------------------------------

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = p / 100.0 * static_cast<double>(values->size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(&values, 50.0);
}

size_t HeapBytes() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int threads = 0;
      status >> threads;
      return threads;
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

uint64_t ProcessMinorFaults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kTopK:
      return "topk";
    case Shape::kRow:
      return "row";
    case Shape::kDelta:
      return "delta";
  }
  return "?";
}

// --- the window ---------------------------------------------------------------

double QueriesPerSecond(const WindowResult& window) {
  uint64_t answered = 0;
  for (const Op& op : window.ops) {
    if (op.shape != Shape::kDelta && op.end <= window.end) ++answered;
  }
  return static_cast<double>(answered) / window.seconds;
}

namespace {

struct ThreadLog {
  std::vector<Op> ops;
  // Kept query responses and responses served, by shape (kTopK, kRow).
  std::vector<Kept> kept[2];
  uint64_t served[2] = {0, 0};
  Acked acked;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;

  void Fail(const std::string& what) {
    ++failed;
    if (error.empty()) error = what;
  }
};

struct Window {
  const WorkloadSpec& spec;
  const Inputs& inputs;
  const WindowConfig& config;
  int port;
  Clock::time_point start;
  Clock::time_point end;
  std::atomic<size_t> fresh_cursor;
  size_t first_delta;
};

void ReaderLoop(Window* w, int reader, ThreadLog* log) {
  std::unique_ptr<Connection> conn = Connection::Open(w->port);
  if (conn == nullptr) {
    log->Fail("reader could not connect");
    return;
  }
  srs::Rng rng(srs::DeriveSeed(w->config.seed, 100 + reader));
  std::string response;
  std::this_thread::sleep_until(w->start);
  for (uint64_t i = 0;; ++i) {
    const Shape shape = w->spec.alternate_rows && i % 2 == 1 ? Shape::kRow
                                                             : Shape::kTopK;
    const size_t next = w->fresh_cursor.fetch_add(1);
    if (next >= w->inputs.fresh.size()) {
      log->Fail("fresh sources exhausted");
      return;
    }
    const srs::NodeId source = w->inputs.fresh[next];
    const std::string line =
        QueryLine(source, shape == Shape::kRow ? 0 : kTopK, w->config.trace);

    Op op;
    op.shape = shape;
    op.start = Clock::now();
    if (op.start >= w->end) return;
    ++log->attempted;
    const bool delivered = conn->Send(line) && conn->Receive(&response);
    op.end = Clock::now();
    if (!delivered) {
      log->Fail("reader connection broke");
      return;
    }
    if (!ResponseOk(response) ||
        !ReadUintField(response, "version", &op.version)) {
      log->Fail("query failed: " + response.substr(0, 200));
      continue;
    }
    log->ops.push_back(op);
    // Reservoir sampling (algorithm R): every response of a shape is kept
    // with equal probability, whenever in the window it was served.
    std::vector<Kept>& sample = log->kept[static_cast<size_t>(shape)];
    const uint64_t seen = ++log->served[static_cast<size_t>(shape)];
    Kept* slot = nullptr;
    if (w->config.keep_all || sample.size() < w->config.keep_per_shape) {
      slot = &sample.emplace_back();
    } else if (const uint64_t r = rng.Uniform(seen);
               r < w->config.keep_per_shape) {
      slot = &sample[r];
    }
    if (slot != nullptr) {
      *slot = Kept{shape, source, op.start, MsBetween(op.start, op.end),
                   std::move(response)};
      response = std::string();
    }
  }
}

// Open loop: delta i is due at start + i / rate whether or not earlier
// ones have been answered; its latency runs from the due time.
void WriterLoop(Window* w, ThreadLog* log) {
  std::unique_ptr<Connection> conn = Connection::Open(w->port);
  if (conn == nullptr) {
    log->Fail("writer could not connect");
    return;
  }
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / w->spec.deltas_per_second));
  std::string response;
  for (size_t i = 0;; ++i) {
    const Clock::time_point due =
        w->start + interval * static_cast<Clock::rep>(i);
    if (due >= w->end) return;
    const size_t index = w->first_delta + i;
    if (index >= w->inputs.deltas.size()) {
      log->Fail("delta schedule exhausted");
      return;
    }
    std::this_thread::sleep_until(due);
    Op op;
    op.shape = Shape::kDelta;
    op.start = due;
    const Clock::time_point sent = Clock::now();
    op.late_ms = MsBetween(due, sent);
    ++log->attempted;
    const bool delivered =
        conn->Send(w->inputs.deltas[index].line) && conn->Receive(&response);
    op.end = Clock::now();
    if (!delivered) {
      log->Fail("writer connection broke");
      return;
    }
    if (!ResponseOk(response) ||
        !ReadUintField(response, "version", &op.version)) {
      log->Fail("delta failed: " + response.substr(0, 200));
      continue;
    }
    log->ops.push_back(op);
    log->acked.emplace_back(op.version, index);
  }
}

}  // namespace

WindowResult RunWindow(const WorkloadSpec& spec, const Inputs& inputs,
                       int port, const WindowConfig& config,
                       Cursors* cursors) {
  Window w{spec, inputs, config, port, {}, {}, {cursors->fresh},
           cursors->delta};
  const int writers = spec.deltas_per_second > 0 ? 1 : 0;
  std::vector<ThreadLog> logs(static_cast<size_t>(spec.readers + writers));
  // Connections open before the clock starts; every thread begins at the
  // same instant.
  w.start = Clock::now() + std::chrono::milliseconds(50);
  w.end = w.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> threads;
  for (int r = 0; r < spec.readers; ++r) {
    threads.emplace_back(ReaderLoop, &w, r, &logs[static_cast<size_t>(r)]);
  }
  if (writers > 0) threads.emplace_back(WriterLoop, &w, &logs.back());

  WindowResult result;
  std::this_thread::sleep_until(w.end);
  result.threads = ThreadCount();
  for (std::thread& t : threads) t.join();
  // Resident memory once the requests in flight at the window's end have
  // completed: a full row in flight holds tens of MB of transient buffers.
  result.rss_bytes = srs::ProcessCurrentRssBytes();
  result.heap_bytes = HeapBytes();
  result.seconds = config.seconds;
  result.start = w.start;
  result.end = w.end;
  for (ThreadLog& log : logs) {
    result.attempted += log.attempted;
    result.failed += log.failed;
    if (result.first_error.empty()) result.first_error = log.error;
    result.ops.insert(result.ops.end(), log.ops.begin(), log.ops.end());
    for (std::vector<Kept>& sample : log.kept) {
      for (Kept& k : sample) {
        result.kept_bytes += k.line.capacity();
        result.kept.push_back(std::move(k));
      }
    }
    result.acked.insert(result.acked.end(), log.acked.begin(),
                        log.acked.end());
  }
  std::sort(result.acked.begin(), result.acked.end());
  std::sort(result.kept.begin(), result.kept.end(),
            [](const Kept& a, const Kept& b) { return a.start < b.start; });
  cursors->fresh = w.fresh_cursor.load();
  if (writers > 0) cursors->delta += logs.back().attempted;
  return result;
}

}  // namespace perfbench
