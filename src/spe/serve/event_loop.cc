#include "spe/serve/event_loop.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <exception>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "spe/common/check.h"
#include "spe/serve/server_stats.h"
#include "spe/serve/wire.h"

namespace spe::serve {
namespace {

constexpr std::uint64_t kListenerToken = 0;
constexpr std::uint64_t kWakeToken = 1;
/// Set on the epoll token of an adopted session's output descriptor,
/// which is registered apart from its input.
constexpr std::uint64_t kOutputToken = std::uint64_t{1} << 63;

constexpr char kCapacityRefusal[] = "ERR server at connection capacity\n";

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// write(2) to a blocking descriptor without blocking the loop. A
/// pollable one is written only when poll(2) reports room, and then at
/// most PIPE_BUF bytes (`want` shrinks to match): what a writable pipe
/// takes whole. A full descriptor reports EAGAIN, like a nonblocking
/// one; a pipe whose reader is gone (POLLERR) reports EPIPE without
/// writing, so the loop never raises SIGPIPE on it.
ssize_t WriteAdopted(int fd, bool pollable, const char* data,
                     std::size_t& want) {
  if (pollable) {
    pollfd p{fd, POLLOUT, 0};
    if (poll(&p, 1, 0) < 0) return -1;
    if ((p.revents & (POLLERR | POLLNVAL)) != 0) {
      errno = EPIPE;
      return -1;
    }
    if ((p.revents & POLLOUT) == 0) {
      errno = EAGAIN;
      return -1;
    }
    want = std::min<std::size_t>(want, PIPE_BUF);
  }
  return write(fd, data, want);
}

}  // namespace

/// One queued response slot. Responses are written strictly in deque
/// order per session; a slot is written once `ready` (kScore and
/// kReload resolve asynchronously) or, for the snapshot kinds, rendered
/// lazily the moment the slot reaches the head — after every earlier
/// response has been formatted into the output buffer, so the snapshot
/// covers every request answered before it.
struct EventLoop::Pending {
  enum class Kind : unsigned char {
    kImmediate,  // response already formatted (parse errors, width errors)
    kScore,      // waiting on a scorer callback
    kStats,      // rendered at deque head
    kMetrics,    // rendered at deque head
    kReload,     // fired at deque head, waiting on the reload callback
  };
  Kind kind = Kind::kImmediate;
  bool binary = false;          // response framing (wire.h vs text line)
  std::uint64_t bin_id = 0;     // binary score/error frames echo this
  ServeRequest request;         // text formatting context (json flag, id)
  std::string reload_path;
  std::string response;         // framed bytes, '\n' included for text
  std::atomic<bool> ready{false};
  bool fired = false;           // kReload: reload_fn already dispatched
};

/// State the loop shares with scorer and reload callbacks. Lives behind
/// a shared_ptr captured by every callback, so completions arriving
/// after a connection (or the whole loop) is gone write into live
/// storage and are simply never consumed.
struct EventLoop::Shared {
  Shared() : wake_fd(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    SPE_CHECK_GE(wake_fd, 0) << "eventfd failed";
  }
  ~Shared() { close(wake_fd); }

  void Post(std::uint64_t token) {
    {
      std::lock_guard<std::mutex> lock(mu);
      completions.push_back(token);
    }
    Wake();
  }

  void Wake() {
    const std::uint64_t one = 1;
    // The counter saturating (EAGAIN) still leaves the fd readable;
    // nothing to handle.
    (void)!write(wake_fd, &one, sizeof(one));
  }

  /// Feature vectors recycled through scorer callbacks; bounded so a
  /// burst does not pin memory forever.
  std::vector<double> GetFeatures() {
    std::lock_guard<std::mutex> lock(mu);
    if (features_pool.empty()) return {};
    std::vector<double> v = std::move(features_pool.back());
    features_pool.pop_back();
    v.clear();
    return v;
  }

  void PutFeatures(std::vector<double> v) {
    std::lock_guard<std::mutex> lock(mu);
    if (features_pool.size() < 4096) features_pool.push_back(std::move(v));
  }

  const int wake_fd;
  std::mutex mu;
  std::vector<std::uint64_t> completions;
  std::vector<std::vector<double>> features_pool;
  std::atomic<bool> drain_requested{false};
};

/// Per-session state machine: an accepted socket, or an adopted
/// descriptor pair.
struct EventLoop::Conn {
  enum class Proto : unsigned char { kUnknown, kText, kBinary };

  int fd = -1;              // the socket, or the adopted input
  int out_fd = -1;          // == fd for a socket
  std::uint64_t token = 0;
  Proto proto = Proto::kUnknown;
  std::uint32_t armed = 0;  // interest in force (EPOLLIN / EPOLLOUT)
  // Adopted descriptors are blocking and owned by the caller; one that
  // epoll refuses (regular file, /dev/null) is always ready instead.
  bool adopted = false;
  bool in_pollable = true;
  bool out_pollable = true;

  std::string in;           // unparsed request bytes
  std::size_t in_pos = 0;   // parse cursor into `in`
  std::string out;          // formatted responses not yet written
  std::size_t out_pos = 0;  // write cursor into `out`

  std::deque<std::shared_ptr<Pending>> pending;

  bool read_open = true;    // peer may still send (no EOF / SHUT_RD yet)
  bool blocked = false;     // a !reload is in flight: parsing paused
  bool close_after_flush = false;  // framing lost: answer, flush, close
  bool refusal = false;     // capacity-refusal pseudo-connection
  bool discard_line = false;       // text: swallowing an oversized line
  std::size_t skip_bytes = 0;      // binary: payload bytes left to discard
};

EventLoop::EventLoop(BatchScorer& scorer, EventLoopConfig config,
                     ReloadRequestFn reload_fn)
    : scorer_(scorer),
      config_(std::move(config)),
      reload_fn_(std::move(reload_fn)),
      shared_(std::make_shared<Shared>()) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  SPE_CHECK_GE(epoll_fd_, 0) << "epoll_create1 failed";
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  SPE_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, shared_->wake_fd, &ev), 0);
  metrics_collector_ =
      obs::MetricsRegistry::Global().AddCollector([this](std::string& out) {
        const auto counter = [&out](const char* name, std::uint64_t v) {
          out += "# TYPE ";
          out += name;
          out += " counter\n";
          out += name;
          out += ' ';
          out += std::to_string(v);
          out += '\n';
        };
        const EventLoopCounters& c = counters_;
        counter("spe_serve_loop_accepted_total",
                c.accepted.load(std::memory_order_relaxed));
        counter("spe_serve_loop_refused_total",
                c.refused.load(std::memory_order_relaxed));
        counter("spe_serve_loop_text_requests_total",
                c.text_requests.load(std::memory_order_relaxed));
        counter("spe_serve_loop_binary_requests_total",
                c.binary_requests.load(std::memory_order_relaxed));
        counter("spe_serve_loop_partial_writes_total",
                c.partial_writes.load(std::memory_order_relaxed));
        counter("spe_serve_loop_read_errors_total",
                c.read_errors.load(std::memory_order_relaxed));
        counter("spe_serve_loop_write_errors_total",
                c.write_errors.load(std::memory_order_relaxed));
        counter("spe_serve_loop_wakeups_total",
                c.wakeups.load(std::memory_order_relaxed));
        out += "# TYPE spe_serve_loop_connections gauge\n"
               "spe_serve_loop_connections ";
        out += std::to_string(c.connections.load(std::memory_order_relaxed));
        out += '\n';
      });
}

EventLoop::~EventLoop() {
  for (auto& [token, conn] : conns_) {
    if (!conn->adopted) close(conn->fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

std::string EventLoop::Listen(const std::string& host, int port) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return "bad bind address " + host;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (listen(listen_fd_, config_.listen_backlog) < 0) return Errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  SPE_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev), 0);
  return "";
}

std::string EventLoop::Adopt(int in_fd, int out_fd) {
  if (in_fd == out_fd) return "Adopt needs distinct input and output fds";
  // epoll_ctl refuses a regular file or /dev/null with EPERM: such a
  // descriptor is always ready. Interest is registered later, only
  // while the session wants it.
  const auto probe = [this](int fd, bool& pollable) {
    epoll_event ev{};
    pollable = epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
    if (pollable) epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    return pollable || errno == EPERM;
  };
  auto conn = std::make_unique<Conn>();
  if (!probe(in_fd, conn->in_pollable) || !probe(out_fd, conn->out_pollable)) {
    return Errno("epoll_ctl");
  }
  const std::uint64_t token = next_token_++;
  conn->fd = in_fd;
  conn->out_fd = out_fd;
  conn->token = token;
  conn->adopted = true;
  conn->in = GetBuffer();
  conn->out = GetBuffer();
  ++active_sessions_;
  counters_.accepted.fetch_add(1, std::memory_order_relaxed);
  counters_.connections.fetch_add(1, std::memory_order_relaxed);
  if (!conn->in_pollable || !conn->out_pollable) {
    always_ready_.push_back(token);
  }
  Conn& c = *conn;
  conns_.emplace(token, std::move(conn));
  UpdateConn(c);
  return "";
}

void EventLoop::RequestDrain() {
  shared_->drain_requested.store(true, std::memory_order_release);
  shared_->Wake();
}

std::string EventLoop::GetBuffer() {
  if (buffer_pool_.empty()) {
    ++buffers_allocated_;
    return {};
  }
  ++buffers_reused_;
  std::string buf = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buf.clear();
  return buf;
}

void EventLoop::PutBuffer(std::string buf) {
  // Keep warm buffers, not monsters: a 1 MiB oversized line should not
  // pin its allocation for the rest of the process.
  if (buffer_pool_.size() < 1024 && buf.capacity() <= (1u << 20)) {
    buffer_pool_.push_back(std::move(buf));
  }
}

void EventLoop::Run() {
  // The interest an adopted session has in descriptors epoll refused.
  const auto always_ready_events = [this](std::uint64_t token) {
    const Conn& c = *conns_.at(token);
    return (c.in_pollable ? 0u : c.armed & EPOLLIN) |
           (c.out_pollable ? 0u : c.armed & EPOLLOUT);
  };
  epoll_event events[256];
  while (!((draining_ || listen_fd_ < 0) && conns_.empty())) {
    // An always-ready descriptor with interest is served right away, so
    // the wait must not sleep.
    int timeout = -1;
    for (const std::uint64_t token : always_ready_) {
      if (always_ready_events(token) != 0) timeout = 0;
    }
    const int n = epoll_wait(epoll_fd_, events, 256, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      SPE_CHECK(false) << Errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t token = events[i].data.u64;
      if (token == kListenerToken) {
        AcceptReady();
      } else if (token == kWakeToken) {
        DrainCompletions();
      } else if ((token & kOutputToken) != 0) {
        HandleConnEvent(token & ~kOutputToken, EPOLLOUT);
      } else {
        HandleConnEvent(token, events[i].events);
      }
    }
    const std::vector<std::uint64_t> ready = always_ready_;
    for (const std::uint64_t token : ready) {
      if (conns_.count(token) == 0) continue;  // closed in this batch
      const std::uint32_t ev = always_ready_events(token);
      if (ev != 0) HandleConnEvent(token, ev);
    }
  }
}

void EventLoop::AcceptReady() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        return;
      }
      // Anything else (fd exhaustion aside) means the listener is
      // broken; draining is the safe response.
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds: shed by not accepting; the backlog holds.
        return;
      }
      BeginDrain();
      return;
    }
    if (draining_) {
      close(fd);
      continue;
    }
    // Responses are small and often pipelined: without TCP_NODELAY,
    // Nagle holds every write behind the peer's delayed ACK (~40 ms).
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t token = next_token_++;
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->out_fd = fd;
    conn->token = token;
    conn->in = GetBuffer();
    conn->out = GetBuffer();
    if (config_.max_connections > 0 &&
        active_sessions_ >= config_.max_connections) {
      // At capacity: the refusal is a one-line pseudo-connection that
      // rides the same nonblocking write path as everything else — a
      // peer with a full receive buffer gets the whole line eventually
      // instead of whatever one unchecked write(2) happened to take.
      counters_.refused.fetch_add(1, std::memory_order_relaxed);
      conn->refusal = true;
      conn->read_open = false;
      conn->out.append(kCapacityRefusal, sizeof(kCapacityRefusal) - 1);
    } else {
      ++active_sessions_;
      counters_.accepted.fetch_add(1, std::memory_order_relaxed);
    }
    counters_.connections.fetch_add(1, std::memory_order_relaxed);
    Conn& c = *conn;
    conns_.emplace(token, std::move(conn));
    epoll_event ev{};
    ev.data.u64 = token;
    ev.events = 0;
    SPE_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev), 0);
    if (!TryFlush(c)) continue;  // refusal line usually fits the first write
    UpdateConn(c);
  }
}

void EventLoop::HandleConnEvent(std::uint64_t token, std::uint32_t events) {
  const auto it = conns_.find(token);
  if (it == conns_.end()) return;  // closed earlier in this batch
  Conn& c = *it->second;
  // A socket's hangup covers both directions: once it is no longer
  // read, flush what is owed and close. Otherwise (and always for an
  // adopted input, whose hangup says nothing about its output) the read
  // path observes the condition — recv/read reports the real error, or
  // EOF; a write-side hangup surfaces in TryFlush.
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && !c.adopted) {
    if (!c.read_open) {
      if (!TryFlush(c)) return;
      CloseConn(token);
      return;
    }
  }
  if ((events & EPOLLOUT) != 0) {
    if (!TryFlush(c)) return;  // conn closed on hard error
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 && c.read_open) {
    HandleReadable(c);
    if (conns_.find(token) == conns_.end()) return;
  }
  PumpPending(c);
  if (conns_.find(token) == conns_.end()) return;
  UpdateConn(c);
}

void EventLoop::HandleReadable(Conn& c) {
  for (;;) {
    if (c.blocked || c.pending.size() >= config_.max_pending_per_conn ||
        c.out.size() - c.out_pos >= config_.max_outbuf_bytes) {
      return;  // backpressure: leave the rest in the kernel buffer
    }
    const std::size_t old = c.in.size();
    c.in.resize(old + config_.read_chunk_bytes);
    const ssize_t n =
        c.adopted ? read(c.fd, c.in.data() + old, config_.read_chunk_bytes)
                  : recv(c.fd, c.in.data() + old, config_.read_chunk_bytes, 0);
    if (n > 0) {
      c.in.resize(old + static_cast<std::size_t>(n));
      ParseInput(c);
      if (conns_.find(c.token) == conns_.end()) return;
      // A blocking descriptor may block on a second read; the next
      // readiness report brings the loop back.
      if (c.adopted) return;
      continue;
    }
    c.in.resize(old);
    if (n == 0) {
      // EOF. A final unterminated text line still counts as a request
      // — and so does an oversized line cut short by EOF, which still
      // earns its error line. A partial binary frame has no id to
      // answer; dropped.
      c.read_open = false;
      if (!draining_ && c.proto != Conn::Proto::kBinary &&
          (c.discard_line ||
           (c.in_pos < c.in.size() && c.in.back() != '\n'))) {
        c.in.push_back('\n');
        ParseInput(c);
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    counters_.read_errors.fetch_add(1, std::memory_order_relaxed);
    CloseConn(c.token);  // peer reset: nothing to answer
    return;
  }
}

void EventLoop::ParseInput(Conn& c) {
  if (c.proto == Conn::Proto::kUnknown && c.in_pos < c.in.size()) {
    c.proto = static_cast<unsigned char>(c.in[c.in_pos]) == wire::kMagic
                  ? Conn::Proto::kBinary
                  : Conn::Proto::kText;
  }
  if (c.proto == Conn::Proto::kBinary) {
    ParseBinary(c);
  } else {
    ParseText(c);
  }
  if (conns_.find(c.token) == conns_.end()) return;
  // Reclaim the consumed prefix once it dominates the buffer.
  if (c.in_pos > 0 && (c.in_pos >= c.in.size() || c.in_pos > (1u << 16))) {
    c.in.erase(0, c.in_pos);
    c.in_pos = 0;
  }
}

void EventLoop::ParseText(Conn& c) {
  while (!c.blocked && !c.close_after_flush &&
         c.pending.size() < config_.max_pending_per_conn) {
    const std::size_t nl = c.in.find('\n', c.in_pos);
    if (c.discard_line) {
      // Swallowing an oversized line chunk by chunk, never buffering it.
      if (nl == std::string::npos) {
        c.in.clear();
        c.in_pos = 0;
        return;
      }
      c.in_pos = nl + 1;
      c.discard_line = false;
      auto pending = std::make_shared<Pending>();
      pending->kind = Pending::Kind::kImmediate;
      ServeRequest oversize;
      oversize.kind = RequestKind::kInvalid;
      pending->response =
          FormatErrorResponse(oversize,
                              "request line exceeds " +
                                  std::to_string(kMaxRequestLineBytes) +
                                  " bytes") +
          '\n';
      pending->ready.store(true, std::memory_order_release);
      c.pending.push_back(std::move(pending));
      continue;
    }
    if (nl == std::string::npos) {
      if (c.in.size() - c.in_pos > kMaxRequestLineBytes + 2) {
        c.discard_line = true;
        c.in.clear();
        c.in_pos = 0;
      }
      return;
    }
    std::string_view line(c.in.data() + c.in_pos, nl - c.in_pos);
    c.in_pos = nl + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
      line.remove_suffix(1);
    }
    // A too-long line whose '\n' was already buffered (it can exceed
    // the no-newline check above by at most one read chunk) is refused
    // inside ParseRequestLine, which checks the cap before scanning and
    // answers the same "request line exceeds N bytes" error.
    EnqueueTextRequest(c, line);
  }
}

void EventLoop::EnqueueTextRequest(Conn& c, std::string_view line) {
  auto pending = std::make_shared<Pending>();
  pending->request = ParseRequestLine(line);
  ServeRequest& req = pending->request;
  switch (req.kind) {
    case RequestKind::kEmpty:
      return;  // never queued, no response
    case RequestKind::kStats:
      pending->kind = Pending::Kind::kStats;
      break;
    case RequestKind::kMetrics:
      pending->kind = Pending::Kind::kMetrics;
      break;
    case RequestKind::kReload:
      pending->kind = Pending::Kind::kReload;
      pending->reload_path = std::move(req.reload_path);
      c.blocked = true;  // parsing resumes once the OK/ERR is written
      break;
    case RequestKind::kInvalid:
      pending->kind = Pending::Kind::kImmediate;
      pending->response = FormatErrorResponse(req, req.error) + '\n';
      pending->ready.store(true, std::memory_order_release);
      break;
    case RequestKind::kScore: {
      counters_.text_requests.fetch_add(1, std::memory_order_relaxed);
      if (req.features.size() != scorer_.num_features()) {
        pending->kind = Pending::Kind::kImmediate;
        pending->response =
            FormatErrorResponse(
                req, "expected " + std::to_string(scorer_.num_features()) +
                         " features, got " +
                         std::to_string(req.features.size())) +
            '\n';
        pending->ready.store(true, std::memory_order_release);
        break;
      }
      pending->kind = Pending::Kind::kScore;
      const double deadline_ms = req.deadline_ms;
      c.pending.push_back(pending);
      SubmitScore(c, pending, std::move(req.features), deadline_ms);
      return;
    }
  }
  c.pending.push_back(std::move(pending));
}

void EventLoop::ParseBinary(Conn& c) {
  while (!c.blocked && !c.close_after_flush &&
         c.pending.size() < config_.max_pending_per_conn) {
    if (c.skip_bytes > 0) {
      const std::size_t avail = c.in.size() - c.in_pos;
      const std::size_t eat = avail < c.skip_bytes ? avail : c.skip_bytes;
      c.in_pos += eat;
      c.skip_bytes -= eat;
      if (c.skip_bytes > 0) return;  // need more bytes to discard
      continue;
    }
    if (c.in.size() - c.in_pos < wire::kHeaderBytes) return;
    const unsigned char* base =
        reinterpret_cast<const unsigned char*>(c.in.data()) + c.in_pos;
    const wire::FrameHeader header = wire::DecodeHeader(base);
    const std::string header_error = wire::ValidateRequestHeader(header);
    if (!header_error.empty()) {
      auto pending = std::make_shared<Pending>();
      pending->kind = Pending::Kind::kImmediate;
      pending->binary = true;
      wire::AppendErrorResponse(pending->response, 0, header_error);
      pending->ready.store(true, std::memory_order_release);
      c.pending.push_back(std::move(pending));
      if (wire::IsFramingLost(header_error)) {
        // The stream can no longer be framed: answer, flush, close.
        c.close_after_flush = true;
        c.read_open = false;
        c.in.clear();
        c.in_pos = 0;
        return;
      }
      // Recoverable refusal (oversized payload, unknown type, short
      // score frame): discard the declared payload in chunks and keep
      // the connection.
      c.in_pos += wire::kHeaderBytes;
      c.skip_bytes = header.payload_len;
      continue;
    }
    if (c.in.size() - c.in_pos < wire::kHeaderBytes + header.payload_len) {
      return;  // whole frame not buffered yet (payload <= 1 MiB cap)
    }
    const unsigned char* payload = base + wire::kHeaderBytes;
    c.in_pos += wire::kHeaderBytes + header.payload_len;
    auto pending = std::make_shared<Pending>();
    pending->binary = true;
    switch (static_cast<wire::FrameType>(header.type)) {
      case wire::FrameType::kScore: {
        counters_.binary_requests.fetch_add(1, std::memory_order_relaxed);
        wire::ScoreFrame frame;
        std::vector<double> features = shared_->GetFeatures();
        const std::string error =
            wire::DecodeScorePayload(header, payload, frame, features);
        pending->bin_id = frame.id;
        if (!error.empty()) {
          pending->kind = Pending::Kind::kImmediate;
          wire::AppendErrorResponse(pending->response, frame.id, error);
          pending->ready.store(true, std::memory_order_release);
          shared_->PutFeatures(std::move(features));
          break;
        }
        if (features.size() != scorer_.num_features()) {
          pending->kind = Pending::Kind::kImmediate;
          wire::AppendErrorResponse(
              pending->response, frame.id,
              "expected " + std::to_string(scorer_.num_features()) +
                  " features, got " + std::to_string(features.size()));
          pending->ready.store(true, std::memory_order_release);
          shared_->PutFeatures(std::move(features));
          break;
        }
        pending->kind = Pending::Kind::kScore;
        c.pending.push_back(pending);
        SubmitScore(c, pending, std::move(features), frame.deadline_ms);
        continue;
      }
      case wire::FrameType::kStats:
        pending->kind = Pending::Kind::kStats;
        break;
      case wire::FrameType::kMetrics:
        pending->kind = Pending::Kind::kMetrics;
        break;
      case wire::FrameType::kReload:
        pending->kind = Pending::Kind::kReload;
        pending->reload_path.assign(reinterpret_cast<const char*>(payload),
                                    header.payload_len);
        c.blocked = true;
        break;
      default:
        SPE_CHECK(false) << "validated header with unknown type";
    }
    c.pending.push_back(std::move(pending));
  }
}

void EventLoop::SubmitScore(Conn& c, const std::shared_ptr<Pending>& pending,
                            std::vector<double> features, double deadline_ms) {
  auto deadline = BatchScorer::kNoDeadline;
  if (deadline_ms >= 0 || config_.default_deadline_ms > 0) {
    const double ms =
        deadline_ms >= 0 ? deadline_ms : config_.default_deadline_ms;
    deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
  }
  // The callback runs on a scorer worker (or inline on this thread when
  // shed): it formats the response into the pending slot, hands the
  // feature buffer back to the pool, and pokes the loop. It must not
  // touch Conn — the connection may be gone by the time it fires.
  std::shared_ptr<Shared> shared = shared_;
  const std::uint64_t token = c.token;
  scorer_.SubmitCallback(
      std::move(features), deadline,
      [shared, pending, token](ScoreResult result, std::exception_ptr error,
                               std::vector<double> buffer) {
        shared->PutFeatures(std::move(buffer));
        if (error != nullptr) {
          std::string what = "unknown error";
          try {
            std::rethrow_exception(error);
          } catch (const std::exception& e) {
            what = e.what();
          } catch (...) {
          }
          if (pending->binary) {
            wire::AppendErrorResponse(pending->response, pending->bin_id,
                                      what);
          } else {
            pending->response =
                FormatErrorResponse(pending->request, what) + '\n';
          }
        } else if (pending->binary) {
          wire::AppendScoreResponse(pending->response, pending->bin_id,
                                    result.proba, result.degraded);
        } else {
          pending->response = FormatScoreResponse(pending->request,
                                                  result.proba,
                                                  result.degraded) +
                              '\n';
        }
        pending->ready.store(true, std::memory_order_release);
        shared->Post(token);
      });
}

void EventLoop::PumpPending(Conn& c) {
  for (;;) {
    bool waiting = false;  // head slot exists but its response is not ready
    while (!c.pending.empty()) {
      Pending& head = *c.pending.front();
      switch (head.kind) {
        case Pending::Kind::kImmediate:
        case Pending::Kind::kScore:
          waiting = !head.ready.load(std::memory_order_acquire);
          break;
        case Pending::Kind::kStats: {
          // Rendered only now — at the head, with every earlier
          // response already formatted into c.out — so the snapshot
          // covers every request answered before it.
          std::string text = ToJson(scorer_.stats().Snapshot());
          if (head.binary) {
            wire::AppendTextResponse(head.response, text);
          } else {
            head.response = std::move(text) + '\n';
          }
          head.kind = Pending::Kind::kImmediate;
          break;
        }
        case Pending::Kind::kMetrics: {
          std::string text = obs::MetricsRegistry::Global().RenderText();
          while (!text.empty() && text.back() == '\n') text.pop_back();
          if (head.binary) {
            wire::AppendTextResponse(head.response, text);
          } else {
            head.response = std::move(text) + '\n';
          }
          head.kind = Pending::Kind::kImmediate;
          break;
        }
        case Pending::Kind::kReload: {
          if (head.fired) {
            waiting = !head.ready.load(std::memory_order_acquire);
            break;
          }
          // The reload barrier: fire only when every response for a
          // request read before the !reload is on the wire. Pending
          // being the head covers "answered"; the empty output buffer
          // covers "written".
          if (c.out.size() != c.out_pos) {
            if (!TryFlush(c)) return;  // connection closed on write error
            if (c.out.size() != c.out_pos) {
              waiting = true;  // wait for EPOLLOUT
              break;
            }
          }
          head.fired = true;
          if (!reload_fn_) {
            if (head.binary) {
              wire::AppendTextResponse(head.response,
                                       "ERR reload is not available");
            } else {
              head.response = "ERR reload is not available\n";
            }
            head.ready.store(true, std::memory_order_release);
            break;
          }
          std::shared_ptr<Shared> shared = shared_;
          std::shared_ptr<Pending> slot = c.pending.front();
          const std::uint64_t token = c.token;
          reload_fn_(slot->reload_path,
                     [shared, slot, token](std::string response) {
                       if (slot->binary) {
                         wire::AppendTextResponse(slot->response, response);
                       } else {
                         slot->response = std::move(response) + '\n';
                       }
                       slot->ready.store(true, std::memory_order_release);
                       shared->Post(token);
                     });
          waiting = !head.ready.load(std::memory_order_acquire);
          break;
        }
      }
      if (waiting) break;
      c.out += c.pending.front()->response;
      const bool was_reload =
          c.pending.front()->kind == Pending::Kind::kReload;
      c.pending.pop_front();
      // Requests sent after a !reload parse (and score) only from here
      // on — against the post-swap model, or the old one if the swap
      // was refused; the resume step below picks them up.
      if (was_reload) c.blocked = false;
    }
    // Resume parsing input that was buffered while the pending queue
    // sat at its cap or a !reload blocked the parser. The kernel buffer
    // may already be drained (a pipelining client can put everything in
    // one burst), so no EPOLLIN is coming to do this for us — the slots
    // freed above are the only wakeup this input will ever get.
    if (waiting || c.blocked || c.close_after_flush ||
        c.in_pos >= c.in.size() ||
        c.pending.size() >= config_.max_pending_per_conn) {
      break;
    }
    const std::size_t queued = c.pending.size();
    ParseInput(c);
    if (conns_.find(c.token) == conns_.end()) return;
    if (c.pending.size() == queued) {
      // No request came out: the remainder is an incomplete line or
      // frame. Once the peer has half-closed it can never complete —
      // drop it (a partial binary frame has no id to answer) so the
      // connection does not idle forever on input that cannot progress.
      if (!c.read_open && c.in_pos < c.in.size()) {
        c.in.clear();
        c.in_pos = 0;
        c.skip_bytes = 0;
      }
      break;
    }
  }
  if (!c.pending.empty() || c.out.size() != c.out_pos) TryFlush(c);
}

bool EventLoop::TryFlush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    std::size_t want = c.out.size() - c.out_pos;
    const ssize_t n =
        c.adopted ? WriteAdopted(c.out_fd, c.out_pollable,
                                 c.out.data() + c.out_pos, want)
                  : send(c.fd, c.out.data() + c.out_pos, want, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < want) {
        counters_.partial_writes.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // Hard error (peer reset): undeliverable responses are dropped with
    // the session.
    counters_.write_errors.fetch_add(1, std::memory_order_relaxed);
    CloseConn(c.token);
    return false;
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

void EventLoop::UpdateConn(Conn& c) {
  // Done when nothing can arrive and nothing is owed. Buffered input
  // the parser has not consumed yet is owed work too — PumpPending
  // resumes it when backpressure lifts and drops what can never
  // complete once the peer half-closes, so it cannot pin the
  // connection indefinitely.
  const bool has_output = c.out.size() != c.out_pos;
  const bool has_input = c.in_pos < c.in.size();
  if (!has_output && !has_input && c.pending.empty() &&
      (!c.read_open || c.close_after_flush || draining_)) {
    CloseConn(c.token);
    return;
  }
  std::uint32_t want = 0;
  if (c.read_open && !c.blocked && !draining_ &&
      c.pending.size() < config_.max_pending_per_conn &&
      c.out.size() - c.out_pos < config_.max_outbuf_bytes) {
    want |= EPOLLIN;
  }
  if (has_output) want |= EPOLLOUT;
  if (want == c.armed) return;
  if (!c.adopted) {
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = c.token;
    SPE_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev), 0);
  } else {
    // An adopted descriptor is registered only while wanted: a pipe
    // reports EPOLLHUP/EPOLLERR even with no interest set, which would
    // spin the loop.
    const auto track = [&](std::uint32_t bit, int fd, bool pollable,
                           std::uint64_t token) {
      if (!pollable || ((want ^ c.armed) & bit) == 0) return;
      epoll_event ev{};
      ev.events = want & bit;
      ev.data.u64 = token;
      SPE_CHECK_EQ(epoll_ctl(epoll_fd_,
                             ev.events != 0 ? EPOLL_CTL_ADD : EPOLL_CTL_DEL,
                             fd, &ev),
                   0);
    };
    track(EPOLLIN, c.fd, c.in_pollable, c.token);
    track(EPOLLOUT, c.out_fd, c.out_pollable, c.token | kOutputToken);
  }
  c.armed = want;
}

void EventLoop::CloseConn(std::uint64_t token) {
  const auto it = conns_.find(token);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  if (c.adopted) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.out_fd, nullptr);
    always_ready_.erase(
        std::remove(always_ready_.begin(), always_ready_.end(), token),
        always_ready_.end());
  } else {
    close(c.fd);
  }
  if (!c.refusal) --active_sessions_;
  counters_.connections.fetch_sub(1, std::memory_order_relaxed);
  PutBuffer(std::move(c.in));
  PutBuffer(std::move(c.out));
  conns_.erase(it);
}

void EventLoop::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  if (listen_fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Stop reading every session (sockets are half-closed): no new
  // requests, every accepted one still answered. Partially read input
  // is dropped — scoring a truncated request would answer garbage.
  std::vector<std::uint64_t> tokens;
  tokens.reserve(conns_.size());
  for (const auto& [token, conn] : conns_) tokens.push_back(token);
  for (const std::uint64_t token : tokens) {
    const auto it = conns_.find(token);
    if (it == conns_.end()) continue;
    Conn& c = *it->second;
    if (!c.adopted) shutdown(c.fd, SHUT_RD);
    c.read_open = false;
    c.in.clear();
    c.in_pos = 0;
    c.discard_line = false;
    c.skip_bytes = 0;
    PumpPending(c);
    if (conns_.find(token) == conns_.end()) continue;
    UpdateConn(c);
  }
}

void EventLoop::DrainCompletions() {
  std::uint64_t drained = 0;
  (void)!read(shared_->wake_fd, &drained, sizeof(drained));
  counters_.wakeups.fetch_add(1, std::memory_order_relaxed);
  if (shared_->drain_requested.exchange(false, std::memory_order_acquire)) {
    BeginDrain();
  }
  std::vector<std::uint64_t> tokens;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    tokens.swap(shared_->completions);
  }
  for (const std::uint64_t token : tokens) {
    const auto it = conns_.find(token);
    if (it == conns_.end()) continue;  // connection died before its answer
    Conn& c = *it->second;
    PumpPending(c);
    if (conns_.find(token) == conns_.end()) continue;
    UpdateConn(c);
  }
}

}  // namespace spe::serve
