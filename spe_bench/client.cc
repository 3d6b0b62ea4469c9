#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <random>
#include <string_view>

#include "proc.h"
#include "spe/serve/wire.h"

namespace spe_bench {
namespace {

namespace wire = spe::wire;

enum class Kind : std::uint8_t { kScore, kReload, kExposition };
enum class Phase : std::uint8_t { kWarmup, kMeasured, kSaturation };

struct Inflight {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::uint64_t id = 0;
  std::uint32_t row = 0;
  Kind kind = Kind::kScore;
  Phase phase = Phase::kWarmup;
  std::uint8_t target = 0;  // reload: the artifact it asks for
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_at = 0;
  std::string in;
  std::size_t in_at = 0;
  std::deque<Inflight> fifo;  // responses come back in request order
  bool reloads = false;       // the one connection that sends `!reload`
  int version = 0;            // artifact named by its most recent OK
  bool reload_pending = false;
};

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

void AppendRequest(const ClientPlan& plan, std::string& out, std::uint64_t id,
                   std::uint32_t row) {
  if (plan.binary) {
    wire::AppendScoreRequest(out, id, plan.pool->data() + row * plan.num_features,
                             plan.num_features);
  } else {
    out += (*plan.text_rows)[row];
  }
}

class Client {
 public:
  Client(const ClientPlan& plan, ClientResult& result)
      : plan_(plan), result_(result) {}

  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
    if (epoll_fd_ >= 0) close(epoll_fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Abort("epoll_create1 failed");
    for (int i = 0; i < kClientConns; ++i) {
      Conn& c = conns_[i];
      c.fd = ConnectLoopback(port);
      if (c.fd < 0) return Abort("connect failed");
      c.reloads = i == 0;
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
    }
    return true;
  }

  /// Poisson arrivals at plan.rate: the warm-up window, then the measured
  /// window with its evenly spaced reloads; waits for every answer.
  void RunOpenLoop() {
    std::mt19937_64 rng(plan_.seed);
    std::exponential_distribution<double> gap_s(plan_.rate);
    const std::int64_t t0 = NowNs();
    measure_start_ = t0 + Ns(plan_.warmup_s);
    window_ns_ = Ns(plan_.open_s / kClientSlices);
    const std::int64_t open_end = measure_start_ + Ns(plan_.open_s);
    double next_due = static_cast<double>(t0) + gap_s(rng) * 1e9;
    int next_reload = 0;
    const double reload_every = plan_.reloads > 0 ? plan_.open_s / plan_.reloads : 0;
    const auto reload_at = [&](int k) {
      return k < plan_.reloads ? measure_start_ + Ns((k + 0.5) * reload_every) : open_end;
    };
    while (!aborted_) {
      const std::int64_t now = NowNs();
      if (now >= open_end) break;
      while (next_due <= static_cast<double>(now)) {
        const auto due = static_cast<std::int64_t>(next_due);
        const Phase phase = due < measure_start_ ? Phase::kWarmup : Phase::kMeasured;
        const std::uint64_t id = next_id_++;
        Enqueue(conns_[(id - 1) % kClientConns], Kind::kScore, id, due, now, phase);
        if (phase == Phase::kMeasured) {
          result_.late_ns.push_back(now - due);
          result_.late_window.push_back(Slice(due));
        }
        next_due += gap_s(rng) * 1e9;
      }
      if (now >= reload_at(next_reload)) {
        Conn& c = conns_[0];
        if (!c.reload_pending) {
          Enqueue(c, Kind::kReload, 0, now, now, Phase::kMeasured,
                  static_cast<std::uint8_t>(1 - c.version));
        }
        ++next_reload;
      }
      // Poll rather than sleep until the next arrival. Sleeping, the
      // client was busy 75-80% of the time anyway at 100k rows/s, and its
      // timer wake-ups and run-queue waits sent 0.4-0.7% of the requests
      // over 100 us late; polling, 0.03-0.4%. Lateness over 100 us at
      // p99 voids the measurement (see Runner::Serve in spe_bench.cc).
      Pump(0);
    }
    Drain();
  }

  /// Keeps kSatOutstanding rows outstanding on every connection for
  /// plan.sat_s and counts the answers that arrive in each of
  /// kClientSlices slices of it.
  void RunSaturation() {
    sat_start_ = NowNs();
    sat_end_ = sat_start_ + Ns(plan_.sat_s);
    result_.sat_window_rows.assign(kClientSlices, 0);
    while (!aborted_) {
      const std::int64_t now = NowNs();
      if (now >= sat_end_) break;
      for (Conn& c : conns_) {
        while (c.fifo.size() < kSatOutstanding) {
          Enqueue(c, Kind::kScore, next_id_++, now, now, Phase::kSaturation);
        }
      }
      Pump(sat_end_ - now);
    }
    Drain();
  }

  /// Asks for the live metrics exposition (`!stats` / kMetrics): the
  /// event loop's counters are only visible while the loop runs.
  void FetchExposition() {
    Enqueue(conns_[1], Kind::kExposition, 0, NowNs(), NowNs(), Phase::kSaturation);
    Drain();
  }

 private:
  static std::int64_t Ns(double seconds) {
    return static_cast<std::int64_t>(seconds * 1e9);
  }

  /// The slice of the measured open loop a request due at `due_ns` is in.
  std::uint8_t Slice(std::int64_t due_ns) const {
    return static_cast<std::uint8_t>(
        std::min<std::int64_t>((due_ns - measure_start_) / window_ns_, kClientSlices - 1));
  }

  void Enqueue(Conn& c, Kind kind, std::uint64_t id, std::int64_t due,
               std::int64_t now, Phase phase, std::uint8_t target = 0) {
    Inflight f;
    f.due_ns = due;
    f.sent_ns = now;
    f.id = id;
    f.kind = kind;
    f.phase = phase;
    f.target = target;
    if (kind == Kind::kScore) {
      f.row = static_cast<std::uint32_t>((id - 1) % plan_.pool_rows);
      AppendRequest(plan_, c.out, id, f.row);
      ++result_.score_sent;
    } else if (kind == Kind::kExposition) {
      if (plan_.binary) {
        wire::AppendControlRequest(c.out, wire::FrameType::kMetrics);
      } else {
        c.out += "!stats\n";
      }
    } else {
      const std::string& path = plan_.artifact_path[target];
      if (plan_.binary) {
        wire::AppendControlRequest(c.out, wire::FrameType::kReload, path);
      } else {
        c.out += "!reload " + path + "\n";
      }
      c.reload_pending = true;
      ++result_.reload_sent;
    }
    c.fifo.push_back(f);
  }

  /// One reactor turn: flush pending bytes, then wait up to `wait_ns`
  /// for answers and parse whatever arrived.
  void Pump(std::int64_t wait_ns) {
    for (Conn& c : conns_) {
      if (c.out_at < c.out.size() && !Flush(c)) return;
    }
    const timespec timeout{0, std::clamp<std::int64_t>(wait_ns, 0, 999'999'999)};
    epoll_event events[kClientConns];
    const int n = epoll_pwait2(epoll_fd_, events, kClientConns, &timeout, nullptr);
    const std::int64_t now = NowNs();
    for (int e = 0; e < n && !aborted_; ++e) {
      Conn& c = conns_[events[e].data.u32];
      if (Read(c)) Parse(c, now);
    }
  }

  bool Flush(Conn& c) {
    while (c.out_at < c.out.size()) {
      const ssize_t put = send(c.fd, c.out.data() + c.out_at,
                               c.out.size() - c.out_at, MSG_NOSIGNAL);
      if (put > 0) {
        c.out_at += static_cast<std::size_t>(put);
      } else if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (!(put < 0 && errno == EINTR)) {
        return Abort("send failed: " + std::string(std::strerror(errno)));
      }
    }
    c.out.clear();
    c.out_at = 0;
    return true;
  }

  bool Read(Conn& c) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t got = recv(c.fd, buf, sizeof(buf), 0);
      if (got > 0) {
        c.in.append(buf, static_cast<std::size_t>(got));
        // A short read drained the socket; epoll reports what comes next.
        if (static_cast<std::size_t>(got) < sizeof(buf)) return true;
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (got < 0 && errno == EINTR) continue;
      return Abort("server closed a connection with " +
                   std::to_string(c.fifo.size()) + " requests unanswered");
    }
  }

  void Parse(Conn& c, std::int64_t now) {
    if (plan_.binary) {
      ParseFrames(c, now);
    } else {
      ParseLines(c, now);
    }
    if (c.in_at == c.in.size()) {
      c.in.clear();
      c.in_at = 0;
    } else if (c.in_at > (1 << 16)) {
      c.in.erase(0, c.in_at);
      c.in_at = 0;
    }
  }

  void ParseLines(Conn& c, std::int64_t now) {
    for (;;) {
      const std::size_t nl = c.in.find('\n', c.in_at);
      if (nl == std::string::npos) return;
      const std::string_view line(c.in.data() + c.in_at, nl - c.in_at);
      c.in_at = nl + 1;
      if (c.fifo.empty()) {
        Abort("unsolicited response line");
        return;
      }
      if (c.fifo.front().kind == Kind::kExposition) {
        // Multi-line answer, framed by its "# EOF" line.
        if (line == "# EOF") {
          c.fifo.pop_front();
        } else {
          result_.exposition.append(line).push_back('\n');
        }
        continue;
      }
      const Inflight f = c.fifo.front();
      c.fifo.pop_front();
      if (f.kind == Kind::kReload) {
        Reloaded(c, f, line.starts_with("OK "), line, now);
        continue;
      }
      const ServeTruth& t = *plan_.truth;
      const bool ok = c.reloads ? line == t.text[c.version][f.row]
                                : line == t.text[0][f.row] || line == t.text[1][f.row];
      Answered(f, ok, line, now);
    }
  }

  void ParseFrames(Conn& c, std::int64_t now) {
    while (c.in.size() - c.in_at >= wire::kHeaderBytes) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(c.in.data()) + c.in_at;
      const wire::FrameHeader header = wire::DecodeHeader(bytes);
      if (header.magic != wire::kMagic || header.version != wire::kVersion ||
          header.payload_len > wire::kMaxPayloadBytes) {
        Abort("unframeable response");
        return;
      }
      if (c.in.size() - c.in_at < wire::kHeaderBytes + header.payload_len) return;
      wire::DecodedResponse r;
      const std::string error =
          wire::DecodeResponse(header, bytes + wire::kHeaderBytes, r);
      c.in_at += wire::kHeaderBytes + header.payload_len;
      if (c.fifo.empty()) {
        Abort("unsolicited response frame");
        return;
      }
      const Inflight f = c.fifo.front();
      c.fifo.pop_front();
      if (f.kind == Kind::kExposition) {
        result_.exposition = r.text;
        continue;
      }
      if (f.kind == Kind::kReload) {
        Reloaded(c, f,
                 error.empty() && r.type == wire::FrameType::kText &&
                     r.text.starts_with("OK "),
                 r.text, now);
        continue;
      }
      bool ok = error.empty() && r.type == wire::FrameType::kScoreOk &&
                r.id == f.id && !r.degraded;
      if (ok) {
        const ServeTruth& t = *plan_.truth;
        ok = c.reloads ? SameBits(r.proba, t.proba[c.version][f.row])
                       : SameBits(r.proba, t.proba[0][f.row]) ||
                             SameBits(r.proba, t.proba[1][f.row]);
      }
      if (ok || !error.empty() || r.type != wire::FrameType::kScoreOk) {
        Answered(f, ok, error.empty() ? r.text : error, now);
      } else {
        char got[64];
        std::snprintf(got, sizeof(got), "%.17g (id %llu)", r.proba,
                      static_cast<unsigned long long>(r.id));
        Answered(f, false, got, now);
      }
    }
  }

  void Answered(const Inflight& f, bool ok, std::string_view got, std::int64_t now) {
    if (!ok) {
      Failed("row " + std::to_string(f.row) + " answered '" +
             std::string(got.substr(0, 80)) + "'");
      return;
    }
    if (f.phase == Phase::kMeasured) {
      result_.latency_ns.push_back(now - f.due_ns);
      result_.latency_window.push_back(Slice(f.due_ns));
    } else if (f.phase == Phase::kSaturation && now < sat_end_) {
      ++result_.sat_window_rows[static_cast<std::size_t>(
          (now - sat_start_) * kClientSlices / (sat_end_ - sat_start_))];
    }
    if (plan_.trace_every > 0 && f.id % static_cast<std::uint64_t>(plan_.trace_every) == 0) {
      result_.samples.push_back({f.id, f.due_ns, f.sent_ns, now});
    }
  }

  void Reloaded(Conn& c, const Inflight& f, bool ok, std::string_view got,
                std::int64_t now) {
    c.reload_pending = false;
    if (!ok) {
      Failed("reload answered '" + std::string(got.substr(0, 120)) + "'");
      return;
    }
    c.version = f.target;
    result_.reload_ms.push_back(static_cast<double>(now - f.due_ns) / 1e6);
  }

  /// Pumps until every request is answered; a server that stops
  /// answering for 20 s fails the rest.
  void Drain() {
    const std::int64_t give_up = NowNs() + Ns(20.0);
    while (!aborted_) {
      std::size_t open = 0;
      for (const Conn& c : conns_) open += c.fifo.size();
      if (open == 0) return;
      if (NowNs() > give_up) {
        Abort(std::to_string(open) + " requests never answered");
        return;
      }
      Pump(Ns(0.001));
    }
  }

  void Failed(const std::string& why) {
    if (result_.first_error.empty()) result_.first_error = why;
    ++result_.failed;
  }

  /// A broken connection ends the run; everything still in flight counts
  /// as failed.
  bool Abort(const std::string& why) {
    if (aborted_) return false;
    aborted_ = true;
    if (result_.first_error.empty()) result_.first_error = why;
    for (Conn& c : conns_) {
      result_.failed += c.fifo.size();
      c.fifo.clear();
    }
    if (result_.failed == 0) result_.failed = 1;
    return false;
  }

  const ClientPlan& plan_;
  ClientResult& result_;
  Conn conns_[kClientConns];
  int epoll_fd_ = -1;
  bool aborted_ = false;
  std::uint64_t next_id_ = 1;
  std::int64_t measure_start_ = 0;
  std::int64_t window_ns_ = 1;
  std::int64_t sat_start_ = 0;
  std::int64_t sat_end_ = 0;
};

}  // namespace

ClientResult RunClient(int port, const ClientPlan& plan) {
  ClientResult result;
  result.latency_ns.reserve(static_cast<std::size_t>(plan.rate * plan.open_s * 1.2) + 16);
  result.latency_window.reserve(result.latency_ns.capacity());
  result.late_ns.reserve(result.latency_ns.capacity());
  result.late_window.reserve(result.latency_ns.capacity());
  Client client(plan, result);
  if (client.Connect(port)) {
    client.RunOpenLoop();
    client.RunSaturation();
    client.FetchExposition();
  }
  return result;
}

std::string ProbeServer(int port, const ClientPlan& plan, double timeout_s) {
  const std::int64_t give_up = NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
  int fd = -1;
  while ((fd = ConnectLoopback(port)) < 0) {
    if (NowNs() > give_up) return "server never accepted a connection";
    usleep(100);  // fine enough to time a start of ~10 ms
  }
  timeval tv{static_cast<time_t>(timeout_s), 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string request;
  AppendRequest(plan, request, 1, 0);
  std::string in;
  std::string error;
  if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    error = "probe send failed";
  }
  // One answer: a score frame, or one line.
  const auto complete = [&] {
    if (!plan.binary) return in.find('\n') != std::string::npos;
    return in.size() >= wire::kHeaderBytes &&
           in.size() >= wire::kHeaderBytes +
                            wire::DecodeHeader(reinterpret_cast<const unsigned char*>(
                                                   in.data()))
                                .payload_len;
  };
  char buf[4096];
  while (error.empty() && !complete()) {
    const ssize_t got = recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) error = "probe got no answer";
    if (got > 0) in.append(buf, static_cast<std::size_t>(got));
  }
  close(fd);
  if (!error.empty()) return error;
  if (plan.binary) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(in.data());
    wire::DecodedResponse r;
    const std::string decode =
        wire::DecodeResponse(wire::DecodeHeader(bytes), bytes + wire::kHeaderBytes, r);
    if (!decode.empty() || r.type != wire::FrameType::kScoreOk ||
        !SameBits(r.proba, plan.truth->proba[0][0])) {
      return "probe answer differs from the in-process truth";
    }
  } else if (in != plan.truth->text[0][0] + "\n") {
    return "probe answered '" + in.substr(0, 80) + "'";
  }
  return "";
}

double LoopbackRttUs(int conns, int pings_per_conn) {
  const int listener = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listener, conns) != 0 ||
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) close(listener);
    return -1.0;
  }
  std::vector<std::int64_t> rtt;
  for (int i = 0; i < conns; ++i) {
    const int a = ConnectLoopback(ntohs(addr.sin_port));
    const int b = a < 0 ? -1 : accept(listener, nullptr, nullptr);
    if (b >= 0) {
      const int one = 1;
      setsockopt(b, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      char byte = 'x';
      for (int p = 0; p < pings_per_conn; ++p) {
        const std::int64_t t = NowNs();
        if (send(a, &byte, 1, MSG_NOSIGNAL) != 1 || recv(b, &byte, 1, 0) != 1 ||
            send(b, &byte, 1, MSG_NOSIGNAL) != 1 || recv(a, &byte, 1, 0) != 1) {
          break;
        }
        rtt.push_back(NowNs() - t);
      }
      close(b);
    }
    if (a >= 0) close(a);
  }
  close(listener);
  if (rtt.empty()) return -1.0;
  std::nth_element(rtt.begin(), rtt.begin() + rtt.size() / 2, rtt.end());
  return static_cast<double>(rtt[rtt.size() / 2]) / 1e3;
}

}  // namespace spe_bench
