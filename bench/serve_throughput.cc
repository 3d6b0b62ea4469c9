// serve_throughput — load generator for the spe::serve subsystem.
//
// Trains an SPE ensemble on the paper's checkerboard benchmark and
// measures two layers:
//
//   1. engine: the held-out test set is replayed straight into a
//      BatchScorer from P producer threads (no sockets) — the ceiling
//      the transport cannot beat.
//   2. connections axis: a forked child process serves the same model
//      over TCP through the epoll event loop; this process drives C
//      concurrent client connections (C sweeping --connections, by
//      default up to 10000) through BOTH wire protocols — the newline
//      text protocol and the binary frame protocol — and measures
//      sustained rows/sec end to end. Any connection that errors,
//      loses rows, or times out counts as dropped.
//
//   serve_throughput [--rows N] [--producers P] [--rate R rows/s, 0=max]
//                    [--max-batch B] [--max-delay-us U] [--workers W]
//                    [--queue-capacity C] [--n-estimators E]
//                    [--conn-rows N] [--connections "16,256,2048,10000"]
//
// Prints one JSON report (commit as BENCH_serve.json). Exits nonzero
// if any engine-side request failed, any connection was dropped at any
// axis point, or the binary protocol failed to at least match the text
// protocol's aggregate rows/sec — the bar the wire format exists for.
//
// The two halves run in separate processes so 10000 server sockets and
// 10000 client sockets never share one file-descriptor budget.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/common/parse.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/synthetic.h"
#include "spe/obs/trace.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/event_loop.h"
#include "spe/serve/server_stats.h"
#include "spe/serve/wire.h"

namespace {

using spe::bench::FlagValue;
using spe::bench::StringFlag;

// ---- forked TCP server ---------------------------------------------

/// Child process body: serves `model` over the event loop until the
/// control pipe reaches EOF (the parent closing it is the drain
/// signal), then exits. Writes the bound port to `port_fd` first.
[[noreturn]] void ServerChild(std::unique_ptr<spe::Classifier> model,
                              std::size_t num_features,
                              const spe::BatchScorerConfig& scorer_config,
                              int port_fd, int ctl_fd) {
  spe::BatchScorer scorer(std::move(model), num_features, scorer_config);
  spe::serve::EventLoopConfig config;
  config.max_connections = 0;  // the bench IS the capacity test
  config.listen_backlog = 4096;
  spe::serve::EventLoop loop(scorer, config, nullptr);
  const std::string error = loop.Listen("127.0.0.1", 0);
  if (!error.empty()) {
    std::fprintf(stderr, "server child: %s\n", error.c_str());
    std::_Exit(1);
  }
  const int port = loop.port();
  if (write(port_fd, &port, sizeof(port)) != sizeof(port)) std::_Exit(1);
  close(port_fd);
  std::thread drain_watch([ctl_fd, &loop] {
    char byte;
    while (read(ctl_fd, &byte, 1) < 0 && errno == EINTR) {
    }
    loop.RequestDrain();
  });
  loop.Run();
  drain_watch.join();
  scorer.Shutdown();
  std::_Exit(0);
}

// ---- epoll load client ---------------------------------------------

struct ClientConn {
  int fd = -1;
  std::string request;        // whole request stream, written once
  std::size_t written = 0;
  long expected = 0;          // responses this connection must see
  long answered = 0;
  bool connected = false;
  bool write_done = false;
  bool done = false;
  bool dropped = false;
  // Binary response framing state: bytes of header collected, then
  // payload bytes left to skip. Responses are counted, not decoded.
  unsigned char header[spe::wire::kHeaderBytes];
  std::size_t header_have = 0;
  std::size_t payload_left = 0;
};

struct AxisPoint {
  long connections = 0;
  long rows = 0;
  double line_rows_per_sec = 0.0;
  double line_wall_s = 0.0;
  double binary_rows_per_sec = 0.0;
  double binary_wall_s = 0.0;
  long dropped = 0;
};

/// Counts complete responses in `buf` for one connection. Text: one
/// line per response. Binary: one frame per response (the payload is
/// skipped by length, so response bytes that happen to contain 0xA6
/// cannot desynchronize the count).
void CountResponses(ClientConn& c, const char* buf, std::size_t n,
                    bool binary) {
  if (!binary) {
    for (std::size_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') ++c.answered;
    }
    return;
  }
  std::size_t at = 0;
  while (at < n) {
    if (c.payload_left > 0) {
      const std::size_t take = std::min(c.payload_left, n - at);
      c.payload_left -= take;
      at += take;
      if (c.payload_left == 0) ++c.answered;
      continue;
    }
    const std::size_t need = spe::wire::kHeaderBytes - c.header_have;
    const std::size_t take = std::min(need, n - at);
    std::memcpy(c.header + c.header_have, buf + at, take);
    c.header_have += take;
    at += take;
    if (c.header_have == spe::wire::kHeaderBytes) {
      c.header_have = 0;
      c.payload_left = spe::wire::DecodeHeader(c.header).payload_len;
      if (c.payload_left == 0) ++c.answered;
    }
  }
}

/// Drives `num_conns` concurrent connections, each submitting its
/// share of `total_rows` over one protocol, and returns the wall time
/// from first connect to last response. `dropped` counts connections
/// that failed to deliver every expected response.
double DriveConnections(int port, long num_conns, long total_rows,
                        bool binary, const spe::Dataset& test, long& dropped,
                        long& answered_rows) {
  const long rows_per_conn = std::max<long>(1, total_rows / num_conns);
  std::vector<ClientConn> conns(static_cast<std::size_t>(num_conns));
  // Requests are prebuilt so the measured window contains no feature
  // formatting, only protocol I/O.
  std::size_t next_row = 0;
  for (long i = 0; i < num_conns; ++i) {
    ClientConn& c = conns[static_cast<std::size_t>(i)];
    c.expected = rows_per_conn;
    for (long r = 0; r < rows_per_conn; ++r) {
      std::vector<double> row(test.num_features());
      test.CopyRowTo(next_row++ % test.num_rows(), row);
      if (binary) {
        spe::wire::AppendScoreRequest(c.request,
                                      static_cast<std::uint64_t>(r + 1),
                                      row.data(), row.size());
      } else {
        char line[128];
        const int len = std::snprintf(line, sizeof(line), "%.17g,%.17g\n",
                                      row[0], row[1]);
        c.request.append(line, static_cast<std::size_t>(len));
      }
    }
  }

  const int ep = epoll_create1(0);
  if (ep < 0) {
    std::perror("epoll_create1");
    dropped += num_conns;
    return 0.0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  const auto start = std::chrono::steady_clock::now();
  const auto give_up = start + std::chrono::seconds(300);
  long open = 0;
  long launched = 0;
  long connecting = 0;
  // Connects are staggered through a window smaller than the server's
  // accept backlog: a single burst of 10000 SYNs overflows any backlog
  // and the overflow retransmits after a full second, which would
  // measure retransmission luck instead of protocol throughput. Every
  // connection is still concurrently open once established.
  const long kConnectWindow = 1024;
  auto launch = [&](long i) {
    ClientConn& c = conns[static_cast<std::size_t>(i)];
    c.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (c.fd >= 0) {
      // RST on close: tens of thousands of loopback connections per run
      // would otherwise pile up in TIME_WAIT and starve the ephemeral
      // port range, throttling whichever axis point runs last.
      const linger no_linger{.l_onoff = 1, .l_linger = 0};
      setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &no_linger, sizeof(no_linger));
    }
    if (c.fd < 0 ||
        (connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
         errno != EINPROGRESS)) {
      if (c.fd >= 0) close(c.fd);
      c.fd = -1;
      c.done = c.dropped = true;
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = static_cast<std::uint64_t>(i);
    epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
    ++open;
    ++connecting;
  };

  std::vector<epoll_event> events(1024);
  char buf[64 * 1024];
  while (open > 0 || launched < num_conns) {
    while (launched < num_conns && connecting < kConnectWindow) {
      launch(launched++);
    }
    if (std::chrono::steady_clock::now() > give_up) {
      for (auto& c : conns) {
        if (!c.done) c.done = c.dropped = true;
      }
      break;
    }
    const int n = epoll_wait(ep, events.data(),
                             static_cast<int>(events.size()), 1000);
    if (n < 0 && errno == EINTR) continue;
    for (int e = 0; e < n; ++e) {
      ClientConn& c = conns[events[static_cast<std::size_t>(e)].data.u64];
      if (c.done) continue;
      const std::uint32_t what = events[static_cast<std::size_t>(e)].events;
      bool close_now = false;
      if (!c.connected && (what & (EPOLLOUT | EPOLLERR))) {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
        if (so_error != 0) {
          c.dropped = true;
          close_now = true;
        } else {
          c.connected = true;
          --connecting;
        }
      }
      if (!close_now && c.connected && !c.write_done && (what & EPOLLOUT)) {
        while (c.written < c.request.size()) {
          const ssize_t put =
              send(c.fd, c.request.data() + c.written,
                   c.request.size() - c.written, MSG_NOSIGNAL);
          if (put > 0) {
            c.written += static_cast<std::size_t>(put);
            continue;
          }
          if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (put < 0 && errno == EINTR) continue;
          c.dropped = true;
          close_now = true;
          break;
        }
        if (!close_now && c.written == c.request.size()) {
          // No shutdown(SHUT_WR): a client FIN would put this socket in
          // TIME_WAIT, and tens of thousands of those throttle every
          // later axis point. The connection ends with an abortive
          // close (RST, see SO_LINGER above) once every expected
          // response has arrived.
          c.write_done = true;
          c.request.clear();
          c.request.shrink_to_fit();
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.u64 = events[static_cast<std::size_t>(e)].data.u64;
          epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
        }
      }
      if (!close_now && (what & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
        for (;;) {
          const ssize_t got = recv(c.fd, buf, sizeof(buf), 0);
          if (got > 0) {
            CountResponses(c, buf, static_cast<std::size_t>(got), binary);
            if (c.answered >= c.expected) {
              close_now = true;  // all answered: abortive close
              break;
            }
            continue;
          }
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (got < 0 && errno == EINTR) continue;
          // EOF or error before every response arrived: the server gave
          // up on this connection.
          c.dropped = true;
          close_now = true;
          break;
        }
      }
      if (close_now) {
        if (!c.connected) --connecting;
        epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
        close(c.fd);
        c.fd = -1;
        c.done = true;
        --open;
      }
    }
  }
  const double wall =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  for (auto& c : conns) {
    if (c.fd >= 0) close(c.fd);
    if (c.dropped) ++dropped;
    answered_rows += c.answered;
  }
  close(ep);
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const long total_rows = FlagValue(argc, argv, "--rows", 500'000);
  const long producers = FlagValue(argc, argv, "--producers", 4);
  const long rate = FlagValue(argc, argv, "--rate", 0);
  const long n_estimators = FlagValue(argc, argv, "--n-estimators", 10);
  const long conn_rows = FlagValue(argc, argv, "--conn-rows", 40'000);
  const std::string connections_spec =
      StringFlag(argc, argv, "--connections", "16,256,2048,10000");

  spe::BatchScorerConfig config;
  config.max_batch_size = static_cast<std::size_t>(
      FlagValue(argc, argv, "--max-batch", 256));
  config.max_batch_delay_us = static_cast<std::size_t>(
      FlagValue(argc, argv, "--max-delay-us", 200));
  config.num_workers =
      static_cast<std::size_t>(FlagValue(argc, argv, "--workers", 0));
  config.queue_capacity = static_cast<std::size_t>(
      FlagValue(argc, argv, "--queue-capacity", 4096));

  std::vector<long> connection_counts;
  for (std::size_t at = 0; at < connections_spec.size();) {
    const std::size_t comma = connections_spec.find(',', at);
    const std::string token = connections_spec.substr(
        at, comma == std::string::npos ? std::string::npos : comma - at);
    if (!token.empty()) {
      const std::optional<long long> count = spe::ParseInt64(token);
      if (!count) {
        std::fprintf(stderr,
                     "error: --connections expects integers, got '%s'\n",
                     token.c_str());
        std::exit(2);
      }
      connection_counts.push_back(static_cast<long>(*count));
    }
    if (comma == std::string::npos) break;
    at = comma + 1;
  }

  // Paper §VI-A setup: 4x4 checkerboard, IR = 10.
  spe::CheckerboardConfig data_config;
  spe::Rng rng(42);
  const spe::Dataset train = spe::MakeCheckerboard(data_config, rng);
  spe::CheckerboardConfig test_config;
  test_config.num_minority = 2000;
  test_config.num_majority = 20000;
  const spe::Dataset test = spe::MakeCheckerboard(test_config, rng);

  spe::SelfPacedEnsembleConfig spe_config;
  spe_config.n_estimators = static_cast<std::size_t>(n_estimators);
  spe_config.seed = 0;
  auto model = std::make_unique<spe::SelfPacedEnsemble>(
      spe_config, std::make_unique<spe::DecisionTree>(spe::DecisionTreeConfig{}));
  std::fprintf(stderr, "training SPE (%ld members) on %s\n", n_estimators,
               train.Summary().c_str());
  model->Fit(train);

  // ---- fork the TCP server before this process grows threads --------
  int port_pipe[2], ctl_pipe[2];
  if (pipe(port_pipe) != 0 || pipe(ctl_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  const pid_t server_pid = fork();
  if (server_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (server_pid == 0) {
    close(port_pipe[0]);
    close(ctl_pipe[1]);
    // fork gave this process its own copy of the fitted model, so both
    // sides can consume `model` by move.
    ServerChild(std::move(model), train.num_features(), config, port_pipe[1],
                ctl_pipe[0]);
  }
  close(port_pipe[1]);
  close(ctl_pipe[0]);
  int server_port = 0;
  if (read(port_pipe[0], &server_port, sizeof(server_port)) !=
      sizeof(server_port)) {
    std::fprintf(stderr, "server child never reported a port\n");
    return 1;
  }
  close(port_pipe[0]);

  // ---- layer 1: in-process engine replay ----------------------------
  spe::BatchScorer scorer(std::move(model), train.num_features(), config);

  const long rows_per_producer = total_rows / producers;
  const double per_producer_rate =
      rate > 0 ? static_cast<double>(rate) / static_cast<double>(producers)
               : 0.0;
  std::fprintf(stderr,
               "replaying %ld rows from %ld producers (%s), batch<=%zu, "
               "delay<=%zuus\n",
               rows_per_producer * producers, producers,
               rate > 0 ? (std::to_string(rate) + " rows/s target").c_str()
                        : "max rate",
               config.max_batch_size, config.max_batch_delay_us);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::atomic<long> failures{0};
  for (long p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      // Wait in windows of in-flight requests so memory stays bounded
      // without serializing on each request.
      constexpr long kWindow = 8192;
      struct Window {
        std::mutex mu;
        std::condition_variable cv;
        long inflight = 0;
        long failed = 0;
      } window;
      const auto wait_window = [&window] {
        std::unique_lock<std::mutex> lock(window.mu);
        window.cv.wait(lock, [&window] { return window.inflight == 0; });
      };
      const auto t0 = std::chrono::steady_clock::now();
      for (long i = 0; i < rows_per_producer; ++i) {
        if (per_producer_rate > 0) {
          const auto due =
              t0 + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / per_producer_rate));
          std::this_thread::sleep_until(due);
        }
        const std::size_t row =
            static_cast<std::size_t>((p * rows_per_producer + i)) %
            test.num_rows();
        std::vector<double> features(test.num_features());
        test.CopyRowTo(row, features);
        {
          std::lock_guard<std::mutex> lock(window.mu);
          ++window.inflight;
        }
        scorer.SubmitCallback(
            std::move(features), spe::BatchScorer::kNoDeadline,
            [&window](spe::ScoreResult, std::exception_ptr error,
                      std::vector<double>) {
              std::lock_guard<std::mutex> lock(window.mu);
              if (error != nullptr) ++window.failed;
              if (--window.inflight == 0) window.cv.notify_all();
            });
        if ((i + 1) % kWindow == 0) wait_window();
      }
      wait_window();
      failures += window.failed;
    });
  }
  for (auto& t : threads) t.join();
  const auto wall =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  scorer.Shutdown();

  // ---- layer 2: connections axis over TCP ---------------------------
  std::vector<AxisPoint> axis;
  long dropped_total = 0;
  double line_rows_total = 0, line_wall_total = 0;
  double binary_rows_total = 0, binary_wall_total = 0;
  for (const long c : connection_counts) {
    AxisPoint point;
    point.connections = c;
    point.rows = std::max<long>(1, conn_rows / c) * c;
    long answered = 0;
    std::fprintf(stderr, "axis: %ld connections x %ld rows, text...\n", c,
                 point.rows);
    point.line_wall_s = DriveConnections(server_port, c, conn_rows,
                                         /*binary=*/false, test,
                                         point.dropped, answered);
    point.line_rows_per_sec =
        point.line_wall_s > 0 ? answered / point.line_wall_s : 0.0;
    line_rows_total += static_cast<double>(answered);
    line_wall_total += point.line_wall_s;
    answered = 0;
    std::fprintf(stderr, "axis: %ld connections x %ld rows, binary...\n", c,
                 point.rows);
    point.binary_wall_s = DriveConnections(server_port, c, conn_rows,
                                           /*binary=*/true, test,
                                           point.dropped, answered);
    point.binary_rows_per_sec =
        point.binary_wall_s > 0 ? answered / point.binary_wall_s : 0.0;
    binary_rows_total += static_cast<double>(answered);
    binary_wall_total += point.binary_wall_s;
    dropped_total += point.dropped;
    axis.push_back(point);
  }

  close(ctl_pipe[1]);  // EOF: the server child drains and exits
  int server_status = 0;
  waitpid(server_pid, &server_status, 0);
  const bool server_clean =
      WIFEXITED(server_status) && WEXITSTATUS(server_status) == 0;

  const double line_agg =
      line_wall_total > 0 ? line_rows_total / line_wall_total : 0.0;
  const double binary_agg =
      binary_wall_total > 0 ? binary_rows_total / binary_wall_total : 0.0;

  std::string axis_json = "[";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    const AxisPoint& p = axis[i];
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s{\"connections\":%ld,\"rows\":%ld,"
                  "\"line_rows_per_sec\":%.0f,\"binary_rows_per_sec\":%.0f,"
                  "\"dropped_connections\":%ld}",
                  i == 0 ? "" : ",", p.connections, p.rows,
                  p.line_rows_per_sec, p.binary_rows_per_sec, p.dropped);
    axis_json += entry;
  }
  axis_json += "]";
  // The engine block reports what the replay measured, plus the
  // scorer's own batch counters.
  const spe::ServerStats& stats = scorer.stats();
  const long engine_rows = rows_per_producer * producers;
  char engine[256];
  std::snprintf(
      engine, sizeof(engine),
      "\"rows\":%ld,\"rows_per_sec\":%.1f,\"elapsed_s\":%.3f,"
      "\"batches\":%" PRIu64 ",\"mean_batch_size\":%.2f",
      engine_rows, wall > 0 ? static_cast<double>(engine_rows) / wall : 0.0,
      wall, stats.batches(),
      stats.batches() > 0 ? static_cast<double>(stats.batch_rows()) /
                                static_cast<double>(stats.batches())
                          : 0.0);
  const std::string json =
      "{\"bench\":\"serve_throughput\",\"kernel\":\"" +
      std::string(scorer.kernel()) +
      "\",\"failures\":" + std::to_string(failures.load()) +
      ",\"connections_axis\":" + axis_json + ",\"line_rows_per_sec\":" +
      std::to_string(static_cast<long>(line_agg)) +
      ",\"binary_rows_per_sec\":" +
      std::to_string(static_cast<long>(binary_agg)) +
      ",\"dropped_connections\":" + std::to_string(dropped_total) +
      ",\"spans\":" + spe::obs::SpanSummariesJson() + "," + engine + "}";
  std::printf("%s\n", json.c_str());

  if (failures.load() != 0) return 1;
  if (dropped_total != 0) {
    std::fprintf(stderr, "FAIL: %ld connections dropped\n", dropped_total);
    return 1;
  }
  if (!server_clean) {
    std::fprintf(stderr, "FAIL: server child exited unclean (%d)\n",
                 server_status);
    return 1;
  }
  if (!axis.empty() && binary_agg < line_agg) {
    std::fprintf(stderr,
                 "FAIL: binary protocol slower than text (%.0f < %.0f rows/s)\n",
                 binary_agg, line_agg);
    return 1;
  }
  return 0;
}
