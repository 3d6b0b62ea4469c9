// Live tests for the epoll serving loop (spe/serve/event_loop.h):
// protocol negotiation, response bit-identity against the scorer's own
// callback path, slow clients that force partial writes, the capacity
// refusal line, !reload ordering, drain, pipelined latency, and
// sessions adopted on pipes and regular files. Sockets run against
// 127.0.0.1 on an ephemeral port; no test sleeps for correctness —
// reads block with generous timeouts instead.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "spe/classifiers/decision_tree.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/event_loop.h"
#include "spe/serve/line_protocol.h"
#include "spe/serve/wire.h"
#include "submit_future.h"
#include "test_util.h"

namespace spe {
namespace {

std::unique_ptr<Classifier> TinyModel() {
  auto tree = std::make_unique<DecisionTree>(DecisionTreeConfig{});
  tree->Fit(testing::SeparableBlobs(200, 40, 11));
  return tree;
}

/// Answers 0.5 for every row after a 1 ms pause per batch, so
/// consecutive responses complete — and are written — apart.
class PausingModel final : public Classifier {
 public:
  void Fit(const DatasetView&) override {}
  double PredictRow(std::span<const double>) const override { return 0.5; }
  std::vector<double> PredictProba(const DatasetView& rows) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return std::vector<double>(rows.num_rows(), 0.5);
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<PausingModel>();
  }
  std::string Name() const override { return "Pausing"; }
};

/// Scorer + loop on an ephemeral port, with the loop on its own thread.
class LoopHarness {
 public:
  explicit LoopHarness(serve::EventLoopConfig config = {},
                       serve::ReloadRequestFn reload_fn = {},
                       BatchScorerConfig scorer_config = {},
                       std::unique_ptr<Classifier> model = TinyModel()) {
    scorer_config.num_workers = 2;
    scorer_ = std::make_unique<BatchScorer>(std::move(model), 2,
                                            scorer_config);
    loop_ = std::make_unique<serve::EventLoop>(*scorer_, config,
                                               std::move(reload_fn));
    const std::string error = loop_->Listen("127.0.0.1", 0);
    EXPECT_TRUE(error.empty()) << error;
    thread_ = std::thread([this] { loop_->Run(); });
  }

  ~LoopHarness() {
    loop_->RequestDrain();
    thread_.join();
    scorer_->Shutdown();
  }

  BatchScorer& scorer() { return *scorer_; }
  serve::EventLoop& loop() { return *loop_; }

  int Connect(int rcvbuf_bytes = 0) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (rcvbuf_bytes > 0) {
      // Must be set before connect so the window scale is negotiated
      // small — this is what turns the peer into a slow reader the
      // server can overrun.
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
    }
    const timeval timeout{.tv_sec = 30, .tv_usec = 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(loop_->port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
    return fd;
  }

 private:
  std::unique_ptr<BatchScorer> scorer_;
  std::unique_ptr<serve::EventLoop> loop_;
  std::thread thread_;
};

/// Scorer + loop serving one session adopted on (in_fd, out_fd), with
/// no listener, and the loop on its own thread.
class AdoptedSession {
 public:
  AdoptedSession(int in_fd, int out_fd, serve::EventLoopConfig config = {},
                 serve::ReloadRequestFn reload_fn = {}) {
    BatchScorerConfig scorer_config;
    scorer_config.num_workers = 2;
    scorer_ = std::make_unique<BatchScorer>(TinyModel(), 2, scorer_config);
    loop_ = std::make_unique<serve::EventLoop>(*scorer_, config,
                                               std::move(reload_fn));
    EXPECT_EQ(loop_->Adopt(in_fd, out_fd), "");
    thread_ = std::thread([this] {
      loop_->Run();
      returned_.set_value();
    });
  }

  ~AdoptedSession() {
    loop_->RequestDrain();  // unblocks a failed test; harmless after Run()
    thread_.join();
    scorer_->Shutdown();
  }

  /// True once Run() has returned, waiting up to `timeout`.
  bool Returned(std::chrono::seconds timeout = std::chrono::seconds(30)) {
    return done_.wait_for(timeout) == std::future_status::ready;
  }

  BatchScorer& scorer() { return *scorer_; }
  serve::EventLoop& loop() { return *loop_; }

 private:
  std::unique_ptr<BatchScorer> scorer_;
  std::unique_ptr<serve::EventLoop> loop_;
  std::promise<void> returned_;
  std::future<void> done_ = returned_.get_future();
  std::thread thread_;
};

void SendAll(int fd, std::string_view bytes) {
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + put, bytes.size() - put);
    ASSERT_GT(n, 0) << std::strerror(errno);
    put += static_cast<std::size_t>(n);
  }
}

/// Reads a socket or pipe until `count` newline-terminated lines arrived
/// (or EOF/a 30 s silence fails the test). Returns the lines without
/// their newlines.
std::vector<std::string> RecvLines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[4096];
  while (lines.size() < count) {
    pollfd ready{fd, POLLIN, 0};
    const ssize_t n = poll(&ready, 1, 30'000) == 1
                          ? read(fd, chunk, sizeof(chunk))
                          : -1;
    if (n <= 0) {
      ADD_FAILURE() << "connection ended after " << lines.size() << "/"
                    << count << " lines: " << std::strerror(errno);
      return lines;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while (lines.size() < count &&
           (nl = buffer.find('\n')) != std::string::npos) {
      lines.push_back(buffer.substr(0, nl));
      buffer.erase(0, nl + 1);
    }
  }
  return lines;
}

/// Reads exactly one binary response frame.
wire::DecodedResponse RecvFrame(int fd) {
  unsigned char raw[wire::kHeaderBytes];
  auto read_full = [&](unsigned char* dst, std::size_t n) {
    std::size_t at = 0;
    while (at < n) {
      const ssize_t r = recv(fd, dst + at, n - at, 0);
      if (r <= 0) return false;
      at += static_cast<std::size_t>(r);
    }
    return true;
  };
  wire::DecodedResponse response;
  if (!read_full(raw, sizeof(raw))) {
    ADD_FAILURE() << "no response frame header";
    return response;
  }
  const wire::FrameHeader header = wire::DecodeHeader(raw);
  EXPECT_EQ(header.magic, wire::kMagic);
  EXPECT_LE(header.payload_len, wire::kMaxPayloadBytes);
  std::vector<unsigned char> payload(header.payload_len);
  if (!read_full(payload.data(), payload.size())) {
    ADD_FAILURE() << "truncated response frame";
    return response;
  }
  EXPECT_EQ(wire::DecodeResponse(header, payload.data(), response), "");
  return response;
}

TEST(EventLoopTest, TextResponsesAreBitIdenticalToTheScorer) {
  LoopHarness harness;
  const std::vector<std::vector<double>> rows = {
      {0.5, 1.5}, {4.0, 4.0}, {-1.0, 2.0}};
  const int fd = harness.Connect();
  std::string request_text;
  for (const auto& row : rows) {
    request_text += std::to_string(row[0]) + "," + std::to_string(row[1]);
    request_text += '\n';
  }
  request_text += "{\"id\":9,\"features\":[4.0,4.0]}\n";
  SendAll(fd, request_text);
  const std::vector<std::string> lines = RecvLines(fd, rows.size() + 1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScoreResult truth =
        testing::SubmitFuture(harness.scorer(), rows[i]).get();
    ServeRequest csv;
    csv.json = false;
    EXPECT_EQ(lines[i], FormatScoreResponse(csv, truth.proba, truth.degraded));
  }
  const ScoreResult truth =
      testing::SubmitFuture(harness.scorer(), {4.0, 4.0}).get();
  ServeRequest json;
  json.json = true;
  json.id = "9";
  EXPECT_EQ(lines[rows.size()],
            FormatScoreResponse(json, truth.proba, truth.degraded));
  close(fd);
}

TEST(EventLoopTest, BinaryScoresMatchTextScoresBitForBit) {
  LoopHarness harness;
  const std::vector<std::vector<double>> rows = {
      {0.25, -1.5}, {3.75, 4.25}, {0.0, 0.0}};
  // Text connection.
  const int text_fd = harness.Connect();
  std::string text;
  for (const auto& row : rows) {
    char line[64];
    std::snprintf(line, sizeof(line), "%.17g,%.17g\n", row[0], row[1]);
    text += line;
  }
  SendAll(text_fd, text);
  const std::vector<std::string> text_lines = RecvLines(text_fd, rows.size());
  // Binary connection, same rows.
  const int bin_fd = harness.Connect();
  std::string frames;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    wire::AppendScoreRequest(frames, i + 1, rows[i].data(), rows[i].size());
  }
  SendAll(bin_fd, frames);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const wire::DecodedResponse response = RecvFrame(bin_fd);
    EXPECT_EQ(response.type, wire::FrameType::kScoreOk);
    EXPECT_EQ(response.id, i + 1);
    char formatted[40];
    std::snprintf(formatted, sizeof(formatted), "%.17g", response.proba);
    EXPECT_EQ(text_lines[i], formatted)
        << "binary and text scores diverge for row " << i;
  }
  close(text_fd);
  close(bin_fd);
}

TEST(EventLoopTest, SlowClientGetsEveryResponseDespitePartialWrites) {
  LoopHarness harness;
  // A tiny receive window plus a reader that does not read until all
  // requests are sent: the server's writes hit EAGAIN and must finish
  // through EPOLLOUT without dropping or reordering anything.
  const int fd = harness.Connect(/*rcvbuf_bytes=*/2048);
  constexpr int kRequests = 400;
  // Fat ids make fat JSON responses — more bytes than the client's
  // receive window can hold, guaranteeing backpressure.
  const std::string padding(180, 'x');
  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    requests += "{\"id\":\"" + std::to_string(i) + "-" + padding +
                "\",\"features\":[1.5,2.5]}\n";
  }
  SendAll(fd, requests);
  const std::vector<std::string> lines = RecvLines(fd, kRequests);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const std::string expected_prefix =
        "{\"id\":\"" + std::to_string(i) + "-";
    EXPECT_EQ(lines[i].rfind(expected_prefix, 0), 0u)
        << "response " << i << " out of order: " << lines[i];
  }
  close(fd);
}

TEST(EventLoopTest, PipelinedBacklogBeyondPendingCapIsFullyAnswered) {
  // Regression: a client that pipelines more requests than
  // max_pending_per_conn in one burst puts everything into the server's
  // input buffer before the cap is hit, so no further EPOLLIN arrives.
  // Parsing must resume as pending slots drain, and the half-close must
  // not drop buffered-but-unparsed requests.
  serve::EventLoopConfig config;
  config.max_pending_per_conn = 4;
  LoopHarness harness(config);
  const int fd = harness.Connect();
  constexpr int kRequests = 64;
  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    requests += "{\"id\":" + std::to_string(i) + ",\"features\":[1.5,2.5]}\n";
  }
  SendAll(fd, requests);
  shutdown(fd, SHUT_WR);  // half-close: every accepted request still owed
  const std::vector<std::string> lines = RecvLines(fd, kRequests);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const std::string expected_prefix = "{\"id\":" + std::to_string(i) + ",";
    EXPECT_EQ(lines[i].rfind(expected_prefix, 0), 0u)
        << "response " << i << " missing or out of order: " << lines[i];
  }
  // Everything answered, nothing more coming: the server closes.
  char byte;
  EXPECT_EQ(recv(fd, &byte, 1, 0), 0);
  close(fd);
}

TEST(EventLoopTest, OversizedTerminatedLineIsRefusedAndSessionContinues) {
  // A line over the cap whose '\n' is already buffered when the parser
  // runs must get the same refusal as the no-newline discard path, and
  // the connection must keep serving afterwards.
  LoopHarness harness;
  const int fd = harness.Connect();
  std::string oversized(kMaxRequestLineBytes + 1, 'x');
  oversized += "\n1.0,2.0\n";
  SendAll(fd, oversized);
  const std::vector<std::string> lines = RecvLines(fd, 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "ERR request line exceeds " +
                          std::to_string(kMaxRequestLineBytes) + " bytes");
  EXPECT_EQ(lines[1].rfind("ERR", 0), std::string::npos) << lines[1];
  EXPECT_FALSE(lines[1].empty());
  close(fd);
}

TEST(EventLoopTest, PartialTrailingBinaryFrameIsDroppedAtEof) {
  // Complete frames before a truncated one are answered; the truncated
  // tail has no id to answer, so after half-close the server drops it
  // and closes instead of waiting forever for the rest of the frame.
  LoopHarness harness;
  const int fd = harness.Connect();
  std::string frames;
  const double row[] = {1.0, 2.0};
  wire::AppendScoreRequest(frames, 7, row, 2);
  wire::AppendScoreRequest(frames, 8, row, 2);
  std::string truncated;
  wire::AppendScoreRequest(truncated, 9, row, 2);
  frames += truncated.substr(0, wire::kHeaderBytes + 3);
  SendAll(fd, frames);
  shutdown(fd, SHUT_WR);
  for (std::uint64_t id = 7; id <= 8; ++id) {
    const wire::DecodedResponse response = RecvFrame(fd);
    EXPECT_EQ(response.type, wire::FrameType::kScoreOk);
    EXPECT_EQ(response.id, id);
  }
  char byte;
  EXPECT_EQ(recv(fd, &byte, 1, 0), 0);  // EOF, not a stall
  close(fd);
}

TEST(EventLoopTest, CapacityRefusalLineArrivesWhole) {
  serve::EventLoopConfig config;
  config.max_connections = 1;
  LoopHarness harness(config);
  const int first = harness.Connect();
  SendAll(first, "1.0,2.0\n");
  RecvLines(first, 1);  // session established and answered
  const int second = harness.Connect();
  const std::vector<std::string> refusal = RecvLines(second, 1);
  ASSERT_EQ(refusal.size(), 1u);
  EXPECT_EQ(refusal[0], "ERR server at connection capacity");
  // The refused socket is closed by the server.
  char byte;
  EXPECT_EQ(recv(second, &byte, 1, 0), 0);
  close(second);
  close(first);
  EXPECT_GE(harness.loop().counters().refused.load(), 1u);
}

TEST(EventLoopTest, ReloadAnswersInOrderAndLaterRequestsWaitForIt) {
  std::atomic<int> reloads{0};
  serve::EventLoopConfig config;
  LoopHarness harness(
      config, [&reloads](std::string path,
                         std::function<void(std::string)> done) {
        // Answer from another thread after a delay, like the real
        // lifecycle coordinator: requests after the !reload must not
        // be answered before this resolves.
        std::thread([&reloads, path = std::move(path),
                     done = std::move(done)] {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          reloads.fetch_add(1);
          done("OK fake reload of " + path);
        }).detach();
      });
  const int fd = harness.Connect();
  SendAll(fd, "1.0,2.0\n!reload candidate.model\n3.0,4.0\n");
  const std::vector<std::string> lines = RecvLines(fd, 3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0], "");
  EXPECT_EQ(lines[1], "OK fake reload of candidate.model");
  // The request read after the !reload must still be scored (a bare
  // number, not an error line).
  EXPECT_EQ(lines[2].rfind("ERR", 0), std::string::npos);
  EXPECT_FALSE(lines[2].empty());
  EXPECT_EQ(reloads.load(), 1);
  close(fd);
}

TEST(EventLoopTest, DrainAnswersAcceptedRequestsThenCloses) {
  auto harness = std::make_unique<LoopHarness>();
  const int fd = harness->Connect();
  SendAll(fd, "1.0,2.0\n2.0,3.0\n");
  const std::vector<std::string> before = RecvLines(fd, 2);
  ASSERT_EQ(before.size(), 2u);
  harness->loop().RequestDrain();
  // After the drain the connection must reach EOF (server closed it)
  // without garbage in between.
  char byte;
  ssize_t n;
  while ((n = recv(fd, &byte, 1, 0)) > 0) {
  }
  EXPECT_EQ(n, 0) << std::strerror(errno);
  close(fd);
  harness.reset();  // Run() must have returned; ~LoopHarness joins
}

TEST(EventLoopTest, MixedProtocolConnectionsCoexist) {
  LoopHarness harness;
  const int text_fd = harness.Connect();
  const int bin_fd = harness.Connect();
  std::string frame;
  const double row[] = {1.0, 2.0};
  wire::AppendScoreRequest(frame, 42, row, 2);
  SendAll(bin_fd, frame);
  SendAll(text_fd, "1.0,2.0\n");
  const wire::DecodedResponse bin = RecvFrame(bin_fd);
  const std::vector<std::string> text = RecvLines(text_fd, 1);
  EXPECT_EQ(bin.type, wire::FrameType::kScoreOk);
  EXPECT_EQ(bin.id, 42u);
  ASSERT_EQ(text.size(), 1u);
  char formatted[40];
  std::snprintf(formatted, sizeof(formatted), "%.17g", bin.proba);
  EXPECT_EQ(text[0], formatted);
  close(text_fd);
  close(bin_fd);
}

TEST(EventLoopTest, PipelinedRoundsAreNotHeldByNagle) {
  // One row per batch, no fill delay and a model that pauses: each of a
  // round's three responses is its own small write. Without TCP_NODELAY
  // on the accepted socket, Nagle holds a write while an earlier one
  // waits for the client's delayed ACK (~40 ms), stalling the round.
  BatchScorerConfig scorer_config;
  scorer_config.max_batch_size = 1;
  scorer_config.max_batch_delay_us = 0;
  LoopHarness harness({}, {}, scorer_config,
                      std::make_unique<PausingModel>());
  const int fd = harness.Connect();
  std::vector<double> round_ms;
  for (int round = 0; round < 20; ++round) {
    const auto start = std::chrono::steady_clock::now();
    SendAll(fd, "1.0,2.0\n2.0,3.0\n3.0,4.0\n");
    ASSERT_EQ(RecvLines(fd, 3).size(), 3u);
    round_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  std::nth_element(round_ms.begin(), round_ms.begin() + 10, round_ms.end());
  EXPECT_LT(round_ms[10], 10.0) << "median pipelined round, ms";
  close(fd);
}

TEST(EventLoopTest, AdoptedPipePairServesATextSession) {
  int requests[2];
  int responses[2];
  ASSERT_EQ(pipe(requests), 0);
  ASSERT_EQ(pipe(responses), 0);
  {
    AdoptedSession session(requests[0], responses[1]);
    SendAll(requests[1],
            "1.0,2.0\n{\"id\":3,\"features\":[4.0,4.0]}\nSTATS\n");
    const std::vector<std::string> lines = RecvLines(responses[0], 3);
    ASSERT_EQ(lines.size(), 3u);
    const ScoreResult truth =
        testing::SubmitFuture(session.scorer(), {1.0, 2.0}).get();
    ServeRequest csv;
    EXPECT_EQ(lines[0], FormatScoreResponse(csv, truth.proba, truth.degraded));
    EXPECT_EQ(lines[1].rfind("{\"id\":3,\"proba\":", 0), 0u) << lines[1];
    EXPECT_NE(lines[2].find("rows_per_sec"), std::string::npos) << lines[2];
    close(requests[1]);  // EOF ends the session
    EXPECT_TRUE(session.Returned());
  }
  // The caller's descriptors: still open, still blocking.
  for (const int fd : {requests[0], responses[1]}) {
    const int flags = fcntl(fd, F_GETFL);
    ASSERT_NE(flags, -1) << "the loop closed an adopted descriptor";
    EXPECT_EQ(flags & O_NONBLOCK, 0);
  }
  close(requests[0]);
  close(responses[0]);
  close(responses[1]);
}

TEST(EventLoopTest, AdoptedRegularFileAnswersBacklogAndReloadInOrder) {
  // epoll refuses a regular file (what ctest's INPUT_FILE hands a
  // program as stdin), so this session runs the always-ready read path.
  // More lines than the pending cap, a !reload in the middle and a last
  // line without its newline: everything is answered, in order, and
  // Run() returns at EOF.
  std::FILE* input = std::tmpfile();
  ASSERT_NE(input, nullptr);
  std::string text;
  for (int id = 0; id < 13; ++id) {
    if (id == 6) text += "!reload candidate.model\n";
    text += "{\"id\":" + std::to_string(id) + ",\"features\":[1.5,2.5]}";
    if (id < 12) text += '\n';
  }
  ASSERT_GE(std::fputs(text.c_str(), input), 0);
  ASSERT_EQ(std::fflush(input), 0);
  std::rewind(input);
  int responses[2];
  ASSERT_EQ(pipe(responses), 0);
  serve::EventLoopConfig config;
  config.max_pending_per_conn = 4;
  std::thread reloader;
  {
    AdoptedSession session(
        fileno(input), responses[1], config,
        [&reloader](std::string path, std::function<void(std::string)> done) {
          reloader = std::thread([path = std::move(path),
                                  done = std::move(done)] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            done("OK fake reload of " + path);
          });
        });
    const std::vector<std::string> lines = RecvLines(responses[0], 14);
    ASSERT_EQ(lines.size(), 14u);
    std::size_t at = 0;
    for (int id = 0; id < 13; ++id) {
      if (id == 6) {
        EXPECT_EQ(lines[at++], "OK fake reload of candidate.model");
      }
      const std::string prefix =
          "{\"id\":" + std::to_string(id) + ",\"proba\":";
      EXPECT_EQ(lines[at].rfind(prefix, 0), 0u)
          << "response " << at << " missing or out of order: " << lines[at];
      ++at;
    }
    EXPECT_TRUE(session.Returned());
    EXPECT_EQ(session.loop().counters().text_requests.load(), 13u);
  }
  reloader.join();
  std::fclose(input);
  close(responses[0]);
  close(responses[1]);
}

TEST(EventLoopTest, AdoptedPipeHeldOpenDrainsOnRequest) {
  // The writer never closes its end: the loop must not block on the
  // empty pipe, and only RequestDrain() ends the session.
  int requests[2];
  int responses[2];
  ASSERT_EQ(pipe(requests), 0);
  ASSERT_EQ(pipe(responses), 0);
  {
    AdoptedSession session(requests[0], responses[1]);
    SendAll(requests[1], "1.0,2.0\n");
    ASSERT_EQ(RecvLines(responses[0], 1).size(), 1u);
    EXPECT_FALSE(session.Returned(std::chrono::seconds(0)));
    session.loop().RequestDrain();
    EXPECT_TRUE(session.Returned());
    EXPECT_EQ(session.loop().counters().text_requests.load(), 1u);
    EXPECT_EQ(session.scorer().stats().Snapshot().rows, 1u);
  }
  for (const int fd : {requests[0], requests[1], responses[0], responses[1]}) {
    close(fd);
  }
}

}  // namespace
}  // namespace spe
