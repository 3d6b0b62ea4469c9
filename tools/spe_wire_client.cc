// spe_wire_client — binary-protocol scoring client for spe_serve.
//
//   spe_wire_client --port P [--host ADDR] [--f32] [--deadline-ms D]
//                   [--metrics] [--reload PATH] [--oversize]
//
// Reads CSV feature rows from stdin (the same lines the text protocol
// accepts), sends each as one binary kScore frame (id = 1-based row
// number) over the frame format of spe/serve/wire.h, and prints one
// line per response: "%.17g" for a score — byte-identical to the text
// protocol's CSV response for the same row — or "ERR <message>" for a
// refusal, which also matches the text protocol line. Control flags
// append a kMetrics / kReload frame after the rows and print the kText
// body the server answers.
//
// --oversize prepends a frame whose declared payload exceeds the 1 MiB
// cap (the payload is actually sent; the server must discard it in
// chunks without buffering), then sends the rows. The expected refusal
// is "ERR frame payload exceeds ..." while the connection — and every
// row after it — still works.
//
// Requests are written from a separate thread while responses are read
// here, so a request set larger than the socket buffers cannot
// deadlock the pipeline.
//
// Exit codes: 0 all responses received (score errors included — they
// are protocol output, not client failures); 2 the server refused an
// oversized frame (the --oversize probe's expected outcome); 3
// connect/IO failure or a response that cannot be decoded.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "spe/common/parse.h"
#include "spe/serve/line_protocol.h"
#include "spe/serve/wire.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: spe_wire_client --port P [--host ADDR] [--f32]\n"
               "                       [--deadline-ms D] [--metrics]\n"
               "                       [--reload PATH] [--oversize]\n"
               "reads CSV rows on stdin, scores them over the binary wire\n"
               "protocol, prints one response line per frame.\n");
  std::exit(2);
}

bool ReadFull(int fd, unsigned char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool WriteFull(int fd, const char* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t r = write(fd, buf + put, n - put);
    if (r > 0) {
      put += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage(("unexpected argument: " + arg).c_str());
    const std::string key = arg.substr(2);
    std::string value = "1";
    if (key == "port" || key == "host" || key == "deadline-ms" ||
        key == "reload") {
      if (i + 1 >= argc) Usage(("missing value for --" + key).c_str());
      value = argv[++i];
    } else if (key != "f32" && key != "metrics" && key != "oversize") {
      Usage(("unknown flag --" + key).c_str());
    }
    if (!flags.emplace(key, value).second) {
      Usage(("duplicate flag --" + key).c_str());
    }
  }
  const auto it = flags.find("port");
  if (it == flags.end()) Usage("--port is required");
  const auto port = spe::ParseInt64(it->second);
  if (!port || *port < 1 || *port > 65535) Usage("--port expects 1..65535");
  const std::string host =
      flags.count("host") ? flags.at("host") : "127.0.0.1";
  const bool f32 = flags.count("f32") > 0;
  double deadline_ms = -1.0;
  if (flags.count("deadline-ms")) {
    const auto d = spe::ParseFiniteDouble(flags.at("deadline-ms"));
    if (!d || *d < 0) Usage("--deadline-ms expects a non-negative number");
    deadline_ms = *d;
  }

  // Build the whole request stream up front.
  std::string requests;
  std::size_t expected = 0;
  if (flags.count("oversize")) {
    // Declared length one past the cap; the payload really is sent so
    // the server's chunked discard is what keeps the stream framed.
    const std::uint32_t len =
        static_cast<std::uint32_t>(spe::wire::kMaxPayloadBytes + 1);
    spe::wire::AppendHeader(requests, spe::wire::FrameType::kScore, 0, len);
    requests.append(len, '\0');
    ++expected;
  }
  std::string line;
  std::vector<double> features;
  std::uint64_t row = 0;
  for (int ch; (ch = std::fgetc(stdin)) != EOF;) {
    if (ch != '\n') {
      line.push_back(static_cast<char>(ch));
      continue;
    }
    const spe::ServeRequest parsed = spe::ParseRequestLine(line);
    line.clear();
    if (parsed.kind == spe::RequestKind::kEmpty) continue;
    if (parsed.kind != spe::RequestKind::kScore) {
      std::fprintf(stderr, "error: stdin row is not a feature row\n");
      return 2;
    }
    spe::wire::AppendScoreRequest(requests, ++row, parsed.features.data(),
                                  parsed.features.size(), f32, deadline_ms);
    ++expected;
  }
  if (flags.count("metrics")) {
    spe::wire::AppendControlRequest(requests, spe::wire::FrameType::kMetrics);
    ++expected;
  }
  if (flags.count("reload")) {
    spe::wire::AppendControlRequest(requests, spe::wire::FrameType::kReload,
                                    flags.at("reload"));
    ++expected;
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 3;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "error: bad --host %s\n", host.c_str());
    return 2;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::perror("connect");
    return 3;
  }

  // Writer thread: a large request set and a slow-reading main thread
  // must not deadlock against full socket buffers in both directions.
  std::thread writer([fd, &requests] {
    if (WriteFull(fd, requests.data(), requests.size())) {
      shutdown(fd, SHUT_WR);
    }
  });

  int rc = 0;
  std::vector<unsigned char> payload;
  for (std::size_t i = 0; i < expected; ++i) {
    unsigned char header_bytes[spe::wire::kHeaderBytes];
    if (!ReadFull(fd, header_bytes, sizeof(header_bytes))) {
      std::fprintf(stderr, "error: connection closed after %zu/%zu responses\n",
                   i, expected);
      rc = 3;
      break;
    }
    const spe::wire::FrameHeader header =
        spe::wire::DecodeHeader(header_bytes);
    if (header.magic != spe::wire::kMagic ||
        header.version != spe::wire::kVersion ||
        header.payload_len > spe::wire::kMaxPayloadBytes) {
      std::fprintf(stderr, "error: response stream lost framing\n");
      rc = 3;
      break;
    }
    payload.resize(header.payload_len);
    if (!ReadFull(fd, payload.data(), payload.size())) {
      std::fprintf(stderr, "error: truncated response payload\n");
      rc = 3;
      break;
    }
    spe::wire::DecodedResponse response;
    const std::string error =
        spe::wire::DecodeResponse(header, payload.data(), response);
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      rc = 3;
      break;
    }
    switch (response.type) {
      case spe::wire::FrameType::kScoreOk:
        std::printf("%.17g\n", response.proba);
        break;
      case spe::wire::FrameType::kError:
        std::printf("ERR %s\n", response.text.c_str());
        if (response.text.rfind("frame payload exceeds", 0) == 0 && rc == 0) {
          rc = 2;  // the --oversize probe's expected refusal
        }
        break;
      case spe::wire::FrameType::kText:
        std::printf("%s\n", response.text.c_str());
        break;
      default:
        break;
    }
  }
  std::fflush(stdout);
  writer.join();
  close(fd);
  return rc;
}
