#ifndef SPE_SERVE_EVENT_LOOP_H_
#define SPE_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "spe/obs/metrics.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/line_protocol.h"

namespace spe::serve {

/// Tuning for the serving loop.
struct EventLoopConfig {
  /// Concurrent connections; one past the bound is answered with the
  /// capacity error line and closed. 0 = unlimited.
  std::size_t max_connections = 256;
  /// Deadline inherited by requests that do not carry one (<= 0: none).
  double default_deadline_ms = 0.0;
  /// Per-session bound on responses accepted but not yet written; at
  /// the bound the session stops being read (TCP backpressure) until
  /// responses drain.
  std::size_t max_pending_per_conn = 16384;
  /// Bytes per read(2) into a connection's input buffer.
  std::size_t read_chunk_bytes = 64 * 1024;
  /// Output buffer size past which a connection stops being read until
  /// the peer drains it (a client that writes but never reads cannot
  /// grow server memory without limit).
  std::size_t max_outbuf_bytes = 4 * 1024 * 1024;
  int listen_backlog = 256;
};

/// How the loop asks for a model reload: `done` must be invoked exactly
/// once, from any thread, with the protocol response line ("OK ..." /
/// "ERR ..."). The loop never blocks on the reload.
using ReloadRequestFn =
    std::function<void(std::string path, std::function<void(std::string)> done)>;

/// Aggregate loop counters, readable after Run() returns (and exported
/// as spe_serve_loop_* metrics while the loop exists).
struct EventLoopCounters {
  std::atomic<std::uint64_t> accepted{0};      // TCP accepts plus Adopt()
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> text_requests{0};
  std::atomic<std::uint64_t> binary_requests{0};
  std::atomic<std::uint64_t> partial_writes{0};
  std::atomic<std::uint64_t> read_errors{0};   // connections dropped mid-read
  std::atomic<std::uint64_t> write_errors{0};  // connections dropped mid-write
  std::atomic<std::uint64_t> wakeups{0};       // completion eventfd pokes
  std::atomic<std::uint64_t> connections{0};   // currently open (gauge)
};

/// Single-threaded epoll reactor serving the scoring protocols. One
/// thread owns every session: it accepts TCP connections or adopts an
/// already-open descriptor pair (Adopt — what `spe_serve --stdio` runs
/// on), sniffs the protocol (first byte 0xA6 selects the binary frame
/// format of spe/serve/wire.h, anything else the newline text protocol),
/// parses requests straight out of per-session input buffers, and
/// submits rows to the shared BatchScorer through its callback path.
/// Scoring workers format the response into the request's pending slot
/// and poke the loop through an eventfd; the loop writes responses
/// strictly in request order per session.
///
/// Memory is pooled, not per-request: input/output byte buffers are
/// recycled across sessions, and each scored row's feature vector
/// round-trips through the scorer callback back into a free list, so a
/// steady-state session allocates nothing on the hot path.
///
/// Ordering and lifecycle semantics, per session:
///   - responses come back in request order;
///   - a !stats exposition is rendered only after every earlier
///     response on the session has been formatted (appended to its
///     output buffer), so it covers every request answered before it;
///     the write to the wire itself may still be pending;
///   - !reload fires only after every request read before it has been
///     answered *and written*, and parsing resumes when the reload's
///     OK/ERR is on the wire;
///   - drain (RequestDrain()) stops accepting, stops reading every
///     session, drops partially read requests, answers everything
///     accepted, and Run() returns.
///
/// Blocking caveat: under OverflowPolicy::kBlock a full scorer queue
/// blocks the loop inside SubmitCallback — all sessions stall until
/// workers free queue space. kShed keeps the loop wait-free.
class EventLoop {
 public:
  /// `reload_fn` may be empty, in which case !reload answers an error.
  /// The scorer must outlive the loop; the loop may be destroyed before
  /// the scorer shuts down *or* after — both are safe, because in-flight
  /// completions land in a shared mailbox that outlives the loop itself.
  EventLoop(BatchScorer& scorer, EventLoopConfig config,
            ReloadRequestFn reload_fn);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds and listens. Returns "" on success, else a description.
  /// Port 0 binds an ephemeral port; port() reports the real one.
  std::string Listen(const std::string& host, int port);

  int port() const { return port_; }

  /// Serves one text-or-binary session on an already-open descriptor
  /// pair, through the same parse/submit/ordered-write path as an
  /// accepted socket. The caller keeps ownership: the loop never closes
  /// the descriptors, nor sets O_NONBLOCK on them (the open file
  /// descriptions may be shared with a parent process). A blocking
  /// pollable input (pipe, fifo, tty) is read once per readiness
  /// report; one epoll refuses (regular file, /dev/null) is always
  /// ready. Writes to a pollable output go out PIPE_BUF bytes at a time
  /// when poll(2) reports room. The session ends at input EOF once
  /// every response is written, or at drain. poll(2) also catches an
  /// output pipe whose reader is gone, but one that leaves between the
  /// poll and the write raises SIGPIPE, so the process should ignore
  /// it. Call before Run(), from the thread that runs it. Returns "" on
  /// success, else a description.
  std::string Adopt(int in_fd, int out_fd);

  /// Serves until drained: every accepted request answered, every
  /// session closed. Without a listener, also returns once the last
  /// session has ended. Call from exactly one thread.
  void Run();

  /// Thread-safe while the loop exists: asks it to begin the drain
  /// sequence. Also honored when called before Run().
  void RequestDrain();

  const EventLoopCounters& counters() const { return counters_; }

 private:
  struct Conn;
  struct Pending;
  struct Shared;

  // -- loop-thread helpers (definitions in event_loop.cc) --
  void AcceptReady();
  void HandleConnEvent(std::uint64_t token, std::uint32_t events);
  void HandleReadable(Conn& c);
  void ParseInput(Conn& c);
  void ParseText(Conn& c);
  void ParseBinary(Conn& c);
  void EnqueueTextRequest(Conn& c, std::string_view line);
  void SubmitScore(Conn& c, const std::shared_ptr<Pending>& pending,
                   std::vector<double> features, double deadline_ms);
  void PumpPending(Conn& c);
  bool TryFlush(Conn& c);
  void UpdateConn(Conn& c);
  void CloseConn(std::uint64_t token);
  void BeginDrain();
  void DrainCompletions();

  BatchScorer& scorer_;
  const EventLoopConfig config_;
  const ReloadRequestFn reload_fn_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int port_ = 0;
  bool draining_ = false;

  std::uint64_t next_token_ = 2;  // 0 = listener, 1 = completion eventfd
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::size_t active_sessions_ = 0;  // conns_ minus capacity refusals
  /// Adopted sessions with a descriptor epoll refused; Run() serves
  /// them without waiting while they have interest.
  std::vector<std::uint64_t> always_ready_;

  /// Completion mailbox + feature-vector pool, shared with scorer and
  /// reload callbacks. shared_ptr so a callback that outlives the loop
  /// (connection died first, or the loop already returned) posts into
  /// still-valid storage instead of freed memory.
  std::shared_ptr<Shared> shared_;

  /// Byte-buffer free list for connection input/output buffers
  /// (loop-thread only; capacity-preserving).
  std::vector<std::string> buffer_pool_;
  std::uint64_t buffers_reused_ = 0;
  std::uint64_t buffers_allocated_ = 0;
  std::string GetBuffer();
  void PutBuffer(std::string buf);

  EventLoopCounters counters_;
  obs::CollectorHandle metrics_collector_;
};

}  // namespace spe::serve

#endif  // SPE_SERVE_EVENT_LOOP_H_
