#ifndef SPE_BENCH_CLIENT_H_
#define SPE_BENCH_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spe_bench {

/// What every served row must come back as, per artifact (0 = A, 1 = B):
/// the in-process BatchScorer::ScoreBatch probability of the pool row and,
/// for the text protocol, FormatScoreResponse of it.
struct ServeTruth {
  std::vector<double> proba[2];
  std::vector<std::string> text[2];
};

/// The request pool and schedule one client run drives. The pool is a
/// row-major block of `pool_rows` x `num_features`; request i sends pool
/// row i % pool_rows on connection i % kClientConns.
struct ClientPlan {
  bool binary = true;
  std::size_t num_features = 0;
  std::size_t pool_rows = 0;
  const std::vector<double>* pool = nullptr;
  const std::vector<std::string>* text_rows = nullptr;  // "f0,..,fd\n"
  const ServeTruth* truth = nullptr;
  std::string artifact_path[2];  // reload targets A and B
  double rate = 0.0;             // offered rows/s (Poisson arrivals)
  double warmup_s = 0.0;         // open loop, discarded
  double open_s = 0.0;           // open loop, measured
  double sat_s = 0.0;            // pipelined saturation
  int reloads = 0;               // `!reload` A<->B during the measured loop
  std::uint64_t seed = 0;        // arrival times
  int trace_every = 0;           // record 1 in N requests; 0 = none
};

inline constexpr int kClientConns = 4;
/// Slices of the measured open loop and of the saturation phase; each
/// slice yields one sample and the metrics are medians over them.
inline constexpr int kClientSlices = 9;
/// Rows kept outstanding per connection during saturation.
inline constexpr std::size_t kSatOutstanding = 1024;

/// Client-side spans of one sampled request (trace runs).
struct RequestSample {
  std::uint64_t id = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t received_ns = 0;
};

struct ClientResult {
  std::vector<std::int64_t> latency_ns;       // measured open-loop requests
  std::vector<std::uint8_t> latency_window;  // slice each one was due in
  std::vector<std::int64_t> late_ns;          // measured: send time - scheduled time
  std::vector<std::uint8_t> late_window;      // slice each one was due in
  std::vector<double> reload_ms;              // `!reload` sent -> OK received
  std::vector<std::uint64_t> sat_window_rows;  // answers per saturation slice
  std::uint64_t score_sent = 0;
  std::uint64_t reload_sent = 0;
  std::uint64_t failed = 0;  // wrong, refused or missing responses
  std::string first_error;
  std::string exposition;  // the server's live `!stats` after saturation
  std::vector<RequestSample> samples;
};

/// Drives a running spe_serve on 127.0.0.1:`port` from this one thread:
/// kClientConns connections, a Poisson open loop at plan.rate (warm-up,
/// then the measured window with its reloads), then a pipelined
/// saturation phase, then one `!stats`. Every response is checked against
/// plan.truth.
ClientResult RunClient(int port, const ClientPlan& plan);

/// One scored round trip on a fresh connection: connects (retrying while
/// the server is still starting, up to `timeout_s`), sends pool row 0 and
/// checks the answer against artifact A. Returns "" or the failure.
std::string ProbeServer(int port, const ClientPlan& plan, double timeout_s);

/// Median loopback TCP round trip (1-byte ping-pong over `conns`
/// connections of this process), in microseconds.
double LoopbackRttUs(int conns, int pings_per_conn);

}  // namespace spe_bench

#endif  // SPE_BENCH_CLIENT_H_
