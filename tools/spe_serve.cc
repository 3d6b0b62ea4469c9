// spe_serve — online scoring server over a saved model.
//
//   spe_serve --model FILE [--stdio | --port P] [--host ADDR]
//             [--max-batch N] [--max-delay-us U]
//             [--workers W] [--queue-capacity C] [--overflow block|shed]
//             [--default-deadline-ms D] [--degrade-high H --degrade-low L
//              --degrade-prefix K] [--max-connections M]
//             [--metrics-dump FILE]
//             [--shadow FILE] [--shadow-sample N]
//             [--drift-threshold PSI] [--drift-min-count N]
//
// Speaks the newline-delimited CSV/JSON protocol of spe/serve/
// line_protocol.h and the length-prefixed binary frame protocol of
// spe/serve/wire.h, negotiated per session by the first byte (0xA6
// selects binary). Both modes run on one single-threaded epoll event
// loop (spe/serve/event_loop.h) that funnels every session into one
// shared BatchScorer, so cross-connection traffic coalesces into common
// micro-batches: --port serves concurrent TCP connections (up to
// --max-connections); --stdio adopts stdin/stdout as one session (what
// tests and shell pipelines use) and exits at stdin EOF. Any flag not
// listed above is a usage error (exit 2), like a repeated one. The
// retired --stats-interval-ms still parses but accepts only 0, so
// command lines that pass 0 keep starting.
//
// Stats: the metrics exposition (docs/observability.md) is the one
// stats surface — a `!stats` line or kMetrics frame returns it live,
// and --metrics-dump publishes it at drain. stderr carries logs only.
//
// Robustness: requests may carry "deadline_ms" (JSON) or inherit
// --default-deadline-ms; a request that is still queued past its
// deadline is answered DEADLINE_EXCEEDED without being scored. Under
// backlog past --degrade-high, batches are scored with only the first
// --degrade-prefix ensemble members (responses marked "degraded":true)
// until the backlog drains to --degrade-low.
//
// Model lifecycle: the scorer serves through a versioned model registry
// (spe/lifecycle/model_registry.h). A `!reload [PATH]` protocol line or
// a SIGHUP hot-swaps the served model: the candidate artifact is
// decoded and kernel-compiled on a dedicated lifecycle thread,
// then atomically activated — in-flight requests finish on the old
// version, no request is dropped, and a bad candidate is refused with
// an ERR line while the old model keeps serving. --shadow loads a
// second version that re-scores a sample of live batches for
// prediction diffing, and models saved with a training hardness
// histogram (v3 bundles) get live drift detection (docs/lifecycle.md).
//
// Shutdown drains: on SIGINT/SIGTERM (or stdin EOF) the listener stops
// accepting, sessions stop reading, every accepted request is still
// scored and written, and the --metrics-dump exposition is published.
// Both signals behave identically in both --stdio and --port mode: a
// dedicated signal thread (sigwait) asks the event loop to drain, so a
// SIGTERM from an orchestrator gets the same graceful drain as an
// interactive Ctrl-C.
//
// Exit codes follow spe/common/exit_codes.h: 0 ok (including a drained
// shutdown), 1 runtime error, 2 usage, 3 I/O failure (including a
// --metrics-dump that could not be written), 4 corrupt artifact, 5
// injected fault (docs/robustness.md).

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "spe/common/exit_codes.h"
#include "spe/common/frame.h"
#include "spe/common/parse.h"
#include "spe/lifecycle/model_registry.h"
#include "spe/obs/metrics.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/event_loop.h"
#include "spe/serve/line_protocol.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(
      stderr,
      "usage: spe_serve --model FILE [--stdio | --port P] [options]\n"
      "  --model FILE          saved model (spe_cli train --model FILE)\n"
      "  --stdio               serve one session on stdin/stdout\n"
      "  --port P              listen for TCP connections on port P\n"
      "  --host ADDR           bind address (default 127.0.0.1)\n"
      "  --max-batch N         rows per model dispatch (default 256)\n"
      "  --max-delay-us U      micro-batch fill deadline (default 200)\n"
      "  --workers W           scoring threads (default: hardware)\n"
      "  --queue-capacity C    pending-request bound (default 4096)\n"
      "  --overflow block|shed backpressure policy (default block)\n"
      "  --default-deadline-ms D\n"
      "                        deadline for requests that do not carry\n"
      "                        \"deadline_ms\"; expired-in-queue requests\n"
      "                        get DEADLINE_EXCEEDED (0 = none, default)\n"
      "  --degrade-high H      backlog at which scoring degrades to an\n"
      "                        ensemble prefix (0 = never, default)\n"
      "  --degrade-low L       backlog at which full scoring resumes\n"
      "                        (default 0; must be < H)\n"
      "  --degrade-prefix K    ensemble members used while degraded\n"
      "                        (default 1)\n"
      "  --max-connections M   concurrent TCP connections; further\n"
      "                        connects are refused with an error line\n"
      "                        (default 256, 0 = unlimited)\n"
      "  --metrics-dump FILE   publish the final metrics exposition to\n"
      "                        FILE (tmp + rename) after the server drains;\n"
      "                        FILE must be writable at startup (fail\n"
      "                        fast, not after a day of traffic) and a\n"
      "                        failed write exits 3\n"
      "  --shadow FILE         also load FILE as a shadow version: it\n"
      "                        scores a sample of live batches and the\n"
      "                        prediction diffs are exported as\n"
      "                        spe_lifecycle_shadow_* metrics\n"
      "  --shadow-sample N     shadow every Nth batch (default 8,\n"
      "                        0 disables shadow scoring)\n"
      "  --drift-threshold P   PSI above which hardness-distribution\n"
      "                        drift alerts (default 0.25)\n"
      "  --drift-min-count N   live rows required before a drift verdict\n"
      "                        (default 512)\n"
      "unknown and repeated flags are usage errors (exit 2)\n"
      "protocol: one request per line — CSV features (`0.2,1.5`) or JSON\n"
      "(`{\"id\":1,\"features\":[0.2,1.5],\"deadline_ms\":50}`); `!stats`\n"
      "returns the metrics exposition (multi-line, ends with `# EOF`),\n"
      "the server's one stats surface; `!reload [PATH]` hot-swaps the\n"
      "served model to PATH (default: the --model artifact, re-read)\n"
      "and answers OK/ERR once the swap happened — in-flight requests\n"
      "finish on the old version, none are dropped; SIGHUP triggers the\n"
      "same reload of the --model path; responses come back in request\n"
      "order. Degraded-mode JSON responses carry "
      "\"degraded\":true.\n"
      "fault injection: set SPE_FAULTS=score_delay_ms=..,"
      "model_io_fail_rate=..,seed=.. (docs/serving.md)\n");
  std::exit(2);
}

/// Checked flag accessor: missing -> fallback; present but not an
/// integer in [min, max] -> usage error (atoi-style silent garbage is
/// exactly what this replaces).
long GetIntFlag(const std::map<std::string, std::string>& flags,
                const std::string& key, long fallback, long min, long max) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto v = spe::ParseInt64(it->second);
  if (!v || *v < min || *v > max) {
    const std::string message = "--" + key + " expects an integer in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "], got '" + it->second +
                                "'";
    Usage(message.c_str());
  }
  return static_cast<long>(*v);
}

double GetDoubleFlag(const std::map<std::string, std::string>& flags,
                     const std::string& key, double fallback, double min) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto v = spe::ParseFiniteDouble(it->second);
  if (!v || *v < min) {
    const std::string message = "--" + key + " expects a number >= " +
                                std::to_string(min) + ", got '" + it->second +
                                "'";
    Usage(message.c_str());
  }
  return *v;
}

// Signal plumbing. SIGINT/SIGTERM/SIGHUP are blocked in every thread
// (pthread_sigmask before any thread is spawned) and consumed by one
// dedicated signal thread via sigwait — no async-signal-safety puzzles,
// and SIGTERM gets the exact same graceful drain as SIGINT in both
// serving modes.
std::atomic<bool> g_draining{false};
std::atomic<bool> g_sighup{false};

// The loop the signal thread drains. RunServer publishes it for the
// span of Run() and clears it before the loop is destroyed; the mutex
// keeps RequestDrain() from racing that destruction.
std::mutex g_loop_mu;
spe::serve::EventLoop* g_loop = nullptr;

void SignalWaitLoop() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGHUP);
  for (;;) {
    int sig = 0;
    if (sigwait(&set, &sig) != 0) continue;
    if (sig == SIGHUP) {
      // Just a flag flip; the lifecycle thread polls it.
      g_sighup.store(true, std::memory_order_relaxed);
      continue;
    }
    // SIGINT / SIGTERM: one graceful drain. A repeat signal is ignored —
    // the drain already answers everything accepted, and exiting early
    // would drop those responses.
    if (g_draining.exchange(true)) continue;
    std::fprintf(stderr, "spe_serve: received %s, draining...\n",
                 sig == SIGTERM ? "SIGTERM" : "SIGINT");
    std::lock_guard<std::mutex> lock(g_loop_mu);
    if (g_loop != nullptr) g_loop->RequestDrain();
  }
}

/// Serializes model reloads onto one lifecycle thread. Loading and
/// kernel compilation happen here — never on a scoring worker and never
/// on the event loop — so a reload (even a slow or failing one) cannot
/// stall scoring. Requests come from `!reload` lines (the event loop's
/// callback gets the OK/ERR response line) and from SIGHUP (the outcome
/// is logged to stderr).
class ReloadCoordinator {
 public:
  ReloadCoordinator(std::shared_ptr<spe::lifecycle::ModelRegistry> registry,
                    std::string default_path)
      : registry_(std::move(registry)),
        default_path_(std::move(default_path)),
        reloads_total_(spe::obs::MetricsRegistry::Global().GetCounter(
            "spe_lifecycle_reloads_total")),
        reload_failures_total_(spe::obs::MetricsRegistry::Global().GetCounter(
            "spe_lifecycle_reload_failures_total")),
        worker_([this] { Loop(); }) {}

  ~ReloadCoordinator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  /// Enqueues a reload of `path` ("" = the --model artifact). `done` is
  /// invoked with the response line on the lifecycle thread once the
  /// swap happened (or was refused).
  void RequestAsync(std::string path, std::function<void(std::string)> done) {
    Job job;
    job.path = path.empty() ? default_path_ : std::move(path);
    job.done = std::move(done);
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_all();
  }

 private:
  struct Job {
    std::string path;
    std::function<void(std::string)> done;
  };

  void Loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        // The timeout doubles as the SIGHUP poll interval: the handler
        // may only flip an atomic, so someone has to look at it.
        cv_.wait_for(lock, std::chrono::milliseconds(200),
                     [&] { return stop_ || !jobs_.empty(); });
        if (g_sighup.exchange(false, std::memory_order_relaxed)) {
          // SIGHUP has no client to answer: its outcome is logged.
          jobs_.push_back({default_path_, [](std::string response) {
                             std::fprintf(stderr,
                                          "spe_serve: SIGHUP reload: %s\n",
                                          response.c_str());
                           }});
        }
        if (jobs_.empty()) {
          if (stop_) break;
          continue;
        }
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job.done(Reload(job.path));
    }
  }

  std::string Reload(const std::string& path) {
    spe::lifecycle::ModelRegistry::LoadResult result =
        registry_->LoadFromFile(path);
    if (!result.ok()) {
      reload_failures_total_.Add();
      return "ERR reload failed: " + result.error;
    }
    const std::string error = registry_->Activate(result.version);
    if (!error.empty()) {
      reload_failures_total_.Add();
      return "ERR reload refused: " + error;
    }
    reloads_total_.Add();
    return "OK reloaded version " +
           std::to_string(result.version->version()) + " from " + path +
           " kernel=" + result.version->kernel() +
           (result.version->drift() != nullptr ? " drift=on" : " drift=off");
  }

  const std::shared_ptr<spe::lifecycle::ModelRegistry> registry_;
  const std::string default_path_;
  spe::obs::Counter& reloads_total_;
  spe::obs::Counter& reload_failures_total_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool stop_ = false;
  std::thread worker_;
};

/// Serves on one event loop until it drains: TCP connections when
/// `port` > 0, else a single session adopted on stdin/stdout. Then
/// publishes the metrics dump.
int RunServer(spe::BatchScorer& scorer, ReloadCoordinator& reloader,
              const std::string& host, int port, double default_deadline_ms,
              std::size_t max_connections, const std::string& dump_path) {
  spe::serve::EventLoopConfig config;
  config.max_connections = max_connections;
  config.default_deadline_ms = default_deadline_ms;
  spe::serve::EventLoop loop(
      scorer, config,
      [&reloader](std::string path, std::function<void(std::string)> done) {
        reloader.RequestAsync(std::move(path), std::move(done));
      });
  const std::string error = port > 0
                                ? loop.Listen(host, port)
                                : loop.Adopt(STDIN_FILENO, STDOUT_FILENO);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (port > 0) {
    std::fprintf(stderr, "spe_serve: listening on %s:%d\n", host.c_str(),
                 loop.port());
  }
  {
    std::lock_guard<std::mutex> lock(g_loop_mu);
    g_loop = &loop;
    // A signal that landed before the loop was published found nothing
    // to drain; honor it now rather than serving forever.
    if (g_draining.load()) loop.RequestDrain();
  }
  // Returns once every accepted request is answered and every session
  // closed: at drain, or at stdin EOF.
  loop.Run();
  {
    std::lock_guard<std::mutex> lock(g_loop_mu);
    g_loop = nullptr;
  }
  scorer.Shutdown();
  // Drained, so the dump is final — and rendered while the loop still
  // exists, so its spe_serve_loop_* collector is part of it. Published
  // by tmp + rename: a failed write leaves no partial exposition.
  if (!dump_path.empty()) {
    const spe::frame::Error error = spe::frame::PublishAtomically(
        dump_path, spe::obs::MetricsRegistry::Global().RenderText());
    if (!error.ok()) {
      std::fprintf(stderr, "error: --metrics-dump %s: %s\n",
                   dump_path.c_str(), error.message.c_str());
      return spe::kExitIo;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Signal setup must precede every thread spawn (scorer workers, the
  // reload coordinator) so they all inherit the blocked mask and only
  // the signal thread ever sees SIGINT/SIGTERM/SIGHUP. The thread is
  // detached: at a signal-free shutdown (stdin EOF) it is still parked
  // in sigwait, and process exit reaps it — it touches only globals,
  // never the stack.
  sigset_t blocked;
  sigemptyset(&blocked);
  sigaddset(&blocked, SIGINT);
  sigaddset(&blocked, SIGTERM);
  sigaddset(&blocked, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &blocked, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
  std::thread(SignalWaitLoop).detach();

  // Every flag main() reads. A typo is the same hazard as a repeat:
  // silently ignored, it serves with a default nobody asked for.
  static const std::set<std::string> kKnownFlags = {
      "model", "stdio", "port", "host", "max-batch", "max-delay-us",
      "workers", "queue-capacity", "overflow",
      "default-deadline-ms", "degrade-high", "degrade-low", "degrade-prefix",
      "max-connections", "stats-interval-ms", "metrics-dump", "shadow",
      "shadow-sample", "drift-threshold", "drift-min-count"};
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage(("unexpected argument: " + arg).c_str());
    const std::string key = arg.substr(2);
    if (kKnownFlags.count(key) == 0) Usage(("unknown flag --" + key).c_str());
    std::string value = "1";
    if (key != "stdio") {
      if (i + 1 >= argc) Usage(("missing value for --" + key).c_str());
      value = argv[++i];
    }
    // A silently ignored repeat is how a fat-fingered restart script
    // serves yesterday's queue capacity; make duplicates loud.
    if (!flags.emplace(key, value).second) {
      Usage(("duplicate flag --" + key).c_str());
    }
  }
  const auto get = [&](const std::string& k, const std::string& fallback) {
    const auto it = flags.find(k);
    return it == flags.end() ? fallback : it->second;
  };

  const std::string model_path = get("model", "");
  if (model_path.empty()) Usage("--model is required");
  const bool use_stdio = flags.count("stdio") > 0;
  const int port = static_cast<int>(GetIntFlag(flags, "port", 0, 1, 65535));
  if (use_stdio == (port > 0)) Usage("pass exactly one of --stdio / --port");

  spe::BatchScorerConfig config;
  config.max_batch_size = static_cast<std::size_t>(
      GetIntFlag(flags, "max-batch", 256, 1, 1 << 20));
  config.max_batch_delay_us = static_cast<std::size_t>(
      GetIntFlag(flags, "max-delay-us", 200, 0, 60'000'000));
  config.num_workers =
      static_cast<std::size_t>(GetIntFlag(flags, "workers", 0, 0, 4096));
  config.queue_capacity = static_cast<std::size_t>(
      GetIntFlag(flags, "queue-capacity", 4096, 1, 1 << 26));
  const std::string overflow = get("overflow", "block");
  if (overflow == "shed") {
    config.overflow = spe::OverflowPolicy::kShed;
  } else if (overflow != "block") {
    Usage("--overflow must be block or shed");
  }
  config.degrade_high_watermark = static_cast<std::size_t>(
      GetIntFlag(flags, "degrade-high", 0, 0, 1 << 26));
  config.degrade_low_watermark = static_cast<std::size_t>(
      GetIntFlag(flags, "degrade-low", 0, 0, 1 << 26));
  config.degrade_prefix = static_cast<std::size_t>(
      GetIntFlag(flags, "degrade-prefix", 1, 1, 1 << 20));
  if (config.degrade_high_watermark > 0 &&
      config.degrade_low_watermark >= config.degrade_high_watermark) {
    Usage("--degrade-low must be below --degrade-high");
  }
  const double default_deadline_ms =
      GetDoubleFlag(flags, "default-deadline-ms", 0.0, 0.0);
  const std::size_t max_connections = static_cast<std::size_t>(
      GetIntFlag(flags, "max-connections", 256, 0, 1 << 20));
  if (flags.count("stats-interval-ms") > 0 &&
      spe::ParseInt64(flags.at("stats-interval-ms")) != 0) {
    Usage("--stats-interval-ms accepts only 0: the periodic stats line is "
          "gone; read the metrics exposition with `!stats` or "
          "--metrics-dump FILE");
  }
  config.shadow_every = static_cast<std::size_t>(
      GetIntFlag(flags, "shadow-sample", 8, 0, 1 << 20));

  // Fail fast on an unwritable dump target: discovering it only at
  // drain time throws away the run's metrics after the fact.
  const std::string dump_path = get("metrics-dump", "");
  if (!dump_path.empty()) {
    std::FILE* probe = std::fopen(dump_path.c_str(), "a");
    if (probe == nullptr) {
      Usage(("--metrics-dump path is not writable: " + dump_path).c_str());
    }
    std::fclose(probe);
  }

  spe::lifecycle::DriftConfig drift;
  drift.psi_threshold = GetDoubleFlag(flags, "drift-threshold", 0.25, 1e-9);
  drift.min_samples = static_cast<std::uint64_t>(
      GetIntFlag(flags, "drift-min-count", 512, 1, 1L << 40));

  auto registry = std::make_shared<spe::lifecycle::ModelRegistry>(drift);
  {
    const auto loaded = registry->LoadFromFile(model_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load --model %s: %s\n",
                   model_path.c_str(), loaded.error.c_str());
      return spe::ClassifyArtifactErrorExit(loaded.error_class);
    }
    const std::string error = registry->Activate(loaded.version);
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return spe::kExitRuntime;
    }
  }
  const std::string shadow_path = get("shadow", "");
  if (!shadow_path.empty()) {
    const auto loaded = registry->LoadFromFile(shadow_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load --shadow %s: %s\n",
                   shadow_path.c_str(), loaded.error.c_str());
      return spe::ClassifyArtifactErrorExit(loaded.error_class);
    }
    if (loaded.version->num_features() !=
        registry->active()->num_features()) {
      std::fprintf(stderr,
                   "error: --shadow feature width %zu does not match the "
                   "model's %zu\n",
                   loaded.version->num_features(),
                   registry->active()->num_features());
      return 1;
    }
    registry->SetShadow(loaded.version);
  }

  spe::BatchScorer scorer(registry, config);
  ReloadCoordinator reloader(registry, model_path);
  return RunServer(scorer, reloader, get("host", "127.0.0.1"), port,
                   default_deadline_ms, max_connections, dump_path);
}
