// spe_serve — online scoring server over a saved model.
//
//   spe_serve --model FILE [--stdio | --port P] [--host ADDR]
//             [--num-features F] [--max-batch N] [--max-delay-us U]
//             [--workers W] [--queue-capacity C] [--overflow block|shed]
//             [--default-deadline-ms D] [--degrade-high H --degrade-low L
//              --degrade-prefix K] [--max-connections M]
//             [--stats-interval-ms MS] [--metrics-dump FILE]
//             [--shadow FILE] [--shadow-sample N]
//             [--drift-threshold PSI] [--drift-min-count N]
//             [--kernel-mode f64|f32|binned]
//
// Speaks the newline-delimited CSV/JSON protocol of spe/serve/
// line_protocol.h and the length-prefixed binary frame protocol of
// spe/serve/wire.h, negotiated per session by the first byte (0xA6
// selects binary). Both modes run on one single-threaded epoll event
// loop (spe/serve/event_loop.h) that funnels every session into one
// shared BatchScorer, so cross-connection traffic coalesces into common
// micro-batches: --port serves concurrent TCP connections (up to
// --max-connections); --stdio adopts stdin/stdout as one session (what
// tests and shell pipelines use) and exits at stdin EOF.
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
// probed, loaded and kernel-compiled on a dedicated lifecycle thread,
// then atomically activated — in-flight requests finish on the old
// version, no request is dropped, and a bad candidate is refused with
// an ERR line while the old model keeps serving. --shadow loads a
// second version that re-scores a sample of live batches for
// prediction diffing, and models saved with a training hardness
// histogram (v3 bundles) get live drift detection (docs/lifecycle.md).
//
// Shutdown drains: on SIGINT/SIGTERM (or stdin EOF) the listener stops
// accepting, sessions stop reading, every accepted request is still
// scored and written, and a final stats snapshot goes to stderr. Both
// signals behave identically in both --stdio and --port mode: a
// dedicated signal thread (sigwait) asks the event loop to drain, so a
// SIGTERM from an orchestrator gets the same graceful drain as an
// interactive Ctrl-C.
//
// Exit codes follow spe/common/exit_codes.h: 0 ok (including a drained
// shutdown), 1 runtime error, 2 usage, 3 I/O failure, 4 corrupt
// artifact, 5 injected fault (docs/robustness.md).

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include <unistd.h>

#include "spe/common/exit_codes.h"
#include "spe/common/parse.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "spe/lifecycle/model_registry.h"
#include "spe/obs/metrics.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/event_loop.h"
#include "spe/serve/line_protocol.h"
#include "spe/serve/server_stats.h"

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
      "  --num-features F      row width for legacy artifacts whose file\n"
      "                        has no schema header (bundles carry it)\n"
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
      "  --stats-interval-ms M periodic stats line to stderr (0 = off,\n"
      "                        default 10000 for --port, 0 for --stdio)\n"
      "  --metrics-dump FILE   write the final metrics exposition to FILE\n"
      "                        after the server drains (FILE must be\n"
      "                        writable at startup — fail fast, not after\n"
      "                        a day of traffic)\n"
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
      "  --kernel-mode M       flat-kernel scoring representation: f64\n"
      "                        (default, bit-identical), f32 (float\n"
      "                        scoring, AUC-parity — stamped flat_f32 in\n"
      "                        !stats), or binned (uint8 quantized,\n"
      "                        bit-identical; falls back to f64 when the\n"
      "                        model cannot lower). Ignored when\n"
      "                        SPE_FLAT_KERNEL=0 disables the kernel\n"
      "                        (docs/performance.md)\n"
      "protocol: one request per line — CSV features (`0.2,1.5`) or JSON\n"
      "(`{\"id\":1,\"features\":[0.2,1.5],\"deadline_ms\":50}`); `STATS`\n"
      "returns a one-line stats snapshot; `!stats` returns the metrics\n"
      "exposition (multi-line, ends with `# EOF`); `!reload [PATH]`\n"
      "hot-swaps the served model to PATH (default: the --model artifact,\n"
      "re-read) and answers OK/ERR once the swap happened — in-flight\n"
      "requests finish on the old version, none are dropped; SIGHUP\n"
      "triggers the same reload of the --model path; responses come back\n"
      "in request order. Degraded-mode JSON responses carry "
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
                    std::string default_path, std::size_t fallback_width)
      : registry_(std::move(registry)),
        default_path_(std::move(default_path)),
        fallback_width_(fallback_width),
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
        registry_->LoadFromFile(path, fallback_width_);
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
  const std::size_t fallback_width_;
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
/// prints the final stats snapshot and writes the metrics dump.
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
  const auto& counters = loop.counters();
  if (counters.refused.load(std::memory_order_relaxed) > 0) {
    std::fprintf(stderr, "spe_serve: refused %llu connections at capacity\n",
                 static_cast<unsigned long long>(
                     counters.refused.load(std::memory_order_relaxed)));
  }
  scorer.Shutdown();
  std::fprintf(stderr, "%s\n", spe::ToJson(scorer.stats().Snapshot()).c_str());
  // Drained, so the dump is final — and written while the loop still
  // exists, so its spe_serve_loop_* collector is part of it.
  if (!dump_path.empty()) {
    std::FILE* f = std::fopen(dump_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write --metrics-dump %s\n",
                   dump_path.c_str());
      return spe::kExitIo;
    }
    const std::string text = spe::obs::MetricsRegistry::Global().RenderText();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Signal setup must precede every thread spawn (scorer workers, the
  // reload coordinator, the stats reporter) so they all inherit the
  // blocked mask and only the signal thread ever sees
  // SIGINT/SIGTERM/SIGHUP. The thread is detached: at a signal-free
  // shutdown (stdin EOF) it is still parked in sigwait, and process
  // exit reaps it — it touches only globals, never the stack.
  sigset_t blocked;
  sigemptyset(&blocked);
  sigaddset(&blocked, SIGINT);
  sigaddset(&blocked, SIGTERM);
  sigaddset(&blocked, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &blocked, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
  std::thread(SignalWaitLoop).detach();

  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage(("unexpected argument: " + arg).c_str());
    const std::string key = arg.substr(2);
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

  // Bundles (spe_cli train output) record the row width; bare spe-model
  // artifacts predate the header and need --num-features.
  const long num_features_flag =
      GetIntFlag(flags, "num-features", 0, 1, 1 << 24);
  const std::size_t fallback_width =
      num_features_flag > 0 ? static_cast<std::size_t>(num_features_flag) : 0;

  // Mode before load: ModelVersion resolves its kernel label (what
  // !stats and reload logs report) once at load time, so the scoring
  // representation must be active when the registry compiles the model.
  const std::string kernel_mode = get("kernel-mode", "f64");
  {
    spe::kernels::ScoreMode mode;
    if (!spe::kernels::ParseScoreMode(kernel_mode, &mode)) {
      Usage("--kernel-mode must be f64, f32 or binned");
    }
    spe::kernels::SetScoreMode(mode);
  }

  auto registry = std::make_shared<spe::lifecycle::ModelRegistry>(drift);
  {
    const auto loaded = registry->LoadFromFile(model_path, fallback_width);
    if (!loaded.ok()) {
      if (loaded.error.find("no schema header") != std::string::npos) {
        Usage("model artifact has no schema header; pass --num-features");
      }
      std::fprintf(stderr, "error: cannot load --model %s: %s\n",
                   model_path.c_str(), loaded.error.c_str());
      return spe::ClassifyArtifactErrorExit(loaded.error);
    }
    const std::string error = registry->Activate(loaded.version);
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return spe::kExitRuntime;
    }
  }
  const std::string shadow_path = get("shadow", "");
  if (!shadow_path.empty()) {
    const auto loaded = registry->LoadFromFile(shadow_path, fallback_width);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load --shadow %s: %s\n",
                   shadow_path.c_str(), loaded.error.c_str());
      return spe::ClassifyArtifactErrorExit(loaded.error);
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
  ReloadCoordinator reloader(registry, model_path, fallback_width);
  const long interval_ms =
      GetIntFlag(flags, "stats-interval-ms", use_stdio ? 0 : 10000, 0,
                 86'400'000);
  std::unique_ptr<spe::StatsReporter> reporter;
  if (interval_ms > 0) {
    reporter = std::make_unique<spe::StatsReporter>(
        scorer.stats(), std::cerr, std::chrono::milliseconds(interval_ms));
  }
  return RunServer(scorer, reloader, get("host", "127.0.0.1"), port,
                   default_deadline_ms, max_connections, dump_path);
}
