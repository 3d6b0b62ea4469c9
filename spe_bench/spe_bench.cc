// spe_bench — the repository's end-to-end benchmark.
//
//   spe_bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// One run of one workload follows the path a user takes: a CSV is written,
// the production `spe_cli train` fits SPE on it, the artifact is served by
// the production `spe_serve --port`, and a client in this process drives
// the server and checks every answer. The seed makes the data, the SPE
// seeds and the arrival times. Phases, as shares of --seconds S:
//
//   inputs     generate the data and write the CSV (on warm workloads
//              also publish its .spmc sidecar) once, untimed.
//   train      0.45 S: one warm-up rep, then reps alternating SPE seeds A
//              and B (SPE_THREADS=2). train_s is the median rep wall time.
//              Reps of one seed must produce byte-identical artifacts.
//              Between reps run the 7 timed set-up reps, each the whole
//              set-up again: generate and write the CSV, on warm
//              workloads publish its sidecar, start spe_serve until it
//              answers. setup_s is the median rep.
//   serve      spe_serve --workers 2 on artifact A, 4 connections from one
//              client thread: Poisson open loop at the workload's rate
//              (0.1 S warm-up, 0.3 S measured, with `!reload` swapping A
//              and B on one connection), then 0.15 S of pipelined
//              saturation. Latency is timed from each request's scheduled
//              send time, so a stall also delays the requests behind it.
//              In a traced run, a serve run whose client sent more than
//              100 us late at p99 (median over the 9 slices) is invalid
//              and runs again on a fresh server, up to 8 times in all.
//
// With --trace 1 the same run then times calls into each module's public
// functions on the same data and model, reads the server's own metrics
// dump, and writes .bench_trace/<workload>/{trace.json,layers.json}.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics, or with --trace 1 the
// per-layer ones. Exits 1 when any correctness check fails, 2 on usage.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "layers.h"
#include "proc.h"
#include "spe/common/parallel.h"
#include "spe/common/parse.h"
#include "spe/data/mmap_cache.h"
#include "spe/data/simulated.h"
#include "spe/data/synthetic.h"
#include "spe/io/model_io.h"
#include "spe/metrics/metrics.h"
#include "spe/obs/trace.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/line_protocol.h"

namespace spe_bench {
namespace {

/// The workloads form a 2x2: the data axis decides which training layer
/// dominates, the protocol axis which serving layer does. Each mechanism
/// therefore has one workload that exercises it and one that bypasses it
/// with everything else held equal.
struct Workload {
  const char* name;
  bool credit;  // credit-fraud analogue (30 features, IR ~150, CSV parsed
                // every rep) vs 4x4 checkerboard (2 features, IR 10,
                // sidecar published in setup so loads are mmaps)
  bool binary;  // binary frames vs text lines at %.17g
  double rate;  // offered rows/s in the open loop: 10-15% of the server's
                // capacity, low enough that the one client keeps its
                // schedule while the shared host is slow (at twice these
                // rates it fell behind for minutes at a time)
};

constexpr Workload kWorkloads[] = {
    {"credit_cold_binary", true, true, 50000},
    {"credit_cold_text", true, false, 25000},
    {"checker_warm_binary", false, true, 50000},
    {"checker_warm_text", false, false, 50000},
};

constexpr double kCreditScale = 4.0;            // ~97k rows
constexpr std::size_t kCheckerMinority = 20000;  // |N| = 10 |P|
constexpr std::size_t kPoolRows = 8192;
constexpr int kSetupReps = 7;
constexpr int kMaxLateP99Us = 100;  // a serve run whose client sent later is invalid
constexpr int kServeAttempts = 8;
constexpr int kMembers = 10;  // SPE10, the paper's default ensemble size
constexpr const char* kCli = SPE_CLI_BIN;
constexpr const char* kServe = SPE_SERVE_BIN;
constexpr const char* kPeakRss = PEAK_RSS_BIN;  // see peak_rss.cc

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: spe_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke]\nworkloads:",
               message.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      if (!flags.emplace(arg.substr(2), argv[++i]).second) Usage("duplicate " + arg);
    } else {
      Usage("unexpected argument " + arg);
    }
  }
  for (const auto& [key, value] : flags) {
    if (key == "workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) Usage("unknown workload " + value);
    } else if (key == "seed") {
      const auto v = spe::ParseInt64(value);
      if (!v || *v < 0) Usage("--seed expects a non-negative integer");
      o.seed = static_cast<std::uint64_t>(*v);
    } else if (key == "seconds") {
      const auto v = spe::ParseFiniteDouble(value);
      if (!v || *v < 1 || *v > 60) Usage("--seconds expects a number in [1, 60]");
      o.seconds = *v;
    } else if (key == "trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      o.trace = value == "1";
    } else {
      Usage("unknown flag --" + key);
    }
  }
  if (o.workload == nullptr || flags.count("seed") == 0 || o.seconds == 0) {
    Usage("--workload, --seed and --seconds are required");
  }
  return o;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

spe::Dataset MakeData(const Options& o, std::uint64_t stream) {
  spe::Rng rng(Mix(o.seed, stream));
  if (o.workload->credit) {
    return spe::MakeCreditFraudSim(rng, o.smoke ? 0.5 : kCreditScale);
  }
  spe::CheckerboardConfig config;
  config.num_minority = o.smoke ? kCheckerMinority / 10 : kCheckerMinority;
  config.num_majority = 10 * config.num_minority;
  config.covariance = 0.1;
  return spe::MakeCheckerboard(config, rng);
}

/// Features then label, shortest round-trip decimals, so the parsed CSV
/// holds exactly the generated doubles.
bool WriteCsv(const spe::Dataset& data, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string buf;
  for (std::size_t j = 0; j < data.num_features(); ++j) {
    buf += 'f';
    buf += std::to_string(j);
    buf += ',';
  }
  buf += "label\n";
  std::vector<double> row(data.num_features());
  char num[32];
  bool ok = true;
  for (std::size_t i = 0; i < data.num_rows() && ok; ++i) {
    data.CopyRowTo(i, row);
    for (const double v : row) {
      buf.append(num, std::to_chars(num, num + sizeof(num), v).ptr);
      buf += ',';
    }
    buf += data.Label(i) == 1 ? "1\n" : "0\n";
    if (buf.size() > (1 << 20) || i + 1 == data.num_rows()) {
      ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
      buf.clear();
    }
  }
  return std::fclose(f) == 0 && ok;
}

/// "name value" lines of a metrics exposition (comments skipped).
std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> values;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t nl = text.find('\n', at);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(at, nl - at);
    at = nl + 1;
    const std::size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return values;
}

/// Upper bound of the histogram bucket holding quantile q.
double HistogramQuantile(const std::map<std::string, double>& values,
                         const std::string& name, double q) {
  const auto count = values.find(name + "_count");
  if (count == values.end() || count->second <= 0) return 0.0;
  const std::string prefix = name + "_bucket{le=\"";
  double best = 0.0;
  bool found = false;
  for (auto it = values.lower_bound(prefix);
       it != values.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    if (it->first.find("+Inf") != std::string::npos) continue;
    // Labels sort as strings, not numbers: keep the smallest bound whose
    // cumulative count reaches the quantile.
    const double le = std::strtod(it->first.c_str() + prefix.size(), nullptr);
    if (it->second >= q * count->second && (!found || le < best)) {
      best = le;
      found = true;
    }
  }
  return best;
}

double Get(const std::map<std::string, double>& values, const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

/// Median over the measured slices of each slice's q-quantile of `ns`,
/// in us: one slice disturbed by a neighbour's burst does not move it.
double SlicedQuantileUs(const std::vector<std::int64_t>& ns,
                        const std::vector<std::uint8_t>& slice, double q) {
  std::vector<std::vector<double>> by_slice(kClientSlices);
  for (std::size_t i = 0; i < ns.size(); ++i) {
    by_slice[slice[i]].push_back(static_cast<double>(ns[i]) / 1e3);
  }
  std::vector<double> per_slice;
  for (const auto& samples : by_slice) {
    if (!samples.empty()) per_slice.push_back(Percentile(samples, q));
  }
  return Median(per_slice);
}

class Runner {
 public:
  explicit Runner(const Options& o) : o_(o), w_(*o.workload), trace_(o.trace) {}

  int Run() {
    const std::filesystem::path work =
        std::filesystem::absolute(std::string(".bench_work/") + w_.name);
    RemoveTree(work.string());
    std::filesystem::create_directories(work);
    work_ = work.string();
    const int root = trace_.Begin(w_.name);
    const bool ok = Inputs(root) && Train(root) && Serve(root) && Layers(root);
    trace_.End(root);
    if (!ok && failed_ == 0) failed_ = 1;
    Report();
    RemoveTree(work_);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  bool Fail(const std::string& why) {
    std::fprintf(stderr, "spe_bench: %s: %s\n", w_.name, why.c_str());
    ++failed_;
    return false;
  }

  bool Inputs(int root) {
    const ScopedSpan span(trace_, "inputs", root);
    holdout_ = MakeData(o_, 2);
    d_ = holdout_.num_features();
    csv_ = work_ + "/train.csv";
    artifact_[0] = work_ + "/a.model";
    artifact_[1] = work_ + "/b.model";
    // The served pool is a strided sample of the held-out set, so it
    // mixes both classes the way the held-out stream does.
    plan_.pool_rows = std::min(o_.smoke ? kPoolRows / 16 : kPoolRows, holdout_.num_rows());
    const std::size_t stride = holdout_.num_rows() / plan_.pool_rows;
    pool_.resize(plan_.pool_rows * d_);
    text_rows_.resize(plan_.pool_rows);
    char num[40];
    for (std::size_t r = 0; r < plan_.pool_rows; ++r) {
      const std::span<double> row(pool_.data() + r * d_, d_);
      holdout_.CopyRowTo(r * stride, row);
      for (std::size_t j = 0; j < d_; ++j) {
        std::snprintf(num, sizeof(num), j + 1 < d_ ? "%.17g," : "%.17g\n", row[j]);
        text_rows_[r] += num;
      }
    }
    if (!WriteData(span.id())) return false;
    FlushWrites();
    return true;
  }

  /// Writes back this run's dirty pages (CSV, sidecars, artifacts)
  /// outside the timed sections, so the kernel's background writeback
  /// does not land in a later rep or in the serve phase.
  void FlushWrites() const {
    const int fd = open(work_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return;
    syncfs(fd);
    close(fd);
  }

  /// Generates the training set and writes it as the CSV the user would
  /// bring; on warm workloads it also publishes the sidecar the train
  /// reps load through mmap. The CSV parses back to exactly the generated
  /// values, so the sidecar is written from them: the parse itself is
  /// timed where the cold workloads pay it, in their train reps. Every
  /// call writes the same bytes.
  bool WriteData(int parent) {
    const ScopedSpan span(trace_, "setup.data", parent);
    train_ = MakeData(o_, 1);
    if (!WriteCsv(train_, csv_)) return Fail("cannot write " + csv_);
    if (!w_.credit && !spe::WriteSidecar(train_, csv_, d_)) {
      return Fail("cannot publish the sidecar of " + csv_);
    }
    return true;
  }

  /// One timed set-up rep: everything that precedes a measured phase.
  /// The data is made and written (and on warm workloads its sidecar
  /// published) and spe_serve is started on artifact A until it answers.
  /// The rep is timed as a whole, so work a change moves between these
  /// steps, or into them from a measured phase, shows in setup_s.
  bool SetupRep(int parent) {
    const ScopedSpan span(trace_, "setup.rep", parent);
    const std::int64_t t = NowNs();
    if (!WriteData(span.id()) || !StartServer(span.id())) return false;
    setup_s_.push_back(static_cast<double>(NowNs() - t) / 1e9);
    FlushWrites();
    if (!w_.credit && spe::InspectSidecar(csv_, d_).status != spe::SidecarStatus::kValid) {
      return Fail("sidecar was not published");
    }
    return StopServer("after start");
  }

  bool TrainRep(int parent, int artifact, bool measured) {
    const ScopedSpan span(trace_, measured ? "train.rep" : "train.warmup", parent);
    if (w_.credit) std::remove(spe::SidecarPathFor(csv_).c_str());
    const std::string seed = std::to_string(spe_seed_[artifact]);
    const std::string rss_path = work_ + "/spe_cli.rss";
    Child cli;
    ++attempted_;
    const std::int64_t t = NowNs();
    std::string error = cli.Start({kPeakRss, rss_path, kCli, "train", "--data", csv_, "--method",
                                   "SPE", "--base", "DT", "--n", std::to_string(kMembers),
                                   "--seed", seed, "--model", artifact_[artifact]},
                                  {"SPE_THREADS=2"}, work_ + "/spe_cli.log");
    if (error.empty() && !cli.Wait(120.0)) error = "spe_cli train timed out";
    const double wall = static_cast<double>(NowNs() - t) / 1e9;
    if (error.empty() && cli.exit_code() != 0) {
      error = "spe_cli train exited " + std::to_string(cli.exit_code());
    }
    std::string bytes, rss_kb;
    if (error.empty() && !ReadFile(artifact_[artifact], &bytes)) error = "no artifact";
    if (error.empty() && !artifact_bytes_[artifact].empty() &&
        bytes != artifact_bytes_[artifact]) {
      error = "artifact for seed " + seed + " changed between reps";
    }
    if (error.empty() && !ReadFile(rss_path, &rss_kb)) error = "no peak RSS for spe_cli";
    if (!error.empty()) return Fail(error);
    FlushWrites();
    artifact_bytes_[artifact] = std::move(bytes);
    if (measured) {
      train_s_.push_back(wall);
      train_rss_mb_.push_back(std::strtod(rss_kb.c_str(), nullptr) / 1024.0);
    }
    return true;
  }

  /// The train reps, with the timed set-up reps between them (the rest
  /// after the last): spread over the whole phase, the set-up median is
  /// not set by one slow second of the shared host.
  bool Train(int root) {
    const ScopedSpan span(trace_, "train", root);
    spe_seed_[0] = o_.seed % 1'000'000'007;
    spe_seed_[1] = spe_seed_[0] + 1'000'003;
    // The warm-up rep writes artifact A and the first measured rep B; a
    // set-up rep's spe_serve start is checked against A's truth.
    if (!TrainRep(span.id(), 0, false) || !TrainRep(span.id(), 1, true) || !Truth(span.id())) {
      return false;
    }
    int setup_reps = 0;
    const std::size_t min_reps = o_.smoke ? 2 : 4;
    const double budget_s = o_.smoke ? 0 : 0.45 * o_.seconds;
    const std::int64_t end = NowNs() + static_cast<std::int64_t>(budget_s * 1e9);
    for (int rep = 2; train_s_.size() < min_reps || (NowNs() < end && rep <= 64); ++rep) {
      if (setup_reps < kSetupReps) {
        if (!SetupRep(span.id())) return false;
        ++setup_reps;
      }
      if (!TrainRep(span.id(), rep % 2, true)) return false;
    }
    for (; setup_reps < kSetupReps; ++setup_reps) {
      if (!SetupRep(span.id())) return false;
    }
    return true;
  }

  /// In-process truth for every served row, from the same artifacts.
  bool Truth(int parent) {
    const ScopedSpan span(trace_, "truth", parent);
    spe::BatchScorerConfig config;
    config.num_workers = 2;
    const spe::DatasetView pool =
        spe::DatasetView::FromRows(pool_.data(), plan_.pool_rows, d_);
    spe::ServeRequest csv_request;
    csv_request.kind = spe::RequestKind::kScore;
    for (int a = 0; a < 2; ++a) {
      spe::BatchScorer scorer(spe::LoadClassifierFromFile(artifact_[a]), d_, config);
      if (a == 0) aucprc_ = spe::AucPrc(holdout_.labels(), scorer.ScoreBatch(holdout_));
      truth_.proba[a] = scorer.ScoreBatch(pool);
      for (const double p : truth_.proba[a]) {
        truth_.text[a].push_back(spe::FormatScoreResponse(csv_request, p));
      }
    }
    if (truth_.proba[0] == truth_.proba[1]) return Fail("artifacts A and B score alike");
    plan_.binary = w_.binary;
    plan_.num_features = d_;
    plan_.pool = &pool_;
    plan_.text_rows = &text_rows_;
    plan_.truth = &truth_;
    plan_.artifact_path[0] = artifact_[0];
    plan_.artifact_path[1] = artifact_[1];
    plan_.rate = o_.smoke ? w_.rate / 10 : w_.rate;
    plan_.warmup_s = o_.smoke ? 0.3 : 0.1 * o_.seconds;
    plan_.open_s = o_.smoke ? 1.0 : 0.3 * o_.seconds;
    plan_.sat_s = o_.smoke ? 0.5 : 0.15 * o_.seconds;
    plan_.reloads = o_.smoke ? 2 : static_cast<int>(plan_.open_s * 6.6 + 0.5);
    plan_.seed = Mix(o_.seed, 3);
    plan_.trace_every = o_.trace ? 1000 : 0;
    return true;
  }

  /// Starts spe_serve on artifact A and waits until it answers a request.
  bool StartServer(int parent) {
    const ScopedSpan span(trace_, "serve_start", parent);
    for (int attempt = 0; attempt < 3; ++attempt) {
      port_ = FreeLoopbackPort();
      ++attempted_;
      std::string error = server_.Start(
          {kServe, "--model", artifact_[0], "--port", std::to_string(port_),
           "--workers", "2", "--stats-interval-ms", "0", "--metrics-dump",
           work_ + "/metrics.txt"},
          {}, work_ + "/spe_serve.log");
      if (error.empty()) error = ProbeServer(port_, plan_, 15.0);
      if (error.empty()) return true;
      const bool port_taken = server_.Exited();
      server_.Signal(SIGKILL);
      server_.Wait(10.0);
      if (!port_taken) return Fail("spe_serve start: " + error);
      --attempted_;  // lost the port race: retry on another
    }
    return Fail("spe_serve could not bind a port");
  }

  bool StopServer(const char* why) {
    server_.Signal(SIGTERM);
    if (!server_.Wait(30.0)) return Fail(std::string("spe_serve did not drain ") + why);
    if (server_.exit_code() != 0) {
      return Fail("spe_serve exited " + std::to_string(server_.exit_code()));
    }
    return true;
  }

  bool Serve(int root) {
    // Latency is timed from the schedule, so a client that fell behind it
    // would charge its own delay to the server: a traced run, which
    // reports the latency, takes such a measurement again on a fresh
    // server. Lateness is judged like the latency it protects, as the
    // median over the slices of each slice's p99, so a stall confined to
    // a few slices, which the latency medians ignore, does not void the
    // run. Untraced runs report no serving timings, and the smoke run
    // checks correctness only, so their lateness is only logged.
    const bool gated = o_.trace && !o_.smoke;
    for (int attempt = 1;; ++attempt) {
      if (!StartServer(root) || !ServeOnce(root)) return false;
      late_p99_us_ = SlicedQuantileUs(client_.late_ns, client_.late_window, 0.99);
      if (!gated || late_p99_us_ <= kMaxLateP99Us) return true;
      std::fprintf(stderr, "spe_bench: %s: the client sent late (p99 %.1f us, limit %d us)\n",
                   w_.name, late_p99_us_, kMaxLateP99Us);
      if (attempt == kServeAttempts) {
        return Fail("the client sent late in all " + std::to_string(kServeAttempts) +
                    " serve attempts");
      }
    }
  }

  /// One open-loop + saturation run against the started server, then its
  /// drain and the server-side checks.
  bool ServeOnce(int root) {
    const ScopedSpan span(trace_, "serve", root);
    client_ = RunClient(port_, plan_);
    attempted_ += client_.score_sent + client_.reload_sent;
    failed_ += client_.failed;
    if (!client_.first_error.empty()) Fail(client_.first_error);
    for (const RequestSample& s : client_.samples) {
      trace_.Add("client.queue", s.due_ns, s.sent_ns, span.id(), 2, s.id);
      trace_.Add("client.wire+server", s.sent_ns, s.received_ns, span.id(), 2, s.id);
    }
    // Read before the drain: the process image goes away with the exit.
    serve_rss_mb_ = static_cast<double>(server_.PeakRssKb()) / 1024.0;
    if (!StopServer("after the run")) return false;
    if (serve_rss_mb_ <= 0) return Fail("no peak RSS for spe_serve");
    std::string dump;
    if (!ReadFile(work_ + "/metrics.txt", &dump)) return Fail("no metrics dump");
    server_metrics_ = ParseExposition(dump);
    const double served = Get(server_metrics_, "spe_serve_requests_total");
    if (served != static_cast<double>(client_.score_sent + 1)) {  // + the probe
      return Fail("server counted " + std::to_string(served) + " requests, client sent " +
                  std::to_string(client_.score_sent + 1));
    }
    if (client_.exposition.find("spe_serve_loop_wakeups_total") == std::string::npos) {
      return Fail("`!stats` returned no event-loop counters");
    }
    if (client_.latency_ns.empty() || client_.reload_ms.empty()) {
      return Fail("no measured requests or reloads");
    }
    return client_.failed == 0;
  }

  static std::vector<double> Us(const std::vector<std::int64_t>& ns) {
    std::vector<double> us(ns.size());
    for (std::size_t i = 0; i < ns.size(); ++i) us[i] = static_cast<double>(ns[i]) / 1e3;
    return us;
  }

  bool Layers(int root) {
    if (!o_.trace) return true;
    const ScopedSpan span(trace_, "layers", root);
    const double batches = Get(server_metrics_, "spe_serve_batches_total");
    const double batch_mean =
        batches > 0 ? Get(server_metrics_, "spe_serve_batch_rows_total") / batches : 0;
    LayerInputs in;
    in.train = &train_;
    in.csv_path = csv_;
    in.cold = w_.credit;
    in.artifact_a = artifact_[0];
    in.spe_seed = spe_seed_[0];
    in.spe_members = kMembers;
    in.fit_reps = o_.smoke ? 1 : 3;
    in.plan = &plan_;
    in.batch_rows_mean = batch_mean;
    in.scorer_seconds = o_.smoke ? 0.2 : 1.0;
    const std::string error = MeasureLayers(in, trace_, span.id(), layers_);
    if (!error.empty()) Fail(error);

    const auto find = [this](const char* name) {
      for (const Metric& m : layers_) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    const std::vector<double> lat = Us(client_.latency_ns);
    const double lat_p50 = SlicedQuantileUs(client_.latency_ns, client_.latency_window, 0.5);
    const double rtt = LoopbackRttUs(kClientConns, o_.smoke ? 50 : 500);
    const double parse_ns =
        find(w_.binary ? "serve.wire.decode_ns" : "serve.line.parse_ns");
    const double format_ns =
        find(w_.binary ? "serve.wire.encode_ns" : "serve.line.format_ns");
    const double over_10ms = static_cast<double>(std::count_if(
        lat.begin(), lat.end(), [](double us) { return us > 10'000; }));
    // The loop's counters leave the registry with the loop, before the
    // drain-time dump is written, so they come from the live `!stats`.
    const std::map<std::string, double> live = ParseExposition(client_.exposition);
    const Metrics more = {
        {"quality.aucprc", aucprc_, "1"},
        {"serve.rss_mb", serve_rss_mb_, "MB"},
        {"serve.batch_rows_mean", batch_mean, "rows"},
        {"serve.batch_fill", batch_mean / 256.0, "1"},
        {"serve.server_p50_us",
         HistogramQuantile(server_metrics_, "spe_serve_latency_us", 0.5), "us"},
        {"serve.server_p99_us",
         HistogramQuantile(server_metrics_, "spe_serve_latency_us", 0.99), "us"},
        {"serve.loop.wakeups_per_resp",
         Get(live, "spe_serve_loop_wakeups_total") /
             std::max(1.0, Get(live, "spe_serve_requests_total")),
         "1"},
        {"serve.loop.partial_writes", Get(live, "spe_serve_loop_partial_writes_total"),
         "count"},
        {"net.rtt_us", rtt, "us"},
        {"client.late_p99_us", late_p99_us_, "us"},
        {"client.p99_us", Percentile(lat, 0.99), "us"},
        {"client.p999_us", Percentile(lat, 0.999), "us"},
        {"client.max_us", *std::max_element(lat.begin(), lat.end()), "us"},
        {"client.over_10ms_frac", over_10ms / static_cast<double>(lat.size()), "1"},
        {"serve.unattributed_us",
         lat_p50 - (rtt + parse_ns / 1e3 + find("serve.scorer.p50_us") + format_ns / 1e3),
         "us"},
        {"proc.cli_overhead_ms",
         Median(train_s_) * 1e3 -
             (find("data.load_ms") + find("core.fit_ms") + find("io.save_ms")),
         "ms"},
    };
    layers_.insert(layers_.end(), more.begin(), more.end());
    return failed_ == 0;
  }

  void Report() {
    Metrics e2e;
    if (!setup_s_.empty()) e2e.push_back({"setup_s", Median(setup_s_), "s"});
    if (!train_rss_mb_.empty()) e2e.push_back({"train_rss_mb", Median(train_rss_mb_), "MB"});
    // The user-facing timings all move by 10-20% together when the shared
    // host slows down, past the 10% bound of an end-to-end metric, so they
    // are reported with the per-layer metrics of the traced run.
    if (o_.trace && !train_s_.empty()) layers_.push_back({"train_s", Median(train_s_), "s"});
    if (o_.trace && !client_.latency_ns.empty()) {
      std::vector<double> sat;
      for (const std::uint64_t rows : client_.sat_window_rows) {
        sat.push_back(static_cast<double>(rows) * kClientSlices / plan_.sat_s);
      }
      const Metrics timing = {
          {"lat_p50_us", SlicedQuantileUs(client_.latency_ns, client_.latency_window, 0.5), "us"},
          {"lat_p90_us", SlicedQuantileUs(client_.latency_ns, client_.latency_window, 0.9), "us"},
          {"sat_rows_per_s", Median(sat), "rows/s"},
          {"reload_p50_ms", Median(client_.reload_ms), "ms"},
      };
      layers_.insert(layers_.end(), timing.begin(), timing.end());
    }
    if (o_.trace) {
      const std::string dir = std::string(".bench_trace/") + w_.name;
      std::filesystem::create_directories(dir);
      WriteFile(dir + "/trace.json", trace_.ToChromeJson());
      std::string layers = "{\"workload\":\"" + std::string(w_.name) +
                           "\",\"seed\":" + std::to_string(o_.seed) +
                           ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                           ",\"metrics\":" + MetricsJson(layers_) +
                           ",\"end_to_end\":" + MetricsJson(e2e) +
                           ",\"library_spans\":" + spe::obs::SpanSummariesJson() + "}\n";
      WriteFile(dir + "/layers.json", layers);
    }
    std::fprintf(stderr,
                 "spe_bench: %s seed %llu: %llu attempted, %llu failed, client late p99 %.1f us\n",
                 w_.name, static_cast<unsigned long long>(o_.seed),
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_), late_p99_us_);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
                static_cast<unsigned long long>(failed_),
                MetricsJson(o_.trace ? layers_ : e2e).c_str());
    std::fflush(stdout);
  }

  static std::string MetricsJson(const Metrics& metrics) {
    std::string out = "{";
    char value[64];
    for (const Metric& m : metrics) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      if (out.size() > 1) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

  const Options& o_;
  const Workload& w_;
  TraceLog trace_;
  std::string work_;
  std::string csv_;
  std::string artifact_[2];
  std::string artifact_bytes_[2];
  std::uint64_t spe_seed_[2] = {0, 0};
  std::size_t d_ = 0;
  spe::Dataset train_;
  spe::Dataset holdout_;
  std::vector<double> pool_;
  std::vector<std::string> text_rows_;
  ServeTruth truth_;
  ClientPlan plan_;
  Child server_;
  int port_ = 0;
  ClientResult client_;
  std::map<std::string, double> server_metrics_;
  std::vector<double> setup_s_, train_s_, train_rss_mb_;
  double aucprc_ = 0.0;
  double serve_rss_mb_ = 0.0;
  double late_p99_us_ = 0.0;
  Metrics layers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace
}  // namespace spe_bench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const spe_bench::Options options = spe_bench::ParseOptions(argc, argv);
  // The in-process work (truth, per-layer calls) gets the same two
  // threads the trainer and the server's workers use.
  spe::SetNumThreads(2);
  spe_bench::Runner runner(options);
  return runner.Run();
}
