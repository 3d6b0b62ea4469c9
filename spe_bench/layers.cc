#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "spe/classifiers/factory.h"
#include "spe/core/hardness.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/core/self_paced_sampler.h"
#include "spe/data/mmap_cache.h"
#include "spe/io/model_io.h"
#include "spe/lifecycle/model_registry.h"
#include "spe/obs/trace.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/line_protocol.h"
#include "spe/serve/wire.h"

namespace spe_bench {

int TraceLog::Begin(const char* name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowNs(), 0, parent, 0, 0});
  return static_cast<int>(spans_.size()) - 1;
}

void TraceLog::End(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

void TraceLog::Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   int parent, int tid, std::uint64_t request_id) {
  if (enabled_) spans_.push_back({name, start_ns, end_ns, parent, tid, request_id});
}

std::string TraceLog::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d",
                  i == 0 ? "" : ",\n", s.name, s.tid,
                  static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                  static_cast<double>(std::max<std::int64_t>(s.end_ns - s.start_ns, 0)) / 1e3,
                  i, s.parent);
    out += buf;
    if (s.request_id != 0) out += ",\"request\":" + std::to_string(s.request_id);
    out += "}}";
  }
  out += "]}\n";
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

namespace {

double MsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Median wall time of `reps` calls of `fn`, in ms.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t = NowNs();
    fn();
    ms.push_back(MsSince(t));
  }
  return Median(ms);
}

// Results of timed calls feed this sink so the calls cannot be elided.
volatile std::size_t g_sink = 0;

double SpanTotalMs(const std::map<std::string, spe::obs::SpanStats>& before,
                   const std::map<std::string, spe::obs::SpanStats>& after,
                   const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0.0;
  const auto b = before.find(name);
  const std::uint64_t base = b == before.end() ? 0 : b->second.total_us;
  return static_cast<double>(a->second.total_us - base) / 1e3;
}

/// In-process BatchScorer at the workload's offered rate: submit ->
/// callback latency, the scorer's share of the client's latency. Its
/// answers must equal the served truth too.
std::string MeasureScorer(const LayerInputs& in, Metrics& out) {
  const ClientPlan& plan = *in.plan;
  spe::BatchScorerConfig config;
  config.num_workers = 2;
  spe::BatchScorer scorer(spe::LoadClassifierFromFile(in.artifact_a),
                          plan.num_features, config);
  const auto n = static_cast<std::size_t>(plan.rate * in.scorer_seconds);
  std::vector<std::int64_t> submitted(n), done(n);
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> errors{0};
  std::mt19937_64 rng(plan.seed ^ 0x5c0e);
  std::exponential_distribution<double> gap_s(plan.rate);
  double due = static_cast<double>(NowNs());
  for (std::size_t i = 0; i < n; ++i) {
    due += gap_s(rng) * 1e9;
    while (static_cast<double>(NowNs()) < due) {
    }
    const double* row = plan.pool->data() + (i % plan.pool_rows) * plan.num_features;
    std::vector<double> features(row, row + plan.num_features);
    submitted[i] = NowNs();
    scorer.SubmitCallback(
        std::move(features), spe::BatchScorer::kNoDeadline,
        [&done, &completed, &errors, &plan, i](spe::ScoreResult result,
                                               std::exception_ptr error,
                                               std::vector<double>) {
          done[i] = NowNs();
          const double truth = plan.truth->proba[0][i % plan.pool_rows];
          if (error || std::memcmp(&result.proba, &truth, sizeof(truth)) != 0) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          completed.fetch_add(1, std::memory_order_release);
        });
  }
  while (completed.load(std::memory_order_acquire) < n) std::this_thread::yield();
  scorer.Shutdown();
  std::vector<double> us(n);
  for (std::size_t i = 0; i < n; ++i) {
    us[i] = static_cast<double>(done[i] - submitted[i]) / 1e3;
  }
  out.push_back({"serve.scorer.p50_us", Percentile(us, 0.5), "us"});
  out.push_back({"serve.scorer.p90_us", Percentile(us, 0.9), "us"});
  const std::size_t wrong = errors.load();
  return wrong == 0 ? "" : "in-process scorer got " + std::to_string(wrong) + " wrong answers";
}

}  // namespace

std::string MeasureLayers(const LayerInputs& in, TraceLog& trace, int parent,
                          Metrics& out) {
  const spe::Dataset& train = *in.train;
  const ClientPlan& plan = *in.plan;
  const std::size_t d = train.num_features();
  std::string error;

  // ---- data: LoadCsvCached in the workload's cache state -------------
  {
    const ScopedSpan span(trace, "layer.data", parent);
    std::vector<double> ms;
    int hits = 0;
    for (int r = 0; r < 3; ++r) {
      if (in.cold) std::remove(spe::SidecarPathFor(in.csv_path).c_str());
      hits += spe::InspectSidecar(in.csv_path, d).status == spe::SidecarStatus::kValid;
      const ScopedSpan call(trace, "data.LoadCsvCached", span.id());
      const std::int64_t t = NowNs();
      const spe::Dataset loaded = spe::LoadCsvCached(in.csv_path, d);
      ms.push_back(MsSince(t));
      if (loaded.num_rows() != train.num_rows()) error = "CSV reload lost rows";
    }
    out.push_back({"data.load_ms", Median(ms), "ms"});
    out.push_back({"data.sidecar_hit", hits / 3.0, "1"});
    out.push_back({"data.input_mb", static_cast<double>(FileSize(in.csv_path)) / 1e6, "MB"});
  }

  // ---- core: the self-paced fit, with the library's own span totals --
  std::unique_ptr<spe::SelfPacedEnsemble> fitted;
  {
    const ScopedSpan span(trace, "layer.core", parent);
    const auto before = spe::obs::SpanAggregates();
    std::vector<double> fit_ms;
    std::vector<double> iter_ms;
    for (std::size_t r = 0; r < in.fit_reps; ++r) {
      spe::SelfPacedEnsembleConfig config;
      config.n_estimators = in.spe_members;
      config.seed = in.spe_seed;
      auto model = std::make_unique<spe::SelfPacedEnsemble>(
          config, spe::MakeClassifier("DT", in.spe_seed));
      std::vector<std::int64_t> marks;
      model->set_iteration_callback(
          [&marks](const spe::IterationInfo&) { marks.push_back(NowNs()); });
      const ScopedSpan call(trace, "core.SelfPacedEnsemble::Fit", span.id());
      const std::int64_t t = NowNs();
      model->Fit(train);
      fit_ms.push_back(MsSince(t));
      for (std::size_t i = 1; i < marks.size(); ++i) {
        iter_ms.push_back(static_cast<double>(marks[i] - marks[i - 1]) / 1e6);
      }
      fitted = std::move(model);
    }
    const auto after = spe::obs::SpanAggregates();
    const double reps = static_cast<double>(in.fit_reps);
    double mean_fit = 0.0;
    for (const double ms : fit_ms) mean_fit += ms / reps;
    out.push_back({"core.fit_ms", Median(fit_ms), "ms"});
    out.push_back({"core.iter_ms_p50", Median(iter_ms), "ms"});
    // Span totals copied from the library's obs aggregates, per fit. The
    // top-level ones partition the fit; bin_harmonize nests inside
    // under_sample.
    double attributed = 0.0;
    for (const char* name : {"member_fit", "member_predict", "hardness",
                             "under_sample", "hardness_baseline"}) {
      const double ms = SpanTotalMs(before, after, std::string("spe.fit.") + name) / reps;
      attributed += ms;
      out.push_back({std::string("spe.fit.") + name + "_ms", ms, "ms"});
    }
    out.push_back({"spe.fit.bin_harmonize_ms",
                   SpanTotalMs(before, after, "spe.fit.bin_harmonize") / reps, "ms"});
    out.push_back({"spe.fit.unattributed_ms", mean_fit - attributed, "ms"});
  }

  // ---- io: the in-process fit must reproduce spe_cli's artifact -------
  const std::string probe_path = in.artifact_a + ".layers";
  {
    const ScopedSpan span(trace, "layer.io", parent);
    out.push_back({"io.save_ms", MedianMs(5, [&] {
                     spe::SaveModelBundleToFile(*fitted, d, probe_path);
                   }),
                   "ms"});
    std::string mine, cli;
    if (!ReadFile(probe_path, &mine) || !ReadFile(in.artifact_a, &cli) || mine != cli) {
      error = "in-process fit differs from the spe_cli artifact";
    }
    out.push_back({"io.load_ms", MedianMs(5, [&] {
                     g_sink = g_sink + spe::LoadModelBundleFromFile(probe_path).num_features;
                   }),
                   "ms"});
    out.push_back({"io.bundle_kb", static_cast<double>(mine.size()) / 1024.0, "KiB"});
  }

  // ---- core pieces, classifiers and kernels on the majority set ------
  {
    const ScopedSpan span(trace, "layer.kernels", parent);
    const std::vector<std::size_t> pos = train.PositiveIndices();
    const std::vector<std::size_t> neg = train.NegativeIndices();
    const spe::DatasetView majority(train, neg);
    std::vector<double> probs;
    const double predict_ms = MedianMs(3, [&] { probs = fitted->PredictProba(majority); });
    out.push_back({"kernels.fit_predict_ns_per_row",
                   predict_ms * 1e6 / static_cast<double>(neg.size()), "ns"});

    const spe::HardnessFn fn = spe::MakeHardness(spe::HardnessKind::kAbsoluteError);
    const std::vector<int> zeros(neg.size(), 0);
    std::vector<double> hardness;
    out.push_back({"core.hardness_ms", MedianMs(5, [&] {
                     hardness = spe::ComputeHardness(fn, probs, zeros);
                   }),
                   "ms"});
    out.push_back({"core.bins_ms", MedianMs(5, [&] {
                     g_sink = g_sink + spe::ComputeHardnessBins(hardness, 20).population.size();
                   }),
                   "ms"});
    const double alpha = spe::SelfPacedEnsemble::AlphaAt(
        spe::AlphaSchedule::kTan, in.spe_members / 2, in.spe_members);
    spe::Rng rng(in.spe_seed);
    out.push_back({"core.under_sample_ms", MedianMs(5, [&] {
                     g_sink = g_sink + spe::SelfPacedUnderSample(hardness, alpha, 20,
                                                                 pos.size(), rng)
                                           .size();
                   }),
                   "ms"});

    std::vector<std::size_t> balanced = pos;
    for (const std::size_t i : rng.SampleWithoutReplacement(neg.size(), pos.size())) {
      balanced.push_back(neg[i]);
    }
    const spe::DatasetView subset(train, balanced);
    out.push_back({"classifiers.member_fit_ms", MedianMs(5, [&] {
                     spe::MakeClassifier("DT", in.spe_seed)->Fit(subset);
                   }),
                   "ms"});

    const auto served = spe::LoadClassifierFromFile(in.artifact_a);
    const auto rows = static_cast<std::size_t>(
        std::clamp(in.batch_rows_mean + 0.5, 1.0, static_cast<double>(plan.pool_rows)));
    const spe::DatasetView block =
        spe::DatasetView::FromRows(plan.pool->data(), rows, plan.num_features);
    std::vector<double> us;
    for (int r = 0; r < 200; ++r) {
      const std::int64_t t = NowNs();
      g_sink = g_sink + served->PredictProba(block).size();
      us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    }
    out.push_back({"kernels.batch_us", Median(us), "us"});
  }

  // ---- lifecycle: what a reload does on the server -------------------
  {
    const ScopedSpan span(trace, "layer.lifecycle", parent);
    spe::lifecycle::ModelRegistry registry;
    std::shared_ptr<const spe::lifecycle::ModelVersion> versions[2];
    std::vector<double> load_ms;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t t = NowNs();
      auto loaded = registry.LoadFromFile(in.artifact_a);
      load_ms.push_back(MsSince(t));
      if (!loaded.ok()) error = "registry refused the artifact: " + loaded.error;
      versions[r % 2] = loaded.version;
    }
    std::vector<double> activate_us;
    for (int r = 0; r < 50 && versions[1] != nullptr; ++r) {
      const std::int64_t t = NowNs();
      g_sink = g_sink + registry.Activate(versions[r % 2]).size();
      activate_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    }
    out.push_back({"lifecycle.load_ms", Median(load_ms), "ms"});
    out.push_back({"lifecycle.activate_us", Median(activate_us), "us"});
  }

  // ---- serve.wire and serve.line_protocol, per row ------------------
  {
    const ScopedSpan span(trace, "layer.protocols", parent);
    const std::size_t n = plan.pool_rows;
    const auto per_row_ns = [n](double ms) { return ms * 1e6 / static_cast<double>(n); };
    std::string frames;
    for (std::size_t r = 0; r < n; ++r) {
      spe::wire::AppendScoreRequest(frames, r + 1, plan.pool->data() + r * plan.num_features,
                                    plan.num_features);
    }
    std::vector<double> features;
    out.push_back({"serve.wire.decode_ns", per_row_ns(MedianMs(5, [&] {
                     const auto* at = reinterpret_cast<const unsigned char*>(frames.data());
                     for (std::size_t r = 0; r < n; ++r) {
                       const spe::wire::FrameHeader h = spe::wire::DecodeHeader(at);
                       spe::wire::ScoreFrame frame;
                       g_sink = g_sink + spe::wire::DecodeScorePayload(
                                             h, at + spe::wire::kHeaderBytes, frame, features)
                                             .size();
                       at += spe::wire::kHeaderBytes + h.payload_len;
                     }
                   })),
                   "ns"});
    std::string responses;
    out.push_back({"serve.wire.encode_ns", per_row_ns(MedianMs(5, [&] {
                     responses.clear();
                     for (std::size_t r = 0; r < n; ++r) {
                       spe::wire::AppendScoreResponse(responses, r + 1,
                                                      plan.truth->proba[0][r], false);
                     }
                   })),
                   "ns"});
    out.push_back({"serve.line.parse_ns", per_row_ns(MedianMs(5, [&] {
                     for (std::size_t r = 0; r < n; ++r) {
                       std::string_view line = (*plan.text_rows)[r];
                       line.remove_suffix(1);  // '\n'
                       g_sink = g_sink + spe::ParseRequestLine(line).features.size();
                     }
                   })),
                   "ns"});
    spe::ServeRequest csv_request;
    csv_request.kind = spe::RequestKind::kScore;
    out.push_back({"serve.line.format_ns", per_row_ns(MedianMs(5, [&] {
                     for (std::size_t r = 0; r < n; ++r) {
                       g_sink = g_sink + spe::FormatScoreResponse(csv_request,
                                                                  plan.truth->proba[0][r])
                                             .size();
                     }
                   })),
                   "ns"});
  }

  {
    const ScopedSpan span(trace, "layer.batch_scorer", parent);
    const std::string scorer_error = MeasureScorer(in, out);
    if (error.empty()) error = scorer_error;
  }
  std::remove(probe_path.c_str());
  return error;
}

}  // namespace spe_bench
