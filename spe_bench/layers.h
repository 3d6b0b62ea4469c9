#ifndef SPE_BENCH_LAYERS_H_
#define SPE_BENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "client.h"
#include "proc.h"
#include "spe/data/dataset.h"

namespace spe_bench {

/// One reported number: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// In-memory span recorder for traced runs, written out at the end as
/// Chrome trace-event JSON (Perfetto and chrome://tracing open it). Spans
/// carry their parent's id; a disabled log records nothing.
class TraceLog {
 public:
  explicit TraceLog(bool enabled) : enabled_(enabled), epoch_ns_(NowNs()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int Begin(const char* name, int parent = -1);
  void End(int id);

  /// Records a finished span on lane `tid`; `request_id` (when nonzero)
  /// ties the client-side spans of one request together.
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, int tid, std::uint64_t request_id = 0);

  std::string ToChromeJson() const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int tid;
    std::uint64_t request_id;
  };
  const bool enabled_;
  const std::int64_t epoch_ns_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(TraceLog& log, const char* name, int parent = -1)
      : log_(log), id_(log.Begin(name, parent)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  TraceLog& log_;
  const int id_;
};

/// Everything the per-layer calls run on: the workload's own data, model
/// and traffic shape.
struct LayerInputs {
  const spe::Dataset* train = nullptr;
  std::string csv_path;
  bool cold = false;                  // sidecar deleted before each load
  std::string artifact_a;             // spe_cli's artifact for spe_seed
  std::uint64_t spe_seed = 0;
  std::size_t spe_members = 0;
  std::size_t fit_reps = 3;
  const ClientPlan* plan = nullptr;   // pool, text rows, offered rate
  double batch_rows_mean = 1.0;       // mean server batch of the run
  double scorer_seconds = 1.0;        // in-process BatchScorer drive
};

/// Times calls into each module's public functions on the workload's
/// data and model and appends the per-layer metrics (data.*, core.*,
/// classifiers.*, kernels.*, io.*, lifecycle.*, serve.wire.*,
/// serve.line.*, serve.scorer.*, spe.fit.*). Returns "" or the first
/// correctness failure (the in-process fit must reproduce spe_cli's
/// artifact byte for byte).
std::string MeasureLayers(const LayerInputs& in, TraceLog& trace, int parent,
                          Metrics& out);

/// Median / percentile helpers over a copy of the samples.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace spe_bench

#endif  // SPE_BENCH_LAYERS_H_
