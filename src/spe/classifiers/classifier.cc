#include "spe/classifiers/classifier.h"

#include <algorithm>
#include <mutex>

#include "spe/common/check.h"
#include "spe/common/parallel.h"
#include "spe/kernels/flat_forest.h"

namespace spe {
namespace {

// Rows per worker below which batch scoring stays serial: per-row
// prediction is cheap for most models, and serving-sized batches
// (hundreds of rows) must not pay fan-out latency on the hot path.
constexpr std::size_t kScoreGrain = 256;

}  // namespace

namespace internal {

// Lazily-compiled flat-inference program for a VotingEnsemble. Held
// behind a unique_ptr so VotingEnsemble stays movable (the mutex is
// not); a moved-from ensemble simply has no cache until the next Add.
struct FlatKernelCache {
  std::mutex mu;
  bool attempted = false;  // guarded by mu; avoids re-failing compiles
  std::unique_ptr<const kernels::FlatForest> forest;  // guarded by mu
};

}  // namespace internal

Classifier::~Classifier() = default;

void Classifier::FitWeighted(const DatasetView& /*train*/,
                             const std::vector<double>& /*weights*/) {
  SPE_CHECK(false) << Name() << " does not support sample weights";
}

double Classifier::PredictViewRow(const DatasetView& data,
                                  std::size_t row) const {
  // Row-major views (the serve batch path) already hold a contiguous
  // row — feed it straight through.
  if (data.row_major()) {
    return PredictRow(
        {data.rows_data() + row * data.num_features(), data.num_features()});
  }
  // Columnar views: gather into per-thread scratch. Same values in the
  // same order as the historical contiguous-row call, so bit-identical.
  thread_local std::vector<double> scratch;
  const std::size_t d = data.num_features();
  scratch.resize(d);
  for (std::size_t j = 0; j < d; ++j) scratch[j] = data.At(row, j);
  return PredictRow(scratch);
}

std::vector<double> Classifier::PredictProba(const DatasetView& data) const {
  data.CheckAlive();
  std::vector<double> out(data.num_rows());
  // Each row writes only its own slot, so chunking cannot change the
  // result: PredictProba is bit-identical for any SPE_THREADS.
  ParallelForGrain(0, data.num_rows(), kScoreGrain,
                   [&](std::size_t i) { out[i] = PredictViewRow(data, i); });
  return out;
}

void Classifier::AccumulateProbaInto(const DatasetView& data,
                                     std::span<double> acc) const {
  data.CheckAlive();
  SPE_CHECK_EQ(acc.size(), data.num_rows());
  // Fused form of PredictProba-then-add: each element receives exactly
  // one addition of the same PredictViewRow value the reference computed
  // into a temporary, so the accumulated bits are identical and the
  // per-member vector is gone.
  ParallelForGrain(0, data.num_rows(), kScoreGrain,
                   [&](std::size_t i) { acc[i] += PredictViewRow(data, i); });
}

void Classifier::AccumulateViaPredictProba(const DatasetView& data,
                                           std::span<double> acc) const {
  SPE_CHECK_EQ(acc.size(), data.num_rows());
  const std::vector<double> p = PredictProba(data);
  for (std::size_t i = 0; i < p.size(); ++i) acc[i] += p[i];
}

VotingEnsemble::VotingEnsemble()
    : flat_cache_(std::make_unique<internal::FlatKernelCache>()) {}

VotingEnsemble::~VotingEnsemble() = default;
VotingEnsemble::VotingEnsemble(VotingEnsemble&& other) noexcept = default;
VotingEnsemble& VotingEnsemble::operator=(VotingEnsemble&& other) noexcept =
    default;

void VotingEnsemble::Add(std::unique_ptr<Classifier> member) {
  SPE_CHECK(member != nullptr);
  members_.push_back(std::move(member));
  InvalidateFlatKernel();
}

void VotingEnsemble::Truncate(std::size_t size) {
  if (size < members_.size()) {
    members_.resize(size);
    InvalidateFlatKernel();
  }
}

void VotingEnsemble::InvalidateFlatKernel() {
  if (flat_cache_ == nullptr) {  // moved-from ensemble being reused
    flat_cache_ = std::make_unique<internal::FlatKernelCache>();
    return;
  }
  const std::lock_guard<std::mutex> lock(flat_cache_->mu);
  flat_cache_->attempted = false;
  flat_cache_->forest.reset();
}

const kernels::FlatForest* VotingEnsemble::flat_kernel() const {
  if (!kernels::FlatKernelEnabled() || flat_cache_ == nullptr ||
      members_.empty()) {
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(flat_cache_->mu);
  if (!flat_cache_->attempted) {
    flat_cache_->attempted = true;
    flat_cache_->forest = kernels::FlatForest::Compile(*this);
  }
  return flat_cache_->forest.get();
}

std::vector<double> VotingEnsemble::PredictProba(const DatasetView& data) const {
  return PredictProbaPrefix(data, members_.size());
}

std::vector<double> VotingEnsemble::PredictProbaPrefix(const DatasetView& data,
                                                       std::size_t k) const {
  std::vector<double> out(data.num_rows());
  PredictProbaPrefixInto(data, k, out);
  return out;
}

void VotingEnsemble::PredictProbaPrefixInto(const DatasetView& data,
                                            std::size_t k,
                                            std::span<double> sum) const {
  SPE_CHECK(!members_.empty());
  SPE_CHECK_GT(k, 0u);
  data.CheckAlive();
  SPE_CHECK_EQ(sum.size(), data.num_rows());
  const std::size_t n = k < members_.size() ? k : members_.size();
  // Fast path: every member lowered into the flat kernel, which
  // replays the reduction below — members in index order, one final
  // multiply by 1/n — with blocked SoA tree walks instead of per-row
  // pointer chasing. Bits are identical either way.
  if (const kernels::FlatForest* flat = flat_kernel()) {
    flat->PredictPrefixInto(data, n, sum);
    return;
  }
  std::fill(sum.begin(), sum.end(), 0.0);
  // Determinism contract: the reduction visits members in index order,
  // so each element accumulates contributions in one fixed sequence and
  // the float result is bit-identical for any thread count. Parallelism
  // lives inside each member's row-chunked accumulation. Members add
  // directly into `sum` — one allocation per batch, not per member.
  for (std::size_t m = 0; m < n; ++m) {
    members_[m]->AccumulateProbaInto(data, sum);
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (double& v : sum) v *= inv;
}

double VotingEnsemble::PredictRow(std::span<const double> x) const {
  SPE_CHECK(!members_.empty());
  double sum = 0.0;
  for (const auto& m : members_) sum += m->PredictRow(x);
  return sum / static_cast<double>(members_.size());
}

double VotingClassifier::PredictRow(std::span<const double> x) const {
  return ensemble_.PredictRow(x);
}

std::vector<double> VotingClassifier::PredictProba(
    const DatasetView& data) const {
  return ensemble_.PredictProba(data);
}

void VotingClassifier::AccumulateProbaInto(const DatasetView& data,
                                           std::span<double> acc) const {
  AccumulateViaPredictProba(data, acc);
}

std::vector<double> VotingClassifier::PredictProbaPrefix(
    const DatasetView& data, std::size_t k) const {
  return ensemble_.PredictProbaPrefix(data, k);
}

bool VotingClassifier::LowerToFlat(kernels::FlatProgram& program,
                                   kernels::MemberOp& op) const {
  return kernels::FlatForest::LowerEnsemble(ensemble_, program, op);
}

}  // namespace spe
