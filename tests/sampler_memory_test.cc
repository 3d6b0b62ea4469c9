// Heap guards for self-paced training: counts of live heap bytes, not
// timings. This executable replaces the global operator new/delete with
// a counting pair, so the peak of live bytes during one call is exact
// and the same on every machine.
//
// SelfPacedUnderSample: the documented bound is 4 bytes per majority
// sample (its one uint32 table) plus O(target + bins), the returned
// vector included. The guard allows 4n + 16·target + 64 KiB; per-sample
// size_t scaffolds (bin-of-sample array, per-bin member lists, per-bin
// size_t draw pools) cost about 24 bytes per sample and fail it.
//
// SelfPacedEnsemble::Fit: the whole fit's peak above the loaded data, in
// bytes per majority row (see the case below).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "spe/common/rng.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/core/self_paced_sampler.h"
#include "spe/data/synthetic.h"

namespace {

std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

// Each block carries its requested size in a header of max_align_t
// bytes, so every delete form (sized or not) releases exactly what its
// new counted and the returned pointer keeps new's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* CountedAlloc(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  std::memcpy(raw, &size, sizeof(size));
  const std::size_t live = g_live_bytes.fetch_add(size) + size;
  std::size_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, raw, sizeof(size));
  g_live_bytes.fetch_sub(size);
  std::free(raw);
}

/// Live bytes now; restarts the peak from here.
std::size_t ResetPeak() {
  const std::size_t live = g_live_bytes.load();
  g_peak_bytes.store(live);
  return live;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace spe {
namespace {

constexpr std::size_t kRows = 200000;
constexpr std::size_t kBins = 20;
constexpr std::size_t kTarget = 20000;
constexpr std::size_t kBoundBytes = 4 * kRows + 16 * kTarget + 64 * 1024;

/// Peak live heap bytes above the starting point during one call. A
/// tiny call first creates the process-wide state a first call builds
/// lazily (the trace ring of the sampler's TraceSpan), which is not
/// per-call scratch.
std::size_t PeakScratchOfOneCall(const std::vector<double>& hardness,
                                 double alpha) {
  Rng rng(11);
  (void)SelfPacedUnderSample(std::vector<double>{0.0, 0.5, 1.0}, alpha,
                             kBins, 1, rng);
  const std::size_t before = ResetPeak();
  const std::vector<std::size_t> pick =
      SelfPacedUnderSample(hardness, alpha, kBins, kTarget, rng);
  const std::size_t peak = g_peak_bytes.load();
  EXPECT_EQ(pick.size(), kTarget);
  return peak - before;
}

TEST(SamplerMemoryTest, CounterSeesHeapBlocks) {
  const std::size_t before = ResetPeak();
  {
    std::vector<std::uint32_t> block(kRows);
    EXPECT_EQ(g_live_bytes.load() - before, kRows * sizeof(std::uint32_t));
  }
  EXPECT_EQ(g_live_bytes.load(), before);
  EXPECT_EQ(g_peak_bytes.load() - before, kRows * sizeof(std::uint32_t));
}

// The paper's regime: most majority samples are already easy, so one
// bin holds ~90% of them and the harmonized draw takes few from it.
TEST(SamplerMemoryTest, SkewedHardnessStaysWithinFourBytesPerRow) {
  Rng gen(3);
  std::vector<double> hardness(kRows);
  for (double& h : hardness) {
    h = gen.Uniform() < 0.9 ? gen.Uniform(0.0, 0.1) : gen.Uniform(0.1, 1.0);
  }
  for (const double alpha : {0.0, 0.5, 1e9}) {
    const std::size_t scratch = PeakScratchOfOneCall(hardness, alpha);
    EXPECT_LE(scratch, kBoundBytes)
        << "alpha " << alpha << ": " << scratch << " B is "
        << static_cast<double>(scratch) / kRows << " B per majority row";
  }
}

// All-trivial hardness at alpha = 0 takes the random fallback, which
// draws through the same table.
TEST(SamplerMemoryTest, RandomFallbackStaysWithinFourBytesPerRow) {
  const std::vector<double> hardness(kRows, 0.0);
  const std::size_t scratch = PeakScratchOfOneCall(hardness, 0.0);
  EXPECT_LE(scratch, kBoundBytes)
      << scratch << " B is " << static_cast<double>(scratch) / kRows
      << " B per majority row";
}

// The fit's peak live heap above the loaded data, per majority row, on
// the paper's checkerboard at IR 10 with SPE's default DT base. The
// peak falls inside a member fit, where the loop's per-majority-row
// state (the running probability sum and the majority index, 16 B) is
// live beside the tree's split scratch over the 2|P| subset (4d + 9 B
// per fitted row). A stored |N|-sized hardness vector (+8 B per row) or
// the per-node sort's 40 B per fitted row (+4 B per majority row here)
// each break the bound.
TEST(SamplerMemoryTest, SelfPacedFitStaysWithin32BytesPerMajorityRow) {
  CheckerboardConfig checker;
  checker.num_minority = 20000;
  checker.num_majority = 200000;
  Rng gen(5);
  const Dataset data = MakeCheckerboard(checker, gen);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  // A tiny fit first creates the process-wide state a first fit builds
  // lazily (trace ring, worker pool), which is not per-row.
  {
    CheckerboardConfig tiny = checker;
    tiny.num_minority = 20;
    tiny.num_majority = 200;
    SelfPacedEnsemble warm_up(config);
    warm_up.Fit(MakeCheckerboard(tiny, gen));
  }
  const std::size_t before = ResetPeak();
  SelfPacedEnsemble model(config);
  model.Fit(data);
  const double per_row = static_cast<double>(g_peak_bytes.load() - before) /
                         static_cast<double>(checker.num_majority);
  EXPECT_LE(per_row, 32.0) << per_row << " B per majority row";
  EXPECT_EQ(model.NumMembers(), 10u);
}

}  // namespace
}  // namespace spe
