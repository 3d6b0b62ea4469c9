// Scratch-memory guard for SelfPacedUnderSample: a count of live heap
// bytes, not a timing. This executable replaces the global operator
// new/delete with a counting pair, so the peak of live bytes during one
// call is exact and the same on every machine.
//
// The sampler's documented bound is 4 bytes per majority sample (its one
// uint32 table) plus O(target + bins), the returned vector included. The
// guard allows 4n + 16·target + 64 KiB; per-sample size_t scaffolds
// (bin-of-sample array, per-bin member lists, per-bin size_t draw
// pools) cost about 24 bytes per sample and fail it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "spe/common/rng.h"
#include "spe/core/self_paced_sampler.h"

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

}  // namespace
}  // namespace spe
