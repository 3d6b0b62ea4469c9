// Sidecar cache (`.spmc`) behaviour: a valid sidecar loads the same
// bytes the parser would, a stale or corrupt one is detected and falls
// back to the parser, and the cache never changes observable values —
// only load speed.

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/common/crc32.h"
#include "spe/data/csv.h"
#include "spe/data/dataset.h"
#include "spe/data/mmap_cache.h"
#include "tests/test_util.h"

namespace spe {
namespace {

namespace fs = std::filesystem;

using ::spe::testing::OverlappingBlobs;

class MmapCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("spe_mmap_cache_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    csv_path_ = (dir_ / "data.csv").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string WriteBlobsCsv(std::uint64_t seed, std::size_t majority = 40,
                            std::size_t minority = 10) {
    const Dataset data = OverlappingBlobs(majority, minority, seed);
    SaveCsv(data, csv_path_);
    return csv_path_;
  }

  fs::path dir_;
  std::string csv_path_;
};

void ExpectSameValues(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_features(), b.num_features());
  for (std::size_t j = 0; j < a.num_features(); ++j) {
    const std::span<const double> ca = a.Column(j).values;
    const std::span<const double> cb = b.Column(j).values;
    EXPECT_EQ(std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(double)),
              0)
        << "column " << j;
  }
  for (std::size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.Label(i), b.Label(i)) << "row " << i;
  }
}

TEST_F(MmapCacheTest, SidecarPathAppendsExtension) {
  EXPECT_EQ(SidecarPathFor("/tmp/x/train.csv"), "/tmp/x/train.csv.spmc");
}

TEST_F(MmapCacheTest, AbsentBeforeFirstCachedLoad) {
  WriteBlobsCsv(1);
  const SidecarInfo info = InspectSidecar(csv_path_, 2);
  EXPECT_EQ(info.status, SidecarStatus::kAbsent);
  EXPECT_STREQ(SidecarStatusName(info.status), "absent");
}

TEST_F(MmapCacheTest, ColdLoadPublishesValidSidecar) {
  WriteBlobsCsv(2);
  const Dataset parsed = LoadCsv(csv_path_, 2);
  const Dataset cold = LoadCsvCached(csv_path_, 2);
  ExpectSameValues(parsed, cold);

  const SidecarInfo info = InspectSidecar(csv_path_, 2);
  EXPECT_EQ(info.status, SidecarStatus::kValid);
  EXPECT_STREQ(SidecarStatusName(info.status), "valid");
  EXPECT_EQ(info.num_rows, parsed.num_rows());
  EXPECT_EQ(info.num_features, parsed.num_features());
  EXPECT_TRUE(fs::exists(info.sidecar_path));
}

TEST_F(MmapCacheTest, WarmLoadIsValueIdenticalToParse) {
  WriteBlobsCsv(3);
  const Dataset cold = LoadCsvCached(csv_path_, 2);
  ASSERT_EQ(InspectSidecar(csv_path_, 2).status, SidecarStatus::kValid);
  const Dataset warm = LoadCsvCached(csv_path_, 2);
  ExpectSameValues(cold, warm);
  // The warm copy really is backed by the sidecar mapping.
  EXPECT_TRUE(warm.matrix().mapped());
}

// A warm load releases the mapped label pages once labels() holds its
// copy. With a label region several pages long the release really
// happens, and nothing the dataset reads may change: columns and labels
// stay bit-identical to a plain parse.
TEST_F(MmapCacheTest, WarmLoadAfterLabelPageReleaseMatchesParse) {
  WriteBlobsCsv(12, 3000, 300);
  const Dataset parsed = LoadCsv(csv_path_, 2);
  ASSERT_GT(parsed.num_rows() * sizeof(std::int32_t),
            3 * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
  (void)LoadCsvCached(csv_path_, 2);
  const Dataset warm = LoadCsvCached(csv_path_, 2);
  ASSERT_TRUE(warm.matrix().mapped());
  ExpectSameValues(parsed, warm);
  EXPECT_EQ(warm.labels(), parsed.labels());
}

// Each warm load maps the sidecar on its own and releases its own label
// pages; two of them alive at once must still agree with each other.
TEST_F(MmapCacheTest, TwoLiveWarmLoadsAgree) {
  WriteBlobsCsv(13, 3000, 300);
  (void)LoadCsvCached(csv_path_, 2);
  const Dataset first = LoadCsvCached(csv_path_, 2);
  const Dataset second = LoadCsvCached(csv_path_, 2);
  ASSERT_TRUE(first.matrix().mapped());
  ASSERT_TRUE(second.matrix().mapped());
  ExpectSameValues(first, second);
  ExpectSameValues(LoadCsv(csv_path_, 2), first);
}

// A label region shorter than a page holds no whole page, so the inward
// rounding releases nothing; the load is still exact and the sidecar,
// columns and CRC included, still classifies as valid afterwards.
TEST_F(MmapCacheTest, LabelRegionSmallerThanAPageLoadsAndStaysValid) {
  WriteBlobsCsv(14, 40, 10);
  const Dataset parsed = LoadCsv(csv_path_, 2);
  ASSERT_LT(parsed.num_rows() * sizeof(std::int32_t),
            static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
  (void)LoadCsvCached(csv_path_, 2);
  const Dataset warm = LoadCsvCached(csv_path_, 2);
  ASSERT_TRUE(warm.matrix().mapped());
  ExpectSameValues(parsed, warm);
  const SidecarInfo info = InspectSidecar(csv_path_, 2);
  EXPECT_EQ(info.status, SidecarStatus::kValid) << info.detail;
  ExpectSameValues(parsed, LoadCsvCached(csv_path_, 2));
}

TEST_F(MmapCacheTest, RewrittenSourceIsDetectedAsStale) {
  WriteBlobsCsv(4);
  (void)LoadCsvCached(csv_path_, 2);
  ASSERT_EQ(InspectSidecar(csv_path_, 2).status, SidecarStatus::kValid);

  // Rewrite the CSV with different content (different row count, so the
  // size fingerprint must differ even on coarse-mtime filesystems).
  WriteBlobsCsv(5, 50, 12);
  EXPECT_EQ(InspectSidecar(csv_path_, 2).status, SidecarStatus::kStale);

  // A cached load falls back to the parser, returns the new data, and
  // republishes a fresh sidecar.
  const Dataset parsed = LoadCsv(csv_path_, 2);
  const Dataset reloaded = LoadCsvCached(csv_path_, 2);
  ExpectSameValues(parsed, reloaded);
  EXPECT_EQ(InspectSidecar(csv_path_, 2).status, SidecarStatus::kValid);
}

TEST_F(MmapCacheTest, MismatchedLabelColumnIsStale) {
  // Sidecars remember which column was the label; asking for a different
  // split must not reuse them.
  const Dataset data = OverlappingBlobs(30, 8, 6);
  SaveCsv(data, csv_path_);
  (void)LoadCsvCached(csv_path_, 2);
  ASSERT_EQ(InspectSidecar(csv_path_, 2).status, SidecarStatus::kValid);
  EXPECT_EQ(InspectSidecar(csv_path_, 0).status, SidecarStatus::kStale);
}

TEST_F(MmapCacheTest, CorruptSidecarFallsBackToParser) {
  WriteBlobsCsv(7);
  const Dataset parsed = LoadCsv(csv_path_, 2);
  (void)LoadCsvCached(csv_path_, 2);
  const std::string sidecar = SidecarPathFor(csv_path_);
  ASSERT_TRUE(fs::exists(sidecar));

  // Flip one byte in the middle of the column payload: the CRC must
  // catch it and the load must come from the parser, value-identical.
  {
    std::fstream f(sidecar,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 64);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  EXPECT_EQ(InspectSidecar(csv_path_, 2).status, SidecarStatus::kCorrupt);
  const Dataset loaded = LoadCsvCached(csv_path_, 2);
  ExpectSameValues(parsed, loaded);
}

TEST_F(MmapCacheTest, TruncatedSidecarIsCorruptNotFatal) {
  WriteBlobsCsv(8);
  (void)LoadCsvCached(csv_path_, 2);
  const std::string sidecar = SidecarPathFor(csv_path_);
  fs::resize_file(sidecar, 20);  // shorter than the fixed header
  EXPECT_EQ(InspectSidecar(csv_path_, 2).status, SidecarStatus::kCorrupt);
  const Dataset parsed = LoadCsv(csv_path_, 2);
  const Dataset loaded = LoadCsvCached(csv_path_, 2);
  ExpectSameValues(parsed, loaded);
}

// A CRC-correct header whose counts lie: 2^62 rows of one feature in a
// 60-byte file. Unchecked, the offset arithmetic wraps back onto the real
// length and the sidecar passes for valid, after which the load tries to
// allocate 2^62 labels. It must classify as corrupt and fall back to the
// parser instead.
TEST_F(MmapCacheTest, HeaderCountsBeyondFileLengthAreCorrupt) {
  WriteBlobsCsv(11);
  (void)LoadCsvCached(csv_path_, 2);
  const std::string sidecar = SidecarPathFor(csv_path_);
  std::string bytes;
  {
    std::ifstream in(sidecar, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Keep magic, version, label column, header flag and the source stamp
  // (bytes 0-48); rewrite the counts, then one kind byte, padding to the
  // 8-byte boundary, and a fresh CRC over it all.
  ASSERT_GE(bytes.size(), 49u);
  std::string crafted = bytes.substr(0, 49);
  const std::uint64_t rows = std::uint64_t{1} << 62;
  const std::uint64_t features = 1;
  std::memcpy(crafted.data() + 8, &rows, sizeof(rows));
  std::memcpy(crafted.data() + 16, &features, sizeof(features));
  crafted.append(7, '\0');
  const std::uint32_t crc = Crc32(crafted);
  crafted.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_EQ(crafted.size(), 60u);
  {
    std::ofstream out(sidecar, std::ios::binary | std::ios::trunc);
    out.write(crafted.data(), static_cast<std::streamsize>(crafted.size()));
  }
  // The CSV is untouched, so the stamp still matches: only the counts
  // are wrong.
  const SidecarInfo info = InspectSidecar(csv_path_, 2);
  EXPECT_EQ(info.status, SidecarStatus::kCorrupt) << info.detail;
  const Dataset parsed = LoadCsv(csv_path_, 2);
  const Dataset loaded = LoadCsvCached(csv_path_, 2);
  ExpectSameValues(parsed, loaded);
}

TEST_F(MmapCacheTest, MappedDatasetSurvivesSidecarUnlink) {
  // mmap keeps the pages alive after the file is removed — a dataset
  // loaded from cache must not depend on the sidecar's directory entry.
  WriteBlobsCsv(9);
  (void)LoadCsvCached(csv_path_, 2);
  const Dataset warm = LoadCsvCached(csv_path_, 2);
  ASSERT_TRUE(warm.matrix().mapped());
  fs::remove(SidecarPathFor(csv_path_));
  double sum = 0.0;
  for (std::size_t j = 0; j < warm.num_features(); ++j) {
    for (double v : warm.Column(j).values) sum += v;
  }
  EXPECT_TRUE(std::isfinite(sum));
}

TEST_F(MmapCacheTest, WriteSidecarRoundTripsExplicitly) {
  const Dataset data = OverlappingBlobs(25, 5, 10);
  SaveCsv(data, csv_path_);
  ASSERT_TRUE(WriteSidecar(data, csv_path_, 2));
  const SidecarInfo info = InspectSidecar(csv_path_, 2);
  EXPECT_EQ(info.status, SidecarStatus::kValid);
  const Dataset loaded = LoadCsvCached(csv_path_, 2);
  ExpectSameValues(data, loaded);
}

// The sidecar's bytes are pinned to the v1 layout documented in
// mmap_cache.h, assembled here field by field in little-endian order, so
// sidecars already on disk stay valid however WriteSidecar produces
// them. Three features (one categorical) put 49 + 3 = 52 header bytes
// before the columns, so the padding to 56 is not empty.
TEST_F(MmapCacheTest, SidecarBytesFollowTheV1Layout) {
  Dataset data(3);
  data.set_feature_kind(1, FeatureKind::kCategorical);
  const double rows[][3] = {
      {0.5, 2.0, -1.25}, {1.5, 0.0, 3.0}, {-2.0, 1.0, 0.125}, {4.0, 2.0, 7.5}};
  const int labels[] = {0, 1, 0, 1};
  for (std::size_t i = 0; i < 4; ++i) data.AddRow(rows[i], labels[i]);
  SaveCsv(data, csv_path_);
  const std::size_t label_column = 3;
  ASSERT_TRUE(WriteSidecar(data, csv_path_, label_column));

  struct stat st{};
  ASSERT_EQ(::stat(csv_path_.c_str(), &st), 0);
  const std::uint64_t source_size = static_cast<std::uint64_t>(st.st_size);
  const std::uint64_t source_mtime_ns =
      static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
      static_cast<std::uint64_t>(st.st_mtim.tv_nsec);

  std::string expected;
  const auto le = [&](std::uint64_t value, std::size_t bytes) {
    for (std::size_t k = 0; k < bytes; ++k) {
      expected.push_back(static_cast<char>((value >> (8 * k)) & 0xff));
    }
  };
  expected += "SPMC";
  le(1, 4);             // format version
  le(4, 8);             // num_rows
  le(3, 8);             // num_features
  le(label_column, 8);  // label_column
  le(1, 1);             // has_header
  le(source_size, 8);
  le(source_mtime_ns, 8);
  ASSERT_EQ(expected.size(), 49u);
  expected += std::string("\x00\x01\x00", 3);  // feature kinds
  expected.append(4, '\0');                    // pad 52 -> 56
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 4; ++i) {
      le(std::bit_cast<std::uint64_t>(rows[i][j]), 8);
    }
  }
  for (const int label : labels) le(static_cast<std::uint32_t>(label), 4);
  le(Crc32(expected), 4);
  ASSERT_EQ(expected.size(), 56u + 3 * 4 * 8 + 4 * 4 + 4);

  std::string actual;
  {
    std::ifstream in(SidecarPathFor(csv_path_), std::ios::binary);
    actual.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(actual[k], expected[k]) << "first differing byte at offset " << k;
  }
  const Dataset warm = LoadCsvCached(csv_path_, label_column);
  ASSERT_TRUE(warm.matrix().mapped());
  EXPECT_EQ(warm.feature_kind(1), FeatureKind::kCategorical);
  ExpectSameValues(data, warm);
}

}  // namespace
}  // namespace spe
