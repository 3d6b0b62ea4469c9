#include "spe/data/mmap_cache.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "spe/common/check.h"
#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/frame.h"
#include "spe/common/retry.h"
#include "spe/data/csv.h"

namespace spe {
namespace {

constexpr char kMagic[4] = {'S', 'P', 'M', 'C'};
constexpr std::uint32_t kFormatVersion = 1;
// magic + version + rows + features + label_column + has_header +
// source size + source mtime.
constexpr std::size_t kFixedHeaderBytes = 4 + 4 + 8 + 8 + 8 + 1 + 8 + 8;

std::size_t AlignUp8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

struct SourceStamp {
  std::uint64_t size = 0;
  std::uint64_t mtime_ns = 0;
};

bool StatSource(const std::string& path, SourceStamp* out) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return false;
  out->size = static_cast<std::uint64_t>(st.st_size);
  out->mtime_ns = static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
                  static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
  return true;
}

template <typename T>
void PutLe(std::string& out, T value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(reinterpret_cast<const char*>(bytes), sizeof(T));
}

/// The bytes of `values` where they lie, for the streamed publish.
template <typename T>
std::string_view AsBytes(std::span<const T> values) {
  return {reinterpret_cast<const char*>(values.data()), values.size_bytes()};
}

template <typename T>
T ReadLe(const unsigned char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

/// Parsed header of a mapped sidecar plus the mapping itself.
struct MappedSidecar {
  std::shared_ptr<const internal::MappedBlock> block;
  std::uint64_t num_rows = 0;
  std::uint64_t num_features = 0;
  std::uint64_t label_column = 0;
  bool has_header = false;
  SourceStamp source;
  const unsigned char* kinds = nullptr;    // num_features bytes
  const double* columns = nullptr;         // column-contiguous f64
  const std::int32_t* labels = nullptr;    // num_rows i32
};

/// Maps and validates a sidecar. On any structural problem returns
/// false with a reason in `detail`; the mapping is released.
bool MapSidecar(const std::string& sidecar_path, MappedSidecar* out,
                std::string* detail) {
  const int fd = ::open(sidecar_path.c_str(), O_RDONLY);
  if (fd < 0) {
    *detail = "cannot open sidecar";
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    *detail = "cannot stat sidecar";
    return false;
  }
  const std::size_t length = static_cast<std::size_t>(st.st_size);
  if (length < kFixedHeaderBytes + sizeof(std::uint32_t)) {
    ::close(fd);
    *detail = "sidecar shorter than its header";
    return false;
  }
  void* addr = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    *detail = "mmap failed";
    return false;
  }
  auto block = std::make_shared<const internal::MappedBlock>(addr, length);
  const unsigned char* base = static_cast<const unsigned char*>(block->data());

  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    *detail = "bad magic";
    return false;
  }
  const std::uint32_t version = ReadLe<std::uint32_t>(base + 4);
  if (version != kFormatVersion) {
    *detail = "unsupported sidecar format version";
    return false;
  }
  MappedSidecar m;
  m.block = block;
  m.num_rows = ReadLe<std::uint64_t>(base + 8);
  m.num_features = ReadLe<std::uint64_t>(base + 16);
  m.label_column = ReadLe<std::uint64_t>(base + 24);
  m.has_header = base[32] != 0;
  m.source.size = ReadLe<std::uint64_t>(base + 33);
  m.source.mtime_ns = ReadLe<std::uint64_t>(base + 41);

  // Bound both counts by the file before any offset arithmetic: a
  // crafted header (2^62 rows, say) would otherwise wrap the size_t sums
  // below back onto the real length and pass for a valid sidecar. Each
  // feature costs at least its kind byte, each row its label, and every
  // cell 8 bytes, so none of these can exceed the bytes after the header.
  const std::uint64_t room = length - kFixedHeaderBytes;
  if (m.num_features > room || m.num_rows > room / sizeof(std::int32_t) ||
      (m.num_rows > 0 &&
       m.num_features > room / sizeof(double) / m.num_rows)) {
    *detail = "sidecar header counts exceed its length";
    return false;
  }
  const std::size_t cols_off = AlignUp8(kFixedHeaderBytes + m.num_features);
  const std::size_t labels_off =
      cols_off + m.num_features * m.num_rows * sizeof(double);
  const std::size_t crc_off = labels_off + m.num_rows * sizeof(std::int32_t);
  if (crc_off + sizeof(std::uint32_t) != length) {
    *detail = "sidecar length does not match its header";
    return false;
  }
  const std::uint32_t stored_crc = ReadLe<std::uint32_t>(base + crc_off);
  const std::uint32_t actual_crc = Crc32(
      std::string_view(reinterpret_cast<const char*>(base), crc_off));
  if (stored_crc != actual_crc) {
    *detail = "CRC mismatch";
    return false;
  }
  m.kinds = base + kFixedHeaderBytes;
  m.columns = reinterpret_cast<const double*>(base + cols_off);
  m.labels = reinterpret_cast<const std::int32_t*>(base + labels_off);
  *out = std::move(m);
  return true;
}

/// Drops this process's resident copy of the whole pages inside
/// [data, data + bytes) of a read-only mapping (best effort). Rounding
/// inward leaves the pages shared with neighbouring fields alone; a later
/// touch would re-read the bytes from the file, but callers release only
/// bytes they never read again.
void ReleasePages(const void* data, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = (begin + page - 1) / page * page;
  const std::uintptr_t last = (begin + bytes) / page * page;
  if (last > first) {
    ::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
  }
}

/// Classifies the sidecar of `csv_path` against the parse options. When
/// it is valid, `*mapped` holds the very mapping that was CRC-checked and
/// fingerprinted, so a caller adopting it loads exactly the bytes judged
/// valid, even if another process replaces the file meanwhile.
SidecarInfo ClassifySidecar(const std::string& csv_path,
                            std::size_t label_column, bool has_header,
                            MappedSidecar* mapped) {
  SidecarInfo info;
  info.sidecar_path = SidecarPathFor(csv_path);
  struct stat st{};
  if (::stat(info.sidecar_path.c_str(), &st) != 0) {
    info.status = SidecarStatus::kAbsent;
    info.detail = "no sidecar at " + info.sidecar_path;
    return info;
  }
  MappedSidecar m;
  if (!MapSidecar(info.sidecar_path, &m, &info.detail)) {
    info.status = SidecarStatus::kCorrupt;
    return info;
  }
  SourceStamp src;
  if (!StatSource(csv_path, &src)) {
    info.status = SidecarStatus::kStale;
    info.detail = "source CSV missing";
    return info;
  }
  if (src.size != m.source.size || src.mtime_ns != m.source.mtime_ns) {
    info.status = SidecarStatus::kStale;
    info.detail = "source CSV changed since the sidecar was written";
    return info;
  }
  if (m.label_column != label_column || m.has_header != has_header) {
    info.status = SidecarStatus::kStale;
    info.detail = "sidecar was built with different parse options";
    return info;
  }
  info.status = SidecarStatus::kValid;
  info.detail = "mmap-ready";
  info.num_rows = static_cast<std::size_t>(m.num_rows);
  info.num_features = static_cast<std::size_t>(m.num_features);
  *mapped = std::move(m);
  return info;
}

}  // namespace

const char* SidecarStatusName(SidecarStatus status) {
  switch (status) {
    case SidecarStatus::kAbsent: return "absent";
    case SidecarStatus::kStale: return "stale";
    case SidecarStatus::kCorrupt: return "corrupt";
    case SidecarStatus::kValid: return "valid";
  }
  return "unknown";
}

std::string SidecarPathFor(const std::string& csv_path) {
  return csv_path + ".spmc";
}

SidecarInfo InspectSidecar(const std::string& csv_path,
                           std::size_t label_column, bool has_header) {
  MappedSidecar unused;  // released on return
  return ClassifySidecar(csv_path, label_column, has_header, &unused);
}

bool WriteSidecar(const Dataset& data, const std::string& csv_path,
                  std::size_t label_column, bool has_header) {
  static_assert(sizeof(int) == 4,
                "labels are published as their in-memory bytes, the i32 "
                "field of the sidecar layout");
  SourceStamp src;
  if (!StatSource(csv_path, &src)) return false;

  // Only the header, the kind bytes and their padding are assembled
  // here; the columns and labels are published, and CRC'd, where the
  // dataset holds them, so writing the cache costs no second image of
  // the data.
  const std::size_t rows = data.num_rows();
  const std::size_t d = data.num_features();
  std::string head;
  head.reserve(AlignUp8(kFixedHeaderBytes + d));
  head.append(kMagic, sizeof(kMagic));
  PutLe<std::uint32_t>(head, kFormatVersion);
  PutLe<std::uint64_t>(head, rows);
  PutLe<std::uint64_t>(head, d);
  PutLe<std::uint64_t>(head, label_column);
  head.push_back(has_header ? '\x01' : '\x00');
  PutLe<std::uint64_t>(head, src.size);
  PutLe<std::uint64_t>(head, src.mtime_ns);
  for (std::size_t j = 0; j < d; ++j) {
    head.push_back(data.feature_kind(j) == FeatureKind::kCategorical ? '\x01'
                                                                     : '\x00');
  }
  head.append(AlignUp8(head.size()) - head.size(), '\x00');

  std::vector<std::string_view> ranges;
  ranges.reserve(d + 3);
  ranges.push_back(head);
  for (std::size_t j = 0; j < d; ++j) {
    ranges.push_back(AsBytes(data.Column(j).values));
  }
  ranges.push_back(AsBytes(std::span<const int>(data.labels())));
  std::uint32_t crc = 0;
  for (const std::string_view range : ranges) crc = Crc32Update(crc, range);
  std::string tail;
  PutLe<std::uint32_t>(tail, crc);
  ranges.push_back(tail);

  // Readers only ever see absent or complete.
  return frame::PublishAtomically(SidecarPathFor(csv_path), ranges).ok();
}

Dataset LoadCsvCached(const std::string& path, std::size_t label_column,
                      bool has_header) {
  // Same transient fault point as LoadCsv: a data read is a data read
  // whether the bytes come from the parser or the sidecar mapping, and
  // the chaos suite must be able to fail it regardless of cache state.
  if (Faults().ShouldFailDataIo()) {
    throw TransientIoError(
        "injected fault: transient data read failed for " + path,
        /*injected=*/true);
  }
  MappedSidecar m;
  if (ClassifySidecar(path, label_column, has_header, &m).status ==
      SidecarStatus::kValid) {
    const std::size_t rows = static_cast<std::size_t>(m.num_rows);
    const std::size_t d = static_cast<std::size_t>(m.num_features);
    std::vector<std::span<const double>> columns(d);
    for (std::size_t j = 0; j < d; ++j) {
      columns[j] = {m.columns + j * rows, rows};
    }
    std::vector<int> labels(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      labels[i] = static_cast<int>(m.labels[i]);
    }
    ReleasePages(m.labels, rows * sizeof(std::int32_t));
    std::vector<FeatureKind> kinds(d);
    for (std::size_t j = 0; j < d; ++j) {
      kinds[j] = m.kinds[j] != 0 ? FeatureKind::kCategorical
                                 : FeatureKind::kNumerical;
    }
    Dataset data;
    data.mutable_matrix().AdoptMapped(std::move(m.block), std::move(columns),
                                      std::move(labels), std::move(kinds));
    return data;
  }
  Dataset data = LoadCsv(path, label_column, has_header);
  WriteSidecar(data, path, label_column, has_header);  // best effort
  return data;
}

}  // namespace spe
