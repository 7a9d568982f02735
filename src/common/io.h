// File I/O for datasets: rich error reporting, atomic write-rename, and
// read-only memory maps. Expensive artifacts (keystream grids, checkpoints)
// are generated once and reused across runs, so every failure carries the
// path and errno context it happened at, and every writer lands its output
// atomically — a crashed or killed process never leaves a torn file behind
// (src/store/ checkpoints rely on this).
// Binary formats are little-endian, magic + version headers, raw arrays; not
// portable across endianness (research tooling, not a wire format).
#ifndef SRC_COMMON_IO_H_
#define SRC_COMMON_IO_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rc4b {

// Failure classification carried alongside the message. The campaign
// scheduler and the grid tools map it onto distinct process exit codes
// (src/common/retry.h): transient failures (syscall errors, lost leases) are
// worth retrying on the same input, data failures (corrupt file, provenance
// mismatch) never are.
enum class IoErrorKind : uint8_t {
  kData = 0,   // corrupt input / bad provenance / usage — retry cannot help
  kTransient,  // environment failure (I/O, lease lost) — retry may succeed
};

// Success or a human-readable failure with path + errno context. Replaces
// the old bare-bool results: a failed load now says *which* file and *why*
// ("open /data/sb.grid: No such file or directory"), which is what shard
// operators and the grid_merge tool surface to the user.
struct IoStatus {
  std::string error;  // empty == success
  IoErrorKind kind = IoErrorKind::kData;

  bool ok() const { return error.empty(); }
  bool transient() const { return !ok() && kind == IoErrorKind::kTransient; }
  const std::string& message() const { return error; }

  static IoStatus Ok() { return IoStatus{}; }
  static IoStatus Fail(std::string message) { return IoStatus{std::move(message)}; }
  static IoStatus Transient(std::string message) {
    return IoStatus{std::move(message), IoErrorKind::kTransient};
  }
  // "op path: strerror(errno)" — call immediately after the failing syscall.
  // Classified transient: errno failures describe the environment, not the
  // data, so a retry (possibly on another host) may succeed.
  static IoStatus FromErrno(std::string_view op, std::string_view path);
};

// Writes `data` to `path` atomically through a BinaryWriter: the bytes land
// in its writer-unique temp file and are renamed over `path` only after a
// successful flush, so readers never observe a partial file. Used for
// manifests and leases.
IoStatus WriteFileAtomic(const std::string& path, std::string_view data);

// True if something exists at `path` (stat succeeds).
bool PathExists(const std::string& path);

// mkdir -p: creates `path` and any missing parents; existing directories are
// not an error.
IoStatus MakeDirs(const std::string& path);

// Binary writer with atomic commit: all writes go to a writer-unique temp
// file next to `path`; Commit() flushes and renames onto `path`. The temp
// name embeds the pid and a process-wide counter so concurrent writers
// targeting the same destination (e.g. two GridCache fills racing on one
// cache entry) never interleave bytes in a shared temp file — each commits
// its own complete image and the last rename wins. A writer destroyed
// without Commit() deletes its temp file and leaves the destination as it
// was, so an early return between writes never publishes a partial file.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  bool ok() const { return status_.ok(); }
  const IoStatus& status() const { return status_; }

  // Where bytes land until Commit() renames them onto the destination.
  const std::string& tmp_path() const { return tmp_path_; }

  void WriteU64(uint64_t v);
  void WriteU64s(std::span<const uint64_t> values);
  void WriteBytes(std::span<const uint8_t> bytes);

  // Flush + close + rename. Returns the first error the stream hit (write,
  // flush, or rename); after Commit() the writer is inert.
  IoStatus Commit();

  // Commit() with crash durability: fsync the temp file before the rename
  // and fsync the parent directory after it, so a host crash immediately
  // after the call cannot resurrect the pre-rename file. Checkpoints and
  // final shard grids use this — a resumed worker must never trust a
  // checkpoint newer than what the disk actually holds.
  IoStatus CommitDurable();

 private:
  IoStatus CommitImpl(bool durable);
  void Write(const void* data, size_t bytes, const char* what);
  void Abandon();  // close + unlink the temp file

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  IoStatus status_;
  bool finished_ = false;
};

// Read-only memory map of a whole file. The grid store parses headers and
// sums counter sections straight out of the map — merging N shard grids
// touches each cell exactly once with no intermediate copies.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  // Maps `path` read-only into *out (replacing any previous mapping).
  static IoStatus Open(const std::string& path, MmapFile* out);

  std::span<const uint8_t> bytes() const {
    return std::span<const uint8_t>(static_cast<const uint8_t*>(data_), size_);
  }

 private:
  void Reset();

  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace rc4b

#endif  // SRC_COMMON_IO_H_
