#include "src/common/io.h"

#include <atomic>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/common/fault_injector.h"

namespace rc4b {

namespace {

// Writer-unique temp path. A fixed `path + ".tmp"` let two concurrent
// writers of the same destination interleave bytes in one temp file and
// rename a torn image into place; with a (pid, counter) suffix each writer
// owns its temp file outright (tests/store/concurrency_stress_test.cc races
// GridCache fills to pin this down).
std::string UniqueTmpPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

// Directory that holds `path`, for the post-rename directory fsync.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  return slash == 0 ? "/" : path.substr(0, slash);
}

// fsync the directory entry so the rename itself survives a host crash.
IoStatus SyncParentDir(const std::string& path) {
  const std::string dir = ParentDir(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return IoStatus::FromErrno("open dir", dir);
  }
  if (::fsync(fd) != 0) {
    const IoStatus status = IoStatus::FromErrno("fsync dir", dir);
    ::close(fd);
    return status;
  }
  ::close(fd);
  FaultInjector::NoteEvent("fsync-dir");
  return IoStatus::Ok();
}

}  // namespace

IoStatus IoStatus::FromErrno(std::string_view op, std::string_view path) {
  std::string message;
  message.append(op);
  message.push_back(' ');
  message.append(path);
  message.append(": ");
  message.append(std::strerror(errno));
  return Transient(std::move(message));
}

IoStatus WriteFileAtomic(const std::string& path, std::string_view data) {
  BinaryWriter writer(path);
  writer.WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
  return writer.Commit();
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

IoStatus MakeDirs(const std::string& path) {
  if (path.empty() || path == "/" || path == ".") {
    return IoStatus::Ok();
  }
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) {
      return IoStatus::Ok();
    }
    return IoStatus::Fail("mkdir " + path + ": exists and is not a directory");
  }
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos && slash != 0) {
    if (IoStatus parent = MakeDirs(path.substr(0, slash)); !parent.ok()) {
      return parent;
    }
  }
  if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
    return IoStatus::FromErrno("mkdir", path);
  }
  return IoStatus::Ok();
}

// ------------------------------------------------------------------ writer --

BinaryWriter::BinaryWriter(const std::string& path)
    : path_(path), tmp_path_(UniqueTmpPath(path)) {
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = IoStatus::FromErrno("open", tmp_path_);
  }
}

BinaryWriter::~BinaryWriter() {
  if (finished_) {
    return;
  }
  if (status_.ok()) {
    Commit();  // legacy scope-based usage; errors are unobservable here
  } else {
    Abandon();
  }
}

void BinaryWriter::Write(const void* data, size_t bytes, const char* what) {
  if (!status_.ok() || finished_ || bytes == 0) {
    return;
  }
  FaultInjector::Instance().BeforeWrite(path_);
  if (std::fwrite(data, 1, bytes, file_) != bytes) {
    status_ = IoStatus::FromErrno(what, tmp_path_);
  }
}

void BinaryWriter::WriteU64(uint64_t v) { Write(&v, sizeof(v), "write u64 to"); }

void BinaryWriter::WriteU64s(std::span<const uint64_t> values) {
  Write(values.data(), values.size_bytes(), "write u64s to");
}

void BinaryWriter::WriteBytes(std::span<const uint8_t> bytes) {
  Write(bytes.data(), bytes.size_bytes(), "write bytes to");
}

IoStatus BinaryWriter::Commit() { return CommitImpl(/*durable=*/false); }

IoStatus BinaryWriter::CommitDurable() { return CommitImpl(/*durable=*/true); }

IoStatus BinaryWriter::CommitImpl(bool durable) {
  if (finished_) {
    return status_;
  }
  if (!status_.ok()) {
    Abandon();
    return status_;
  }
  if (std::fflush(file_) != 0) {
    status_ = IoStatus::FromErrno("flush", tmp_path_);
    Abandon();
    return status_;
  }
  if (durable) {
    // Flush-to-disk before the rename: the rename must only ever expose a
    // fully persisted image, otherwise a crash could leave the destination
    // pointing at data the kernel never wrote back.
    if (::fsync(::fileno(file_)) != 0) {
      status_ = IoStatus::FromErrno("fsync", tmp_path_);
      Abandon();
      return status_;
    }
    FaultInjector::NoteEvent("fsync-file");
  }
  if (std::fclose(file_) != 0) {
    status_ = IoStatus::FromErrno("close", tmp_path_);
    file_ = nullptr;
    Abandon();
    return status_;
  }
  file_ = nullptr;
  finished_ = true;
  FaultInjector::Instance().MaybeTearCommit(tmp_path_, path_);
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    status_ = IoStatus::FromErrno("rename " + tmp_path_ + " to", path_);
    std::remove(tmp_path_.c_str());
    return status_;
  }
  if (durable) {
    if (IoStatus synced = SyncParentDir(path_); !synced.ok()) {
      status_ = std::move(synced);
      return status_;
    }
  }
  FaultInjector::Instance().AfterCommit(path_);
  return status_;
}

void BinaryWriter::Abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::remove(tmp_path_.c_str());
  finished_ = true;
}

// -------------------------------------------------------------------- mmap --

MmapFile::~MmapFile() { Reset(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MmapFile::Reset() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
  }
  size_ = 0;
}

IoStatus MmapFile::Open(const std::string& path, MmapFile* out) {
  out->Reset();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return IoStatus::FromErrno("open", path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const IoStatus status = IoStatus::FromErrno("stat", path);
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {  // mmap rejects zero-length maps; an empty file is valid
    ::close(fd);
    return IoStatus::Ok();
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (data == MAP_FAILED) {
    return IoStatus::FromErrno("mmap", path);
  }
  out->data_ = data;
  out->size_ = size;
  return IoStatus::Ok();
}

}  // namespace rc4b
