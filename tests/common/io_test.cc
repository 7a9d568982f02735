#include "src/common/io.h"

#include <dirent.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace rc4b {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

// True when any sibling of `path` is a leftover temp file for it (temp names
// are writer-unique — "<path>.tmp.<pid>.<n>" — so exact-name checks no
// longer work).
bool TempLeftoverExists(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = path.substr(0, slash);
  const std::string prefix = path.substr(slash + 1) + ".tmp.";
  ::DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return false;
  }
  bool found = false;
  while (const struct ::dirent* entry = ::readdir(handle)) {
    if (std::string_view(entry->d_name).starts_with(prefix)) {
      found = true;
      break;
    }
  }
  ::closedir(handle);
  return found;
}

// Copies the u64 words of a mapped file (host byte order, as written).
std::vector<uint64_t> MappedU64s(const std::string& path) {
  MmapFile map;
  EXPECT_TRUE(MmapFile::Open(path, &map).ok());
  std::vector<uint64_t> words(map.bytes().size() / sizeof(uint64_t));
  EXPECT_EQ(words.size() * sizeof(uint64_t), map.bytes().size());
  std::memcpy(words.data(), map.bytes().data(), words.size() * sizeof(uint64_t));
  return words;
}

TEST(BinaryIoTest, U64RoundTrip) {
  const std::string path = TempPath("u64s.bin");
  {
    BinaryWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteU64(0);
    writer.WriteU64(0xdeadbeefcafef00dULL);
  }
  EXPECT_EQ(MappedU64s(path),
            (std::vector<uint64_t>{0, 0xdeadbeefcafef00dULL}));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ArrayRoundTrip) {
  const std::string path = TempPath("arrays.bin");
  const std::vector<uint64_t> ints = {1, 2, 3};
  {
    BinaryWriter writer(path);
    writer.WriteU64s(ints);
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_EQ(MappedU64s(path), ints);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, CommitIsAtomic) {
  const std::string path = TempPath("atomic.bin");
  BinaryWriter writer(path);
  writer.WriteU64(7);
  // Before Commit() the destination must not exist — only the temp file does.
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(FileExists(writer.tmp_path()));
  EXPECT_TRUE(TempLeftoverExists(path));
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(TempLeftoverExists(path));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, FailedWriterNeverClobbersExistingFile) {
  const std::string path = TempPath("keep.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "good").ok());
  {
    BinaryWriter writer("/nonexistent-dir/keep.bin");
    EXPECT_FALSE(writer.ok());
    writer.WriteU64(1);
    EXPECT_FALSE(writer.Commit().ok());
  }
  // Unrelated failure; the original file is untouched.
  std::ifstream in(path);
  std::string content;
  in >> content;
  EXPECT_EQ(content, "good");
  std::remove(path.c_str());
}

TEST(WriteFileAtomicTest, RoundTripAndNoTempLeftover) {
  const std::string path = TempPath("atomic.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "{\"k\": 1}\n").ok());
  EXPECT_FALSE(TempLeftoverExists(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "{\"k\": 1}");
  std::remove(path.c_str());
}

TEST(MakeDirsTest, CreatesNestedAndToleratesExisting) {
  const std::string base = TempPath("mkdirs");
  const std::string nested = base + "/a/b/c";
  ASSERT_TRUE(MakeDirs(nested).ok());
  EXPECT_TRUE(MakeDirs(nested).ok());  // idempotent
  ASSERT_TRUE(WriteFileAtomic(nested + "/f.txt", "x").ok());
  // A file in the way is a rich error, not an abort.
  const IoStatus status = MakeDirs(nested + "/f.txt");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("f.txt"), std::string::npos);
}

TEST(MmapFileTest, MapsWrittenBytes) {
  const std::string path = TempPath("map.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "abcdef").ok());
  MmapFile map;
  ASSERT_TRUE(MmapFile::Open(path, &map).ok());
  ASSERT_EQ(map.bytes().size(), 6u);
  EXPECT_EQ(map.bytes()[0], 'a');
  EXPECT_EQ(map.bytes()[5], 'f');
  std::remove(path.c_str());
}

TEST(MmapFileTest, MissingFileReportsPath) {
  MmapFile map;
  const IoStatus status = MmapFile::Open("/nonexistent/map.bin", &map);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("/nonexistent/map.bin"), std::string::npos);
}

}  // namespace
}  // namespace rc4b
