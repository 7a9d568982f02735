// Generates the seed corpora for tests/fuzz/ from the real writers, so every
// fuzz target starts from inputs that exercise the full accept path plus
// near-miss variants (truncations, bit flips, header-only prefixes) and the
// crafted overflow inputs pinned by tests/store/grid_file_corrupt_test.cc.
//
//   make_fuzz_corpus <output-dir>
//
// writes <output-dir>/<fuzz-target>/<seed-name>. The checked-in corpora under
// tests/fuzz/corpus/ were produced by this tool; rerun it after a format
// change and commit the diff.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/io.h"
#include "src/crypto/crc32.h"
#include "src/orchestrate/lease.h"
#include "src/store/grid_file.h"
#include "src/store/manifest.h"
#include "src/store/shard_runner.h"

namespace {

using rc4b::IoStatus;
using rc4b::store::GridKind;
using rc4b::store::GridMeta;
using rc4b::store::Manifest;

bool ReadAll(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return false;
  }
  out->clear();
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, got);
  }
  std::fclose(file);
  return true;
}

bool WriteRaw(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  std::fclose(file);
  return ok;
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// The crafted u64-overflow images from tests/store/grid_file_corrupt_test.cc:
// regression seeds so the fuzzers always re-cover the fixed crashes.
std::string HugeMetaBytesImage() {
  std::string file;
  PutU64(&file, rc4b::store::kGridFileMagic);
  PutU64(&file, rc4b::store::kGridFormatVersion);
  PutU64(&file, UINT64_MAX - 15);  // meta_bytes; wraps the naive sum check
  PutU64(&file, 0);                // meta_crc32
  PutU64(&file, 4096);             // cells_offset
  PutU64(&file, 0);                // cells_bytes
  PutU64(&file, 0);                // cells_crc32
  file.resize(4096, '\0');
  return file;
}

std::string HugePairCountImage() {
  std::string meta;
  PutU64(&meta, static_cast<uint64_t>(GridKind::kPair));
  PutU64(&meta, 1);               // seed
  PutU64(&meta, 0);               // key_begin
  PutU64(&meta, 1);               // key_end
  PutU64(&meta, 1);               // rows
  PutU64(&meta, 0);               // drop
  PutU64(&meta, 0);               // interleave
  PutU64(&meta, 0);               // bytes_per_key
  PutU64(&meta, 1);               // samples
  PutU64(&meta, uint64_t{1} << 61);  // pair_count; overflows size math

  std::string file;
  PutU64(&file, rc4b::store::kGridFileMagic);
  PutU64(&file, rc4b::store::kGridFormatVersion);
  PutU64(&file, meta.size());
  PutU64(&file, rc4b::Crc32(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(meta.data()),
                               meta.size())));
  PutU64(&file, 56 + meta.size());  // cells_offset (not 4096-aligned: also bad)
  PutU64(&file, 0);                 // cells_bytes
  PutU64(&file, 0);                 // cells_crc32
  file += meta;
  return file;
}

bool EmitGridFileCorpus(const std::string& dir, const std::string& scratch) {
  GridMeta meta;
  meta.kind = GridKind::kSingleByte;
  meta.seed = 3;
  meta.key_begin = 0;
  meta.key_end = 32;
  meta.rows = 2;
  const rc4b::store::StoredGrid grid =
      rc4b::store::GenerateStoredGrid(meta, 1, 1);
  const std::string valid_path = scratch + "/valid.grid";
  if (!rc4b::store::WriteGridFile(valid_path, grid.meta, grid.cells).ok()) {
    return false;
  }
  std::string valid;
  if (!ReadAll(valid_path, &valid)) {
    return false;
  }

  std::string truncated = valid.substr(0, valid.size() - 7);
  std::string flipped = valid;
  flipped[valid.size() / 2] ^= 0x20;
  std::string header_only = valid.substr(0, 56);

  return WriteRaw(dir + "/valid", valid) &&
         WriteRaw(dir + "/truncated", truncated) &&
         WriteRaw(dir + "/bitflip", flipped) &&
         WriteRaw(dir + "/header-only", header_only) &&
         WriteRaw(dir + "/huge-meta-bytes", HugeMetaBytesImage()) &&
         WriteRaw(dir + "/huge-pair-count", HugePairCountImage()) &&
         WriteRaw(dir + "/empty", "");
}

bool EmitManifestCorpus(const std::string& dir, const std::string& scratch) {
  GridMeta meta;
  meta.kind = GridKind::kConsecutive;
  meta.seed = 9;
  meta.key_begin = 0;
  meta.key_end = 1 << 12;
  meta.rows = 4;
  const Manifest manifest =
      rc4b::store::PlanShards(meta, 3, "corpus");
  const std::string valid_path = scratch + "/valid.manifest";
  if (!rc4b::store::WriteManifest(valid_path, manifest).ok()) {
    return false;
  }
  std::string valid;
  if (!ReadAll(valid_path, &valid)) {
    return false;
  }

  std::string bad_kind = valid;
  const size_t kind_at = bad_kind.find("consecutive");
  bad_kind.replace(kind_at, std::strlen("consecutive"), "conseq");
  const std::string no_shards = valid.substr(0, valid.find("shard "));

  return WriteRaw(dir + "/valid", valid) &&
         WriteRaw(dir + "/bad-kind", bad_kind) &&
         WriteRaw(dir + "/no-shards", no_shards) &&
         WriteRaw(dir + "/truncated", valid.substr(0, valid.size() / 2)) &&
         WriteRaw(dir + "/empty", "");
}

bool EmitCheckpointCorpus(const std::string& dir, const std::string& scratch) {
  // Exactly the dataset fuzz_checkpoint_resume.cc runs (seed 5, 64 keys,
  // 1 row), checkpointed by the real runner after 16 keys.
  GridMeta meta;
  meta.kind = GridKind::kSingleByte;
  meta.seed = 5;
  meta.key_begin = 0;
  meta.key_end = 64;
  meta.rows = 1;
  // Shard paths are manifest-relative, so a bare prefix lands the shard next
  // to the manifest inside the scratch directory.
  const Manifest manifest = rc4b::store::PlanShards(meta, 1, "ckpt");
  const std::string manifest_path = scratch + "/ckpt.manifest";
  if (!rc4b::store::WriteManifest(manifest_path, manifest).ok()) {
    return false;
  }
  rc4b::store::ShardRunOptions options;
  options.workers = 1;
  options.checkpoint_keys = 16;
  options.stop_after_keys = 16;
  rc4b::store::ShardRunResult result;
  if (IoStatus status = rc4b::store::RunShard(manifest, manifest_path, 0,
                                              options, &result);
      !status.ok() || result.finished) {
    std::fprintf(stderr, "checkpoint seed run went wrong: %s\n",
                 status.message().c_str());
    return false;
  }
  const std::string ckpt_path = rc4b::store::CheckpointPath(
      rc4b::store::ResolveManifestPath(manifest_path, manifest.shards[0].path));
  std::string valid;
  if (!ReadAll(ckpt_path, &valid)) {
    return false;
  }

  // A checkpoint from a *different* dataset (wrong seed) — valid grid file,
  // must be rejected by provenance, not byte format.
  GridMeta foreign = meta;
  foreign.seed = 6;
  const rc4b::store::StoredGrid foreign_grid =
      rc4b::store::GenerateStoredGrid(foreign, 1, 1);
  const std::string foreign_path = scratch + "/foreign.ckpt";
  if (!rc4b::store::WriteGridFile(foreign_path, foreign_grid.meta,
                                  foreign_grid.cells).ok()) {
    return false;
  }
  std::string foreign_bytes;
  if (!ReadAll(foreign_path, &foreign_bytes)) {
    return false;
  }

  std::string flipped = valid;
  flipped[valid.size() - 3] ^= 0x01;

  return WriteRaw(dir + "/valid-partial", valid) &&
         WriteRaw(dir + "/foreign-dataset", foreign_bytes) &&
         WriteRaw(dir + "/bitflip", flipped) &&
         WriteRaw(dir + "/truncated", valid.substr(0, 100)) &&
         WriteRaw(dir + "/empty", "");
}

bool EmitLeaseCorpus(const std::string& dir) {
  rc4b::orchestrate::Lease lease;
  lease.owner = "12345.a2";
  lease.acquired_ms = 1700000000000;
  lease.heartbeat_ms = 1700000012000;
  lease.attempt = 2;
  const std::string valid = rc4b::orchestrate::FormatLease(lease);

  std::string bad_owner = valid;
  const size_t owner_at = bad_owner.find("12345.a2");
  bad_owner.replace(owner_at, std::strlen("12345.a2"), "12 45");
  std::string huge_number = valid;
  const size_t beat_at = huge_number.find("1700000012000");
  huge_number.replace(beat_at, std::strlen("1700000012000"),
                      "99999999999999999999999999");

  return WriteRaw(dir + "/valid", valid) &&
         WriteRaw(dir + "/wrong-version", "rc4b-lease 2\n" + valid.substr(13)) &&
         WriteRaw(dir + "/owner-whitespace", bad_owner) &&
         WriteRaw(dir + "/overflow-number", huge_number) &&
         WriteRaw(dir + "/trailing-garbage", valid + "extra\n") &&
         WriteRaw(dir + "/truncated", valid.substr(0, valid.size() / 2)) &&
         WriteRaw(dir + "/empty", "");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string out = argv[1];
  const std::string scratch = out + "/.scratch";
  for (const char* target :
       {"fuzz_grid_file", "fuzz_manifest", "fuzz_checkpoint_resume",
        "fuzz_lease"}) {
    if (!rc4b::MakeDirs(out + "/" + target).ok()) {
      std::fprintf(stderr, "cannot create %s/%s\n", out.c_str(), target);
      return 1;
    }
  }
  if (!rc4b::MakeDirs(scratch).ok()) {
    return 1;
  }
  const bool ok =
      EmitGridFileCorpus(out + "/fuzz_grid_file", scratch) &&
      EmitManifestCorpus(out + "/fuzz_manifest", scratch) &&
      EmitCheckpointCorpus(out + "/fuzz_checkpoint_resume", scratch) &&
      EmitLeaseCorpus(out + "/fuzz_lease");
  if (!ok) {
    std::fprintf(stderr, "corpus generation failed\n");
    return 1;
  }
  std::printf("corpora written under %s\n", out.c_str());
  return 0;
}
