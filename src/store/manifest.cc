#include "src/store/manifest.h"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace rc4b::store {

namespace {

std::string FormatPairs(const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  std::string out;
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (p != 0) {
      out.push_back(',');
    }
    out += std::to_string(pairs[p].first) + ":" + std::to_string(pairs[p].second);
  }
  return out;
}

bool ParseU64(std::string_view text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

IoStatus ParsePairs(std::string_view text, const std::string& context,
                    std::vector<std::pair<uint32_t, uint32_t>>* out) {
  out->clear();
  if (text.empty()) {
    return IoStatus::Ok();
  }
  // Every comma starts another item, so a trailing comma leaves an empty
  // last item that fails like any other malformed pair.
  for (size_t begin = 0;;) {
    const size_t comma = text.find(',', begin);
    const std::string_view item = text.substr(begin, comma - begin);
    const size_t colon = item.find(':');
    uint64_t a = 0;
    uint64_t b = 0;
    if (colon == std::string_view::npos || !ParseU64(item.substr(0, colon), &a) ||
        !ParseU64(item.substr(colon + 1), &b) || a > UINT32_MAX ||
        b > UINT32_MAX) {
      return IoStatus::Fail(context + ": bad pair \"" + std::string(item) +
                            "\" (expected a:b)");
    }
    out->emplace_back(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
    if (comma == std::string_view::npos) {
      break;
    }
    begin = comma + 1;
  }
  return IoStatus::Ok();
}

Manifest PlanShards(const GridMeta& grid, uint32_t shard_count,
                    const std::string& prefix) {
  Manifest manifest;
  manifest.grid = grid;
  manifest.grid.samples = 0;
  const uint64_t keys = grid.key_end - grid.key_begin;
  const uint64_t count = std::max<uint64_t>(
      1, std::min<uint64_t>(shard_count == 0 ? 1 : shard_count, keys));
  uint64_t begin = grid.key_begin;
  for (uint64_t s = 0; s < count; ++s) {
    // Same near-equal chunking as the in-process thread shards: the first
    // keys % count shards take one extra key.
    const uint64_t size = keys / count + (s < keys % count ? 1 : 0);
    ShardEntry entry;
    entry.key_begin = begin;
    entry.key_end = begin + size;
    entry.path = prefix + "-shard" + std::to_string(s) + ".grid";
    begin = entry.key_end;
    manifest.shards.push_back(std::move(entry));
  }
  return manifest;
}

IoStatus ExtendManifestPlan(Manifest* manifest, uint64_t new_key_end,
                            uint32_t added_shards, const std::string& prefix) {
  const uint64_t old_end = manifest->grid.key_end;
  if (new_key_end <= old_end) {
    return IoStatus::Fail("extend: new key_end " + std::to_string(new_key_end) +
                          " does not grow the range (current end " +
                          std::to_string(old_end) + ")");
  }
  if (added_shards == 0) {
    return IoStatus::Fail("extend: added_shards must be at least 1");
  }
  const uint64_t keys = new_key_end - old_end;
  const uint64_t count = std::min<uint64_t>(added_shards, keys);
  const uint64_t next_index = manifest->shards.size();
  uint64_t begin = old_end;
  for (uint64_t s = 0; s < count; ++s) {
    const uint64_t size = keys / count + (s < keys % count ? 1 : 0);
    ShardEntry entry;
    entry.key_begin = begin;
    entry.key_end = begin + size;
    entry.path = prefix + "-shard" + std::to_string(next_index + s) + ".grid";
    begin = entry.key_end;
    manifest->shards.push_back(std::move(entry));
  }
  manifest->grid.key_end = new_key_end;
  return IoStatus::Ok();
}

IoStatus ValidateManifest(const Manifest& manifest, const std::string& context) {
  if (IoStatus status = ValidateMeta(manifest.grid, context); !status.ok()) {
    return status;
  }
  if (manifest.shards.empty()) {
    return IoStatus::Fail(context + ": manifest lists no shards");
  }
  std::vector<ShardEntry> sorted = manifest.shards;
  std::sort(sorted.begin(), sorted.end(),
            [](const ShardEntry& a, const ShardEntry& b) {
              return a.key_begin < b.key_begin;
            });
  uint64_t expect = manifest.grid.key_begin;
  for (const ShardEntry& shard : sorted) {
    if (shard.key_begin >= shard.key_end) {
      return IoStatus::Fail(context + ": shard " + shard.path +
                            " covers an empty key range");
    }
    if (shard.key_begin != expect) {
      return IoStatus::Fail(
          context + ": shard coverage " +
          (shard.key_begin > expect ? "gap" : "overlap") + " at key " +
          std::to_string(std::min(expect, shard.key_begin)) + " (shard " +
          shard.path + " starts at " + std::to_string(shard.key_begin) +
          ", expected " + std::to_string(expect) + ")");
    }
    expect = shard.key_end;
  }
  if (expect != manifest.grid.key_end) {
    return IoStatus::Fail(context + ": shards cover keys up to " +
                          std::to_string(expect) + " but the grid ends at " +
                          std::to_string(manifest.grid.key_end));
  }
  return IoStatus::Ok();
}

IoStatus WriteManifest(const std::string& path, const Manifest& manifest) {
  if (IoStatus status = ValidateManifest(manifest, path); !status.ok()) {
    return status;
  }
  std::string out;
  out += "rc4b-grid-manifest 1\n";
  out += "kind " + std::string(GridKindName(manifest.grid.kind)) + "\n";
  out += "seed " + std::to_string(manifest.grid.seed) + "\n";
  out += "key_begin " + std::to_string(manifest.grid.key_begin) + "\n";
  out += "key_end " + std::to_string(manifest.grid.key_end) + "\n";
  out += "rows " + std::to_string(manifest.grid.rows) + "\n";
  out += "drop " + std::to_string(manifest.grid.drop) + "\n";
  out += "bytes_per_key " + std::to_string(manifest.grid.bytes_per_key) + "\n";
  if (manifest.grid.kind == GridKind::kPair) {
    out += "pairs " + FormatPairs(manifest.grid.pairs) + "\n";
  }
  for (const ShardEntry& shard : manifest.shards) {
    out += "shard " + std::to_string(shard.key_begin) + " " +
           std::to_string(shard.key_end) + " " + shard.path + "\n";
  }
  return WriteFileAtomic(path, out);
}

IoStatus ReadManifest(const std::string& path, Manifest* out) {
  MmapFile map;
  if (IoStatus status = MmapFile::Open(path, &map); !status.ok()) {
    return status;
  }
  const auto bytes = map.bytes();
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  std::string line;
  if (!std::getline(in, line) || line != "rc4b-grid-manifest 1") {
    return IoStatus::Fail(path + ": not a grid manifest (bad first line \"" +
                          line + "\")");
  }
  *out = Manifest{};
  bool have_kind = false;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::string context =
        path + ":" + std::to_string(line_no);
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    std::string value;
    if (keyword == "shard") {
      ShardEntry shard;
      std::string begin_text;
      std::string end_text;
      fields >> begin_text >> end_text >> shard.path;
      if (!ParseU64(begin_text, &shard.key_begin) ||
          !ParseU64(end_text, &shard.key_end) || shard.path.empty()) {
        return IoStatus::Fail(context + ": bad shard line \"" + line + "\"");
      }
      out->shards.push_back(std::move(shard));
      continue;
    }
    fields >> value;
    if (keyword == "kind") {
      if (!ParseGridKind(value, &out->grid.kind)) {
        return IoStatus::Fail(context + ": unknown grid kind \"" + value + "\"");
      }
      have_kind = true;
    } else if (keyword == "pairs") {
      if (IoStatus status = ParsePairs(value, context, &out->grid.pairs);
          !status.ok()) {
        return status;
      }
    } else if (keyword == "seed" || keyword == "key_begin" ||
               keyword == "key_end" || keyword == "rows" || keyword == "drop" ||
               keyword == "bytes_per_key") {
      uint64_t parsed = 0;
      if (!ParseU64(value, &parsed)) {
        return IoStatus::Fail(context + ": bad value \"" + value + "\" for " +
                              keyword);
      }
      if (keyword == "seed") {
        out->grid.seed = parsed;
      } else if (keyword == "key_begin") {
        out->grid.key_begin = parsed;
      } else if (keyword == "key_end") {
        out->grid.key_end = parsed;
      } else if (keyword == "rows") {
        out->grid.rows = parsed;
      } else if (keyword == "drop") {
        out->grid.drop = parsed;
      } else {
        out->grid.bytes_per_key = parsed;
      }
    } else {
      return IoStatus::Fail(context + ": unknown keyword \"" + keyword + "\"");
    }
  }
  if (!have_kind) {
    return IoStatus::Fail(path + ": manifest is missing the kind field");
  }
  return ValidateManifest(*out, path);
}

std::string ResolveManifestPath(const std::string& manifest_path,
                                const std::string& shard_path) {
  if (!shard_path.empty() && shard_path[0] == '/') {
    return shard_path;
  }
  const size_t slash = manifest_path.find_last_of('/');
  if (slash == std::string::npos) {
    return shard_path;
  }
  return manifest_path.substr(0, slash + 1) + shard_path;
}

std::string CheckpointPath(const std::string& shard_path) {
  return shard_path + ".ckpt";
}

}  // namespace rc4b::store
