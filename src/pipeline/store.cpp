#include "pipeline/store.hpp"

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "obs/obs.hpp"
#include "pipeline/version.hpp"
#include "serial/serial.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace cepic::pipeline {

namespace {

namespace fs = std::filesystem;

constexpr bool table_in_enum_order() {
  for (int i = 0; i < kNumGranularities; ++i) {
    if (static_cast<int>(kGranularities[i].granularity) != i) return false;
  }
  return true;
}
static_assert(table_in_enum_order(),
              "kGranularities rows must follow the Granularity enum");

std::string hex16(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

/// Contents of the `format` marker each versioned directory carries.
/// Bump together with the store layout (not the artifact schema — that
/// is what the version tag is for).
constexpr std::string_view kFormatMarker = "cepx-store 2\n";

/// A kResult blob: four little-endian u64 fields and the u32 `ret`.
constexpr std::size_t kSimResultBytes = 4 * 8 + 4;

/// Unique among all threads of all processes sharing a store: thread
/// ids alone repeat across processes, so temp names carry the pid too.
std::string writer_id() {
  std::ostringstream id;
  id << ::getpid() << "." << std::this_thread::get_id();
  return id.str();
}

std::span<const std::uint8_t> as_bytes(std::string_view blob) {
  return {reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()};
}

std::string_view as_view(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

std::string to_string(const ArtifactId& id) {
  return cat(to_string(id.granularity), ":", hex16(id.digest));
}

Store::Store(const std::string& root, std::string version_tag) {
  if (root.empty()) return;  // degenerate: behave as memory-only
  if (version_tag.empty()) version_tag = store_version_tag();

  // A store *root* contains version-tag directories; a *versioned*
  // directory contains the per-granularity subtrees. Someone pointing
  // the root at a versioned directory (old layout, or a copy-paste of
  // an inner path) would silently shadow every artifact, so reject it.
  const fs::path root_path(root);
  for (const GranularityInfo& g : kGranularities) {
    std::error_code ec;
    if (fs::is_directory(root_path / g.subdir, ec)) {
      throw Error(cat(
          "store root ", root, " looks like a versioned artifact directory "
          "(contains '", g.subdir, "/'); pass the store root, not a version "
          "subdirectory — old-layout stores must be re-produced"));
    }
  }

  dir_ = (root_path / version_tag).string();
  std::error_code ec;
  if (!fs::exists(fs::path(dir_), ec)) {
    // Publish the versioned directory with its marker already inside
    // (temp directory + rename): stores opened concurrently on a fresh
    // root must never observe it unmarked. Losing the rename to another
    // opener is fine — the marker check below reads the winner's.
    const fs::path tmp = cat(dir_, ".tmp.", writer_id());
    fs::create_directories(tmp, ec);
    std::ofstream out(tmp / "format", std::ios::binary | std::ios::trunc);
    if (ec || !out ||
        !out.write(kFormatMarker.data(),
                   static_cast<std::streamsize>(kFormatMarker.size()))
             .flush()) {
      fs::remove_all(tmp, ec);
      throw Error(cat("cannot create store directory ", dir_));
    }
    out.close();
    fs::rename(tmp, fs::path(dir_), ec);
    if (ec) fs::remove_all(tmp, ec);
  }
  std::ifstream in(fs::path(dir_) / "format", std::ios::binary);
  std::ostringstream ss;
  if (in) ss << in.rdbuf();
  if (!in || ss.str() != kFormatMarker) {
    throw Error(cat(
        "store directory ", dir_, " was not written by this toolchain "
        "(missing or mismatched format marker); delete it or point the "
        "store elsewhere — old-layout stores must be re-produced"));
  }
}

std::string Store::object_path(const ArtifactId& id) const {
  const GranularityInfo& g = granularity_info(id.granularity);
  return (fs::path(dir_) / g.subdir / (hex16(id.digest) + g.extension))
      .string();
}

bool Store::fetch(const ArtifactId& id, std::string& blob) {
  // Every get() funnels through here, so one latency seam covers
  // memory hits, disk promotions and misses alike.
  obs::ScopedObserve latency("store.get_ns");
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto& map = mem_[static_cast<int>(id.granularity)];
    const auto it = map.find(id.digest);
    if (it != map.end()) {
      blob = it->second;
      return true;
    }
  }
  if (dir_.empty()) return false;
  std::ifstream in(object_path(id), std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  blob = ss.str();
  std::unique_lock<std::mutex> lock(mu_);
  mem_[static_cast<int>(id.granularity)][id.digest] = blob;
  return true;
}

void Store::count(Granularity g, bool hit) {
  std::unique_lock<std::mutex> lock(mu_);
  GranularityStats& s = stats_.*granularity_info(g).stats;
  ++(hit ? s.hits : s.misses);
}

bool Store::get(const ArtifactId& id, std::string& blob) {
  const bool hit = fetch(id, blob);
  count(id.granularity, hit);
  return hit;
}

void Store::put(const ArtifactId& id, std::string_view blob) {
  obs::ScopedObserve latency("store.put_ns");
  {
    std::unique_lock<std::mutex> lock(mu_);
    mem_[static_cast<int>(id.granularity)][id.digest] = std::string(blob);
    ++(stats_.*granularity_info(id.granularity).stats).puts;
  }
  if (dir_.empty()) return;
  const std::string path = object_path(id);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) throw Error(cat("cannot create store directory for ", path));
  // Temp file + rename: concurrent writers of the same key race only on
  // identical content, and readers never see a partial object.
  const std::string tmp = cat(path, ".tmp.", writer_id());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error(cat("cannot write store object ", tmp));
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.flush()) throw Error(cat("failed writing store object ", tmp));
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw Error(cat("cannot publish store object ", path));
  }
}

bool Store::get(const ArtifactId& id, ir::Module& out) {
  CEPIC_CHECK(id.granularity == Granularity::kIr,
              "Module artifacts live at Granularity::kIr");
  std::string blob;
  if (!get(id, blob)) return false;
  try {
    out = serial::decode_module(as_bytes(blob));
  } catch (const Error& e) {
    throw Error(cat("store artifact ", to_string(id), ": ", e.what()));
  }
  return true;
}

void Store::put(const ArtifactId& id, const ir::Module& module) {
  CEPIC_CHECK(id.granularity == Granularity::kIr,
              "Module artifacts live at Granularity::kIr");
  const std::vector<std::uint8_t> bytes = serial::encode_module(module);
  put(id, as_view(bytes));
}

bool Store::get(const ArtifactId& id, Program& out) {
  CEPIC_CHECK(id.granularity == Granularity::kProgram,
              "Program artifacts live at Granularity::kProgram");
  std::string blob;
  if (!get(id, blob)) return false;
  try {
    out = serial::decode_program(as_bytes(blob));
  } catch (const Error& e) {
    throw Error(cat("store artifact ", to_string(id), ": ", e.what()));
  }
  return true;
}

void Store::put(const ArtifactId& id, const Program& program) {
  CEPIC_CHECK(id.granularity == Granularity::kProgram,
              "Program artifacts live at Granularity::kProgram");
  const std::vector<std::uint8_t> bytes = serial::encode_program(program);
  put(id, as_view(bytes));
}

bool Store::get(const ArtifactId& id, SimResult& out) {
  CEPIC_CHECK(id.granularity == Granularity::kResult,
              "simulation results live at Granularity::kResult");
  std::string blob;
  const bool hit = fetch(id, blob) && blob.size() == kSimResultBytes;
  count(id.granularity, hit);
  if (!hit) return false;
  std::size_t pos = 0;
  const auto field = [&blob, &pos](int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(blob[pos++])} << (8 * i);
    }
    return v;
  };
  out.cycles = field(8);
  out.ops_committed = field(8);
  out.output_words = field(8);
  out.output_hash = field(8);
  out.ret = static_cast<std::uint32_t>(field(4));
  return true;
}

void Store::put(const ArtifactId& id, const SimResult& result) {
  CEPIC_CHECK(id.granularity == Granularity::kResult,
              "simulation results live at Granularity::kResult");
  std::string blob;
  const auto field = [&blob](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      blob.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  field(result.cycles, 8);
  field(result.ops_committed, 8);
  field(result.output_words, 8);
  field(result.output_hash, 8);
  field(result.ret, 4);
  put(id, blob);
}

StoreStats Store::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cepic::pipeline
