#include "logstore/manifest.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/atomic_io.hpp"
#include "common/binary.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "logstore/format.hpp"
#include "logstore/report.hpp"

namespace bglpred::logstore {
namespace {

constexpr std::uint32_t kManifestVersion = 1;
constexpr std::size_t kMaxNameLength = 4096;

[[noreturn]] void fail(const std::string& what) {
  throw StoreCorruption(StoreFaultClass::kBadManifest,
                        "manifest: " + what);
}

}  // namespace

std::string encode_manifest(const Manifest& manifest) {
  std::string out(kManifestTag);
  wire::append<std::uint32_t>(out, kManifestVersion);
  wire::append<std::uint8_t>(out, manifest.sealed ? 1 : 0);
  wire::append<std::uint32_t>(
      out, static_cast<std::uint32_t>(manifest.entries.size()));
  for (const ManifestEntry& e : manifest.entries) {
    wire::append<std::uint32_t>(out,
                                static_cast<std::uint32_t>(e.name.size()));
    out += e.name;
    wire::append<std::uint64_t>(out, e.record_count);
    wire::append<std::int64_t>(out, e.min_time);
    wire::append<std::int64_t>(out, e.max_time);
    wire::append<std::uint64_t>(out, e.file_size);
    wire::append<std::uint32_t>(out, e.footer_crc);
  }
  wire::append<std::uint32_t>(out, crc32(out));
  return out;
}

Manifest decode_manifest(std::string_view bytes) {
  const char* p = bytes.data();
  const char* end = bytes.data() + bytes.size();
  const auto need = [&](std::size_t n, const char* what) {
    if (static_cast<std::size_t>(end - p) < n) {
      fail(std::string("truncated reading ") + what);
    }
  };

  need(kManifestTag.size(), "magic");
  if (std::memcmp(p, kManifestTag.data(), kManifestTag.size()) != 0) {
    fail("bad magic");
  }
  if (bytes.size() < kManifestTag.size() + 4) {
    fail("truncated reading crc");
  }
  const auto stored_crc = wire::decode<std::uint32_t>(end - 4);
  end -= 4;
  if (crc32(std::string_view(bytes.data(), bytes.size() - 4)) != stored_crc) {
    fail("CRC mismatch");
  }
  p += kManifestTag.size();

  need(4 + 1 + 4, "header");
  const auto version = wire::decode<std::uint32_t>(p);
  p += 4;
  if (version != kManifestVersion) {
    fail("unsupported version");
  }
  Manifest manifest;
  manifest.sealed = wire::decode<std::uint8_t>(p) != 0;
  p += 1;
  const auto count = wire::decode<std::uint32_t>(p);
  p += 4;
  // Each entry: a 4-byte name length, a non-empty name, 36 bytes.
  if (count > static_cast<std::size_t>(end - p) / (4 + 1 + 36)) {
    fail("entry count exceeds the manifest's bytes");
  }
  manifest.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    need(4, "name length");
    const auto len = wire::decode<std::uint32_t>(p);
    p += 4;
    if (len == 0 || len > kMaxNameLength) {
      fail("implausible segment name length");
    }
    need(len, "name");
    ManifestEntry e;
    e.name.assign(p, len);
    if (e.name.find('/') != std::string::npos) {
      fail("segment name escapes store directory");
    }
    p += len;
    need(8 + 8 + 8 + 8 + 4, "entry");
    e.record_count = wire::decode<std::uint64_t>(p);
    e.min_time = wire::decode<std::int64_t>(p + 8);
    e.max_time = wire::decode<std::int64_t>(p + 16);
    e.file_size = wire::decode<std::uint64_t>(p + 24);
    e.footer_crc = wire::decode<std::uint32_t>(p + 32);
    p += 36;
    if (e.min_time > e.max_time || e.record_count == 0) {
      fail("implausible entry for " + e.name);
    }
    manifest.entries.push_back(std::move(e));
  }
  if (p != end) {
    fail("trailing bytes");
  }
  return manifest;
}

std::string manifest_path(const std::string& dir) {
  return dir + "/MANIFEST";
}

Manifest load_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open manifest: " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return decode_manifest(bytes);
}

void save_manifest(const std::string& dir, const Manifest& manifest) {
  atomic_write_file(manifest_path(dir), encode_manifest(manifest));
}

}  // namespace bglpred::logstore
