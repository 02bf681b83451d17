#include "partition/block_store.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "circuit/content_hash.hpp"
#include "health/failpoints.hpp"
#include "health/report.hpp"

namespace awe::part {

namespace {

// Layout: "AWEB" magic, u32 version, u32 nb, u32 count, count*nb*nb f64
// payload, u64 checksum (lane 1 of the shared dual-lane hash over
// everything before it).  All little-endian via the enc:: writers.
constexpr char kMagic[4] = {'A', 'W', 'E', 'B'};
constexpr std::uint32_t kBlockFormatVersion = 1;

std::atomic<std::uint64_t> g_tmp_counter{0};

std::uint64_t checksum(const std::string& body) {
  enc::Hash2 h;
  h.update(body.data(), body.size());
  return h.final1();
}

std::string encode(std::size_t nb, std::size_t count,
                   const std::vector<std::vector<double>>& blocks) {
  std::string body;
  body.reserve(16 + count * nb * nb * 8 + 8);
  body.append(kMagic, sizeof(kMagic));
  enc::put_u32(body, kBlockFormatVersion);
  enc::put_u32(body, nb);
  enc::put_u32(body, count);
  for (const auto& block : blocks)
    for (const double v : block) enc::put_f64(body, v);
  enc::put_u64(body, checksum(body));
  return body;
}

std::uint64_t get_u64(const std::string& s, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[at + i])) << (8 * i);
  return v;
}

std::uint32_t get_u32(const std::string& s, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(s[at + i])) << (8 * i);
  return v;
}

}  // namespace

BlockStore::BlockStore(std::string dir) : dir_(std::move(dir)) {}

std::string BlockStore::entry_path(const std::string& dir, const std::string& key) {
  return (std::filesystem::path(dir) / (key + ".aweblock")).string();
}

std::optional<std::vector<std::vector<double>>> BlockStore::load(
    const std::string& key, std::size_t nb, std::size_t count) {
  const std::string path = entry_path(dir_, key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string body = raw.str();
  in.close();

  const std::size_t payload = count * nb * nb * 8;
  const std::size_t expected = 16 + payload + 8;
  bool valid = body.size() == expected &&
               std::memcmp(body.data(), kMagic, sizeof(kMagic)) == 0 &&
               get_u32(body, 4) == kBlockFormatVersion && get_u32(body, 8) == nb &&
               get_u32(body, 12) == count;
  if (valid) {
    enc::Hash2 h;
    h.update(body.data(), body.size() - 8);
    valid = h.final1() == get_u64(body, body.size() - 8);
  }
  if (!valid) {
    // Torn or damaged entry: report a miss — the caller recomputes and
    // re-stores.
    quarantine_entry(path, health::global_counters().partition_blocks_quarantined);
    return std::nullopt;
  }

  std::vector<std::vector<double>> blocks(count, std::vector<double>(nb * nb));
  std::size_t at = 16;
  for (auto& block : blocks)
    for (double& v : block) {
      const std::uint64_t bits = get_u64(body, at);
      std::memcpy(&v, &bits, sizeof(v));
      at += 8;
    }
  return blocks;
}

void BlockStore::store(const std::string& key, std::size_t nb,
                       const std::vector<std::vector<double>>& blocks) {
  std::filesystem::create_directories(dir_);
  // A torn block from the cache.partition site is quarantined by the next
  // load and rebuilt, never thrown.
  write_entry(entry_path(dir_, key), encode(nb, blocks.size(), blocks),
              health::failpoints::sites::kPartitionBlock);
}

bool write_entry(const std::string& path, std::string_view bytes, const char* crash_site) {
  namespace fs = std::filesystem;
  if (health::failpoints::fires(crash_site)) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    return false;
  }
  const std::string tmp_path =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(g_tmp_counter.fetch_add(1, std::memory_order_relaxed));
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cache: cannot write " + tmp_path);
  // From here on every failure removes the temp file before it throws.
  const auto fail = [&](const std::string& what) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    throw std::runtime_error(what);
  };
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();  // flushes: a short write (full disk, file size limit) shows here
  if (!out) fail("cache: write failed for " + tmp_path);
  std::error_code ec;
  fs::rename(tmp_path, path, ec);
  if (ec) fail("cache: rename into " + path + " failed");
  return true;
}

void quarantine_entry(const std::string& path, std::atomic<std::uint64_t>& counter) {
  const std::string bad = quarantine_path(path);
  std::error_code ec;
  std::filesystem::remove(bad, ec);
  std::filesystem::rename(path, bad, ec);
  if (ec) std::filesystem::remove(path, ec);
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace awe::part
