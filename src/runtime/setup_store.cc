#include "runtime/setup_store.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "sim/snapshot_io.h"

namespace meecc::runtime {

namespace fs = std::filesystem;

std::uint64_t setup_store_config_hash(std::string_view experiment_name) {
  io::Writer w;
  w.u32(sim::kSnapshotFormatVersion);
  w.str(experiment_name);
  return io::fnv1a64(w.data());
}

SetupStore::SetupStore(std::string directory,
                       std::string_view experiment_name)
    : directory_(std::move(directory)),
      address_seed_(io::fnv1a64(experiment_name)),
      config_hash_(setup_store_config_hash(experiment_name)) {}

std::string SetupStore::path_for(const std::string& setup_key) const {
  // The key hash chained with the experiment-name hash. Collisions are
  // survivable — the embedded setup_key is verified on load.
  const std::uint64_t address = io::fnv1a64(setup_key, address_seed_);
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.setup",
                static_cast<unsigned long long>(address));
  return (fs::path(directory_) / name).string();
}

SetupStore::LoadResult SetupStore::load(const std::string& setup_key) const {
  LoadResult result;
  std::string bytes;
  {
    std::ifstream in(path_for(setup_key), std::ios::binary);
    if (!in) return result;  // kAbsent
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof()) return result;
    bytes = std::move(buffer).str();
  }
  const io::FrameView frame =
      io::read_frame(bytes, kMagic, kFormatVersion, config_hash_);
  switch (frame.status) {
    case io::FrameStatus::kOk:
      break;
    case io::FrameStatus::kTruncated:
      result.status = Lookup::kTruncated;
      return result;
    case io::FrameStatus::kBadMagic:
      result.status = Lookup::kBadMagic;
      return result;
    case io::FrameStatus::kBadVersion:
      result.status = Lookup::kBadVersion;
      return result;
    case io::FrameStatus::kBadChecksum:
      result.status = Lookup::kBadChecksum;
      return result;
    case io::FrameStatus::kConfigMismatch:
      result.status = Lookup::kConfigMismatch;
      return result;
  }
  io::Reader r(frame.payload);
  std::string stored_key;
  try {
    stored_key = r.str();
  } catch (const io::DecodeError&) {
    result.status = Lookup::kTruncated;
    return result;
  }
  if (stored_key != setup_key) {
    result.status = Lookup::kKeyCollision;
    return result;
  }
  result.status = Lookup::kHit;
  result.payload = std::string(frame.payload.substr(8 + stored_key.size()));
  return result;
}

bool SetupStore::store(const std::string& setup_key,
                       std::string_view payload) const {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) return false;

  io::Writer w;
  w.str(setup_key);
  w.bytes(payload.data(), payload.size());
  const std::string framed =
      io::write_frame(kMagic, kFormatVersion, config_hash_, w.data());

  const std::string path = path_for(setup_key);
  // Unique temp name per writer so concurrent shards on one host never
  // interleave; rename() makes the publish atomic.
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid();
  const std::string tmp = tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string_view to_string(SetupStore::Lookup status) {
  switch (status) {
    case SetupStore::Lookup::kHit: return "hit";
    case SetupStore::Lookup::kAbsent: return "absent";
    case SetupStore::Lookup::kTruncated: return "truncated";
    case SetupStore::Lookup::kBadMagic: return "bad-magic";
    case SetupStore::Lookup::kBadVersion: return "format-version-mismatch";
    case SetupStore::Lookup::kBadChecksum: return "checksum-mismatch";
    case SetupStore::Lookup::kConfigMismatch: return "config-hash-mismatch";
    case SetupStore::Lookup::kKeyCollision: return "key-collision";
  }
  return "?";
}

}  // namespace meecc::runtime
