// On-disk store for serialized warm setup states.
//
// The in-process SetupCache (setup_cache.h) makes a sweep build each warm
// state once per process; this store makes it once per *campaign*: a built
// state is encoded (experiment-defined codec), framed (common/bytes.h) and
// written under an address derived from its setup_key and the experiment
// name, so a restarted process — or a shard running on another host —
// loads the bytes instead of re-running Algorithm 1.
//
// The address deliberately leaves out the snapshot format version: an
// entry written by an older build sits at the very path a rebuild writes
// to, is rejected at the frame's config-hash check (which does fold the
// version in), and is overwritten in place — a format bump never strands
// dead files in the directory.
//
// Trust model: a loaded entry is used only when every frame check passes
// (length, magic, format version, config hash, checksum) AND the embedded
// setup_key matches (the 64-bit address could collide). Every failure
// mode maps to a distinct Lookup status; callers treat all of them as
// "build fresh" — a corrupt store can cost time, never correctness.
//
// Writes are atomic (temp file + rename) so a killed shard never leaves a
// torn entry for the next one to trip on.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace meecc::runtime {

/// Canonical config hash for a setup store: the snapshot wire-format
/// version chained with the experiment name. Everything else that shapes a
/// warm state (seed, config-key params) is part of the setup_key; a
/// snapshot-format bump makes every older entry fail the config-hash check.
std::uint64_t setup_store_config_hash(std::string_view experiment_name);

class SetupStore {
 public:
  /// "MEECSETP" — identifies a setup-store entry file.
  static constexpr std::uint64_t kMagic = 0x4d45454353'455450ULL;
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Store for `experiment_name`'s entries: loads are gated on
  /// setup_store_config_hash(experiment_name), and entries are addressed
  /// by (experiment name, setup_key), so experiments sharing one directory
  /// — even with equal setup keys — never contend for a file.
  /// `directory` is created on first store().
  SetupStore(std::string directory, std::string_view experiment_name);

  enum class Lookup {
    kHit,
    kAbsent,          ///< no entry file (or unreadable)
    kTruncated,       ///< file shorter than the frame declares
    kBadMagic,        ///< not a setup-store entry
    kBadVersion,      ///< written by an incompatible format version
    kBadChecksum,     ///< payload corrupted on disk
    kConfigMismatch,  ///< written under a different config hash
    kKeyCollision,    ///< valid entry, but for a different setup_key
  };

  struct LoadResult {
    Lookup status = Lookup::kAbsent;
    /// The experiment-defined payload; set only when status == kHit.
    std::optional<std::string> payload;
  };

  /// Reads and validates the entry for `setup_key`.
  LoadResult load(const std::string& setup_key) const;

  /// Atomically writes the framed payload for `setup_key`. Best-effort:
  /// returns false on I/O failure (the campaign still works, just warm).
  bool store(const std::string& setup_key, std::string_view payload) const;

  /// Entry file path for `setup_key`: a hash of the experiment name and
  /// the key, under directory.
  std::string path_for(const std::string& setup_key) const;

  const std::string& directory() const { return directory_; }
  std::uint64_t config_hash() const { return config_hash_; }

 private:
  std::string directory_;
  std::uint64_t address_seed_;  ///< hash of the experiment name
  std::uint64_t config_hash_;
};

std::string_view to_string(SetupStore::Lookup status);

}  // namespace meecc::runtime
