#pragma once
// StegoVolume: the §9.2 steganographic system sketched by the paper, made
// concrete.  A publicly visible volume (page-mapped FTL over the flash
// chip, assumed encrypted by the normal user) coexists with a hidden volume
// embedded in the voltage levels of the public pages via VT-HI.
//
// Properties reproduced from the paper:
//  * Key-only recovery: no persistent metadata — mounting scans candidate
//    blocks and authenticates chunks with the hiding key (§9.2 "Metadata
//    Persistence and Security").
//  * Migration survival: when the FTL garbage-collects or wear-levels a
//    block carrying hidden data, the volume rescues the chunk before the
//    erase and re-embeds it into freshly written public data (§5.1).
//  * Panic erase: destroying the hidden volume is one erase per block
//    ("almost instantaneous", §1).

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "stash/crypto/drbg.hpp"
#include "stash/ftl/ftl.hpp"
#include "stash/nand/chip.hpp"
#include "stash/util/status.hpp"
#include "stash/vthi/codec.hpp"

namespace stash::stego {

using util::Result;
using util::Status;

struct StegoStats {
  std::uint64_t rescues = 0;      // hidden chunks lifted out of GC victims
  std::uint64_t reembeds = 0;     // chunks re-embedded into new blocks
  std::uint64_t lost_chunks = 0;  // chunks that could not be re-homed
  /// Embeds whose read-back verification failed (worn carrier rejected);
  /// the chunk was retried elsewhere or kept pending, never lost.
  std::uint64_t failed_embeds = 0;
};

/// Aggregate configuration of one steganographic volume: the public FTL's
/// knobs plus the hidden channel's.  Follows the uniform config contract
/// (see FtlConfig::validate): validate() is checked by the StegoVolume
/// constructor, which throws std::invalid_argument on a non-OK status.
struct StegoConfig {
  ftl::FtlConfig ftl;
  vthi::VthiConfig vthi = vthi::VthiConfig::production();

  [[nodiscard]] Status validate() const {
    STASH_RETURN_IF_ERROR(ftl.validate());
    return vthi.validate();
  }
};

class StegoVolume {
 public:
  StegoVolume(nand::FlashChip& chip, const crypto::HidingKey& key,
              StegoConfig config = {});
  /// Convenience overload for call sites configuring only one layer.
  StegoVolume(nand::FlashChip& chip, const crypto::HidingKey& key,
              ftl::FtlConfig ftl_config,
              vthi::VthiConfig vthi_config = vthi::VthiConfig::production())
      : StegoVolume(chip, key, StegoConfig{ftl_config, vthi_config}) {}

  // ---- Public (normal user) volume ---------------------------------------
  Status write_public(std::uint64_t lpn, std::span<const std::uint8_t> bits);
  Result<std::vector<std::uint8_t>> read_public(std::uint64_t lpn);
  [[nodiscard]] std::uint64_t public_pages() const noexcept {
    return ftl_.logical_pages();
  }
  [[nodiscard]] std::uint32_t page_bits() const noexcept {
    return ftl_.page_bits();
  }

  // ---- Hidden (hiding user) volume ---------------------------------------

  /// An in-flight two-generation replacement of the hidden payload: the new
  /// chunk set is fully embedded (and read-back verified) while the old one
  /// stays loadable, then exactly one of commit/abort releases the loser.
  /// Obtained from prepare_store_hidden(); at most one may be active per
  /// volume.
  struct HiddenTxn {
    std::vector<std::uint32_t> new_blocks;
    std::set<std::uint32_t> old_blocks;
    bool active = false;
  };

  /// Store (or atomically replace) the hidden payload.  Splits it into
  /// per-block chunks and embeds each into a block full of public data;
  /// the previous payload is released only after every new chunk verified,
  /// so a failed store leaves the old payload loadable.
  Status store_hidden(std::span<const std::uint8_t> data);

  /// Phase 1 of a replace: embed and verify the complete new chunk set
  /// alongside the old one.  On failure the new partial embedding is
  /// scrubbed and the volume is unchanged.  Callers coordinating several
  /// volumes (StashDevice's multi-chip store) prepare everywhere before
  /// committing anywhere.
  Result<HiddenTxn> prepare_store_hidden(std::span<const std::uint8_t> data);
  /// Phase 2a: release the superseded generation (best-effort scrubs; the
  /// new payload is already durable and verified).
  Status commit_store_hidden(HiddenTxn& txn);
  /// Phase 2b: scrub the prepared new generation and keep the old payload.
  Status abort_store_hidden(HiddenTxn& txn);

  /// Scrub and untrack every hidden chunk (locating them with a key-only
  /// scan first when this instance tracks none).  Unlike panic_erase the
  /// public data sharing the carrier blocks is left intact.
  Status discard_hidden();

  /// Recover the hidden payload with nothing but the key: scans candidate
  /// blocks, authenticates each chunk, reassembles in order.
  Result<std::vector<std::uint8_t>> load_hidden();

  /// Destroy all hidden data (and the public data sharing its blocks).
  Status panic_erase();

  /// Re-embed any chunks rescued from relocated blocks.  Called
  /// automatically after public writes; exposed for deterministic tests.
  Status reembed_pending();

  [[nodiscard]] std::size_t hidden_chunk_capacity() const;
  /// Payload bytes store_hidden() could accept right now: per-chunk
  /// capacity times the blocks currently eligible to carry a chunk.
  [[nodiscard]] std::size_t hidden_capacity_bytes() const;
  [[nodiscard]] const StegoStats& stats() const noexcept { return stats_; }
  /// The public FTL beneath this volume (batch reads, GC, locate).
  [[nodiscard]] ftl::PageMappedFtl& ftl() noexcept { return ftl_; }
  [[nodiscard]] const std::set<std::uint32_t>& hidden_blocks() const noexcept {
    return hidden_blocks_;
  }

  // ---- Persistence (stash::store) ----------------------------------------
  /// Canonical serialization of the hidden-volume framing: the
  /// hidden-block set, rescued chunks awaiting a new home, and the rescue
  /// statistics.  The hidden *payload* itself lives in the chip voltages
  /// (saved with the chip); this is the bookkeeping that locates it.
  void serialize_state(std::vector<std::uint8_t>& out) const;
  /// Restore the framing from a serialize_state record.  kCorrupted on
  /// malformed input; the volume is unchanged on failure.
  Status deserialize_state(std::span<const std::uint8_t> bytes);

 private:
  struct Chunk {
    std::uint16_t index = 0;
    std::uint16_t total = 0;
    std::vector<std::uint8_t> data;
  };

  static constexpr std::size_t kChunkHeaderBytes = 4;

  [[nodiscard]] std::vector<std::uint8_t> pack_chunk(const Chunk& chunk) const;
  [[nodiscard]] static std::optional<Chunk> unpack_chunk(
      std::span<const std::uint8_t> payload);

  /// Blocks whose hidden pages are all programmed with public data and that
  /// do not already carry a hidden chunk.
  [[nodiscard]] std::vector<std::uint32_t> eligible_blocks() const;
  [[nodiscard]] bool block_fully_programmed(std::uint32_t block) const;

  void on_relocation(nand::PageAddr from);

  /// Embed `chunk` into `block` and read it back through the full reveal
  /// path.  Only a verified embedding claims the block; a failed one marks
  /// the carrier bad for this chunk and the caller tries elsewhere.
  bool embed_verified(std::uint32_t block, const Chunk& chunk);

  /// Best-effort release of a superseded carrier: overwrite the embedding
  /// with a tombstone frame whose chunk header is invalid.  Partial
  /// programming only raises voltages, so the overwrite scrambles the old
  /// codewords; whether the tombstone itself survives reveal or not, the
  /// block no longer yields a valid chunk to a key-only scan.
  void scrub_block(std::uint32_t block);

  nand::FlashChip* chip_;
  ftl::PageMappedFtl ftl_;
  vthi::VthiCodec codec_;
  std::set<std::uint32_t> hidden_blocks_;
  std::vector<Chunk> pending_;  // rescued, waiting for a new home
  StegoStats stats_;
};

}  // namespace stash::stego
