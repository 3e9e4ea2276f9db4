/**
 * @file
 * Checkpoint file format constants. The serialization itself is one
 * walk, Machine::visitPayload (checkpoint.cc) over each component's
 * visitState, shared by save and restore; the layout and versioning
 * rules are documented in ARCHITECTURE.md, "Crash safety & resume".
 *
 * Blob layout (everything little-endian, fixed width):
 *
 *   u64  magic            "BERTICKP"
 *   u32  format version   kCheckpointVersion
 *   u64  config fingerprint (Machine::configFingerprint())
 *   u32  core count
 *   ...  payload          per-component sections with sanity tags
 *   u64  checkpointChecksum() of every preceding byte
 *
 * Magic and version are checked first, so a blob from another format
 * version fails as version skew whatever its checksum. The checksum is
 * verified before any payload field is parsed, so a torn or bit-flipped
 * checkpoint is rejected as a whole — partially applying a corrupt
 * checkpoint is impossible by construction.
 *
 * Versioning rule: ANY change to the payload layout — a new field, a
 * reordered section, a widened counter — bumps kCheckpointVersion.
 * test_checkpoint's PristineLayoutIsPinned pins pristine blobs' size
 * and hash, so a layout change cannot land unnoticed.
 * There is deliberately no cross-version migration: checkpoints are
 * short-lived crash-recovery artefacts, not archival data, and a
 * version mismatch throws a typed error telling the caller to re-run.
 */

#ifndef BERTI_HARNESS_CHECKPOINT_HH
#define BERTI_HARNESS_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace berti::harness
{

/** "BERTICKP" read as a little-endian u64. */
constexpr std::uint64_t kCheckpointMagic = 0x504b434954524542ull;

/** Current checkpoint format version; bump on any layout change.
 *  v2: pluggable memory backends — the DRAM section gained the
 *  FR-FCFS starvation-cap bypass counter, multi-channel backends wrap
 *  per-channel sections in their own tags, and the config fingerprint
 *  folds the backend model/scheduler/geometry.
 *  v3: the trailing checksum became checkpointChecksum() (FNV-1a over
 *  64-bit words) instead of byte-wise FNV-1a; the payload is unchanged.
 *  v4: the DRAM scheduler is FR-FCFS only — each DRAM section lost the
 *  starvation-cap bypass counter (one u64 per channel) and the config
 *  fingerprint no longer folds a scheduler kind or starvation cap. */
constexpr std::uint32_t kCheckpointVersion = 4;

/** Bytes of header before the payload (magic + version + fingerprint
 *  + core count) and of the trailing checksum. */
constexpr std::size_t kCheckpointHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::size_t kCheckpointChecksumBytes = 8;

/**
 * The blob checksum: FNV-1a over the little-endian 64-bit words of
 * `data`, then byte-wise over the 0-7 byte tail. One multiply per word
 * instead of per byte; each step (s ^ w) * prime is a bijection of the
 * state, so a change confined to one word is always detected.
 */
std::uint64_t checkpointChecksum(std::string_view data);

} // namespace berti::harness

#endif // BERTI_HARNESS_CHECKPOINT_HH
