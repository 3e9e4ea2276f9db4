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
 *   u64  FNV-1a-64 checksum over every preceding byte
 *
 * The checksum is verified before any payload field is parsed, so a
 * torn or bit-flipped checkpoint is rejected as a whole — partially
 * applying a corrupt checkpoint is impossible by construction.
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

namespace berti::harness
{

/** "BERTICKP" read as a little-endian u64. */
constexpr std::uint64_t kCheckpointMagic = 0x504b434954524542ull;

/** Current checkpoint format version; bump on any layout change.
 *  v2: pluggable memory backends — the DRAM section gained the
 *  FR-FCFS starvation-cap bypass counter, multi-channel backends wrap
 *  per-channel sections in their own tags, and the config fingerprint
 *  folds the backend model/scheduler/geometry. */
constexpr std::uint32_t kCheckpointVersion = 2;

/** Bytes of header before the payload (magic + version + fingerprint
 *  + core count) and of the trailing checksum. */
constexpr std::size_t kCheckpointHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::size_t kCheckpointChecksumBytes = 8;

} // namespace berti::harness

#endif // BERTI_HARNESS_CHECKPOINT_HH
