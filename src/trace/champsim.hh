/**
 * @file
 * ChampSim-compatible real-trace ingestion: a decoder for the ChampSim
 * `input_instr` fixed-record format layered over a zero-copy streaming
 * input stack, so the SPEC/GAP sim-point traces the paper evaluates on
 * drop straight into the workload registry next to the synthetic
 * generators (`file:/path/to/foo.champsim.xz` works anywhere a
 * workload name does).
 *
 * The on-disk record is the 64-byte little-endian struct documented by
 * ChampSim's `read_trace.py`:
 *
 *   offset  0  u64    ip
 *   offset  8  u8     is_branch
 *   offset  9  u8     branch_taken
 *   offset 10  u8[2]  destination_registers
 *   offset 12  u8[4]  source_registers
 *   offset 16  u64[2] destination_memory
 *   offset 32  u64[4] source_memory
 *
 * There is no file header: a ChampSim trace is a bare record stream,
 * usually xz- or gzip-compressed. Decode failures (a stream that ends
 * mid-record, an unreadable file, a missing or failing decompressor)
 * surface as verify::SimError (kind TraceIo) carrying the path and the
 * byte offset of the failure — never a crash or a silently short
 * stream.
 *
 * This is the repo's one trace format: saveChampSim writes it (trace
 * recording, the oracle's shrunk counterexamples), losslessly for
 * every TraceInstr the decoder can produce.
 *
 * Input stack layering (each independently testable):
 *   TraceSource        borrow-bytes interface (view/consume/rewind)
 *   MmapTraceSource    the one reader of raw bytes on disk: mmap-backed,
 *                      zero-copy, decode reads the page cache directly
 *   StreamTraceSource  bounded-buffer streaming through an external
 *                      `xz -dc` / `gzip -dc` process for compressed
 *                      files; the buffer is allocated once
 *   PreloadedTraceSource  bytes already in memory (fuzz corpora,
 *                      differential runs)
 *   ChampSimDecoder    record decode + TraceInstr mapping + fault hook
 *   ChampSimReplayGen  TraceGenerator adapter (cyclic replay)
 */

#ifndef BERTI_TRACE_CHAMPSIM_HH
#define BERTI_TRACE_CHAMPSIM_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/instr.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace verify
{
class FaultInjector;
} // namespace verify

/** Size of one ChampSim input_instr record on disk. */
constexpr std::size_t kChampSimRecordBytes = 64;
constexpr unsigned kChampSimNumDestinations = 2;
constexpr unsigned kChampSimNumSources = 4;

/** One decoded input_instr record, field for field. */
struct ChampSimRecord
{
    std::uint64_t ip = 0;
    std::uint8_t isBranch = 0;
    std::uint8_t branchTaken = 0;
    std::uint8_t destRegisters[kChampSimNumDestinations] = {};
    std::uint8_t srcRegisters[kChampSimNumSources] = {};
    std::uint64_t destMemory[kChampSimNumDestinations] = {};
    std::uint64_t srcMemory[kChampSimNumSources] = {};
};

/**
 * Borrow-bytes input interface the decoder reads from. view() exposes
 * up to `want` contiguous bytes at the cursor without copying them out
 * (the pointer stays valid until the next consume()/rewind() call);
 * consume() advances the cursor. A short view (< want) means the
 * stream ended. offset() is the cursor position in decompressed bytes,
 * which is what every decode error reports.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Borrow up to want bytes; got <= want, got < want only at end of
     *  stream. Returns nullptr only when got == 0. */
    virtual const unsigned char *view(std::size_t want,
                                      std::size_t &got) = 0;

    /** Advance the cursor past n previously viewed bytes. */
    virtual void consume(std::size_t n) = 0;

    /** Restart the stream from byte 0. */
    virtual void rewind() = 0;

    /** Bytes consumed since the last rewind (decode error offsets). */
    virtual std::uint64_t offset() const = 0;

    /** The file this source reads (error reporting). */
    virtual const std::string &path() const = 0;
};

/**
 * mmap-backed zero-copy source: the decoder reads record fields
 * straight out of the mapping. Construction throws
 * verify::SimError(TraceIo) when the file cannot be opened, sized or
 * mapped.
 */
class MmapTraceSource : public TraceSource
{
  public:
    explicit MmapTraceSource(const std::string &file);
    ~MmapTraceSource() override;

    MmapTraceSource(const MmapTraceSource &) = delete;
    MmapTraceSource &operator=(const MmapTraceSource &) = delete;

    const unsigned char *view(std::size_t want, std::size_t &got) override;
    void consume(std::size_t n) override;
    void rewind() override { pos = 0; }
    std::uint64_t offset() const override { return pos; }
    const std::string &path() const override { return file; }

    std::uint64_t size() const { return mapBytes; }

  private:
    std::string file;
    const unsigned char *map = nullptr;
    std::uint64_t mapBytes = 0;
    std::uint64_t pos = 0;
};

/**
 * Whole stream resident in memory, handed in as raw bytes (fuzz
 * corpora, differential runs); label stands in for the path in errors.
 */
class PreloadedTraceSource : public TraceSource
{
  public:
    PreloadedTraceSource(std::vector<unsigned char> data,
                         std::string label);

    const unsigned char *view(std::size_t want, std::size_t &got) override;
    void consume(std::size_t n) override;
    void rewind() override { pos = 0; }
    std::uint64_t offset() const override { return pos; }
    const std::string &path() const override { return file; }

  private:
    std::string file;
    std::vector<unsigned char> bytes;
    std::uint64_t pos = 0;
};

/** How a trace file is stored, which picks its reader. */
enum class TraceCompression : std::uint8_t
{
    None,  //!< raw records, read through MmapTraceSource
    Xz,    //!< `xz -dc` pipe
    Gzip   //!< `gzip -dc` pipe
};

/** Compression implied by a path's extension (.xz / .gz / raw). */
TraceCompression compressionForPath(const std::string &path);

/**
 * Bounded-buffer streaming source for a compressed trace: the .xz/.gz
 * file named by the path is piped through the external `xz -dc` /
 * `gzip -dc` tool. The refill buffer is allocated once at
 * construction, so steady-state decode does not touch the heap. A raw
 * path (no .xz/.gz extension), a missing file, a missing decompressor
 * tool, or a decompressor that exits non-zero all surface as
 * verify::SimError(TraceIo) naming the path and offset — the graceful
 * typed fallback for hosts without xz/gzip.
 */
class StreamTraceSource : public TraceSource
{
  public:
    explicit StreamTraceSource(const std::string &file,
                               std::size_t bufferBytes = 1u << 18);
    ~StreamTraceSource() override;

    StreamTraceSource(const StreamTraceSource &) = delete;
    StreamTraceSource &operator=(const StreamTraceSource &) = delete;

    const unsigned char *view(std::size_t want, std::size_t &got) override;
    void consume(std::size_t n) override;
    void rewind() override;
    std::uint64_t offset() const override { return consumed; }
    const std::string &path() const override { return file; }

  private:
    void open();
    void close();
    void refill();

    std::string file;
    const char *tool = nullptr;  //!< "xz" or "gzip"
    std::vector<unsigned char> buf;
    std::size_t head = 0;       //!< first unconsumed byte in buf
    std::size_t tail = 0;       //!< one past the last valid byte in buf
    std::uint64_t consumed = 0; //!< total bytes consumed this pass
    std::FILE *in = nullptr;
    bool eof = false;
};

/**
 * Streaming decoder: pulls 64-byte input_instr records off a
 * TraceSource and maps them onto TraceInstr. The mapping:
 *
 *   ip                   <- ip
 *   isBranch / taken     <- is_branch / branch_taken
 *   load0, load1         <- first two non-zero source_memory slots
 *   store                <- first non-zero destination_memory slot
 *   dependsOnPrevLoad    <- a source register of this memory
 *                           instruction matches a destination
 *                           register of the most recent earlier load
 *                           (how ChampSim encodes pointer chasing)
 *
 * ChampSim uses address 0 / register 0 as "no operand"; both map to
 * our kNoAddr / absent conventions. An optional FaultInjector mutates
 * raw records before decode: bit flips and garbage pass through as
 * hostile-but-parseable payloads, injected truncation surfaces as the
 * same typed error a real truncated file would produce.
 */
class ChampSimDecoder
{
  public:
    explicit ChampSimDecoder(TraceSource &source,
                             verify::FaultInjector *faults = nullptr);

    /**
     * Decode the next instruction. Returns false at a clean end of
     * stream (the stream ended exactly on a record boundary); throws
     * verify::SimError(TraceIo) with the byte offset of the record
     * start when the stream ends mid-record.
     */
    bool next(TraceInstr &out);

    /** Raw-record variant (round-trip tests and trace tooling). */
    bool nextRecord(ChampSimRecord &out);

    /** Restart the stream and the register-dependence tracking. */
    void rewind();

    /** Records decoded since the last rewind. */
    std::uint64_t recordsDecoded() const { return decoded; }

  private:
    const unsigned char *fetch();

    TraceSource &src;
    verify::FaultInjector *faults;
    std::uint64_t decoded = 0;
    /** Destination registers of the most recent load instruction
     *  (0 = none), for dependsOnPrevLoad inference. */
    std::uint8_t prevLoadDest[kChampSimNumDestinations] = {};
    /** Scratch record when fault injection needs mutable bytes. */
    unsigned char scratch[kChampSimRecordBytes] = {};
};

/** Decode one 64-byte record image (no source, no fault hook). */
ChampSimRecord decodeChampSimRecord(const unsigned char *bytes);

/** One encoded input_instr record image. */
using ChampSimBytes = std::array<unsigned char, kChampSimRecordBytes>;

/**
 * Encode one instruction as the record ChampSimDecoder::next maps back
 * onto the identical TraceInstr: load0/load1 go to source-memory slots
 * 0/1, store to destination-memory slot 0; every load writes
 * destination register 1 and a dependsOnPrevLoad load reads source
 * register 1. What the format cannot carry is a typed
 * SimError(TraceIo), never a silent change: a memory address of 0
 * (ChampSim's "no operand"), load1 without load0, or dependsOnPrevLoad
 * on a non-load.
 */
verify::Result<ChampSimBytes> encodeChampSimRecord(const TraceInstr &in);

/**
 * Write instructions as a raw ChampSim trace. Returns the bytes
 * written, or a typed SimError(TraceIo) with the path, the offset of
 * the failed or unencodable record and the reason. Besides
 * encodeChampSimRecord's cases, a dependsOnPrevLoad load with no
 * earlier load in the file is unencodable: it has no register to read.
 */
verify::Result<std::uint64_t> saveChampSim(
    const std::string &path, const std::vector<TraceInstr> &instrs);

/** Write count instructions pulled from gen to path. */
verify::Result<std::uint64_t> saveChampSim(const std::string &path,
                                           TraceGenerator &gen,
                                           std::uint64_t count);

/** Decode a whole ChampSim trace once, in order, through the reader
 *  ChampSimReplayGen picks (mmap for a raw file, the decompression pipe
 *  for a compressed one). Throws verify::SimError(TraceIo) on any
 *  decode failure. */
std::vector<TraceInstr> loadChampSim(const std::string &path);

/**
 * TraceGenerator adapter: replays a ChampSim trace file cyclically,
 * through the mmap source for a raw file and the streaming pipe for a
 * compressed one. Construction throws verify::SimError(TraceIo) when
 * the file cannot be opened, is empty, or ends mid-record within the
 * first record.
 */
class ChampSimReplayGen : public TraceGenerator
{
  public:
    explicit ChampSimReplayGen(const std::string &path,
                               verify::FaultInjector *faults = nullptr);

    TraceInstr next() override;

    /** Records per replay pass; exact once the first pass completed,
     *  before that the count seen so far. */
    std::uint64_t traceLength() const { return length; }

  private:
    std::unique_ptr<TraceSource> source;
    ChampSimDecoder decoder;
    std::uint64_t length = 0;
    bool firstPassDone = false;
};

/** True when the path names a ChampSim trace
 *  (.champsim / .champsim.xz / .champsim.gz). */
bool isChampSimTracePath(const std::string &path);

/**
 * FNV-1a-64 over a file's raw on-disk bytes (compressed form for
 * compressed traces), read through MmapTraceSource. The result-store
 * folds this into every file-workload key so two different files that
 * ever lived at the same path can never collide in the cache. Typed
 * SimError(TraceIo) naming the path when the file cannot be read.
 */
verify::Result<std::uint64_t> fileContentHash(const std::string &path);

} // namespace berti

#endif // BERTI_TRACE_CHAMPSIM_HH
