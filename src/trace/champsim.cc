#include "trace/champsim.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/serialize.hh"
#include "verify/fault_injector.hh"

namespace berti
{

namespace
{

verify::SimError
ioError(const std::string &component, const std::string &path,
        std::uint64_t offset, const std::string &reason)
{
    return verify::SimError(verify::ErrorKind::TraceIo, component, reason,
                            path, offset);
}

std::string
errnoReason(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

std::uint64_t
loadLe64(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);  // little-endian hosts only, like ChampSim
    return v;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Single-quote a path for /bin/sh so hostile names cannot inject. */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out.push_back(c);
    }
    out.push_back('\'');
    return out;
}

} // namespace

// ================================================================== mmap

MmapTraceSource::MmapTraceSource(const std::string &path) : file(path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw ioError("MmapTraceSource", path, 0,
                      errnoReason("cannot open file"));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        throw ioError("MmapTraceSource", path, 0,
                      errnoReason("cannot stat file"));
    }
    mapBytes = static_cast<std::uint64_t>(st.st_size);
    if (mapBytes > 0) {
        void *m = ::mmap(nullptr, mapBytes, PROT_READ, MAP_PRIVATE, fd, 0);
        if (m == MAP_FAILED) {
            int e = errno;
            ::close(fd);
            errno = e;
            throw ioError("MmapTraceSource", path, 0,
                          errnoReason("cannot mmap file"));
        }
        map = static_cast<const unsigned char *>(m);
#ifdef MADV_SEQUENTIAL
        ::madvise(const_cast<unsigned char *>(map), mapBytes,
                  MADV_SEQUENTIAL);
#endif
    }
    ::close(fd);
}

MmapTraceSource::~MmapTraceSource()
{
    if (map)
        ::munmap(const_cast<unsigned char *>(map), mapBytes);
}

const unsigned char *
MmapTraceSource::view(std::size_t want, std::size_t &got)
{
    std::uint64_t left = mapBytes - pos;
    got = static_cast<std::size_t>(
        left < static_cast<std::uint64_t>(want) ? left : want);
    return got ? map + pos : nullptr;
}

void
MmapTraceSource::consume(std::size_t n)
{
    pos += n;
}

// ============================================================= preloaded

PreloadedTraceSource::PreloadedTraceSource(std::vector<unsigned char> data,
                                           std::string label)
    : file(std::move(label)), bytes(std::move(data))
{}

const unsigned char *
PreloadedTraceSource::view(std::size_t want, std::size_t &got)
{
    std::uint64_t left = bytes.size() - pos;
    got = static_cast<std::size_t>(
        left < static_cast<std::uint64_t>(want) ? left : want);
    return got ? bytes.data() + pos : nullptr;
}

void
PreloadedTraceSource::consume(std::size_t n)
{
    pos += n;
}

// ================================================================ stream

TraceCompression
compressionForPath(const std::string &path)
{
    if (endsWith(path, ".xz"))
        return TraceCompression::Xz;
    if (endsWith(path, ".gz"))
        return TraceCompression::Gzip;
    return TraceCompression::None;
}

StreamTraceSource::StreamTraceSource(const std::string &path,
                                     std::size_t bufferBytes)
    : file(path),
      buf(bufferBytes < kChampSimRecordBytes ? kChampSimRecordBytes
                                             : bufferBytes)
{
    TraceCompression comp = compressionForPath(path);
    if (comp == TraceCompression::None) {
        throw ioError("StreamTraceSource", path, 0,
                      "not a compressed trace (expected .xz or .gz); raw "
                      "traces are read through MmapTraceSource");
    }
    tool = comp == TraceCompression::Xz ? "xz" : "gzip";
    open();
    // Eager first refill: a missing decompressor tool or an immediately
    // failing pipe surfaces as a typed error at construction, not
    // thousands of decoded records later.
    refill();
}

StreamTraceSource::~StreamTraceSource()
{
    close();
}

void
StreamTraceSource::open()
{
    // The file must exist and be readable regardless of the pipe: a
    // decompressor's shell-level "No such file" must not masquerade as
    // a decode problem.
    if (::access(file.c_str(), R_OK) != 0)
        throw ioError("StreamTraceSource", file, 0,
                      errnoReason("cannot open file"));

    std::string cmd =
        std::string(tool) + " -dc -- " + shellQuote(file) + " 2>/dev/null";
    in = ::popen(cmd.c_str(), "r");
    if (!in) {
        throw ioError("StreamTraceSource", file, 0,
                      errnoReason(std::string("cannot spawn ") + tool +
                                  " decompressor"));
    }
}

void
StreamTraceSource::close()
{
    if (in)
        ::pclose(in);
    in = nullptr;
}

void
StreamTraceSource::refill()
{
    if (eof || !in)
        return;
    // Compact the unconsumed tail to the front so view() can always
    // return one contiguous record from a fixed buffer.
    if (head > 0) {
        std::size_t live = tail - head;
        if (live > 0)
            std::memmove(buf.data(), buf.data() + head, live);
        head = 0;
        tail = live;
    }
    std::size_t n =
        std::fread(buf.data() + tail, 1, buf.size() - tail, in);
    tail += n;
    if (n == 0 || std::feof(in)) {
        if (std::ferror(in)) {
            std::uint64_t at = consumed + (tail - head);
            close();
            throw ioError("StreamTraceSource", file, at,
                          "read error on the decompression pipe");
        }
        if (tail == head || std::feof(in)) {
            eof = true;
            int status = ::pclose(in);
            in = nullptr;
            if (status != 0) {
                // Exit 127 = the shell could not find the tool: the
                // graceful typed fallback for hosts without xz/gzip.
                throw ioError(
                    "StreamTraceSource", file, consumed + (tail - head),
                    std::string(tool) +
                        " decompressor failed or is unavailable "
                        "(exit status " +
                        std::to_string(status) + ")");
            }
        }
    }
}

const unsigned char *
StreamTraceSource::view(std::size_t want, std::size_t &got)
{
    if (tail - head < want && !eof)
        refill();
    std::size_t avail = tail - head;
    got = avail < want ? avail : want;
    return got ? buf.data() + head : nullptr;
}

void
StreamTraceSource::consume(std::size_t n)
{
    head += n;
    consumed += n;
}

void
StreamTraceSource::rewind()
{
    // A stream that hit EOF before its buffer ever compacted is still
    // whole in buf: replay it rather than re-spawn the decompressor on
    // every pass of a cyclic replay.
    if (eof && consumed == head) {
        head = 0;
        consumed = 0;
        return;
    }
    close();
    head = tail = 0;
    consumed = 0;
    eof = false;
    open();
    refill();
}

// =============================================================== decoder

ChampSimRecord
decodeChampSimRecord(const unsigned char *bytes)
{
    ChampSimRecord r;
    r.ip = loadLe64(bytes);
    r.isBranch = bytes[8];
    r.branchTaken = bytes[9];
    for (unsigned i = 0; i < kChampSimNumDestinations; ++i)
        r.destRegisters[i] = bytes[10 + i];
    for (unsigned i = 0; i < kChampSimNumSources; ++i)
        r.srcRegisters[i] = bytes[12 + i];
    for (unsigned i = 0; i < kChampSimNumDestinations; ++i)
        r.destMemory[i] = loadLe64(bytes + 16 + 8 * i);
    for (unsigned i = 0; i < kChampSimNumSources; ++i)
        r.srcMemory[i] = loadLe64(bytes + 32 + 8 * i);
    return r;
}

ChampSimDecoder::ChampSimDecoder(TraceSource &source,
                                 verify::FaultInjector *injector)
    : src(source), faults(injector)
{}

const unsigned char *
ChampSimDecoder::fetch()
{
    std::size_t got = 0;
    const unsigned char *p = src.view(kChampSimRecordBytes, got);
    if (got == 0)
        return nullptr;
    if (got < kChampSimRecordBytes) {
        throw ioError("ChampSimDecoder", src.path(), src.offset(),
                      "truncated record (stream ends " +
                          std::to_string(got) + " bytes into a " +
                          std::to_string(kChampSimRecordBytes) +
                          "-byte record)");
    }
    if (faults) {
        std::memcpy(scratch, p, kChampSimRecordBytes);
        verify::TraceFault fault =
            faults->mutateTraceRecord(scratch, kChampSimRecordBytes);
        if (fault == verify::TraceFault::Truncated) {
            throw ioError("ChampSimDecoder", src.path(), src.offset(),
                          "injected truncation");
        }
        return scratch;
    }
    return p;
}

bool
ChampSimDecoder::nextRecord(ChampSimRecord &out)
{
    const unsigned char *p = fetch();
    if (!p)
        return false;
    out = decodeChampSimRecord(p);
    src.consume(kChampSimRecordBytes);
    ++decoded;
    return true;
}

bool
ChampSimDecoder::next(TraceInstr &out)
{
    const unsigned char *p = fetch();
    if (!p)
        return false;

    out = TraceInstr{};
    out.ip = loadLe64(p);
    out.isBranch = p[8] != 0;
    out.taken = p[9] != 0;

    // First two populated source-memory slots -> load0/load1, first
    // populated destination-memory slot -> store (0 = no operand).
    unsigned loads = 0;
    for (unsigned i = 0; i < kChampSimNumSources && loads < 2; ++i) {
        std::uint64_t a = loadLe64(p + 32 + 8 * i);
        if (a == 0)
            continue;
        (loads == 0 ? out.load0 : out.load1) = a;
        ++loads;
    }
    for (unsigned i = 0; i < kChampSimNumDestinations; ++i) {
        std::uint64_t a = loadLe64(p + 16 + 8 * i);
        if (a != 0) {
            out.store = a;
            break;
        }
    }

    // Pointer chasing: ChampSim encodes it through register numbers —
    // a load whose source register is the destination register of the
    // most recent earlier load is address-dependent on it.
    if (out.isLoad()) {
        for (unsigned s = 0; s < kChampSimNumSources &&
                             !out.dependsOnPrevLoad; ++s) {
            std::uint8_t reg = p[12 + s];
            if (reg == 0)
                continue;
            for (unsigned d = 0; d < kChampSimNumDestinations; ++d) {
                if (prevLoadDest[d] != 0 && prevLoadDest[d] == reg) {
                    out.dependsOnPrevLoad = true;
                    break;
                }
            }
        }
        for (unsigned d = 0; d < kChampSimNumDestinations; ++d)
            prevLoadDest[d] = p[10 + d];
    }

    src.consume(kChampSimRecordBytes);
    ++decoded;
    return true;
}

void
ChampSimDecoder::rewind()
{
    src.rewind();
    decoded = 0;
    for (unsigned d = 0; d < kChampSimNumDestinations; ++d)
        prevLoadDest[d] = 0;
}

// =============================================================== encoder

namespace
{

/** The register every encoded load writes and a dependent load reads. */
constexpr std::uint8_t kLoadRegister = 1;

void
storeLe64(unsigned char *p, std::uint64_t v)
{
    std::memcpy(p, &v, 8);  // little-endian hosts only, like loadLe64
}

/** A memory operand: kNoAddr is ChampSim's 0, "no operand". */
void
storeOperand(unsigned char *p, Addr a)
{
    storeLe64(p, a == kNoAddr ? 0 : a);
}

} // namespace

verify::Result<ChampSimBytes>
encodeChampSimRecord(const TraceInstr &in)
{
    const char *why = nullptr;
    if (in.load0 == 0 || in.load1 == 0 || in.store == 0)
        why = "address 0 is ChampSim's \"no operand\"";
    else if (!in.isLoad() && in.load1 != kNoAddr)
        why = "load1 without load0";
    else if (!in.isLoad() && in.dependsOnPrevLoad)
        why = "dependsOnPrevLoad on a non-load";
    if (why) {
        return ioError("encodeChampSimRecord", "", 0,
                       std::string("instruction not representable: ") +
                           why);
    }
    ChampSimBytes b{};
    storeLe64(b.data(), in.ip);
    b[8] = in.isBranch ? 1 : 0;
    b[9] = in.taken ? 1 : 0;
    b[10] = in.isLoad() ? kLoadRegister : 0;           // dest register 0
    b[12] = in.dependsOnPrevLoad ? kLoadRegister : 0;  // src register 0
    storeOperand(b.data() + 16, in.store);             // dest memory 0
    storeOperand(b.data() + 32, in.load0);             // src memory 0
    storeOperand(b.data() + 40, in.load1);             // src memory 1
    return b;
}

verify::Result<std::uint64_t>
saveChampSim(const std::string &path, TraceGenerator &gen,
             std::uint64_t count)
{
    auto saveError = [&path](std::uint64_t offset, const std::string &why) {
        return ioError("saveChampSim", path, offset, why);
    };
    // Owned, so a generator that throws mid-recording cannot leak it.
    auto close = [](std::FILE *fp) { std::fclose(fp); };
    std::unique_ptr<std::FILE, decltype(close)> f(
        std::fopen(path.c_str(), "wb"), close);
    if (!f)
        return saveError(0, errnoReason("cannot open file for writing"));

    bool loadSeen = false;
    for (std::uint64_t i = 0; i < count; ++i) {
        const TraceInstr in = gen.next();
        auto rec = encodeChampSimRecord(in);
        std::string why;
        if (!rec.ok())
            why = rec.error().reason();
        else if (in.dependsOnPrevLoad && !loadSeen)
            why = "instruction not representable: dependsOnPrevLoad with "
                  "no earlier load";
        else if (std::fwrite(rec.value().data(), kChampSimRecordBytes, 1,
                             f.get()) != 1)
            why = errnoReason("cannot write");
        if (!why.empty()) {
            return saveError(i * kChampSimRecordBytes,
                             "record " + std::to_string(i) + ": " + why);
        }
        loadSeen |= in.isLoad();
    }
    const std::uint64_t bytes = count * kChampSimRecordBytes;
    if (std::fclose(f.release()) != 0)
        return saveError(bytes, errnoReason("cannot flush file"));
    return bytes;
}

verify::Result<std::uint64_t>
saveChampSim(const std::string &path, const std::vector<TraceInstr> &instrs)
{
    ScriptedGen gen(instrs.empty() ? std::vector<TraceInstr>{TraceInstr{}}
                                   : instrs);
    return saveChampSim(path, gen, instrs.size());
}

// ================================================================ replay

namespace
{

/** The one reader choice: mmap for a raw file, the decompression pipe
 *  for a compressed one. */
std::unique_ptr<TraceSource>
makeSource(const std::string &path)
{
    if (compressionForPath(path) == TraceCompression::None)
        return std::make_unique<MmapTraceSource>(path);
    return std::make_unique<StreamTraceSource>(path);
}

} // namespace

std::vector<TraceInstr>
loadChampSim(const std::string &path)
{
    std::unique_ptr<TraceSource> src = makeSource(path);
    ChampSimDecoder dec(*src);
    std::vector<TraceInstr> instrs;
    TraceInstr in;
    while (dec.next(in))
        instrs.push_back(in);
    return instrs;
}

ChampSimReplayGen::ChampSimReplayGen(const std::string &path,
                                     verify::FaultInjector *faults)
    : source(makeSource(path)), decoder(*source, faults)
{
    // Refuse an empty or sub-record stream now, with a typed error,
    // instead of a confusing failure mid-simulation.
    std::size_t got = 0;
    source->view(kChampSimRecordBytes, got);
    if (got == 0) {
        throw ioError("ChampSimReplayGen", path, 0,
                      "trace holds no instructions");
    }
    if (got < kChampSimRecordBytes) {
        throw ioError("ChampSimReplayGen", path, 0,
                      "truncated record (file is " + std::to_string(got) +
                          " bytes, one record needs " +
                          std::to_string(kChampSimRecordBytes) + ")");
    }
}

TraceInstr
ChampSimReplayGen::next()
{
    TraceInstr out;
    if (decoder.next(out)) {
        if (!firstPassDone)
            length = decoder.recordsDecoded();
        return out;
    }
    firstPassDone = true;
    decoder.rewind();
    if (!decoder.next(out)) {
        throw ioError("ChampSimReplayGen", source->path(), 0,
                      "trace stream became empty on rewind");
    }
    return out;
}

// ================================================================= misc

bool
isChampSimTracePath(const std::string &path)
{
    return endsWith(path, ".champsim") || endsWith(path, ".champsim.xz") ||
           endsWith(path, ".champsim.gz");
}

verify::Result<std::uint64_t>
fileContentHash(const std::string &path)
{
    try {
        MmapTraceSource src(path);
        sim::Fnv64 h;
        std::size_t got = 0;
        if (const unsigned char *p = src.view(src.size(), got))
            h.addBytes(p, got);
        return h.value();
    } catch (const verify::SimError &e) {
        return e;
    }
}

} // namespace berti
