/**
 * @file
 * Checkpoint serialization primitives: a typed little-endian byte
 * writer/reader pair, an incremental FNV-1a-64 hasher (also the
 * result-store content hash), and a pointer<->id registry for
 * serializing the ReadClient pointers inside in-flight MemRequests.
 *
 * Every multi-byte field is written little-endian at a fixed width, so
 * a checkpoint blob is byte-identical across hosts and across
 * re-serialization of a restored machine (the round-trip property the
 * checkpoint fuzz suite pins). The reader is bounds-checked: running
 * past the end of a (truncated) blob throws
 * verify::SimError(ErrorKind::Checkpoint) carrying the byte offset,
 * never reads junk.
 *
 * On top of the pair sits StateIO, the one state walk: a component
 * describes its checkpoint layout once, in visitState(StateIO &), and
 * the same description saves (over a ByteWriter) and restores (over a
 * ByteReader). A PathProbe attached to the writer turns that walk into
 * a lookup from byte offset to state path, which is how checkpoint
 * compares name the first field that diverged.
 */

#ifndef BERTI_SIM_SERIALIZE_HH
#define BERTI_SIM_SERIALIZE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace berti
{
struct MemRequest;
} // namespace berti

namespace berti::sim
{

/** Incremental FNV-1a-64 hash. */
class Fnv64
{
  public:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    void
    addBytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            state ^= p[i];
            state *= kPrime;
        }
    }

    void add(std::string_view s) { addBytes(s.data(), s.size()); }

    void
    add(std::uint64_t v)
    {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        addBytes(b, 8);
    }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = kOffset;
};

/** One-shot FNV-1a-64 of a byte string. */
std::uint64_t fnv1a64(std::string_view data);

/**
 * Names the state path that covers one byte offset of a save walk, e.g.
 * "core0.l1d.pf.table[3].slots[5]". Attach it to the ByteWriter; every
 * StateIO section and element over that writer reports to it, so the
 * innermost one whose bytes span the offset wins.
 */
class PathProbe
{
  public:
    explicit PathProbe(std::size_t offset) : target(offset) {}

    /** The covering path; empty when no section spans the offset. */
    const std::string &path() const { return found; }

    /** Open a section named `name` whose bytes start at `at`. */
    void enter(const char *name, std::size_t at)
    {
        open.emplace_back(name, at);
    }

    /** Open an indexed one: `name` + index ("core0"), or the element
     *  "[index]" when `name` is null. */
    void enter(const char *name, std::size_t index, std::size_t at);

    /** Close the innermost open section; its bytes end before `at`. */
    void leave(std::size_t at);

  private:
    std::size_t target;
    std::string found;
    std::vector<std::pair<std::string, std::size_t>> open;
};

/**
 * Typed little-endian serializer into a growable byte string. Fields
 * are copied inline into a small staging buffer inside the writer, and
 * the string grows by one append per full buffer, out of line.
 */
class ByteWriter
{
  public:
    /** Append an unsigned v little-endian at its full width. */
    template <typename T>
    void
    put(T v)
    {
        static_assert(std::is_unsigned_v<T>);
        if (kStage - staged < sizeof(T)) [[unlikely]]
            flush();
        char *b = stage + staged;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(b, &v, sizeof(T));
        } else {
            for (std::size_t i = 0; i < sizeof(T); ++i)
                b[i] = static_cast<char>(v >> (8 * i));
        }
        staged += sizeof(T);
    }

    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }

    void
    bytes(const void *data, std::size_t len)
    {
        flush();
        buf.append(static_cast<const char *>(data), len);
    }

    /** Section marker; the reader cross-checks it so a save/load
     *  asymmetry fails at the drifting component, not megabytes later. */
    void tag(std::uint32_t t) { u32(t); }

    std::size_t size() const { return buf.size() + staged; }

    /** Make room for n bytes in all, so writing them never regrows. */
    void reserve(std::size_t n) { buf.reserve(n); }

    const std::string &
    data()
    {
        flush();
        return buf;
    }

    std::string
    take()
    {
        flush();
        return std::move(buf);
    }

    /** Report every StateIO section written through here to `p`. */
    void attach(PathProbe *p) { paths = p; }
    PathProbe *probe() const { return paths; }

  private:
    /** Move the staged bytes onto the end of buf. */
    void flush();

    static constexpr std::size_t kStage = 4096;

    std::string buf;
    char stage[kStage];
    std::size_t staged = 0;  //!< bytes of stage not yet in buf
    PathProbe *paths = nullptr;
};

/**
 * Bounds-checked little-endian reader over a checkpoint blob. All
 * failure modes (overrun, bad section tag) throw
 * verify::SimError(ErrorKind::Checkpoint) naming the component and the
 * byte offset.
 */
class ByteReader
{
  public:
    ByteReader(std::string_view data, std::string component)
        : buf(data), comp(std::move(component))
    {}

    /** Read an unsigned little-endian T: one bounds check for all of
     *  its bytes. */
    template <typename T>
    T
    get()
    {
        static_assert(std::is_unsigned_v<T>);
        need(sizeof(T));
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            v |= static_cast<T>(static_cast<T>(static_cast<unsigned char>(
                                    buf[pos + i]))
                                << (8 * i));
        }
        pos += sizeof(T);
        return v;
    }

    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }

    void
    bytes(void *out, std::size_t len)
    {
        need(len);
        buf.copy(static_cast<char *>(out), len, pos);
        pos += len;
    }

    /** Verify a section marker written by ByteWriter::tag. */
    void expectTag(std::uint32_t t, const char *what);

    std::size_t remaining() const { return buf.size() - pos; }
    bool atEnd() const { return pos == buf.size(); }

    /** Throw the typed checkpoint error for this reader's context. */
    [[noreturn]] void fail(const std::string &reason) const;

  private:
    /** The per-field bounds check: one compare inline, the message
     *  built out of line only when it fails. */
    void
    need(std::size_t n)
    {
        if (buf.size() - pos < n) [[unlikely]]
            failTruncated(n);
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    failTruncated(std::size_t n) const;

    std::string_view buf;
    std::size_t pos = 0;
    std::string comp;
};

/**
 * Bidirectional pointer<->small-id registry. Id 0 is always the null
 * pointer; both sides of a checkpoint build the map by walking the
 * machine topology in the same deterministic order, so an id written
 * on save resolves to the equivalent component on load.
 */
class PtrMap
{
  public:
    PtrMap() : ptrs{nullptr} {}

    /** Register the next pointer; ids are dense and order-assigned. */
    std::uint32_t
    add(void *p)
    {
        ptrs.push_back(p);
        return static_cast<std::uint32_t>(ptrs.size() - 1);
    }

    /** Id of a registered pointer (0 for null); throws on unknown. */
    std::uint32_t idOf(const void *p) const;

    /** Pointer for an id read from a checkpoint; throws on bad id. */
    void *at(std::uint32_t id) const;

  private:
    std::vector<void *> ptrs;
};

/**
 * One walk over a component's checkpoint state, saving or loading
 * depending on which stream it wraps. Every field call names the wire
 * width and takes the live lvalue, so a visitState body is both the
 * save and the load. The field path is inline templates throughout; a
 * PathProbe on the writer costs one null check per section or element
 * when absent.
 */
class StateIO
{
  public:
    explicit StateIO(ByteWriter &w, const PtrMap *clients = nullptr)
        : wr(&w), paths(w.probe()), ptrs(clients)
    {}
    explicit StateIO(ByteReader &r, const PtrMap *clients = nullptr)
        : rd(&r), ptrs(clients)
    {}

    bool loading() const { return rd != nullptr; }

    template <typename T> void u8(T &v) { field<std::uint8_t>(v); }
    template <typename T> void u16(T &v) { field<std::uint16_t>(v); }
    template <typename T> void u32(T &v) { field<std::uint32_t>(v); }
    template <typename T> void u64(T &v) { field<std::uint64_t>(v); }
    template <typename T> void i64(T &v) { field<std::int64_t>(v); }

    void b(bool &v) { field<std::uint8_t>(v); }

    void
    bytes(void *data, std::size_t len)
    {
        if (rd)
            rd->bytes(data, len);
        else
            wr->bytes(data, len);
    }

    /** Section marker; a load cross-checks it (see ByteWriter::tag). */
    void
    tag(std::uint32_t t, const char *what)
    {
        if (rd)
            rd->expectTag(t, what);
        else
            wr->tag(t);
    }

    /** Every counter of a stats struct, in its fields() table order. */
    template <typename S>
    void
    stats(const char *name, S &s)
    {
        enter(name);
        for (const auto &f : S::fields()) {
            enter(f.name);
            u64(s.*(f.member));
            leave();
        }
        leave();
    }

    /** An in-flight request; its client pointer travels as a PtrMap id. */
    void request(MemRequest &req);

    /** The element count of a table the live configuration sizes: a
     *  load that finds a different count fails typed. */
    void count(const char *name, std::size_t live);

    /** A named group of fields. */
    template <typename Fn>
    void
    section(const char *name, Fn &&fn)
    {
        enter(name);
        fn();
        leave();
    }

    /** A named group that is one of several, e.g. "core0" or "ch1". */
    template <typename Fn>
    void
    section(const char *name, std::size_t index, Fn &&fn)
    {
        if (paths)
            paths->enter(name, index, wr->size());
        fn();
        leave();
    }

    /** Every element of a container, uncounted. */
    template <typename C, typename Fn>
    void
    each(const char *name, C &c, Fn &&fn)
    {
        enter(name);
        elements(c, fn);
        leave();
    }

    /** A fixed-size table: its count, then every element. */
    template <typename C, typename Fn>
    void
    fixed(const char *name, C &c, Fn &&fn)
    {
        enter(name);
        count(name, c.size());
        elements(c, fn);
        leave();
    }

    /** A variable-length queue: its count, then every element; a load
     *  clears the container and refills it in order. */
    template <typename C, typename Fn>
    void
    list(const char *name, C &c, Fn &&fn)
    {
        enter(name);
        auto n = static_cast<std::uint32_t>(c.size());
        u32(n);
        if (rd) {
            c.clear();
            for (std::uint32_t i = 0; i < n; ++i) {
                typename C::value_type x{};
                fn(x);
                c.push_back(std::move(x));
            }
        } else {
            elements(c, fn);
        }
        leave();
    }

    /**
     * Hand a component whose saveState/loadState is a virtual bridge
     * (Prefetcher, mem::MemBackend) the raw stream, so a decorator
     * between the host and the component keeps forwarding.
     */
    template <typename Part>
    void
    bridge(Part &part)
    {
        if constexpr (requires { part.loadState(*rd); }) {
            if (rd)
                part.loadState(*rd);
            else
                part.saveState(*wr);
        } else {
            if (rd)
                part.loadState(*rd, *ptrs);
            else
                part.saveState(*wr, *ptrs);
        }
    }

    /** Throw the typed checkpoint error (ErrorKind::Checkpoint). */
    [[noreturn]] void fail(const std::string &reason) const;

  private:
    template <typename C, typename Fn>
    void
    elements(C &c, Fn &fn)
    {
        std::size_t i = 0;
        for (auto &x : c) {
            if (paths)
                paths->enter(nullptr, i, wr->size());
            ++i;
            fn(x);
            leave();
        }
    }

    /** v travels as a W; a signed W sign-extends on the way back. */
    template <typename W, typename T>
    void
    field(T &v)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
        using U = std::make_unsigned_t<W>;
        if (rd)
            v = static_cast<T>(static_cast<W>(rd->get<U>()));
        else
            wr->put(static_cast<U>(static_cast<W>(v)));
    }

    void
    enter(const char *name)
    {
        if (paths)
            paths->enter(name, wr->size());
    }

    void
    leave()
    {
        if (paths)
            paths->leave(wr->size());
    }

    ByteWriter *wr = nullptr;
    ByteReader *rd = nullptr;
    PathProbe *paths = nullptr;
    const PtrMap *ptrs = nullptr;
};

} // namespace berti::sim

#endif // BERTI_SIM_SERIALIZE_HH
