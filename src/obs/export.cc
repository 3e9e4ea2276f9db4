#include "obs/export.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "verify/sim_error.hh"

namespace berti::obs
{

namespace
{

[[noreturn]] void
failIo(const std::string &reason, const std::string &path = {},
       std::uint64_t offset = 0)
{
    throw verify::SimError(verify::ErrorKind::TraceIo, "obs", reason,
                           path, offset);
}

std::string
escapeName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
valueString(const MetricsSnapshot::Value &v)
{
    if (v.kind == MetricKind::Counter)
        return std::to_string(v.u);
    return formatDouble(v.d);
}

std::string
describeValue(const MetricsSnapshot::Value &v)
{
    return std::string(metricKindName(v.kind)) + " " + valueString(v);
}

} // namespace

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
toJson(const MetricsSnapshot &snap)
{
    std::ostringstream os;
    os << "{\n  \"schema_version\": " << MetricsSnapshot::kSchemaVersion
       << ",\n";

    auto section = [&os, &snap](const char *title, MetricKind kind,
                                bool last) {
        os << "  \"" << title << "\": {";
        bool first = true;
        for (const auto &[name, value] : snap.values()) {
            if (value.kind != kind)
                continue;
            os << (first ? "\n" : ",\n") << "    \"" << escapeName(name)
               << "\": " << valueString(value);
            first = false;
        }
        os << (first ? "}" : "\n  }") << (last ? "\n" : ",\n");
    };
    section("counters", MetricKind::Counter, false);
    section("gauges", MetricKind::Gauge, true);
    os << "}\n";
    return os.str();
}

// ------------------------------------------------------------ JSON reader

namespace
{

/** Minimal reader for the flat snapshot schema toJson() emits. */
class SnapshotReader
{
  public:
    SnapshotReader(const std::string &text, const std::string &origin)
        : s(text), path(origin)
    {}

    MetricsSnapshot
    parse()
    {
        MetricsSnapshot snap;
        bool saw_version = false;
        expect('{');
        while (true) {
            std::string key = readString();
            expect(':');
            if (key == "schema_version") {
                std::uint64_t v = readU64();
                if (v != MetricsSnapshot::kSchemaVersion) {
                    failIo("schema_version " + std::to_string(v) +
                               " != supported version " +
                               std::to_string(
                                   MetricsSnapshot::kSchemaVersion),
                           path, pos);
                }
                saw_version = true;
            } else if (key == "counters") {
                readSection(snap, MetricKind::Counter);
            } else if (key == "gauges") {
                readSection(snap, MetricKind::Gauge);
            } else {
                failIo("unknown top-level key \"" + key + "\"", path,
                       pos);
            }
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            break;
        }
        expect('}');
        if (!saw_version)
            failIo("document has no schema_version", path, pos);
        return snap;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
                s[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= s.size())
            failIo("unexpected end of document", path, pos);
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            failIo(std::string("expected '") + c + "', found '" +
                       s[pos] + "'",
                   path, pos);
        ++pos;
    }

    std::string
    readString()
    {
        expect('"');
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\' && pos + 1 < s.size())
                ++pos;
            out.push_back(s[pos++]);
        }
        if (pos >= s.size())
            failIo("unterminated string", path, pos);
        ++pos;  // closing quote
        return out;
    }

    std::uint64_t
    readU64()
    {
        skipWs();
        char *end = nullptr;
        errno = 0;
        unsigned long long v = std::strtoull(s.c_str() + pos, &end, 10);
        if (end == s.c_str() + pos || errno == ERANGE)
            failIo("expected an unsigned integer", path, pos);
        pos = static_cast<std::size_t>(end - s.c_str());
        return static_cast<std::uint64_t>(v);
    }

    double
    readDouble()
    {
        skipWs();
        char *end = nullptr;
        errno = 0;
        double v = std::strtod(s.c_str() + pos, &end);
        if (end == s.c_str() + pos)
            failIo("expected a number", path, pos);
        pos = static_cast<std::size_t>(end - s.c_str());
        return v;
    }

    void
    readSection(MetricsSnapshot &snap, MetricKind kind)
    {
        expect('{');
        if (peek() == '}') {
            ++pos;
            return;
        }
        while (true) {
            std::string name = readString();
            expect(':');
            if (snap.contains(name))
                failIo("duplicate metric \"" + name + "\"", path, pos);
            if (kind == MetricKind::Counter)
                snap.setCounter(name, readU64());
            else
                snap.setGauge(name, readDouble());
            if (peek() == ',') {
                ++pos;
                continue;
            }
            break;
        }
        expect('}');
    }

    const std::string &s;
    std::string path;
    std::size_t pos = 0;
};

} // namespace

MetricsSnapshot
snapshotFromJson(const std::string &json, const std::string &origin)
{
    return SnapshotReader(json, origin).parse();
}

std::vector<FieldDiff>
diffSnapshots(const MetricsSnapshot &expected,
              const MetricsSnapshot &actual)
{
    std::vector<FieldDiff> out;
    auto e = expected.values().begin();
    auto a = actual.values().begin();
    while (e != expected.values().end() || a != actual.values().end()) {
        if (a == actual.values().end() ||
            (e != expected.values().end() && e->first < a->first)) {
            out.push_back({e->first, describeValue(e->second),
                           "<missing>"});
            ++e;
        } else if (e == expected.values().end() || a->first < e->first) {
            out.push_back({a->first, "<missing>",
                           describeValue(a->second)});
            ++a;
        } else {
            std::string ev = describeValue(e->second);
            std::string av = describeValue(a->second);
            if (ev != av)
                out.push_back({e->first, ev, av});
            ++e;
            ++a;
        }
    }
    return out;
}

std::string
formatDiff(const std::vector<FieldDiff> &diffs)
{
    std::size_t w = 0;
    for (const auto &d : diffs)
        w = std::max(w, d.name.size());
    std::ostringstream os;
    for (const auto &d : diffs) {
        os << "  " << d.name << std::string(w - d.name.size() + 2, ' ')
           << "expected: " << d.expected << "  actual: " << d.actual
           << '\n';
    }
    return os.str();
}

MetricsSnapshot
snapshotOf(const RunStats &stats)
{
    MetricsSnapshot snap;
    visitRunStatsCounters(
        stats, [&snap](const std::string &name, const std::uint64_t &v) {
            snap.setCounter(name, v);
        });
    snap.setGauge("core.ipc", stats.core.ipc());
    auto derived = [&snap, &stats](const char *p, const CacheStats &c) {
        std::string prefix(p);
        snap.setGauge(prefix + "accuracy", c.accuracy());
        snap.setGauge(prefix + "avg_fill_latency", c.avgFillLatency());
        snap.setGauge(prefix + "mpki", c.mpki(stats.core.instructions));
        snap.setCounter(prefix + "prefetch_timely", c.prefetchTimely());
    };
    derived("l1d.", stats.l1d);
    derived("l1i.", stats.l1i);
    derived("l2.", stats.l2);
    derived("llc.", stats.llc);
    return snap;
}

void
appendEnergy(MetricsSnapshot &snap, const EnergyBreakdown &energy)
{
    snap.setGauge("energy.dram", energy.dram);
    snap.setGauge("energy.l1", energy.l1);
    snap.setGauge("energy.l2", energy.l2);
    snap.setGauge("energy.llc", energy.llc);
    snap.setGauge("energy.total", energy.total());
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);

    std::string tmp = path + ".tmp";
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os)
        failIo("cannot open for writing", tmp);
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
    // write() may only fill the stream buffer: the last bytes reach the
    // file at close(), so only the state after close() proves a whole
    // file.
    os.close();
    if (!os) {
        std::filesystem::remove(tmp, ec);
        failIo("short write", tmp);
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        failIo("rename failed: " + ec.message(), path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        failIo("cannot open for reading", path);
    std::ostringstream os;
    os << is.rdbuf();
    if (!is)
        failIo("read failed", path);
    return os.str();
}

std::string
sanitizeLabel(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    for (char c : label) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                  c == '_';
        out.push_back(ok ? c : '-');
    }
    return out.empty() ? std::string("unnamed") : out;
}

std::size_t
removeStaleTempFiles(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return 0;
    std::size_t removed = 0;
    for (const auto &entry : it) {
        if (!entry.is_regular_file(ec))
            continue;
        if (entry.path().extension() == ".tmp" &&
            std::filesystem::remove(entry.path(), ec) && !ec) {
            ++removed;
        }
    }
    return removed;
}

} // namespace berti::obs
