#include "harness/result_store.hh"

#include <cstdlib>
#include <filesystem>

#include "mem/backend_registry.hh"
#include "obs/export.hh"
#include "sim/serialize.hh"
#include "verify/sim_error.hh"

namespace berti::harness
{

namespace
{

/** Entry-file header magic; bump the version on any layout change. */
constexpr const char *kHeaderMagic = "BERTI-RESULT v1";

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/** Keep [A-Za-z0-9._-]; everything else becomes '_'. The trailing key
 *  hash keeps sanitised collisions harmless. */
std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                  c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

} // namespace

std::uint64_t
StoreKey::hash() const
{
    sim::Fnv64 h;
    h.add(workload);
    h.add(std::uint64_t{0});  // field separator
    h.add(spec);
    h.add(std::uint64_t{0});
    h.add(paramsHash);
    h.add(codeVersion);
    // Folded only when present so synthetic-workload keys (and every
    // store entry written before file workloads existed) stay stable.
    if (contentHash != 0) {
        h.add(std::uint64_t{0});
        h.add(contentHash);
    }
    return h.value();
}

std::string
StoreKey::stem() const
{
    return sanitize(spec) + "__" + sanitize(workload) + "-" +
           hex16(hash());
}

std::string
StoreKey::describe() const
{
    std::string out = workload + " | " + spec + " | params=" +
                      hex16(paramsHash) + " | code=" + codeVersion;
    if (contentHash != 0)
        out += " | content=" + hex16(contentHash);
    return out;
}

std::uint64_t
paramsFingerprint(const SimParams &params)
{
    sim::Fnv64 h;
    h.add(params.warmupInstructions);
    h.add(params.measureInstructions);
    // Sampling geometry, canonicalised so equivalent geometries share a
    // key: disabled sampling hashes as all-zero regardless of the
    // (ignored) window fields, an explicit stride equal to the implied
    // back-to-back stride hashes like stride 0, and checkpointDir is
    // excluded because checkpointing never perturbs results. Sampled
    // and full-run cells can therefore never collide.
    const SampleGeometry &g = params.sampling;
    bool on = g.enabled();
    h.add(static_cast<std::uint64_t>(on ? g.windowCount : 0));
    h.add(on ? g.windowWarmup : 0);
    h.add(on ? g.windowMeasure : 0);
    h.add(on ? g.stride() : 0);
    // Memory backend, canonicalised so equivalent specs share a key
    // ("dram:ddr4;mtps=6400" == "dram:ddr4" == ""). Folded only when
    // it differs from the default backend, so every store entry written
    // before backends existed keeps its key.
    std::string backend = mem::canonicalBackendSpec(params.memBackend);
    if (backend != mem::kDefaultBackendSpec) {
        h.add(std::uint64_t{0});
        h.add(std::string_view(backend));
    }
    return h.value();
}

std::string
resultStoreCodeVersion()
{
    if (const char *env = std::getenv("BERTI_CODE_VERSION")) {
        if (*env != '\0')
            return env;
    }
#ifdef BERTI_CODE_VERSION
    return BERTI_CODE_VERSION;
#else
    return "dev";
#endif
}

StoreKey
makeStoreKey(const std::string &workload, const std::string &spec,
             const SimParams &params, const std::string &codeVersion)
{
    StoreKey key;
    key.workload = workload;
    key.spec = spec;
    key.paramsHash = paramsFingerprint(params);
    key.codeVersion = codeVersion;
    return key;
}

StoreKey
makeStoreKey(const Workload &workload, const std::string &spec,
             const SimParams &params, const std::string &codeVersion)
{
    StoreKey key = makeStoreKey(workload.name, spec, params, codeVersion);
    key.contentHash = workload.contentHash;
    return key;
}

ResultStore::ResultStore(std::string directory) : dir(std::move(directory))
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw verify::SimError(verify::ErrorKind::Config, "ResultStore",
                               "cannot create store directory: " +
                                   ec.message(),
                               dir);
    }
    staleTmpRemoved = obs::removeStaleTempFiles(dir);
}

std::string
ResultStore::entryPath(const StoreKey &key) const
{
    return (std::filesystem::path(dir) / (key.stem() + ".result"))
        .string();
}

std::string
ResultStore::quarantinePath(const StoreKey &key) const
{
    return (std::filesystem::path(dir) / (key.stem() + ".failed"))
        .string();
}

bool
ResultStore::contains(const StoreKey &key) const
{
    std::error_code ec;
    return std::filesystem::exists(entryPath(key), ec);
}

void
ResultStore::remove(const StoreKey &key) const
{
    std::error_code ec;
    std::filesystem::remove(entryPath(key), ec);
}

void
ResultStore::store(const StoreKey &key,
                   const obs::MetricsSnapshot &snap) const
{
    std::string payload = obs::toJson(snap);
    std::string content = std::string(kHeaderMagic) + " " +
                          hex16(key.hash()) + " " +
                          hex16(sim::fnv1a64(payload)) + "\n" +
                          "key " + key.describe() + "\n" + payload;
    obs::writeFile(entryPath(key), content);
}

std::optional<obs::MetricsSnapshot>
ResultStore::load(const StoreKey &key) const
{
    std::string path = entryPath(key);
    std::string content;
    try {
        content = obs::readFile(path);
    } catch (const verify::SimError &) {
        return std::nullopt;  // plain miss: never written (or unreadable)
    }

    // Any structural defect from here on is corruption: unlink the
    // entry so the cell self-heals by recomputation, and report a miss.
    auto corrupt = [&path] {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return std::nullopt;
    };

    std::size_t header_end = content.find('\n');
    if (header_end == std::string::npos)
        return corrupt();
    std::string header = content.substr(0, header_end);
    std::string expected_prefix = std::string(kHeaderMagic) + " " +
                                  hex16(key.hash()) + " ";
    if (header.size() != expected_prefix.size() + 16 ||
        header.compare(0, expected_prefix.size(), expected_prefix) != 0) {
        return corrupt();
    }
    std::string stored_sum = header.substr(expected_prefix.size());

    std::size_t key_end = content.find('\n', header_end + 1);
    if (key_end == std::string::npos)
        return corrupt();
    if (content.substr(header_end + 1, key_end - header_end - 1) !=
        "key " + key.describe()) {
        return corrupt();
    }

    std::string payload = content.substr(key_end + 1);
    if (hex16(sim::fnv1a64(payload)) != stored_sum)
        return corrupt();

    try {
        return obs::snapshotFromJson(payload, path);
    } catch (const verify::SimError &) {
        return corrupt();
    }
}

void
ResultStore::markQuarantined(const StoreKey &key,
                             const std::string &reason) const
{
    obs::writeFile(quarantinePath(key),
                   "key " + key.describe() + "\n" + reason + "\n");
}

std::optional<std::string>
ResultStore::loadQuarantine(const StoreKey &key) const
{
    std::string content;
    try {
        content = obs::readFile(quarantinePath(key));
    } catch (const verify::SimError &) {
        return std::nullopt;
    }
    std::size_t key_end = content.find('\n');
    std::string reason = key_end == std::string::npos
                             ? content
                             : content.substr(key_end + 1);
    while (!reason.empty() && reason.back() == '\n')
        reason.pop_back();
    return reason;
}

void
ResultStore::clearQuarantine(const StoreKey &key) const
{
    std::error_code ec;
    std::filesystem::remove(quarantinePath(key), ec);
}

} // namespace berti::harness
