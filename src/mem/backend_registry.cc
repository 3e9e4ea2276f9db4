#include "mem/backend_registry.hh"

#include "mem/multichannel.hh"
#include "sim/spec_parse.hh"
#include "verify/sim_error.hh"

namespace berti::mem
{

namespace
{

constexpr const char *kComponent = "mem-backend";

[[noreturn]] void
reject(const std::string &reason)
{
    throw verify::SimError(verify::ErrorKind::Config, kComponent, reason);
}

struct Preset
{
    const char *model;
    unsigned channels;
    DramConfig config;
};

/**
 * The model table. ddr4 is DramConfig's defaults verbatim — the
 * pre-refactor machine — so the default backend is bit-identical to
 * every historical golden. The others move along the two axes the
 * paper's timeliness argument cares about: absolute latency (lpddr5
 * up, hbm/ddr5 modestly) and bandwidth (ddr5 via data rate, hbm via
 * channel parallelism, lpddr5 down via a half-width bus).
 */
const std::vector<Preset> &
presets()
{
    static const std::vector<Preset> table = [] {
        std::vector<Preset> t;

        // ddr4: the historical timings, exactly.
        t.push_back({"ddr4", 1, DramConfig{}});

        // ddr5: twice the banks, a 50% higher data rate, slightly
        // higher absolute core-cycle timings (DDR5 CAS in ns barely
        // moved while the clock rose).
        {
            DramConfig c;
            c.banks = 32;
            c.tRp = 54;
            c.tRcd = 54;
            c.tCas = 54;
            c.mtps = 9600;
            t.push_back({"ddr5", 1, c});
        }

        // lpddr5: mobile corner — half-width bus, slow array timings,
        // longer off-chip link. Same nominal data rate per pin as
        // ddr4, half the bytes per transfer.
        {
            DramConfig c;
            c.tRp = 72;
            c.tRcd = 72;
            c.tCas = 72;
            c.mtps = 6400;
            c.busBytes = 4;
            c.linkLatency = 160;
            t.push_back({"lpddr5", 1, c});
        }

        // hbm: bandwidth corner — 8 line-interleaved channels, each a
        // wide, moderately clocked interface with small per-channel
        // queues and a short link (the stack sits on the interposer).
        {
            DramConfig c;
            c.banks = 32;
            c.rqSize = 32;
            c.wqSize = 32;
            c.tRp = 56;
            c.tRcd = 56;
            c.tCas = 56;
            c.mtps = 2000;
            c.busBytes = 16;
            c.linkLatency = 100;
            t.push_back({"hbm", 8, c});
        }
        return t;
    }();
    return table;
}

const Preset &
findPreset(const std::string &model, const std::string &spec)
{
    for (const Preset &p : presets()) {
        if (model == p.model)
            return p;
    }
    std::string known;
    for (const Preset &p : presets())
        known += std::string(known.empty() ? "" : ", ") + p.model;
    reject("unknown memory backend model \"" + model + "\" in spec \"" +
           spec + "\" (known models: " + known + ")");
}

/** The model plus mtps= when it differs from the preset's rate. */
std::string
canonicalOf(const ParsedBackend &b, const Preset &preset)
{
    std::string canon = "dram:" + b.sel.model;
    if (b.channel.mtps != preset.config.mtps)
        canon += ";mtps=" + std::to_string(b.channel.mtps);
    return canon;
}

} // namespace

ParsedBackend
parseBackendSpec(const std::string &spec_in)
{
    const std::string spec =
        spec_in.empty() ? std::string(kDefaultBackendSpec) : spec_in;

    std::size_t semi = sim::findTopLevel(spec, ';');
    std::string head =
        semi == std::string::npos ? spec : spec.substr(0, semi);
    std::string opts =
        semi == std::string::npos ? std::string() : spec.substr(semi + 1);

    std::size_t colon = head.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= head.size()) {
        reject("memory backend spec \"" + spec +
               "\" is malformed (expected dram:<model>[;key=value...])");
    }
    std::string family = head.substr(0, colon);
    std::string model = head.substr(colon + 1);
    if (family != "dram") {
        reject("unknown memory backend family \"" + family +
               "\" in spec \"" + spec + "\" (known families: dram)");
    }

    const Preset &preset = findPreset(model, spec);
    ParsedBackend out;
    out.sel.model = model;
    out.sel.channels = preset.channels;
    out.channel = preset.config;

    for (const sim::SpecOption &o :
         sim::parseSpecOptions(opts, kComponent)) {
        if (o.key != "mtps") {
            reject("unknown option \"" + o.key + "\" in spec \"" + spec +
                   "\" (known: mtps)");
        }
        out.channel.mtps =
            sim::parseSpecUnsigned(o.key, o.value, kComponent);
    }

    // Degenerate option combinations (e.g. an mtps so high the burst
    // rounds to zero) fail here, typed, at parse time.
    out.channel.validate();
    out.canonical = canonicalOf(out, preset);
    return out;
}

std::string
canonicalBackendSpec(const std::string &spec)
{
    return parseBackendSpec(spec).canonical;
}

std::vector<std::string>
knownBackendModels()
{
    std::vector<std::string> out;
    for (const Preset &p : presets())
        out.push_back(p.model);
    return out;
}

std::unique_ptr<MemBackend>
makeMemBackend(const BackendSel &sel, const DramConfig &channel,
               const Cycle *clock)
{
    if (sel.channels == 0)
        reject("backend \"" + sel.model + "\" has zero channels");
    if (sel.channels == 1)
        return std::make_unique<Dram>(channel, clock);
    return std::make_unique<MultiChannelDram>(channel, sel.channels,
                                              clock);
}

} // namespace berti::mem
