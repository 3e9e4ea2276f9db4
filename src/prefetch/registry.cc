#include "prefetch/registry.hh"

#include <utility>

#include "core/berti.hh"
#include "prefetch/bingo.hh"
#include "prefetch/bop.hh"
#include "prefetch/cmc.hh"
#include "prefetch/compose.hh"
#include "prefetch/ip_stride.hh"
#include "prefetch/markov.hh"
#include "prefetch/ipcp.hh"
#include "prefetch/misb.hh"
#include "prefetch/mlop.hh"
#include "prefetch/next_line.hh"
#include "prefetch/ppf.hh"
#include "prefetch/pythia.hh"
#include "prefetch/sms.hh"
#include "prefetch/spp.hh"
#include "prefetch/stream.hh"
#include "prefetch/vldp.hh"
#include "verify/sim_error.hh"

namespace berti::prefetch
{

namespace
{

struct Entry
{
    const char *name;
    Factory factory;
    bool atL2 = false;  //!< conventional attach level (physical addrs)
};

const std::vector<Entry> &
entries()
{
    static const std::vector<Entry> table = {
        {"none", nullptr},
        {"ip-stride", [] { return std::make_unique<IpStridePrefetcher>(); }},
        {"next-line", [] { return std::make_unique<NextLinePrefetcher>(); }},
        {"bop", [] { return std::make_unique<BopPrefetcher>(); }},
        {"mlop", [] { return std::make_unique<MlopPrefetcher>(); }},
        {"ipcp", [] { return std::make_unique<IpcpPrefetcher>(); }},
        {"berti", [] { return std::make_unique<BertiPrefetcher>(); }},
        {"spp", [] { return std::make_unique<SppPrefetcher>(); }, true},
        {"spp-ppf", [] { return std::make_unique<SppPpfPrefetcher>(); },
         true},
        {"bingo", [] { return std::make_unique<BingoPrefetcher>(); }, true},
        {"vldp", [] { return std::make_unique<VldpPrefetcher>(); }, true},
        {"misb", [] { return std::make_unique<MisbPrefetcher>(); }, true},
        {"pythia", [] { return std::make_unique<PythiaPrefetcher>(); }},
        {"sms", [] { return std::make_unique<SmsPrefetcher>(); }},
        {"stream", [] { return std::make_unique<StreamPrefetcher>(); }},
        {"cmc", [] { return std::make_unique<CmcPrefetcher>(); }},
        {"markov", [] { return std::make_unique<MarkovPrefetcher>(); }},
    };
    return table;
}

const Entry *
find(const std::string &name)
{
    const std::string &key = name.empty() ? std::string("none") : name;
    for (const Entry &e : entries()) {
        if (key == e.name)
            return &e;
    }
    return nullptr;
}

} // namespace

const std::vector<std::string> &
names()
{
    static const std::vector<std::string> all = [] {
        std::vector<std::string> out;
        for (const Entry &e : entries())
            out.push_back(e.name);
        return out;
    }();
    return all;
}

std::vector<std::string>
allSpecs()
{
    std::vector<std::string> out = names();
    out.push_back("hybrid(berti,cmc)");
    out.push_back("hybrid(berti,markov;select=ip)");
    out.push_back("hybrid(ip-stride,stream;select=duel)");
    return out;
}

bool
defaultLevelIsL2(const std::string &name)
{
    const Entry *e = find(name);
    return e != nullptr && e->atL2;
}

bool
known(const std::string &name)
{
    if (isHybridSpec(name)) {
        try {
            canonicalHybridSpec(name);
            return true;
        } catch (const verify::SimError &) {
            return false;
        }
    }
    return find(name) != nullptr;
}

Factory
make(const std::string &name)
{
    if (isHybridSpec(name))
        return makeHybridFactory(name);
    if (const Entry *e = find(name))
        return e->factory;
    std::string valid;
    for (const std::string &n : names())
        valid += (valid.empty() ? "" : ", ") + n;
    throw verify::SimError(verify::ErrorKind::Config, "prefetch",
                           "unknown prefetcher: \"" + name +
                               "\" (valid: " + valid +
                               ", or a hybrid(a,b;select=...) spec)");
}

Factory
decorate(Factory inner, Decorator wrap)
{
    if (!inner)
        return nullptr;
    return [inner = std::move(inner), wrap = std::move(wrap)] {
        return wrap(inner());
    };
}

} // namespace berti::prefetch
