#include "sim/options.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "verify/sim_error.hh"

namespace berti::sim
{

namespace
{

[[noreturn]] void
fail(const std::string &name, const std::string &text,
     const std::string &want)
{
    throw verify::SimError(verify::ErrorKind::Config, "options",
                           name + "=\"" + text + "\" is not " + want);
}

/** The one switch spelling: 1/true/on/yes and 0/false/off/no. */
bool
parseSwitch(const std::string &name, const std::string &text)
{
    for (const char *on : {"1", "true", "on", "yes"}) {
        if (text == on)
            return true;
    }
    for (const char *off : {"0", "false", "off", "no"}) {
        if (text == off)
            return false;
    }
    fail(name, text, "a switch (1/true/on/yes or 0/false/off/no)");
}

using Setter = void (*)(SimOptions &, const std::string &name,
                        const std::string &text);

template <auto Field, std::uint64_t Min>
void
setCount(SimOptions &o, const std::string &name, const std::string &text)
{
    using T = std::remove_reference_t<decltype(o.*Field)>;
    o.*Field = static_cast<T>(
        parseInteger(name, text, Min, std::numeric_limits<T>::max()));
}

template <auto Field>
void
setSwitch(SimOptions &o, const std::string &name, const std::string &text)
{
    o.*Field = parseSwitch(name, text);
}

template <auto Field>
void
setText(SimOptions &o, const std::string &, const std::string &text)
{
    o.*Field = text;
}

void
setTestSeed(SimOptions &o, const std::string &name, const std::string &text)
{
    o.testSeed = parseInteger(name, text, 0);
    o.hasTestSeed = true;
}

/**
 * Every knob once: its environment variable, its command-line flag
 * (nullptr = environment only; a trailing '=' takes a value, otherwise
 * the bare flag switches the knob on) and how its text lands in
 * SimOptions. Counts give their minimum: 0 is meaningful for sampling
 * windows/warmup/stride, everything else must be positive. An empty
 * count is malformed like any other bad number; an empty switch or
 * text variable keeps its default.
 */
struct Knob
{
    const char *env;
    const char *flag;
    Setter set;
    bool count = false;
};

using O = SimOptions;

constexpr Knob kKnobs[] = {
    {"BERTI_JOBS", "--jobs=", setCount<&O::jobs, 1>, true},
    {"BERTI_CYCLE_SKIP", nullptr, setSwitch<&O::cycleSkip>},
    {"BERTI_SAMPLE_WINDOWS", "--sample-windows=",
     setCount<&O::sampleWindows, 0>, true},
    {"BERTI_SAMPLE_WARMUP", "--sample-warmup=",
     setCount<&O::sampleWarmup, 0>, true},
    {"BERTI_SAMPLE_MEASURE", "--sample-measure=",
     setCount<&O::sampleMeasure, 1>, true},
    {"BERTI_SAMPLE_STRIDE", "--sample-stride=",
     setCount<&O::sampleStride, 0>, true},
    {"BERTI_STATS_DIR", "--stats-dir=", setText<&O::statsDir>},
    {"BERTI_TRACE_WORKLOADS", "--trace-workloads=",
     setText<&O::traceWorkloads>},
    {"BERTI_MEM_BACKEND", "--mem-backend=", setText<&O::memBackend>},
    {"BERTI_VERIFY", "--verify", setSwitch<&O::verify>},
    {"BERTI_VERIFY_INTERVAL", nullptr, setCount<&O::verifyInterval, 1>,
     true},
    {"BERTI_BENCH_QUICK", "--quick", setSwitch<&O::benchQuick>},
    {"BERTI_UPDATE_GOLDENS", nullptr, setSwitch<&O::updateGoldens>},
    {"BERTI_TEST_SEED", nullptr, setTestSeed, true},
    {"BERTI_PROP_ITERS", nullptr, setCount<&O::propIterMultiplier, 1>,
     true},
    {"BERTI_ARTIFACT_DIR", nullptr, setText<&O::artifactDir>},
};

} // namespace

std::uint64_t
parseInteger(const std::string &name, const std::string &text,
             std::uint64_t min, std::uint64_t max)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const std::size_t digits_at = hex ? 2 : 0;
    bool ok = text.size() > digits_at;
    for (std::size_t i = digits_at; ok && i < text.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(text[i]);
        ok = hex ? std::isxdigit(c) != 0 : std::isdigit(c) != 0;
    }
    std::uint64_t v = 0;
    if (ok) {
        errno = 0;
        v = std::strtoull(text.c_str() + digits_at, nullptr, hex ? 16 : 10);
        ok = errno != ERANGE;
    }
    if (!ok || v < min || v > max) {
        fail(name, text,
             max == std::numeric_limits<std::uint64_t>::max()
                 ? "an integer >= " + std::to_string(min)
                 : "an integer in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]");
    }
    return v;
}

SimOptions
SimOptions::fromEnv()
{
    // An unset variable keeps the documented default; any other value
    // must parse, or it is a typed Config error.
    SimOptions opt;
    for (const Knob &k : kKnobs) {
        if (const char *v = std::getenv(k.env); v && (*v || k.count))
            k.set(opt, k.env, v);
    }
    return opt;
}

bool
SimOptions::applyFlag(const std::string &arg)
{
    for (const Knob &k : kKnobs) {
        if (!k.flag)
            continue;
        const std::string flag = k.flag;
        if (flag.back() != '=') {
            if (arg == flag) {
                k.set(*this, flag, "1");
                return true;
            }
        } else if (arg.compare(0, flag.size(), flag) == 0) {
            k.set(*this, flag.substr(0, flag.size() - 1),
                  arg.substr(flag.size()));
            return true;
        }
    }
    return false;
}

SimOptions
SimOptions::fromEnvAndArgs(int &argc, char **argv)
{
    SimOptions opt = fromEnv();
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (!opt.applyFlag(argv[i]))
            argv[kept++] = argv[i];
    }
    argc = kept;
    return opt;
}

} // namespace berti::sim
