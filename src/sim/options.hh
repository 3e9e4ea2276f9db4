/**
 * @file
 * SimOptions: the single typed configuration surface of the simulator
 * harness. Every runtime knob that used to be a scattered
 * getenv("BERTI_*") call site is parsed here, once, with validation
 * (malformed values throw verify::SimError(ErrorKind::Config)), and
 * threaded through Machine / Experiment / the bench harness as a value.
 *
 * The environment variable names are the stable public interface —
 * fromEnv() keeps every historical BERTI_* name working so existing
 * scripts and CI recipes do not break — and applyFlag() layers optional
 * command-line overrides on top for the bench binaries.
 *
 * Consumers that need subsystem config structs derive them from an
 * options value, e.g. verify::AuditConfig::fromOptions (declared next
 * to its struct so this header stays dependency-free).
 */

#ifndef BERTI_SIM_OPTIONS_HH
#define BERTI_SIM_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <string>

#include "sim/types.hh"

namespace berti::sim
{

struct SimOptions
{
    // ------------------------------------------------ parallel runner
    /** Worker pool size (BERTI_JOBS); 0 = all hardware threads. */
    unsigned jobs = 0;

    // ------------------------------------------------ simulator speed
    /**
     * Quiescence cycle-skip (BERTI_CYCLE_SKIP; "0" disables): when
     * every queue, MSHR and core in the machine is provably idle until
     * a known future cycle, Machine::run fast-forwards the clock there
     * instead of ticking empty structures. Simulated results are
     * bit-identical either way (see ARCHITECTURE.md, "Performance");
     * the toggle exists for differential tests and debugging.
     */
    bool cycleSkip = true;

    // ---------------------------------------------- interval sampling
    /**
     * Measurement windows per simulation (BERTI_SAMPLE_WINDOWS); 0
     * keeps the historical full-run behaviour. When > 0, simulate()
     * measures windowed samples of the stream instead of one long
     * region of interest — see ARCHITECTURE.md, "Sampled simulation
     * intervals".
     */
    unsigned sampleWindows = 0;
    /** Per-window warm (unmeasured) instructions (BERTI_SAMPLE_WARMUP). */
    std::uint64_t sampleWarmup = 1000;
    /** Measured instructions per window (BERTI_SAMPLE_MEASURE). */
    std::uint64_t sampleMeasure = 8000;
    /** Window-start-to-window-start stride in instructions
     *  (BERTI_SAMPLE_STRIDE); 0 = back-to-back windows. */
    std::uint64_t sampleStride = 0;

    // ------------------------------------------------- observability
    /** Bench stats sidecar directory (BERTI_STATS_DIR); empty = off. */
    std::string statsDir;

    // --------------------------------------------- real-trace ingestion
    /**
     * Extra file-backed workloads appended to bench workload lists
     * (BERTI_TRACE_WORKLOADS): a comma-separated list of `file:` URIs
     * or bare trace paths (`/t/x.champsim.xz,file:/t/y.champsim`), each
     * resolved through trace::resolveWorkload next to the synthetic
     * suites. Empty = none.
     */
    std::string traceWorkloads;

    // ----------------------------------------------------- hardening
    /** Invariant auditing on every Machine (BERTI_VERIFY). */
    bool verify = false;
    /** Cycles between full invariant checks (BERTI_VERIFY_INTERVAL). */
    Cycle verifyInterval = 4096;

    // ----------------------------------------------- memory backend
    /**
     * Memory-backend spec (BERTI_MEM_BACKEND / --mem-backend=), e.g.
     * "dram:ddr5" or "dram:hbm;mtps=1600"; empty keeps the default
     * (dram:ddr4, the historical timings). Stored raw here — options
     * parsing stays layering-clean below src/mem — and validated with
     * typed errors where it is resolved
     * (mem::parseBackendSpec via machineConfigFor; see
     * mem/backend_registry.hh for the grammar).
     */
    std::string memBackend;

    // ------------------------------------------------- bench harness
    /** Smoke-size bench regions of interest (BERTI_BENCH_QUICK=1). */
    bool benchQuick = false;

    // -------------------------------------------------- test harness
    /** Rewrite golden stats instead of comparing
     *  (BERTI_UPDATE_GOLDENS=1). */
    bool updateGoldens = false;
    /** Property-test seed override (BERTI_TEST_SEED); valid only when
     *  hasTestSeed. */
    std::uint64_t testSeed = 0;
    bool hasTestSeed = false;
    /** Property-test iteration multiplier (BERTI_PROP_ITERS). */
    unsigned propIterMultiplier = 1;
    /** Shrunk-artifact output directory (BERTI_ARTIFACT_DIR). */
    std::string artifactDir = ".";

    /**
     * Parse every knob from the environment. Malformed values throw
     * verify::SimError(ErrorKind::Config) naming the offending
     * variable. Unset variables, and empty switches or text, keep the
     * documented defaults above; an empty integer is malformed.
     * Integers go through parseInteger; switches take 1/true/on/yes or
     * 0/false/off/no.
     */
    static SimOptions fromEnv();

    /**
     * Environment plus command-line overrides: any argv entry that
     * applyFlag() recognises is consumed; everything else is left for
     * the caller (argc/argv are compacted in place).
     */
    static SimOptions fromEnvAndArgs(int &argc, char **argv);

    /**
     * Apply one "--key[=value]" override on top of the current values,
     * parsed exactly like the matching environment variable.
     * Recognised: --jobs=N, --quick, --stats-dir=DIR,
     * --trace-workloads=LIST, --mem-backend=SPEC, --verify,
     * --sample-windows=N, --sample-warmup=N, --sample-measure=N,
     * --sample-stride=N. @return false when the flag is not a
     * SimOptions flag (caller keeps it); malformed values throw
     * verify::SimError(ErrorKind::Config).
     */
    bool applyFlag(const std::string &arg);
};

/**
 * The one integer parser behind every numeric knob, flag and spec
 * option: the whole text must be a decimal (or 0x-prefixed hex) integer
 * in [min, max] — no sign, no whitespace, no trailing junk. Anything
 * else throws verify::SimError(ErrorKind::Config) naming `name` (the
 * variable, flag or option) and the text.
 */
std::uint64_t parseInteger(
    const std::string &name, const std::string &text, std::uint64_t min,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace berti::sim

#endif // BERTI_SIM_OPTIONS_HH
