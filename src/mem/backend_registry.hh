/**
 * @file
 * Memory-backend registry: named timing models resolved from a spec
 * string, the way prefetchers resolve through prefetch/registry.hh.
 *
 * Grammar (parsed with the shared paren-aware splitter of
 * sim/spec_parse.hh, like every other spec in the harness):
 *
 *   dram:<model>[;key=value]...
 *
 * Models: ddr4 (the historical single-channel timings — the default,
 * bit-identical to the pre-refactor goldens), ddr5 (more banks, higher
 * data rate, slightly slower absolute timings), lpddr5 (half-width
 * bus, slow timings, long link — the mobile latency corner) and hbm
 * (8 line-interleaved channels of a narrow-per-channel, moderate-rate
 * stack — the bandwidth corner). Every model schedules FR-FCFS with an
 * open-page policy, the controller of the paper's Table II. The one
 * option is mtps=N, the data rate (Figures 16-17 sweep it). A repeated
 * key takes its last value, so a sweep can append ";mtps=N" to any
 * spec. Unknown models, families, option keys or malformed values
 * throw verify::SimError(ErrorKind::Config) naming the offending
 * string.
 *
 * Canonicalization: canonicalBackendSpec() renders the model name plus
 * mtps= only when it differs from the preset's, so equivalent spec
 * strings ("", "dram:ddr4", "dram:ddr4;mtps=6400") share one
 * canonical form — the form harness::paramsFingerprint folds into
 * result-store keys (only when it differs from the default, keeping
 * every historical key stable).
 */

#ifndef BERTI_MEM_BACKEND_REGISTRY_HH
#define BERTI_MEM_BACKEND_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/backend.hh"
#include "mem/dram.hh"

namespace berti::mem
{

/** The canonical default backend spec (and what "" resolves to). */
inline constexpr const char *kDefaultBackendSpec = "dram:ddr4";

/**
 * Which model built the backend and how many channels it has; the
 * per-channel timing/geometry lives in a DramConfig next to it
 * (MachineConfig keeps both so tests can still poke DramConfig fields
 * directly on single-channel machines).
 */
struct BackendSel
{
    std::string model = "ddr4";
    unsigned channels = 1;
};

/** A fully resolved backend spec. */
struct ParsedBackend
{
    BackendSel sel;
    DramConfig channel;     //!< validated per-channel config
    std::string canonical;  //!< e.g. "dram:ddr4", "dram:hbm;mtps=1600"
};

/**
 * Parse and validate a backend spec string ("" means the default,
 * dram:ddr4). Throws verify::SimError(ErrorKind::Config) naming the
 * offending string on unknown models/options or malformed/degenerate
 * values (the resolved config is DramConfig::validate()d here, so a
 * bad spec fails at parse time, not mid-build).
 */
ParsedBackend parseBackendSpec(const std::string &spec);

/** parseBackendSpec(spec).canonical. */
std::string canonicalBackendSpec(const std::string &spec);

/** Registered model names, in presentation order. */
std::vector<std::string> knownBackendModels();

/**
 * Build the backend a parse selected: one Dram for a single channel,
 * a line-interleaved MultiChannelDram otherwise. Zero channels throws
 * verify::SimError(ErrorKind::Config).
 */
std::unique_ptr<MemBackend> makeMemBackend(const BackendSel &sel,
                                           const DramConfig &channel,
                                           const Cycle *clock);

} // namespace berti::mem

#endif // BERTI_MEM_BACKEND_REGISTRY_HH
