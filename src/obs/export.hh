/**
 * @file
 * Stable, machine-diffable exporters for metrics snapshots, interval
 * time series and prefetch event traces. The JSON schema is versioned
 * (MetricsSnapshot::kSchemaVersion), keys are always sorted, and
 * doubles are printed with a fixed round-trippable format, so two runs
 * producing the same statistics produce byte-identical documents — the
 * property the golden-stats harness and the BERTI_JOBS determinism
 * checks rely on.
 */

#ifndef BERTI_OBS_EXPORT_HH
#define BERTI_OBS_EXPORT_HH

#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "sim/stats.hh"

namespace berti::obs
{

/** Round-trippable, locale-independent double rendering (%.17g). */
std::string formatDouble(double v);

/**
 * JSON export of a snapshot:
 * {"schema_version":1,"counters":{...},"gauges":{...}} with keys
 * sorted. Deterministic for identical snapshots.
 */
std::string toJson(const MetricsSnapshot &snap);

/** CSV export of a snapshot: "name,kind,value" rows, sorted by name. */
std::string toCsv(const MetricsSnapshot &snap);

/** CSV export of an interval series: instructions,cycle,<columns...>. */
std::string toCsv(const IntervalSeries &series);

/** JSON export of an event trace: totals per kind + retained events. */
std::string toJson(const PrefetchEventTrace &trace);

/**
 * Parse a document produced by toJson(const MetricsSnapshot&). Only
 * this exporter's flat schema is understood — it is a golden-file
 * reader, not a general JSON parser. Throws
 * verify::SimError(ErrorKind::TraceIo) on malformed input or a
 * schema_version mismatch.
 */
MetricsSnapshot snapshotFromJson(const std::string &json,
                                 const std::string &origin = "<string>");

/** One differing field between two snapshots. */
struct FieldDiff
{
    std::string name;
    std::string expected;  //!< "<missing>" when only in actual
    std::string actual;    //!< "<missing>" when only in expected
};

/**
 * Field-level comparison, for readable golden mismatches: every metric
 * whose value, kind or presence differs. Empty result == equal.
 */
std::vector<FieldDiff> diffSnapshots(const MetricsSnapshot &expected,
                                     const MetricsSnapshot &actual);

/** Render a field diff as an aligned, human-readable report. */
std::string formatDiff(const std::vector<FieldDiff> &diffs);

/**
 * Canonical snapshot of a RunStats: every counter of every component
 * under its schema prefix, plus the derived gauges the paper's figures
 * are built from (core.ipc, <cache>.mpki/.accuracy/.avg_fill_latency,
 * <cache>.prefetch_timely).
 */
MetricsSnapshot snapshotOf(const RunStats &stats);

/** Add the energy-model breakdown under energy.* gauges. */
void appendEnergy(MetricsSnapshot &snap, const EnergyBreakdown &energy);

/**
 * Write a file atomically-enough for the bench sidecar path (temp file
 * + rename). Throws verify::SimError(ErrorKind::TraceIo) on failure.
 */
void writeFile(const std::string &path, const std::string &content);

/** Read a whole file; throws verify::SimError(ErrorKind::TraceIo). */
std::string readFile(const std::string &path);

/**
 * Delete leftover "*.tmp" staging files in a directory (non-recursive):
 * the debris of writeFile calls killed between open and rename. Renames
 * are atomic, so a surviving .tmp can only be an abandoned partial
 * write — never a live result. Returns the number removed; a missing
 * directory removes nothing.
 */
std::size_t removeStaleTempFiles(const std::string &dir);

/** File-name-safe form of a workload/spec label for sidecar names:
 *  anything outside [A-Za-z0-9._-] (file: URIs carry slashes and
 *  colons) becomes '-', and an empty label becomes "unnamed". */
std::string sanitizeLabel(const std::string &label);

} // namespace berti::obs

#endif // BERTI_OBS_EXPORT_HH
