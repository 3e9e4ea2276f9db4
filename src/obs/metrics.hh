/**
 * @file
 * Typed metrics registry: named counters, gauges and histograms that
 * every component of a Machine registers at construction time. The
 * registry never owns the hot-path counters — components keep bumping
 * their plain uint64_t fields and the registry holds stable-named
 * pointers to them — so registration costs nothing on the simulation
 * path and a snapshot is a single pass over live memory.
 *
 * Thread-safety model: one registry per Machine, touched only by the
 * thread simulating that Machine (the PR-2 parallel runner gives every
 * (workload, spec) cell its own Machine). Snapshots from different
 * Machines are merged after the pool joins, so there is no shared
 * mutable state and no locking anywhere in this layer.
 */

#ifndef BERTI_OBS_METRICS_HH
#define BERTI_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace berti::sim
{
class StateIO;
} // namespace berti::sim

namespace berti::obs
{

/** Kind of a registered metric / snapshot value. */
enum class MetricKind : std::uint8_t
{
    Counter,   //!< monotonically increasing uint64
    Gauge,     //!< derived double, evaluated at snapshot time
    Histogram  //!< bucketed value distribution
};

const char *metricKindName(MetricKind kind);

/**
 * Fixed-shape histogram with log2 or linear bucketing. All storage is
 * allocated at construction; record() is a couple of integer ops and an
 * array increment, so it is safe on simulation hot paths.
 */
class Histogram
{
  public:
    enum class Scale : std::uint8_t { Log2, Linear };

    /**
     * Log2 buckets: bucket i holds values v with bit_width(v) == i,
     * i.e. [2^(i-1), 2^i); bucket 0 holds v == 0. 33 buckets cover the
     * full Cycle range of this simulator.
     */
    static Histogram log2(unsigned buckets = 33);

    /**
     * Linear buckets of the given width: bucket i holds
     * [i*width, (i+1)*width). The last bucket absorbs the overflow.
     */
    static Histogram linear(std::uint64_t bucket_width, unsigned buckets);

    void record(std::uint64_t value, std::uint64_t weight = 1);

    /**
     * Accumulate another histogram of the same shape. Merging is
     * associative and commutative; a shape mismatch throws
     * verify::SimError(ErrorKind::Config).
     */
    void merge(const Histogram &other);

    void reset();

    std::uint64_t count() const { return total; }
    std::uint64_t sum() const { return valueSum; }
    std::uint64_t min() const { return total ? lo : 0; }
    std::uint64_t max() const { return hi; }
    double mean() const
    {
        return total ? static_cast<double>(valueSum) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /**
     * Upper bound of the bucket holding the p-quantile (p in [0, 1]):
     * the smallest bucket upper edge B such that at least p * count()
     * recorded values are <= B. Monotonically non-decreasing in p;
     * 0 when the histogram is empty.
     */
    std::uint64_t percentile(double p) const;

    unsigned bucketCount() const
    {
        return static_cast<unsigned>(buckets.size());
    }
    std::uint64_t bucketWeight(unsigned i) const { return buckets[i]; }

    /** Inclusive lower edge of bucket i. */
    std::uint64_t bucketLow(unsigned i) const;

    /** Inclusive upper edge of bucket i. */
    std::uint64_t bucketHigh(unsigned i) const;

    bool sameShape(const Histogram &other) const
    {
        return scale == other.scale && width == other.width &&
               buckets.size() == other.buckets.size();
    }

    /** Checkpoint walk: contents only — the shape is construction
     *  state and is cross-checked, not restored. A bucket-count
     *  mismatch throws verify::SimError(ErrorKind::Checkpoint). */
    void visitState(sim::StateIO &io);

  private:
    Histogram(Scale s, std::uint64_t w, unsigned n);

    unsigned bucketOf(std::uint64_t value) const;

    Scale scale;
    std::uint64_t width;             //!< linear bucket width (1 for log2)
    std::vector<std::uint64_t> buckets;
    std::uint64_t total = 0;
    std::uint64_t valueSum = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
};

/**
 * One exported value set: sorted (name -> typed value), the unit of
 * JSON/CSV export and of golden comparisons. Histograms are flattened
 * into <name>.count/.sum/.min/.max/.p50/.p99 counter entries so a
 * snapshot is always a flat, diffable document.
 */
class MetricsSnapshot
{
  public:
    /** Bump when the exported key set or layout changes meaning. */
    static constexpr unsigned kSchemaVersion = 1;

    struct Value
    {
        MetricKind kind = MetricKind::Counter;
        std::uint64_t u = 0;   //!< Counter payload
        double d = 0.0;        //!< Gauge payload
    };

    void setCounter(const std::string &name, std::uint64_t value);
    void setGauge(const std::string &name, double value);
    void appendHistogram(const std::string &name, const Histogram &h);

    bool contains(const std::string &name) const;

    /** Typed accessors; a missing name or a kind mismatch throws
     *  verify::SimError(ErrorKind::Config) naming the metric. */
    std::uint64_t counter(const std::string &name) const;
    double gauge(const std::string &name) const;

    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

    /** Sorted name -> value view (std::map iterates in key order). */
    const std::map<std::string, Value> &values() const { return entries; }

    bool operator==(const MetricsSnapshot &other) const;

  private:
    const Value &at(const std::string &name, MetricKind kind) const;

    std::map<std::string, Value> entries;
};

/**
 * The per-Machine registry. Components register their live counters,
 * derived gauges and histograms under stable names at construction;
 * snapshot() walks everything and materialises a MetricsSnapshot.
 * Registering a duplicate name throws
 * verify::SimError(ErrorKind::Config).
 */
class MetricsRegistry
{
  public:
    /** Register a live counter cell owned by a component. The cell must
     *  outlive the registry (both live inside the same Machine). */
    void counter(const std::string &name, const std::uint64_t *cell);

    /** Register a derived metric, evaluated lazily at snapshot time. */
    void gauge(const std::string &name, std::function<double()> fn);

    /** Register a component-owned histogram (must outlive the registry). */
    void histogram(const std::string &name, const Histogram *hist);

    /** Create and own a histogram registered under the given name. */
    Histogram &ownHistogram(const std::string &name, Histogram shape);

    bool contains(const std::string &name) const;
    std::size_t size() const { return entries.size(); }

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Registered counter names, sorted — the interval sampler's
     *  column set. */
    std::vector<std::string> counterNames() const;

    /** Live counter values in counterNames() order, appended to out
     *  (cleared first). Allocation-free once out has capacity. */
    void sampleCounters(std::vector<std::uint64_t> &out) const;

    MetricsSnapshot snapshot() const;

  private:
    struct Entry
    {
        MetricKind kind = MetricKind::Counter;
        const std::uint64_t *cell = nullptr;
        std::function<double()> fn;
        const Histogram *hist = nullptr;
        std::shared_ptr<Histogram> owned;
    };

    void insert(const std::string &name, Entry entry);

    std::map<std::string, Entry> entries;
};

} // namespace berti::obs

#endif // BERTI_OBS_METRICS_HH
