#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "sim/serialize.hh"
#include "verify/sim_error.hh"

namespace berti::obs
{

namespace
{

[[noreturn]] void
fail(const std::string &reason)
{
    throw verify::SimError(verify::ErrorKind::Config, "obs", reason);
}

} // namespace

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "unknown";
}

// --------------------------------------------------------------- Histogram

Histogram::Histogram(Scale s, std::uint64_t w, unsigned n)
    : scale(s), width(w), buckets(n, 0)
{
    if (n == 0)
        fail("histogram needs at least one bucket");
    if (s == Scale::Linear && w == 0)
        fail("linear histogram needs a positive bucket width");
}

Histogram
Histogram::log2(unsigned buckets)
{
    return Histogram(Scale::Log2, 1, buckets);
}

Histogram
Histogram::linear(std::uint64_t bucket_width, unsigned buckets)
{
    return Histogram(Scale::Linear, bucket_width, buckets);
}

unsigned
Histogram::bucketOf(std::uint64_t value) const
{
    unsigned idx;
    if (scale == Scale::Log2)
        idx = static_cast<unsigned>(std::bit_width(value));
    else
        idx = static_cast<unsigned>(value / width);
    unsigned last = static_cast<unsigned>(buckets.size()) - 1;
    return idx > last ? last : idx;
}

void
Histogram::record(std::uint64_t value, std::uint64_t weight)
{
    if (!weight)
        return;
    buckets[bucketOf(value)] += weight;
    if (!total || value < lo)
        lo = value;
    if (value > hi)
        hi = value;
    total += weight;
    valueSum += value * weight;
}

void
Histogram::merge(const Histogram &other)
{
    if (!sameShape(other))
        fail("histogram merge shape mismatch (scale/width/buckets)");
    if (!other.total)
        return;
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    if (!total || other.lo < lo)
        lo = other.lo;
    if (other.hi > hi)
        hi = other.hi;
    total += other.total;
    valueSum += other.valueSum;
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    total = valueSum = lo = hi = 0;
}

void
Histogram::visitState(sim::StateIO &io)
{
    io.fixed("buckets", buckets, [&io](std::uint64_t &b) { io.u64(b); });
    io.u64(total);
    io.u64(valueSum);
    io.u64(lo);
    io.u64(hi);
}

std::uint64_t
Histogram::bucketLow(unsigned i) const
{
    if (scale == Scale::Log2)
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    return width * i;
}

std::uint64_t
Histogram::bucketHigh(unsigned i) const
{
    unsigned last = static_cast<unsigned>(buckets.size()) - 1;
    if (i >= last)
        return std::numeric_limits<std::uint64_t>::max();
    if (scale == Scale::Log2)
        return (std::uint64_t{1} << i) - 1;
    return width * (i + 1) - 1;
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (!total)
        return 0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    // Smallest bucket whose cumulative weight reaches ceil(p * total),
    // with a floor of one recorded value so p == 0 returns the first
    // non-empty bucket.
    double scaled = p * static_cast<double>(total);
    std::uint64_t need = static_cast<std::uint64_t>(scaled);
    if (static_cast<double>(need) < scaled)
        ++need;
    if (need == 0)
        need = 1;
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < buckets.size(); ++i) {
        cum += buckets[i];
        if (cum >= need) {
            // Clamp the open-ended report to the observed extremes so
            // percentiles never exceed max() or undercut min().
            std::uint64_t high = bucketHigh(i);
            if (high > hi)
                high = hi;
            if (high < lo)
                high = lo;
            return high;
        }
    }
    return hi;
}

// --------------------------------------------------------- MetricsSnapshot

void
MetricsSnapshot::setCounter(const std::string &name, std::uint64_t value)
{
    Value v;
    v.kind = MetricKind::Counter;
    v.u = value;
    entries[name] = v;
}

void
MetricsSnapshot::setGauge(const std::string &name, double value)
{
    Value v;
    v.kind = MetricKind::Gauge;
    v.d = value;
    entries[name] = v;
}

void
MetricsSnapshot::appendHistogram(const std::string &name,
                                 const Histogram &h)
{
    setCounter(name + ".count", h.count());
    setCounter(name + ".max", h.max());
    setCounter(name + ".min", h.min());
    setCounter(name + ".p50", h.percentile(0.50));
    setCounter(name + ".p99", h.percentile(0.99));
    setCounter(name + ".sum", h.sum());
}

bool
MetricsSnapshot::contains(const std::string &name) const
{
    return entries.find(name) != entries.end();
}

const MetricsSnapshot::Value &
MetricsSnapshot::at(const std::string &name, MetricKind kind) const
{
    auto it = entries.find(name);
    if (it == entries.end())
        fail("snapshot has no metric named \"" + name + "\"");
    if (it->second.kind != kind) {
        fail("metric \"" + name + "\" is a " +
             metricKindName(it->second.kind) + ", not a " +
             metricKindName(kind));
    }
    return it->second;
}

std::uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    return at(name, MetricKind::Counter).u;
}

double
MetricsSnapshot::gauge(const std::string &name) const
{
    return at(name, MetricKind::Gauge).d;
}

bool
MetricsSnapshot::operator==(const MetricsSnapshot &other) const
{
    if (entries.size() != other.entries.size())
        return false;
    auto a = entries.begin();
    auto b = other.entries.begin();
    for (; a != entries.end(); ++a, ++b) {
        if (a->first != b->first || a->second.kind != b->second.kind)
            return false;
        if (a->second.kind == MetricKind::Counter) {
            if (a->second.u != b->second.u)
                return false;
        } else if (a->second.d != b->second.d) {
            return false;
        }
    }
    return true;
}

// --------------------------------------------------------- MetricsRegistry

void
MetricsRegistry::insert(const std::string &name, Entry entry)
{
    if (name.empty())
        fail("metric names must be non-empty");
    if (!entries.emplace(name, std::move(entry)).second)
        fail("duplicate metric registration: \"" + name + "\"");
}

void
MetricsRegistry::counter(const std::string &name,
                         const std::uint64_t *cell)
{
    if (!cell)
        fail("null counter cell for \"" + name + "\"");
    Entry e;
    e.kind = MetricKind::Counter;
    e.cell = cell;
    insert(name, std::move(e));
}

void
MetricsRegistry::gauge(const std::string &name, std::function<double()> fn)
{
    if (!fn)
        fail("null gauge function for \"" + name + "\"");
    Entry e;
    e.kind = MetricKind::Gauge;
    e.fn = std::move(fn);
    insert(name, std::move(e));
}

void
MetricsRegistry::histogram(const std::string &name, const Histogram *hist)
{
    if (!hist)
        fail("null histogram for \"" + name + "\"");
    Entry e;
    e.kind = MetricKind::Histogram;
    e.hist = hist;
    insert(name, std::move(e));
}

Histogram &
MetricsRegistry::ownHistogram(const std::string &name, Histogram shape)
{
    Entry e;
    e.kind = MetricKind::Histogram;
    e.owned = std::make_shared<Histogram>(std::move(shape));
    e.hist = e.owned.get();
    Histogram &ref = *e.owned;
    insert(name, std::move(e));
    return ref;
}

bool
MetricsRegistry::contains(const std::string &name) const
{
    return entries.find(name) != entries.end();
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[name, entry] : entries)
        out.push_back(name);
    return out;
}

std::vector<std::string>
MetricsRegistry::counterNames() const
{
    std::vector<std::string> out;
    for (const auto &[name, entry] : entries) {
        if (entry.kind == MetricKind::Counter)
            out.push_back(name);
    }
    return out;
}

void
MetricsRegistry::sampleCounters(std::vector<std::uint64_t> &out) const
{
    out.clear();
    for (const auto &[name, entry] : entries) {
        if (entry.kind == MetricKind::Counter)
            out.push_back(*entry.cell);
    }
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    for (const auto &[name, entry] : entries) {
        switch (entry.kind) {
          case MetricKind::Counter:
            snap.setCounter(name, *entry.cell);
            break;
          case MetricKind::Gauge:
            snap.setGauge(name, entry.fn());
            break;
          case MetricKind::Histogram:
            snap.appendHistogram(name, *entry.hist);
            break;
        }
    }
    return snap;
}

} // namespace berti::obs
