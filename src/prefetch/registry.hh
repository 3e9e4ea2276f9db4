/**
 * @file
 * Prefetcher registry: the one place that maps stable spec names
 * ("berti", "ip-stride", "spp-ppf", …) to factories. Every consumer —
 * the experiment harness, benches, tests — resolves names here, so a
 * new prefetcher becomes available everywhere by adding one entry, and
 * an unknown name fails the same typed way everywhere
 * (verify::SimError(ErrorKind::Config), component "prefetch").
 *
 * decorate() composes wrappers over registered factories without the
 * call sites knowing the concrete types; the differential oracle's
 * TeePrefetcher wrap (oracle::teeFactory) is built on it.
 */

#ifndef BERTI_PREFETCH_REGISTRY_HH
#define BERTI_PREFETCH_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace berti::prefetch
{

/** Same signature as harness PrefetcherFactory; null means "none". */
using Factory = std::function<std::unique_ptr<Prefetcher>()>;

/** Wrapper step for decorate(): consumes the inner, returns the outer. */
using Decorator =
    std::function<std::unique_ptr<Prefetcher>(std::unique_ptr<Prefetcher>)>;

/** Stable spec names in registration order, "none" first. */
const std::vector<std::string> &names();

/**
 * names() plus a fixed set of representative hybrid(...) specs, one per
 * selection policy. Suites that want "every spec the registry can
 * build" (metamorphic, differential, checkpoint batteries) iterate
 * this, so a newly registered prefetcher — or a new hybrid policy —
 * is covered with zero test edits. "none" stays first.
 */
std::vector<std::string> allSpecs();

/**
 * Whether a spec's prefetcher conventionally attaches at L2 (physical
 * addresses, e.g. spp, bingo, misb) rather than L1D. Hybrid specs
 * attach where their children do; the representative hybrids are
 * L1D-composed, so they report false.
 */
bool defaultLevelIsL2(const std::string &name);

/** True when make(name) would succeed (includes "none", "" and
 *  well-formed hybrid(...) specs). */
bool known(const std::string &name);

/**
 * Resolve a stable spec name to a factory. "none" (or an empty name)
 * returns a null factory, matching the harness convention that a null
 * PrefetcherFactory means no prefetcher at that level. Unknown names
 * throw verify::SimError(ErrorKind::Config, "prefetch", ...) listing
 * the valid names.
 */
Factory make(const std::string &name);

/**
 * Wrap a factory: every prefetcher the returned factory builds is
 * passed through wrap. A null inner factory stays null (there is no
 * prefetcher to wrap at that level).
 */
Factory decorate(Factory inner, Decorator wrap);

} // namespace berti::prefetch

#endif // BERTI_PREFETCH_REGISTRY_HH
