/**
 * @file
 * Shared paren-aware spec-string parsing. Every grammar in the harness
 * that splits composite names — prefetcher combos ("mlop+bingo",
 * "hybrid(berti,cmc;select=ip)"), workload lists with `file:` URIs,
 * memory-backend specs ("dram:ddr5;mtps=3200") — splits at paren
 * depth 0 so nested argument lists stay intact. This header is that
 * one splitter, plus the `;key=value` option-list parser that the
 * backend ("dram:ddr4;mtps=3200") and hybrid
 * ("hybrid(berti,cmc;select=ip)") grammars share, so the two spell
 * options the same way, and the option integer parser for mtps=.
 */

#ifndef BERTI_SIM_SPEC_PARSE_HH
#define BERTI_SIM_SPEC_PARSE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace berti::sim
{

/**
 * Split `text` on `sep` at paren depth 0. Separators inside (...) are
 * part of the element, so "hybrid(berti,cmc),none" splits into two.
 * Empty elements are dropped (",a,," yields {"a"}), matching the
 * historical behaviour of every list this replaces.
 */
std::vector<std::string> splitTopLevel(const std::string &text, char sep);

/**
 * Index of the first `sep` at paren depth 0, or std::string::npos.
 * The level separator of "mlop+bingo" and the option separator of
 * backend specs both resolve through this.
 */
std::size_t findTopLevel(const std::string &text, char sep);

/** One `key=value` option from a `;`-separated option list. */
struct SpecOption
{
    std::string key;
    std::string value;
};

/**
 * Parse a `;`-separated `key=value` option list (the text after the
 * first `;` of a spec like "dram:ddr5;mtps=3200"). A clause
 * without '=' or with an empty key throws
 * verify::SimError(ErrorKind::Config) naming `component` and the
 * offending clause; empty clauses (";;") are dropped.
 */
std::vector<SpecOption> parseSpecOptions(const std::string &text,
                                         const std::string &component);

/**
 * A spec option's integer value, through sim::parseInteger: a plain
 * decimal (or 0x hex) integer in [1, 2^32). Anything else — zero, a
 * sign, whitespace, junk, overflow — throws
 * verify::SimError(ErrorKind::Config) naming `component`, `key` and
 * the value.
 */
unsigned parseSpecUnsigned(const std::string &key, const std::string &value,
                           const std::string &component);

} // namespace berti::sim

#endif // BERTI_SIM_SPEC_PARSE_HH
