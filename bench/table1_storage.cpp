/**
 * @file
 * Table I: storage overhead of Berti, broken down per structure, plus
 * the storage budget of every evaluated prefetcher (Table III's sizes /
 * Figure 7's x axis).
 */

#include "common.hh"
#include "core/berti.hh"

int
main(int argc, char **argv)
{
    using namespace berti;
    using namespace berti::bench;
    parseOptions(argc, argv);

    BertiConfig cfg;
    std::cout << "Table I: storage overhead of Berti\n\n";
    TextTable t({"structure", "organisation", "storage"});

    auto kb = [](std::uint64_t bits) {
        return TextTable::num(static_cast<double>(bits) / 8.0 / 1024.0,
                              2) + " KB";
    };

    std::uint64_t history_bits =
        static_cast<std::uint64_t>(cfg.historySets) * cfg.historyWays *
            (7 + 24 + 16) + cfg.historySets * 4;
    std::uint64_t table_bits =
        static_cast<std::uint64_t>(cfg.deltaTableEntries) *
        (10 + 4 + 4 + static_cast<std::uint64_t>(cfg.deltasPerEntry) *
                          (13 + 4 + 2));
    std::uint64_t queue_bits = (16 + 16) * 16;
    std::uint64_t line_bits = 768ull * cfg.latencyBits;

    t.addRow({"History table",
              "8-set, 16-way (128-entry), FIFO; 7b tag + 24b line + "
              "16b timestamp",
              kb(history_bits)});
    t.addRow({"Table of deltas",
              "16-entry fully-assoc, FIFO; 10b tag + 4b counter + 16 x "
              "(13b delta, 4b coverage, 2b status)",
              kb(table_bits)});
    t.addRow({"PQ + MSHR", "16+16 entries, 16b timestamp each",
              kb(queue_bits)});
    t.addRow({"L1D", "768 lines, 12b latency per line", kb(line_bits)});
    t.addRow({"Total", "",
              kb(history_bits + table_bits + queue_bits + line_bits)});
    t.print(std::cout);

    std::cout << "\nStorage of every evaluated prefetcher "
                 "configuration:\n";
    TextTable s({"configuration", "storage (KB)"});
    for (const char *name :
         {"ip-stride", "bop", "mlop", "ipcp", "berti", "none+spp-ppf",
          "none+bingo", "none+vldp", "none+misb", "mlop+bingo",
          "mlop+spp-ppf", "berti+bingo", "berti+spp-ppf", "ipcp+ipcp"}) {
        s.addRow({name, TextTable::num(storageKb(name), 2)});
    }
    s.print(std::cout);
    return 0;
}
