/**
 * @file
 * Machine checkpoint/resume: versioned, checksummed, deterministic
 * serialization of the complete simulator state. Implemented as Machine
 * member functions (declared in harness/machine.hh) so the walk over
 * the private topology needs no friend shims.
 */

#include "harness/checkpoint.hh"

#include <string_view>

#include "harness/machine.hh"
#include "obs/export.hh"
#include "sim/serialize.hh"
#include "verify/sim_error.hh"

namespace berti
{

std::uint64_t
harness::checkpointChecksum(std::string_view data)
{
    const auto *p = reinterpret_cast<const unsigned char *>(data.data());
    const std::size_t words = data.size() / 8;
    std::uint64_t s = sim::Fnv64::kOffset;
    for (std::size_t i = 0; i < words; ++i, p += 8) {
        std::uint64_t w = 0;
        for (unsigned b = 0; b < 8; ++b)
            w |= static_cast<std::uint64_t>(p[b]) << (8 * b);
        s = (s ^ w) * sim::Fnv64::kPrime;
    }
    for (std::size_t i = words * 8; i < data.size(); ++i, ++p)
        s = (s ^ *p) * sim::Fnv64::kPrime;
    return s;
}

namespace
{

[[noreturn]] void
rejectCheckpoint(const std::string &reason, const std::string &path = {})
{
    throw verify::SimError(verify::ErrorKind::Checkpoint, "Machine",
                           reason, path);
}

/** Fold one cache's architectural shape into the fingerprint. */
void
foldCacheConfig(sim::Fnv64 &h, const CacheConfig &c,
                const Prefetcher *pf)
{
    h.add(c.name);
    h.add(static_cast<std::uint64_t>(c.level));
    h.add(static_cast<std::uint64_t>(c.sets));
    h.add(static_cast<std::uint64_t>(c.ways));
    h.add(static_cast<std::uint64_t>(c.latency));
    h.add(static_cast<std::uint64_t>(c.mshrs));
    h.add(static_cast<std::uint64_t>(c.rqSize));
    h.add(static_cast<std::uint64_t>(c.pqSize));
    h.add(static_cast<std::uint64_t>(c.wqSize));
    h.add(static_cast<std::uint64_t>(c.repl));
    h.add(static_cast<std::uint64_t>(c.isL1d));
    h.add(static_cast<std::uint64_t>(c.trainOnInstrFetch));
    h.add(pf ? pf->name() : std::string("none"));
}

} // namespace

bool
Machine::checkpointSupported(std::string *why) const
{
    auto blocked = [why](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (cfg.faults) {
        return blocked(
            "fault injection is active — the injector's RNG is owned by "
            "the caller and cannot be restored from a checkpoint");
    }
    for (unsigned c = 0; c < cfg.cores; ++c) {
        const CoreNode &n = *nodes[c];
        for (const Cache *cache :
             {n.l1iCache.get(), n.l1dCache.get(), n.l2Cache.get()}) {
            const Prefetcher *pf = cache->prefetcher();
            if (pf && !pf->checkpointSupported()) {
                return blocked("prefetcher '" + pf->name() + "' at " +
                               cache->config().name + " of core " +
                               std::to_string(c) +
                               " does not support checkpointing");
            }
        }
    }
    if (const Prefetcher *pf = llc->prefetcher()) {
        if (!pf->checkpointSupported()) {
            return blocked("prefetcher '" + pf->name() +
                           "' at the LLC does not support checkpointing");
        }
    }
    if (!dram->checkpointSupported()) {
        return blocked("memory backend '" + dram->name() +
                       "' does not support checkpointing");
    }
    return true;
}

std::uint64_t
Machine::configFingerprint() const
{
    sim::Fnv64 h;
    h.add(static_cast<std::uint64_t>(cfg.cores));

    h.add(static_cast<std::uint64_t>(cfg.core.robSize));
    h.add(static_cast<std::uint64_t>(cfg.core.fetchWidth));
    h.add(static_cast<std::uint64_t>(cfg.core.dispatchWidth));
    h.add(static_cast<std::uint64_t>(cfg.core.retireWidth));
    h.add(static_cast<std::uint64_t>(cfg.core.fetchBufferSize));
    h.add(static_cast<std::uint64_t>(cfg.core.mispredictPenalty));

    // Per-node caches share one config; the LLC is scaled per core at
    // build time, so fingerprint the *built* LLC, not cfg.llc.
    const CoreNode &n0 = *nodes[0];
    foldCacheConfig(h, n0.l1iCache->config(), n0.l1iCache->prefetcher());
    foldCacheConfig(h, n0.l1dCache->config(), n0.l1dCache->prefetcher());
    foldCacheConfig(h, n0.l2Cache->config(), n0.l2Cache->prefetcher());
    foldCacheConfig(h, llc->config(), llc->prefetcher());

    h.add(static_cast<std::uint64_t>(cfg.dram.banks));
    h.add(static_cast<std::uint64_t>(cfg.dram.rqSize));
    h.add(static_cast<std::uint64_t>(cfg.dram.wqSize));
    h.add(static_cast<std::uint64_t>(cfg.dram.rowBytes));
    h.add(static_cast<std::uint64_t>(cfg.dram.mtps));
    h.add(static_cast<std::uint64_t>(cfg.dram.linkLatency));
    h.add(static_cast<std::uint64_t>(cfg.dram.busBytes));
    h.add(std::string_view(cfg.memBackend.model));
    h.add(static_cast<std::uint64_t>(cfg.memBackend.channels));

    h.add(static_cast<std::uint64_t>(cfg.tlb.dtlbSets));
    h.add(static_cast<std::uint64_t>(cfg.tlb.dtlbWays));
    h.add(static_cast<std::uint64_t>(cfg.tlb.stlbSets));
    h.add(static_cast<std::uint64_t>(cfg.tlb.stlbWays));
    h.add(cfg.tlb.pageSeed);

    return h.value();
}

sim::PtrMap
Machine::clientMap() const
{
    // Both sides of a checkpoint walk the topology in this exact order,
    // so the dense ids agree. Cache is multiply derived — always map
    // the ReadClient subobject, matching what MemRequest::client holds.
    sim::PtrMap clients;
    for (const auto &n : nodes) {
        clients.add(static_cast<ReadClient *>(n->cpu.get()));
        clients.add(static_cast<ReadClient *>(n->l1iCache.get()));
        clients.add(static_cast<ReadClient *>(n->l1dCache.get()));
        clients.add(static_cast<ReadClient *>(n->l2Cache.get()));
    }
    clients.add(static_cast<ReadClient *>(llc.get()));
    return clients;
}

void
Machine::visitPayload(sim::StateIO &io)
{
    // cyclesSkipped is deliberately NOT serialized: it counts which
    // idle cycles the quiescence skip happened to fast-forward — a
    // wall-time diagnostic whose value depends on unserialized probe
    // backoff (and audit-deadline) state, not on simulated behaviour.
    // Including it would make byte-equal blobs depend on skip timing.
    io.section("clock", [&] { io.u64(clock); });
    for (unsigned c = 0; c < cfg.cores; ++c) {
        CoreNode &n = *nodes[c];
        io.section("core", c, [&] {
            io.section("cpu", [&] { n.cpu->visitState(io); });
            io.section("l1i", [&] { n.l1iCache->visitState(io); });
            io.section("l1d", [&] { n.l1dCache->visitState(io); });
            io.section("l2", [&] { n.l2Cache->visitState(io); });
            io.section("tlb", [&] { n.tu->visitState(io); });
        });
    }
    io.section("llc", [&] { llc->visitState(io); });
    io.section("dram", [&] { io.bridge(*dram); });

    // Per-core run() snapshots, so coreSnapshot() survives a resume.
    io.tag(0x5A475000u, "snapshots");
    io.each("snapshots", snapshots, [&io](RunStats &s) {
        io.stats("core", s.core);
        io.stats("l1i", s.l1i);
        io.stats("l1d", s.l1d);
        io.stats("l2", s.l2);
        io.stats("llc", s.llc);
        io.stats("dtlb", s.dtlb);
        io.stats("stlb", s.stlb);
        io.stats("dram", s.dram);
    });
}

std::string
Machine::writeCheckpoint(sim::PathProbe *probe) const
{
    std::string why;
    if (!checkpointSupported(&why))
        rejectCheckpoint(why);

    sim::ByteWriter w;
    w.reserve(checkpointBytes);
    w.attach(probe);
    w.u64(harness::kCheckpointMagic);
    w.u32(harness::kCheckpointVersion);
    w.u64(configFingerprint());
    w.u32(cfg.cores);
    sim::PtrMap clients = clientMap();
    sim::StateIO io(w, &clients);
    // The walk is shared with restore, hence non-const; saving only
    // reads through it.
    const_cast<Machine *>(this)->visitPayload(io);

    std::string blob = w.take();
    sim::ByteWriter tail;
    tail.u64(harness::checkpointChecksum(blob));
    blob += tail.data();
    checkpointBytes = blob.size();
    return blob;
}

std::string
Machine::saveCheckpointBlob() const
{
    return writeCheckpoint(nullptr);
}

std::string
Machine::checkpointPathAt(std::size_t offset) const
{
    sim::PathProbe probe(offset);
    std::string blob = writeCheckpoint(&probe);
    if (offset < harness::kCheckpointHeaderBytes)
        return "header";
    if (offset + harness::kCheckpointChecksumBytes >= blob.size())
        return "checksum";
    return probe.path().empty() ? "payload" : probe.path();
}

void
Machine::saveCheckpoint(const std::string &path) const
{
    // Atomic: obs::writeFile stages into path + ".tmp" and renames.
    obs::writeFile(path, saveCheckpointBlob());
}

void
Machine::resumeFromBlob(const std::string &blob)
{
    std::string why;
    if (!checkpointSupported(&why))
        rejectCheckpoint(why);
    if (clock != 0)
        rejectCheckpoint("resume target must be pristine — this machine "
                         "has already run to cycle " +
                         std::to_string(clock));
    for (unsigned c = 0; c < cfg.cores; ++c) {
        if (nodes[c]->cpu->fetchedInstructions() != 0) {
            rejectCheckpoint(
                "resume target must be pristine — core " +
                std::to_string(c) + " has already fetched instructions");
        }
    }

    // Whole-blob validation happens before a single payload field is
    // applied: size, magic, version, checksum, fingerprint, core count.
    // Magic and version come before the checksum because another
    // format version may checksum differently: it must fail as version
    // skew, not as corruption.
    constexpr std::size_t min_size = harness::kCheckpointHeaderBytes +
                                     harness::kCheckpointChecksumBytes;
    if (blob.size() < min_size) {
        rejectCheckpoint("checkpoint is " + std::to_string(blob.size()) +
                         " bytes — smaller than the fixed header");
    }
    std::string_view body(blob.data(),
                          blob.size() - harness::kCheckpointChecksumBytes);
    sim::ByteReader r(body, "Machine");
    std::uint64_t magic = r.u64();
    if (magic != harness::kCheckpointMagic)
        rejectCheckpoint("bad magic — not a Berti checkpoint");
    std::uint32_t version = r.u32();
    if (version != harness::kCheckpointVersion) {
        rejectCheckpoint(
            "format version " + std::to_string(version) +
            " is not the supported version " +
            std::to_string(harness::kCheckpointVersion) +
            " — checkpoints do not migrate across versions; re-run "
            "the interrupted experiment from scratch");
    }
    sim::ByteReader sum_r(
        std::string_view(blob.data() + body.size(),
                         harness::kCheckpointChecksumBytes),
        "Machine");
    if (sum_r.u64() != harness::checkpointChecksum(body))
        rejectCheckpoint("checksum mismatch — the checkpoint is corrupt "
                         "(torn write or bit flip)");
    std::uint64_t fingerprint = r.u64();
    if (fingerprint != configFingerprint()) {
        rejectCheckpoint(
            "configuration fingerprint mismatch — the checkpoint was "
            "written by a machine with a different topology "
            "(cores/caches/DRAM/TLB/prefetchers)");
    }
    std::uint32_t cores = r.u32();
    if (cores != cfg.cores) {
        rejectCheckpoint("checkpoint has " + std::to_string(cores) +
                         " cores, this machine has " +
                         std::to_string(cfg.cores));
    }

    sim::PtrMap clients = clientMap();
    sim::StateIO io(r, &clients);
    visitPayload(io);
    cyclesSkipped = 0;  // diagnostic; restarts with the new process
    if (!r.atEnd()) {
        rejectCheckpoint(std::to_string(r.remaining()) +
                         " trailing payload bytes after a complete "
                         "restore — checkpoint layout mismatch");
    }

    // Re-synchronise the (deterministic) trace generators by replaying
    // exactly the instructions the saved cores had already fetched.
    for (unsigned c = 0; c < cfg.cores; ++c) {
        std::uint64_t fetched = nodes[c]->cpu->fetchedInstructions();
        for (std::uint64_t i = 0; i < fetched; ++i)
            gens[c]->next();
    }

    // Full invariant sweep over the restored state when auditing is on.
    if (audit)
        audit->checkNow();
}

void
Machine::resumeFrom(const std::string &path)
{
    std::string blob;
    try {
        blob = obs::readFile(path);
    } catch (const verify::SimError &e) {
        rejectCheckpoint("cannot read checkpoint: " + e.reason(), path);
    }
    resumeFromBlob(blob);
}

} // namespace berti
