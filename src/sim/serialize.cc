#include "sim/serialize.hh"

#include "mem/request.hh"
#include "verify/sim_error.hh"

namespace berti::sim
{

std::uint64_t
fnv1a64(std::string_view data)
{
    Fnv64 h;
    h.add(data);
    return h.value();
}

void
ByteReader::expectTag(std::uint32_t t, const char *what)
{
    std::size_t at = pos;
    std::uint32_t got = u32();
    if (got != t) {
        pos = at;
        fail(std::string("bad section marker for ") + what +
             " — checkpoint layout mismatch");
    }
}

void
ByteReader::failTruncated(std::size_t n) const
{
    fail("truncated checkpoint data (need " + std::to_string(n) +
         " more bytes, " + std::to_string(buf.size() - pos) + " left)");
}

void
ByteReader::fail(const std::string &reason) const
{
    throw verify::SimError(verify::ErrorKind::Checkpoint, comp, reason, {},
                           pos);
}

void
PathProbe::enter(const char *name, std::size_t index, std::size_t at)
{
    std::string segment = name ? name : "[";
    segment += std::to_string(index);
    if (!name)
        segment += ']';
    open.emplace_back(std::move(segment), at);
}

void
PathProbe::leave(std::size_t at)
{
    // Inner sections close before the sections around them, so the
    // first one to close around the target is the innermost.
    if (found.empty() && open.back().second <= target && target < at) {
        for (const auto &[segment, begin] : open) {
            if (!found.empty() && segment.front() != '[')
                found += '.';
            found += segment;
        }
    }
    open.pop_back();
}

void
StateIO::request(MemRequest &req)
{
    u64(req.vLine);
    u64(req.pLine);
    u64(req.ip);
    u8(req.type);
    u8(req.fillLevel);
    u32(req.coreId);
    u64(req.instrId);
    u64(req.enqueueCycle);
    std::uint32_t id = rd ? 0 : ptrs->idOf(req.client);
    u32(id);
    if (rd)
        req.client = static_cast<ReadClient *>(ptrs->at(id));
}

void
StateIO::count(const char *name, std::size_t live)
{
    auto n = static_cast<std::uint32_t>(live);
    u32(n);
    if (n != live) {
        fail(std::string(name) + " size " + std::to_string(n) +
             " does not match the live " + std::to_string(live));
    }
}

void
StateIO::fail(const std::string &reason) const
{
    if (rd)
        rd->fail(reason);
    throw verify::SimError(verify::ErrorKind::Checkpoint, "checkpoint",
                           reason);
}

std::uint32_t
PtrMap::idOf(const void *p) const
{
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
        if (ptrs[i] == p)
            return static_cast<std::uint32_t>(i);
    }
    throw verify::SimError(
        verify::ErrorKind::Checkpoint, "PtrMap",
        "in-flight request references a component outside the machine "
        "topology — cannot serialize its client pointer");
}

void *
PtrMap::at(std::uint32_t id) const
{
    if (id >= ptrs.size()) {
        throw verify::SimError(
            verify::ErrorKind::Checkpoint, "PtrMap",
            "checkpoint references client id " + std::to_string(id) +
                " but the machine topology has only " +
                std::to_string(ptrs.size()) + " registered components");
    }
    return ptrs[id];
}

} // namespace berti::sim
