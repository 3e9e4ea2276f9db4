/**
 * @file
 * Memory request record passed between hierarchy levels, and the
 * read-completion client interface implemented by caches and cores.
 */

#ifndef BERTI_MEM_REQUEST_HH
#define BERTI_MEM_REQUEST_HH

#include <cstdint>

#include "sim/types.hh"

namespace berti
{

class ReadClient;

/**
 * A request travelling down the hierarchy. Line-granular: vLine/pLine are
 * *line* addresses (byte address >> 6). vLine may be kNoAddr for requests
 * that originate below the translation point (e.g. L2 prefetches).
 */
struct MemRequest
{
    Addr vLine = kNoAddr;      //!< virtual line address (L1-visible)
    Addr pLine = kNoAddr;      //!< physical line address
    Addr ip = 0;               //!< triggering instruction pointer
    AccessType type = AccessType::Load;
    FillLevel fillLevel = FillLevel::L1;  //!< prefetch fill target
    unsigned coreId = 0;
    std::uint64_t instrId = 0;  //!< ROB entry to wake (0 = none)
    Cycle enqueueCycle = 0;     //!< PQ/MSHR timestamp origin
    ReadClient *client = nullptr;  //!< who to notify on completion
};

/**
 * Receiver of read completions. A cache implements this for the requests
 * it forwards below; a core implements it for its L1 accesses.
 */
class ReadClient
{
  public:
    virtual ~ReadClient() = default;

    /** The read for req has completed at the level below. */
    virtual void readDone(const MemRequest &req) = 0;
};

} // namespace berti

#endif // BERTI_MEM_REQUEST_HH
