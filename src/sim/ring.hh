/**
 * @file
 * Allocation-free containers for the simulator hot path.
 *
 * RingQueue is a circular FIFO over a power-of-two vector: push_back /
 * pop_front never allocate once the ring has reached its steady-state
 * capacity (reserve up front when the bound is known, e.g. a cache's
 * rqSize). It replaces the std::deque queues that used to churn one
 * chunk allocation every few requests. Growth relinearises into a
 * larger buffer, so FIFO order is always preserved bit-identically.
 *
 * IdSet is a small unordered id membership set backed by a flat vector
 * (linear scan, swap-remove): it replaces the per-insert node
 * allocations of std::unordered_set for the core's outstanding-load
 * tracking, where the population is bounded by the ROB size.
 */

#ifndef BERTI_SIM_RING_HH
#define BERTI_SIM_RING_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace berti
{

template <typename T>
class RingQueue
{
  public:
    using value_type = T;

    RingQueue() = default;
    explicit RingQueue(std::size_t capacity) { reserve(capacity); }

    /** Grow storage to hold at least n elements without reallocating. */
    void
    reserve(std::size_t n)
    {
        if (n > buf.size())
            grow(n);
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return buf.size(); }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }

    /** i-th element from the front (0 = front). */
    T &operator[](std::size_t i) { return buf[wrap(head + i)]; }
    const T &operator[](std::size_t i) const
    {
        return buf[wrap(head + i)];
    }

    void
    push_back(const T &v)
    {
        if (count == buf.size())
            grow(count ? count * 2 : 8);
        buf[wrap(head + count)] = v;
        ++count;
    }

    void
    pop_front()
    {
        head = wrap(head + 1);
        --count;
    }

    /**
     * Remove the i-th element, preserving the order of the rest
     * (shifts the tail forward by one). Used by the DRAM FR-FCFS pick.
     */
    void
    erase(std::size_t i)
    {
        for (std::size_t k = i; k + 1 < count; ++k)
            (*this)[k] = (*this)[k + 1];
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    template <bool Const>
    class Iter
    {
        using Owner =
            std::conditional_t<Const, const RingQueue, RingQueue>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using reference = std::conditional_t<Const, const T &, T &>;
        using pointer = std::conditional_t<Const, const T *, T *>;

        Iter(Owner *owner, std::size_t index) : q(owner), i(index) {}

        reference operator*() const { return (*q)[i]; }
        pointer operator->() const { return &(*q)[i]; }
        Iter &operator++()
        {
            ++i;
            return *this;
        }
        bool operator==(const Iter &o) const { return i == o.i; }
        bool operator!=(const Iter &o) const { return i != o.i; }

      private:
        Owner *q;
        std::size_t i;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }

  private:
    std::size_t wrap(std::size_t i) const { return i & (buf.size() - 1); }

    void
    grow(std::size_t at_least)
    {
        std::size_t cap = 8;
        while (cap < at_least)
            cap *= 2;
        std::vector<T> bigger(cap);
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = (*this)[i];
        buf.swap(bigger);
        head = 0;
    }

    std::vector<T> buf;       //!< power-of-two capacity (or empty)
    std::size_t head = 0;
    std::size_t count = 0;
};

/** Flat unordered id set with allocation-free steady-state churn. */
class IdSet
{
  public:
    void reserve(std::size_t n) { ids.reserve(n); }

    void insert(std::uint64_t id) { ids.push_back(id); }

    void
    erase(std::uint64_t id)
    {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (ids[i] == id) {
                ids[i] = ids.back();
                ids.pop_back();
                return;
            }
        }
    }

    std::size_t
    count(std::uint64_t id) const
    {
        for (std::uint64_t v : ids) {
            if (v == id)
                return 1;
        }
        return 0;
    }

    std::size_t size() const { return ids.size(); }
    bool empty() const { return ids.empty(); }

    /**
     * Raw backing vector, exposed for checkpoint serialization.
     * Membership is order-independent, but the checkpoint layer
     * preserves the order anyway so a restored machine re-serializes
     * to a byte-identical blob.
     */
    const std::vector<std::uint64_t> &raw() const { return ids; }
    void assign(std::vector<std::uint64_t> v) { ids = std::move(v); }

  private:
    std::vector<std::uint64_t> ids;
};

} // namespace berti

#endif // BERTI_SIM_RING_HH
