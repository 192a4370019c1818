/**
 * @file
 * Fixed-width vector clocks for the clocked detectors.
 */

#ifndef HARD_DETECTORS_VCLOCK_HH
#define HARD_DETECTORS_VCLOCK_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/types.hh"

namespace hard
{

/** A vector clock over kMaxThreads components. */
struct VClock
{
    std::array<std::uint32_t, kMaxThreads> c{};

    std::uint32_t operator[](ThreadId t) const { return c[t]; }
    std::uint32_t &operator[](ThreadId t) { return c[t]; }

    /** Component-wise maximum with @p o. */
    void
    join(const VClock &o)
    {
        for (unsigned i = 0; i < kMaxThreads; ++i)
            c[i] = std::max(c[i], o.c[i]);
    }

    bool
    operator==(const VClock &o) const
    {
        return c == o.c;
    }
};

/**
 * @return the lowest thread u other than @p tid whose entry in @p last
 * is not ordered before @p vc (last[u] > vc[u]), or invalidThread when
 * every other thread's is. The ascending scan fixes which thread a
 * report names as its other party.
 */
inline ThreadId
firstUnordered(const VClock &last, const VClock &vc, ThreadId tid)
{
    for (unsigned u = 0; u < kMaxThreads; ++u)
        if (u != tid && last[u] > vc[u])
            return static_cast<ThreadId>(u);
    return invalidThread;
}

/** A scalar epoch: clock value @p clk of thread @p tid. */
struct Epoch
{
    ThreadId tid = invalidThread;
    std::uint32_t clk = 0;

    /** @return true if this epoch happens-before (or equals) @p vc. */
    bool
    ordered(const VClock &vc) const
    {
        return tid == invalidThread || clk <= vc[tid];
    }
};

} // namespace hard

#endif // HARD_DETECTORS_VCLOCK_HH
