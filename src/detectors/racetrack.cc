#include "detectors/racetrack.hh"

namespace hard
{

RaceTrackDetector::RaceTrackDetector(const std::string &name,
                                     const RaceTrackConfig &cfg)
    : ExactLocksetDetector(name, cfg)
{
}

void
RaceTrackDetector::access(const MemEvent &ev, bool write)
{
    const VClock &vc = clock(ev.tid);
    exactAccess(ev, write, [&](Granule &g, const GranuleStep &s,
                               const std::set<LockAddr> &) {
        if (s.violation) {
            // The lockset side flags a violation; the adaptive side
            // withdraws it when every other thread's last access is
            // ordered before this one by *any* synchronization, lock
            // edges included.
            const ThreadId other = firstUnordered(g.accessClk, vc, ev.tid);
            if (other == invalidThread)
                ++suppressed_;
            else
                emit(ev.tid, s.addr, config().granularityBytes, ev.site,
                     write, ev.at, other);
        }
        g.accessClk[ev.tid] = vc[ev.tid];
    });
}

void
RaceTrackDetector::onRead(const MemEvent &ev)
{
    access(ev, false);
}

void
RaceTrackDetector::onWrite(const MemEvent &ev)
{
    access(ev, true);
}

} // namespace hard
