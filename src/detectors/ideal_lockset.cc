#include "detectors/ideal_lockset.hh"

#include <algorithm>

#include "explain/prov.hh"

namespace hard
{

IdealLocksetDetector::IdealLocksetDetector(const std::string &name,
                                           const IdealLocksetConfig &cfg)
    : ExactLocksetDetector(name, cfg)
{
}

void
IdealLocksetDetector::access(const MemEvent &ev, bool write)
{
    const unsigned gran = config().granularityBytes;
    exactAccess(ev, write, [&](const Granule &g, const GranuleStep &s,
                               const std::set<LockAddr> &locks) {
        if (prov_)
            prov_->noteAccess(s.addr, ev.tid, ev.at);
        if (s.narrowed) {
            if (!g.candidate.isUniverse()) {
                std::size_t sz = g.candidate.locks().size();
                sizeStats_.maxCandidate =
                    std::max(sizeStats_.maxCandidate, sz);
                ++sizeStats_.candidateHist[std::min<std::size_t>(sz, 7)];
            }
            if (prov_)
                prov_->recordExactNarrow(
                    s.addr, ev.tid, ev.site, write, ev.at, s.before,
                    g.state, locks, g.candidate.isUniverse(),
                    static_cast<unsigned>(g.candidate.locks().size()));
        }
        if (s.violation) {
            emit(ev.tid, s.addr, gran, ev.site, write, ev.at,
                 prov_ ? prov_->lastOther(s.addr) : invalidThread);
            if (prov_)
                prov_->recordReport(s.addr, ev.tid, ev.site, write, ev.at);
        }
    });
}

void
IdealLocksetDetector::onRead(const MemEvent &ev)
{
    access(ev, false);
}

void
IdealLocksetDetector::onWrite(const MemEvent &ev)
{
    access(ev, true);
}

void
IdealLocksetDetector::onBarrier(const BarrierEvent &ev)
{
    if (prov_ && config().barrierReset)
        prov_->recordFlashReset(ev.at, ev.episode);
    ExactLocksetDetector::onBarrier(ev);
}

} // namespace hard
