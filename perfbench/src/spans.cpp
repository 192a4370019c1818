#include "spans.hh"

#include "common/logging.hh"

namespace perfbench
{

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
}

std::int64_t
SpanLog::open(const std::string &name, const std::string &unit)
{
    Span s;
    s.name = name;
    s.unit = unit;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(std::int64_t id)
{
    hard_panic_if(stack_.empty() || stack_.back() != id,
                  "span %lld closed out of order",
                  static_cast<long long>(id));
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
}

std::map<std::string, double>
SpanLog::selfMsByLayer() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += static_cast<double>(s.endNs - s.startNs - childNs[i]) /
            1e6;
    }
    return out;
}

hard::Json
SpanLog::toJson() const
{
    hard::Json arr = hard::Json::array();
    for (const Span &s : spans_) {
        hard::Json j = hard::Json::object();
        j.set("name", s.name);
        j.set("startNs", s.startNs);
        j.set("endNs", s.endNs);
        j.set("parent", s.parent);
        j.set("unit", s.unit);
        arr.push(std::move(j));
    }
    hard::Json doc = hard::Json::object();
    doc.set("schema", "hard.perfbench.spans.v1");
    doc.set("spans", std::move(arr));
    return doc;
}

double
SpanLog::costPerSpanNs()
{
    constexpr int kSpans = 20000;
    SpanLog probe(true);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        ScopedSpan s(probe, "bench.probe", "probe");
    return secondsSince(t0) * 1e9 / kSpans;
}

} // namespace perfbench
