#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hostbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t purpose)
{
    std::uint64_t z = seed + purpose * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
printSamples(const char *what, const std::vector<double> &v)
{
    std::printf("%s (%zu):", what, v.size());
    for (double x : v)
        std::printf(" %.4g", x);
    std::printf("\n");
}

double
peakRssMb()
{
    // VmHWM is this image's own high-water mark. getrusage's ru_maxrss
    // would also carry the peak of the process image before execve
    // (the launcher's).
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kib = -1;
        while (std::fgets(line, sizeof(line), f))
            if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
                break;
        std::fclose(f);
        if (kib >= 0)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::fprintf(stderr, "hostbench: output check failed: %s\n",
                 what.c_str());
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    bool all_finite = true;
    std::string body;
    for (const auto &[name, vu] : metrics) {
        if (!body.empty())
            body += ", ";
        char num[64];
        if (std::isfinite(vu.first)) {
            std::snprintf(num, sizeof(num), "%.17g", vu.first);
        } else {
            std::snprintf(num, sizeof(num), "null");
            all_finite = false;
        }
        body += "\"" + name + "\": {\"value\": " + num +
                ", \"unit\": \"" + vu.second + "\"}";
    }
    out += correct && all_finite ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {" + body + "}}";
    return out;
}

// ------------------------------------------------------------------ spans

Tracer::Tracer(std::uint32_t lanes) : epoch_(Clock::now()), lanes_(lanes)
{
    // Reserve up front so recording never reallocates inside timed code.
    for (Lane &l : lanes_) {
        l.spans.reserve(1u << 16);
        l.stack.reserve(64);
    }
}

std::uint32_t
Tracer::intern(const std::string &name)
{
    for (std::uint32_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return i;
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t
Tracer::open(std::uint32_t lane, std::uint32_t name, std::uint32_t unit)
{
    Lane &l = lanes_[lane];
    Span s;
    s.name = name;
    s.unit = unit;
    s.parent = l.stack.empty() ? -1 : l.stack.back();
    s.t0 = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count());
    l.spans.push_back(s);
    const auto handle = static_cast<std::int32_t>(l.spans.size() - 1);
    l.stack.push_back(handle);
    return handle;
}

void
Tracer::close(std::uint32_t lane, std::int32_t handle)
{
    Lane &l = lanes_[lane];
    l.spans[handle].t1 = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count());
    l.stack.pop_back();
}

namespace
{

/** Mean over lanes of per-lane (name, unit) sums. */
using NameUnitMs = std::map<std::uint32_t, std::map<std::uint32_t, double>>;

NameUnitMs
meanOverLanes(const std::vector<NameUnitMs> &per_lane)
{
    NameUnitMs sum, count;
    for (const NameUnitMs &lane : per_lane)
        for (const auto &[name, units] : lane)
            for (const auto &[unit, ms] : units) {
                sum[name][unit] += ms;
                count[name][unit] += 1.0;
            }
    for (auto &[name, units] : sum)
        for (auto &[unit, ms] : units)
            ms /= count[name][unit];
    return sum;
}

} // namespace

NameUnitMs
Tracer::selfMsByNameUnit() const
{
    std::vector<NameUnitMs> per_lane;
    for (const Lane &l : lanes_) {
        std::vector<std::uint64_t> child(l.spans.size(), 0);
        for (const Span &s : l.spans)
            if (s.parent >= 0)
                child[s.parent] += s.t1 - s.t0;
        NameUnitMs m;
        for (std::size_t i = 0; i < l.spans.size(); ++i) {
            const Span &s = l.spans[i];
            m[s.name][s.unit] +=
                static_cast<double>(s.t1 - s.t0 - child[i]) * 1e-6;
        }
        per_lane.push_back(std::move(m));
    }
    return meanOverLanes(per_lane);
}

std::map<std::uint32_t, double>
Tracer::durationMsByUnit(std::uint32_t name) const
{
    std::vector<NameUnitMs> per_lane;
    for (const Lane &l : lanes_) {
        NameUnitMs m;
        for (const Span &s : l.spans)
            if (s.name == name)
                m[name][s.unit] += static_cast<double>(s.t1 - s.t0) * 1e-6;
        per_lane.push_back(std::move(m));
    }
    NameUnitMs mean = meanOverLanes(per_lane);
    return mean[name];
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (std::uint32_t lane = 0; lane < lanes_.size(); ++lane)
        for (const Span &s : lanes_[lane].spans) {
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"unit\": %u}}",
                         first ? "" : ",\n", names_[s.name].c_str(), lane,
                         static_cast<double>(s.t0) * 1e-3,
                         static_cast<double>(s.t1 - s.t0) * 1e-3, s.unit);
            first = false;
        }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

TraceSummary
summarize(const Tracer &t, const std::string &unit,
          const std::vector<std::pair<std::string, std::vector<std::string>>>
              &groups)
{
    TraceSummary out;
    const auto &names = t.names();
    const auto id_of = [&](const std::string &n) -> std::int64_t {
        for (std::size_t i = 0; i < names.size(); ++i)
            if (names[i] == n)
                return static_cast<std::int64_t>(i);
        return -1;
    };
    const std::int64_t unit_id = id_of(unit);
    if (unit_id < 0)
        return out;
    const NameUnitMs self = t.selfMsByNameUnit();
    const std::map<std::uint32_t, double> unit_ms =
        t.durationMsByUnit(static_cast<std::uint32_t>(unit_id));

    std::vector<double> durations, coverage;
    for (const auto &[u, ms] : unit_ms) {
        durations.push_back(ms);
        const double own = self.at(static_cast<std::uint32_t>(unit_id)).at(u);
        coverage.push_back(ms > 0.0 ? (ms - own) / ms : 0.0);
    }
    out.fastestUnitMs = fastest(durations);
    out.coverage = median(coverage);

    for (const auto &[metric, members] : groups) {
        std::vector<double> per_unit;
        for (const auto &entry : unit_ms) {
            const std::uint32_t u = entry.first;
            double sum = 0.0;
            for (const std::string &m : members) {
                const std::int64_t id = id_of(m);
                if (id < 0)
                    continue;
                const auto it = self.find(static_cast<std::uint32_t>(id));
                if (it == self.end())
                    continue;
                const auto jt = it->second.find(u);
                if (jt != it->second.end())
                    sum += jt->second;
            }
            per_unit.push_back(sum);
        }
        out.ms[metric] = median(per_unit);
    }
    return out;
}

} // namespace hostbench
