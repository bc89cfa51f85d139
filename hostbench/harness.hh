/**
 * @file
 * Shared plumbing of the host-clock benchmark: run options, seeded
 * input streams, statistics, the result line, and the span recorder
 * the traced runs use. Everything here belongs to the benchmark; the
 * maxk library is only ever called, never instrumented.
 */

#ifndef HOSTBENCH_HARNESS_HH
#define HOSTBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hostbench
{

using Clock = std::chrono::steady_clock;

/** Seconds since `t0`. */
double secondsSince(Clock::time_point t0);

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;      //!< self-test sizes: same code paths, tiny inputs
    std::string outDir;     //!< checkpoints and the trace file go here
};

/** Independent 64-bit stream key for one input of the run:
 *  splitmix64 of (seed, purpose), so every input is a pure function of
 *  the seed argument. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t purpose);

/** Stream purposes (streamSeed's second argument). */
enum Purpose : std::uint64_t
{
    kGraph = 1,
    kModel = 2,
    kPartition = 3,
    kZipf = 4,
    kTrainer = 5,
    kSampler = 6,
    kServe = 7,
    kProbe = 8,
};

double median(std::vector<double> v);

/**
 * The fastest sample (0 when empty). Host timings here swing between
 * an uncontended and a contended level in phases lasting seconds (a
 * co-tenant on the sibling hardware thread); a run's fastest unit is
 * the uncontended cost, and reads steadily across runs where medians
 * do not.
 */
double fastest(const std::vector<double> &v);

/** Percentile p in [0, 100], linear interpolation between the two
 *  closest ranks. */
double percentile(std::vector<double> v, double p);

/** Print "<what>: v1 v2 ..." (the samples behind a median) to stdout. */
void printSamples(const char *what, const std::vector<double> &v);

/** Peak resident set of the process so far, MB. */
double peakRssMb();

/** Metrics and operation counts of one run; prints the result line. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Record an output check; a false `ok` makes the run incorrect and
     *  prints `what` to stderr. */
    void check(bool ok, const std::string &what);

    /** The last stdout line: {"correct", "attempted", "failed",
     *  "metrics"}. */
    std::string json() const;
};

// ------------------------------------------------------------------ spans

/** One closed span: a call into a module, timed from benchmark code. */
struct Span
{
    std::uint32_t name = 0;     //!< index into Tracer::names()
    std::uint32_t unit = 0;     //!< epoch / batch / call index
    std::int32_t parent = -1;   //!< enclosing span in the same lane
    std::uint64_t t0 = 0;       //!< ns since the tracer epoch
    std::uint64_t t1 = 0;
};

/**
 * In-memory span recorder. One lane per thread that records (rank
 * threads of the sharded workload each get their own), so recording
 * takes no lock; spans are only read after every lane has stopped.
 * Names are interned up front, outside timed code.
 */
class Tracer
{
  public:
    explicit Tracer(std::uint32_t lanes);

    /** Intern a span name (not thread-safe: call before recording). */
    std::uint32_t intern(const std::string &name);

    const std::vector<std::string> &names() const { return names_; }

    /** Open a span in `lane`; returns its handle for close(). */
    std::int32_t open(std::uint32_t lane, std::uint32_t name,
                      std::uint32_t unit);
    void close(std::uint32_t lane, std::int32_t handle);

    /**
     * Self time (ms) of every (name, unit), averaged over the lanes
     * that recorded that unit. Self time is a span's duration minus the
     * part its child spans cover.
     */
    std::map<std::uint32_t, std::map<std::uint32_t, double>>
    selfMsByNameUnit() const;

    /** Duration (ms) of every span named `name`, per unit, averaged
     *  over lanes. */
    std::map<std::uint32_t, double> durationMsByUnit(
        std::uint32_t name) const;

    /** Write every span as a Chrome trace_event file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Lane
    {
        std::vector<Span> spans;
        std::vector<std::int32_t> stack;
    };
    Clock::time_point epoch_;
    std::vector<std::string> names_;
    std::vector<Lane> lanes_;
};

/** RAII span: open on construction, close on destruction. A null
 *  tracer records nothing, so one code path serves both modes. */
class Scope
{
  public:
    Scope(Tracer *t, std::uint32_t lane, std::uint32_t name,
          std::uint32_t unit)
        : t_(t), lane_(lane),
          handle_(t ? t->open(lane, name, unit) : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->close(lane_, handle_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    std::uint32_t lane_;
    std::int32_t handle_;
};

/**
 * Per-layer metrics from a finished trace: for each entry, the median
 * over units of the summed self time of its span names. Units are the
 * values of the `unit` span; `coverage` (Σ child self time ÷ unit
 * duration, median over units) and the fastest traced unit are
 * returned as well.
 */
struct TraceSummary
{
    std::map<std::string, double> ms;  //!< metric name -> median ms
    double fastestUnitMs = 0.0;
    double coverage = 0.0;
};
TraceSummary summarize(
    const Tracer &t, const std::string &unit,
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        &groups);

} // namespace hostbench

#endif // HOSTBENCH_HARNESS_HH
