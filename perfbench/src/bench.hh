/**
 * @file
 * Shared pieces of the perfbench program: host clocks, the in-memory
 * span log of a traced round, the output-check ledger and the
 * Workload interface that solo, mix8 and sweep implement.
 *
 * Every layer is measured from outside, by timing calls into the
 * simulator's public functions. An untraced round reads only a few
 * clocks per job; a traced round adds the forwarding timers of
 * probes.hh and records spans.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from `t0` to now. */
double since(Clock::time_point t0);

/** Seconds between two time points. */
double seconds(Clock::time_point t0, Clock::time_point t1);

/** User + system CPU seconds of this process so far. */
double cpuSeconds();

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/**
 * Deterministic 64-bit mix of the benchmark seed and a stream index
 * (splitmix64 finalizer), so every derived input depends on the seed
 * alone.
 */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * A stand-in trace re-seeded from the benchmark seed. The suite
 * derives each stand-in's structural parameters (IP count, stride
 * range, footprint, density) from `seed % m` with m <= 15; offsetting
 * the seed by a multiple of 420 = lcm(3, 4, 5, 6, 7, 15) keeps those
 * parameters and changes only the random stream.
 */
bouquet::TraceSpec reseeded(const bouquet::TraceSpec &base,
                            std::uint64_t seed, std::uint64_t stream);

/** One named span on the run's timeline (seconds since run start). */
struct Span
{
    std::string name;
    int parent = -1;  //!< index of the enclosing span, -1 at top level
    double start = 0.0;
    double end = 0.0;
};

/** Spans of a traced run, kept in memory and written out at the end. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span and return its index. */
    int open(const std::string &name, int parent = -1);

    /** Close span `id` now. */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a JSON array; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction; a
 *  null log makes it a no-op, so untraced code paths share it. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, int parent = -1)
        : log_(log), id_(log ? log->open(name, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

/** Host-time totals of one round of a workload. */
struct RoundTimes
{
    double setupS = 0.0;    //!< the workload's set-up share (see README)
    double measureS = 0.0;  //!< host time of measured simulation
    double wallS = 0.0;     //!< the whole round
    double cpuS = 0.0;      //!< process CPU seconds of the round
    std::uint64_t measuredInstrs = 0;  //!< post-warmup, all cores
    unsigned jobs = 0;      //!< simulation jobs attempted
    unsigned failed = 0;    //!< of which failed
};

/** Per-layer values of one traced round, by metric name. */
using LayerValues = std::map<std::string, double>;

/** Ledger of output checks; any failure fails the run. */
class Checks
{
  public:
    /** Record one check; prints the failure on stderr. */
    void expect(bool ok, const std::string &what);

    unsigned run() const { return run_; }
    unsigned failures() const { return failures_; }

  private:
    unsigned run_ = 0;
    unsigned failures_ = 0;
};

/**
 * Checks every single-core outcome must pass: at least `sim_instrs`
 * retired, IPC equal to instructions / cycles, DRAM bytes equal to
 * 64 B x (reads + writes), and no prefetch issued at any level when
 * `no_prefetch`.
 */
void checkOutcome(Checks &checks, const bouquet::Outcome &out,
                  std::uint64_t sim_instrs, bool no_prefetch,
                  const std::string &what);

/** Simulated fields of two outcomes are identical. */
bool sameSimulated(const bouquet::Outcome &a, const bouquet::Outcome &b);

/** One workload: a fixed list of jobs run as a round. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Run one round. With `log` non-null the round is traced: the
     * layers are wrapped in forwarding timers, spans are recorded, and
     * `layers` receives the per-layer values of the round.
     */
    virtual RoundTimes round(SpanLog *log, LayerValues *layers) = 0;

    /** Check the outputs of the rounds run so far (after timing). */
    virtual void check(Checks &checks) = 0;
};

std::unique_ptr<Workload> makeSolo(std::uint64_t seed);
std::unique_ptr<Workload> makeMix8(std::uint64_t seed);
std::unique_ptr<Workload> makeSweep(std::uint64_t seed,
                                    const std::string &workdir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
