/**
 * @file
 * The sweep workload: a figure-sweep campaign driven through the
 * public campaign calls, with one in-process worker per pass.
 *
 * A round is two passes over one manifest (K generated trace files x
 * none + the Table III combos):
 *
 *   cold  submit, drain, aggregate. Every job simulates its warmup and
 *         publishes the end-of-warmup state to the round's shared warm
 *         directory, plus OutcomeStore records and stats JSON.
 *   warm  the same manifest in a fresh campaign directory sharing the
 *         warm directory. Every job restores its warm state.
 *
 * The warm pass opens the shared warm directory under a second
 * spelling of its path ("<dir>/."). The process-wide WarmStore
 * registry is keyed by that string, so the warm pass gets a fresh
 * store and reads the files the cold pass wrote, as the new worker
 * processes of a later `ipcp_campaign run` would. The trace pool is
 * cleared before each pass for the same reason.
 *
 * Within a pass each warm key is fetched once, so a store's in-memory
 * payload cache is never read; but it holds every payload the pass
 * published or fetched (up to 64, about 0.85 MB each), as a worker's
 * does. Round 1 runs at that default, so the peak resident set read
 * after it includes the cache. The registry keeps every store it
 * opened, and each round opens new directories, so later rounds set
 * IPCP_WARM_MEM_ENTRIES=1: they repeat round 1's work and would
 * otherwise grow the process by about 40 MB a round.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "campaign/worker.hh"
#include "common/statsink.hh"
#include "harness/factory.hh"
#include "harness/outcomestore.hh"
#include "harness/warmstore.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"
#include "trace/tracepool.hh"

namespace perfbench
{

using namespace bouquet;
using namespace bouquet::campaign;
namespace fs = std::filesystem;

namespace
{

// K traces x 6 combos per pass. Jobs are kept far below the campaign's
// 500 ms wall-clock checkpoint limit, so no periodic save runs and
// the work per job does not depend on host speed.
constexpr unsigned kSweepTraces = 4;
constexpr std::uint64_t kSweepWarmup = 20'000;
constexpr std::uint64_t kSweepSim = 150'000;
constexpr unsigned kSampleChecks = 3;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Total bytes of the regular files under `path` (0 if absent). */
double
diskBytes(const std::string &path)
{
    std::error_code ec;
    if (fs::is_regular_file(path, ec))
        return static_cast<double>(fs::file_size(path, ec));
    double total = 0.0;
    for (fs::recursive_directory_iterator it(path, ec), end;
         !ec && it != end; it.increment(ec))
        if (it->is_regular_file(ec))
            total += static_cast<double>(it->file_size(ec));
    return total;
}

/** The "ipc" value report.json lists for the job with `hash`. */
double
reportIpc(const std::string &report, const std::string &hash)
{
    const std::size_t at = report.find("\"key_hash\": \"" + hash + "\"");
    if (at == std::string::npos)
        return -1.0;
    const std::size_t ipc = report.find("\"ipc\": ", at);
    if (ipc == std::string::npos)
        return -1.0;
    return std::strtod(report.c_str() + ipc + 7, nullptr);
}

/** One harnessCacheStats() counter. */
std::uint64_t
cacheStat(const char *path)
{
    const auto snap = harnessCacheStats().snapshot();
    const auto it = snap.find(path);
    return it == snap.end() ? 0 : it->second.u;
}

class Sweep : public Workload
{
  public:
    Sweep(std::uint64_t seed, std::string workdir);

    RoundTimes round(SpanLog *log, LayerValues *layers) override;
    void check(Checks &checks) override;

  private:
    /** Submit, drain and aggregate one pass; false if it broke. */
    bool pass(const CampaignPaths &paths, SpanLog *log, LayerValues &v,
              CampaignTotals &totals);

    /** Traced extras: direct replay and state capture/restore. */
    void traceDirect(const std::string &warm_dir, double warm_drain_s,
                     SpanLog &log, LayerValues &v);

    std::uint64_t seed_;
    std::string workdir_;
    CampaignSpec spec_;
    unsigned rounds_ = 0;

    // Round 1's artifacts, kept for the checks.
    std::string firstRoot_;
    std::string firstReport_;
    std::uint64_t warmInstrs_ = 0;  //!< measured instructions per pass
    unsigned divergentReports_ = 0;
    unsigned warmMisses_ = 0;        //!< warm-pass jobs not warm-started
    unsigned quarantined_ = 0;
    unsigned captureFailures_ = 0;   //!< traced capture/restore errors
};

Sweep::Sweep(std::uint64_t seed, std::string workdir)
    : seed_(seed), workdir_(std::move(workdir))
{
    // Inputs: the first K memory-intensive stand-ins, re-seeded from
    // the benchmark seed and captured to trace files long enough that
    // no job wraps around.
    const std::string inputs = workdir_ + "/inputs";
    fs::create_directories(inputs);
    spec_.warmupInstrs = kSweepWarmup;
    spec_.simInstrs = kSweepSim;
    const std::vector<TraceSpec> &pool = memIntensiveTraces();
    const std::size_t stride = pool.size() / kSweepTraces;
    std::vector<std::string> files;
    for (unsigned t = 0; t < kSweepTraces; ++t) {
        const TraceSpec spec = reseeded(pool[t * stride], seed, t);
        const std::string path =
            inputs + "/t" + std::to_string(t) + ".trace";
        GeneratorPtr gen = makeWorkload(spec);
        writeTraceFile(path, *gen, kSweepWarmup + kSweepSim);
        files.push_back("file:" + path);
    }
    std::vector<std::string> combos{"none"};
    for (const std::string &c : tableIIICombos())
        combos.push_back(c);
    for (const std::string &combo : combos)
        for (const std::string &file : files)
            spec_.jobs.push_back(CampaignJob{file, combo});
}

bool
Sweep::pass(const CampaignPaths &paths, SpanLog *log, LayerValues &v,
            CampaignTotals &totals)
{
    TracePool::instance().clear();
    Clock::time_point t = Clock::now();
    {
        ScopedSpan s(log, "campaign.submit");
        if (Status st = writeManifest(paths, spec_); !st.ok()) {
            std::cerr << "[perfbench] submit: " << st.error().message
                      << "\n";
            return false;
        }
    }
    v["campaign.submit_s"] += since(t);
    t = Clock::now();
    int rc = 0;
    {
        ScopedSpan s(log, "campaign.drain");
        rc = runWorker(paths.root);
    }
    v["campaign.drain_s"] = since(t);
    t = Clock::now();
    {
        ScopedSpan s(log, "campaign.aggregate");
        if (Status st = writeReport(paths, spec_); !st.ok()) {
            std::cerr << "[perfbench] report: " << st.error().message
                      << "\n";
            return false;
        }
        Result<CampaignTotals> r = writeSummary(paths, spec_);
        if (!r.ok()) {
            std::cerr << "[perfbench] summary: " << r.error().message
                      << "\n";
            return false;
        }
        totals = r.value();
    }
    v["campaign.aggregate_s"] += since(t);
    return rc == 0;
}

RoundTimes
Sweep::round(SpanLog *log, LayerValues *layers)
{
    if (rounds_ > 0)
        ::setenv("IPCP_WARM_MEM_ENTRIES", "1", 1);
    const std::string root = workdir_ + "/r" + std::to_string(rounds_++);
    const std::string warm_dir = root + "/warmstore";
    const CampaignPaths cold(root + "/cold");
    const CampaignPaths warm(root + "/warm");
    const unsigned jobs = static_cast<unsigned>(spec_.jobs.size());

    fs::create_directories(root);
    RoundTimes t;
    LayerValues v;
    CampaignTotals cold_totals, warm_totals;
    const std::uint64_t hits0 = cacheStat("campaign.warm.hit");
    const std::uint64_t misses0 = cacheStat("campaign.warm.miss");
    const std::uint64_t pubs0 = cacheStat("campaign.warm.publish");
    const std::uint64_t heals0 = cacheStat("campaign.warm.heal");

    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    ::setenv("IPCP_WARM_DIR", warm_dir.c_str(), 1);
    const bool cold_ok = pass(cold, log, v, cold_totals);
    const double cold_drain = v["campaign.drain_s"];
    const Clock::time_point t1 = Clock::now();
    ::setenv("IPCP_WARM_DIR", (warm_dir + "/.").c_str(), 1);
    const bool warm_ok = pass(warm, log, v, warm_totals);
    const double warm_drain = v["campaign.drain_s"];
    ::unsetenv("IPCP_WARM_DIR");
    const Clock::time_point t2 = Clock::now();

    t.setupS = seconds(t0, t1);
    t.measureS = seconds(t1, t2);
    t.wallS = seconds(t0, t2);
    t.cpuS = cpuSeconds() - cpu0;
    t.jobs = 2 * jobs;
    const std::size_t lost = cold_totals.quarantined +
                             cold_totals.incomplete +
                             warm_totals.quarantined +
                             warm_totals.incomplete;
    t.failed = static_cast<unsigned>(lost);
    if (!cold_ok || !warm_ok)
        throw std::runtime_error("a sweep pass broke in " + root);
    quarantined_ += static_cast<unsigned>(cold_totals.quarantined +
                                          warm_totals.quarantined);
    warmMisses_ += static_cast<unsigned>(jobs - warm_totals.warmHits);

    {
        ScopedSpan inspect(log, "bench.inspect");
        const std::string cold_report = readFile(cold.reportFile());
        const std::string warm_report = readFile(warm.reportFile());
        if (firstReport_.empty()) {
            firstRoot_ = root;
            firstReport_ = cold_report;
            OutcomeStore store(warm.storeFile());
            const ExperimentConfig cfg = campaignConfig(warm, spec_);
            for (const CampaignJob &job : spec_.jobs) {
                Outcome out;
                if (store.get(keyOf(job, cfg), out))
                    warmInstrs_ += out.instructions;
            }
        }
        if (cold_report != firstReport_ || warm_report != firstReport_)
            ++divergentReports_;
        if (layers != nullptr) {
            v["harness.warm_bytes"] = diskBytes(warm_dir);
            v["harness.store_bytes"] = diskBytes(cold.storeFile()) +
                                       diskBytes(warm.storeFile());
            v["harness.stats_bytes"] = diskBytes(cold.statsDir()) +
                                       diskBytes(warm.statsDir());
        }
    }
    t.measuredInstrs = warmInstrs_;

    if (layers != nullptr) {
        v.erase("campaign.drain_s");
        v["campaign.cold_pass_s"] = cold_drain;
        v["campaign.warm_pass_s"] = warm_drain;
        v["harness.warm.hits"] = cacheStat("campaign.warm.hit") - hits0;
        v["harness.warm.misses"] =
            cacheStat("campaign.warm.miss") - misses0;
        v["harness.warm.publishes"] =
            cacheStat("campaign.warm.publish") - pubs0;
        v["harness.warm.heals"] = cacheStat("campaign.warm.heal") - heals0;
        v["campaign.attempts"] =
            static_cast<double>(cold_totals.attempts + warm_totals.attempts);
        v["campaign.reclaims"] =
            static_cast<double>(cold_totals.reclaims + warm_totals.reclaims);
        v["campaign.quarantined"] = static_cast<double>(
            cold_totals.quarantined + warm_totals.quarantined);
        v["campaign.degraded"] = static_cast<double>(
            cold_totals.degradedTotal() + warm_totals.degradedTotal());
        traceDirect(warm_dir, warm_drain, *log, v);
        for (const auto &[name, value] : v)
            (*layers)[name] = value;
    }
    if (root != firstRoot_) {
        ScopedSpan s(log, "bench.cleanup");
        std::error_code ec;
        fs::remove_all(root, ec);
    }
    return t;
}

void
Sweep::traceDirect(const std::string &warm_dir, double warm_drain_s,
                   SpanLog &log, LayerValues &v)
{
    ExperimentConfig cfg;
    cfg.warmupInstrs = spec_.warmupInstrs;
    cfg.simInstrs = spec_.simInstrs;

    // The same jobs replayed directly through runSingleCore against
    // the same warm files (a third spelling of the directory, so these
    // restores read the disk as the warm pass did). What the campaign
    // adds per job on top is queue, lease, store and stats handling.
    cfg.warmDir = warm_dir + "/./.";
    double replay_s = 0.0;
    {
        ScopedSpan s(&log, "campaign.replay");
        for (const CampaignJob &job : spec_.jobs) {
            cfg.warmLabel = job.combo;
            const Clock::time_point t0 = Clock::now();
            const Outcome out = runSingleCore(
                fileTraceSpec(job.trace),
                [&job](System &sys) { applyCombo(sys, job.combo); }, cfg);
            replay_s += since(t0);
            if (!out.warmStart)
                ++warmMisses_;
        }
    }
    v["campaign.job_overhead_ms"] =
        (warm_drain_s - replay_s) / static_cast<double>(spec_.jobs.size()) *
        1e3;

    // Warm-state capture and restore on Systems built here, timed at
    // the warmup boundary. run(warmup, 1) stops one instruction past
    // it: the end-of-warmup state does not depend on the run length.
    double capture_s = 0.0, restore_s = 0.0;
    SystemConfig sys_cfg = cfg.system;
    sys_cfg.dram.channels = 1;
    const auto build = [&](const CampaignJob &job) {
        std::vector<GeneratorPtr> w;
        w.push_back(makeWorkload(fileTraceSpec(job.trace)));
        auto sys = std::make_unique<System>(sys_cfg, std::move(w));
        applyCombo(*sys, job.combo);
        return sys;
    };
    for (const CampaignJob &job : spec_.jobs) {
        ScopedSpan s(&log, "common.stateio");
        std::vector<std::uint8_t> payload;
        {
            ScopedSpan w(&log, "core.warmup", s.id());
            std::unique_ptr<System> sys = build(job);
            sys->setWarmupHook([&](System &warm) {
                ScopedSpan c(&log, "common.stateio.capture", w.id());
                const Clock::time_point t0 = Clock::now();
                Result<std::vector<std::uint8_t>> r = warm.captureState();
                capture_s += since(t0);
                if (r.ok())
                    payload = std::move(r.value());
            });
            sys->run(spec_.warmupInstrs, 1);
        }
        ScopedSpan r(&log, "common.stateio.restore", s.id());
        std::unique_ptr<System> sys = build(job);
        const Clock::time_point t0 = Clock::now();
        const Status st = sys->loadWarmState(payload);
        restore_s += since(t0);
        if (payload.empty() || !st.ok() || !sys->warmStart())
            ++captureFailures_;
    }
    v["common.stateio.capture_s"] = capture_s;
    v["common.stateio.restore_s"] = restore_s;
}

void
Sweep::check(Checks &checks)
{
    checks.expect(!firstReport_.empty(), "no sweep round completed");
    checks.expect(divergentReports_ == 0,
                  std::to_string(divergentReports_) +
                      " rounds wrote a report.json unlike round 1's cold "
                      "pass (warm must equal cold)");
    checks.expect(warmMisses_ == 0,
                  std::to_string(warmMisses_) +
                      " warm-pass jobs did not restore a warm state");
    checks.expect(quarantined_ == 0,
                  std::to_string(quarantined_) + " jobs quarantined");
    checks.expect(captureFailures_ == 0,
                  std::to_string(captureFailures_) +
                      " warm states failed to capture or restore");
    if (firstReport_.empty())
        return;

    // Every job's stored outcome, then a seeded sample re-simulated
    // directly and compared with report.json and the store.
    const CampaignPaths warm(firstRoot_ + "/warm");
    OutcomeStore store(warm.storeFile());
    const ExperimentConfig cfg = campaignConfig(warm, spec_);
    std::vector<Outcome> stored(spec_.jobs.size());
    for (std::size_t j = 0; j < spec_.jobs.size(); ++j) {
        const CampaignJob &job = spec_.jobs[j];
        const std::string what = job.trace + " under " + job.combo;
        const bool found = store.get(keyOf(job, cfg), stored[j]);
        checks.expect(found, what + ": no stored outcome");
        if (found)
            checkOutcome(checks, stored[j], spec_.simInstrs,
                         job.combo == "none", what);
    }
    ExperimentConfig direct;
    direct.warmupInstrs = spec_.warmupInstrs;
    direct.simInstrs = spec_.simInstrs;
    for (unsigned k = 0; k < kSampleChecks; ++k) {
        const std::size_t j = mixSeed(seed_, 7000 + k) % spec_.jobs.size();
        const CampaignJob &job = spec_.jobs[j];
        const Outcome out = runSingleCore(
            fileTraceSpec(job.trace),
            [&job](System &sys) { applyCombo(sys, job.combo); }, direct);
        const std::string what = job.trace + " under " + job.combo;
        checks.expect(reportIpc(firstReport_,
                                keyHash(keyOf(job, cfg))) == out.ipc,
                      what + ": report.json IPC differs from a direct run");
        checks.expect(sameSimulated(stored[j], out),
                      what + ": stored outcome differs from a direct run");
    }
}

} // namespace

std::unique_ptr<Workload>
makeSweep(std::uint64_t seed, const std::string &workdir)
{
    return std::make_unique<Sweep>(seed, workdir);
}

} // namespace perfbench
