/**
 * @file
 * The solo and mix8 workloads: whole simulations through the
 * harness's runSingleCore / runMix, started cold, with no store,
 * queue or disk involved. An untraced job reads three clocks: before
 * the call, at the warmup boundary (System::setWarmupHook, set by the
 * attach function) and after the call. A traced job builds the same
 * System by hand with forwarding timers around every generator and
 * prefetcher.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>

#include "bench.hh"
#include "harness/factory.hh"
#include "probes.hh"
#include "trace/suite.hh"

namespace perfbench
{

using namespace bouquet;

namespace
{

/** One simulation: one spec per core under one combo. */
struct SimJob
{
    std::vector<TraceSpec> specs;
    std::string combo;
};

/** What a job produced, in runMix's shape (per core + system). */
struct SimResult
{
    bool ok = false;
    std::vector<CoreResult> cores;
    Outcome system;  //!< core-0 private caches, shared LLC and DRAM
};

bool
sameResult(const SimResult &a, const SimResult &b)
{
    if (a.ok != b.ok || a.cores.size() != b.cores.size() ||
        !sameSimulated(a.system, b.system))
        return false;
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        const CoreResult &x = a.cores[c];
        const CoreResult &y = b.cores[c];
        if (x.instructions != y.instructions || x.cycles != y.cycles ||
            x.ipc != y.ipc)
            return false;
    }
    return true;
}

/** The job's label in check messages. */
std::string
jobName(const SimJob &job)
{
    std::string name = job.specs.size() == 1
                           ? job.specs[0].name
                           : std::to_string(job.specs.size()) + "-core mix of " +
                                 job.specs[0].name + ", ...";
    return name + " under " + job.combo;
}

/** Sum of a per-cache counter over every core's private cache. */
template <typename Get>
std::uint64_t
sumCores(System &sys, Cache &(System::*cache)(unsigned), Get get)
{
    std::uint64_t total = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        total += get((sys.*cache)(c).stats());
    return total;
}

/** Solo and mix8 differ only in their job list and run lengths. */
class SimWorkload : public Workload
{
  public:
    SimWorkload(std::vector<SimJob> jobs, std::uint64_t warmup,
                std::uint64_t sim, bool solo)
        : jobs_(std::move(jobs)), solo_(solo)
    {
        cfg_.warmupInstrs = warmup;
        cfg_.simInstrs = sim;
    }

    RoundTimes
    round(SpanLog *log, LayerValues *layers) override
    {
        RoundTimes t;
        const double cpu0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        Counts counts;
        std::vector<SimResult> results;
        results.reserve(jobs_.size());
        for (const SimJob &job : jobs_) {
            results.push_back(log == nullptr
                                  ? runJob(job, t)
                                  : runTraced(job, t, *log, counts));
            ++t.jobs;
            if (!results.back().ok)
                ++t.failed;
        }
        t.wallS = since(t0);
        t.cpuS = cpuSeconds() - cpu0;
        record(std::move(results), log != nullptr);
        if (layers != nullptr)
            counts.fill(*layers);
        return t;
    }

    void check(Checks &checks) override;

  private:
    /** Per-layer totals of one traced round. */
    struct Counts
    {
        TracedLayers hooks;
        double buildS = 0.0, warmupS = 0.0, measureS = 0.0;
        std::uint64_t ticks = 0, skipped = 0;
        std::uint64_t l1dMisses = 0, l2Misses = 0, llcMisses = 0;
        std::uint64_t l1dIssued = 0, l2Issued = 0;
        std::uint64_t l1dUseful = 0, l2Useful = 0;
        std::uint64_t dramReads = 0, dramWrites = 0;
        std::uint64_t rowHits = 0, rowMisses = 0;

        void fill(LayerValues &v) const;
    };

    /** Charge one job: set-up until the warmup boundary, then measure. */
    static void
    add(RoundTimes &t, Clock::time_point t0, Clock::time_point warm,
        Clock::time_point t1, std::uint64_t instrs)
    {
        t.setupS += seconds(t0, warm);
        t.measureS += seconds(warm, t1);
        t.measuredInstrs += instrs;
    }

    SimResult runJob(const SimJob &job, RoundTimes &t) const;
    SimResult runTraced(const SimJob &job, RoundTimes &t, SpanLog &log,
                        Counts &counts) const;
    void record(std::vector<SimResult> results, bool traced);

    std::vector<SimJob> jobs_;
    bool solo_;
    ExperimentConfig cfg_;

    std::vector<SimResult> first_;   //!< first untraced round
    std::vector<SimResult> traced_;  //!< first traced round
    unsigned divergentRounds_ = 0;   //!< rounds unlike the first
};

SimResult
SimWorkload::runJob(const SimJob &job, RoundTimes &t) const
{
    SimResult res;
    Clock::time_point warm{};
    const AttachFn attach = [&](System &s) {
        applyCombo(s, job.combo);
        s.setWarmupHook([&warm](System &) { warm = Clock::now(); });
    };
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1{};
    try {
        if (solo_) {
            res.system = runSingleCore(job.specs[0], attach, cfg_);
            res.cores.push_back(CoreResult{res.system.instructions,
                                           res.system.cycles,
                                           res.system.ipc});
        } else {
            const MixOutcome m = runMix(job.specs, attach, cfg_);
            for (std::size_t c = 0; c < m.ipc.size(); ++c)
                res.cores.push_back(
                    CoreResult{m.instructions[c], m.cycles[c], m.ipc[c]});
            res.system = m.system;
        }
        t1 = Clock::now();
        res.ok = true;
    } catch (const std::exception &e) {
        std::cerr << "[perfbench] " << jobName(job) << " failed: "
                  << e.what() << "\n";
        return res;
    }
    std::uint64_t instrs = 0;
    for (const CoreResult &c : res.cores)
        instrs += c.instructions;
    add(t, t0, warm, t1, instrs);
    return res;
}

SimResult
SimWorkload::runTraced(const SimJob &job, RoundTimes &t, SpanLog &log,
                       Counts &counts) const
{
    SimResult res;
    ScopedSpan span(&log, "job", -1);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<System> sys;
    TracedLayers hooks;
    {
        ScopedSpan build(&log, "core.build", span.id());
        sys = buildTraced(job.specs, job.combo, cfg_, hooks);
    }
    const Clock::time_point built = Clock::now();
    Clock::time_point warm{};
    int phase = log.open("core.warmup", span.id());
    sys->setWarmupHook([&](System &) {
        warm = Clock::now();
        log.close(phase);
        phase = log.open("core.measure", span.id());
    });
    RunResult r;
    try {
        r = sys->run(cfg_.warmupInstrs, cfg_.simInstrs);
    } catch (const std::exception &e) {
        log.close(phase);
        std::cerr << "[perfbench] traced " << jobName(job) << " failed: "
                  << e.what() << "\n";
        return res;
    }
    const Clock::time_point t1 = Clock::now();
    log.close(phase);

    System &s = *sys;
    res.ok = true;
    res.cores = r.cores;
    res.system.ipc = r.cores[0].ipc;
    res.system.instructions = r.cores[0].instructions;
    res.system.cycles = r.cores[0].cycles;
    res.system.l1i = s.l1i(0).stats();
    res.system.l1d = s.l1d(0).stats();
    res.system.l2 = s.l2(0).stats();
    res.system.llc = s.llc().stats();
    res.system.dram = s.dram().stats();
    res.system.dramBytes = s.dram().bytesTransferred();

    std::uint64_t instrs = 0;
    for (const CoreResult &c : r.cores)
        instrs += c.instructions;
    add(t, t0, warm, t1, instrs);

    counts.buildS += seconds(t0, built);
    counts.warmupS += seconds(built, warm);
    counts.measureS += seconds(warm, t1);
    for (HookTime TracedLayers::*h :
         {&TracedLayers::next, &TracedLayers::l1, &TracedLayers::l2}) {
        (counts.hooks.*h).ns += (hooks.*h).ns;
        (counts.hooks.*h).calls += (hooks.*h).calls;
    }
    counts.ticks += s.perf().ticksExecuted;
    counts.skipped += s.perf().skippedCycles;
    const auto misses = [](const CacheStats &c) { return c.demandMisses(); };
    const auto issued = [](const CacheStats &c) { return c.pfIssued; };
    const auto useful = [](const CacheStats &c) { return c.pfUseful; };
    counts.l1dMisses += sumCores(s, &System::l1d, misses);
    counts.l2Misses += sumCores(s, &System::l2, misses);
    counts.llcMisses += s.llc().stats().demandMisses();
    counts.l1dIssued += sumCores(s, &System::l1d, issued);
    counts.l2Issued += sumCores(s, &System::l2, issued);
    counts.l1dUseful += sumCores(s, &System::l1d, useful);
    counts.l2Useful += sumCores(s, &System::l2, useful);
    counts.dramReads += s.dram().stats().reads;
    counts.dramWrites += s.dram().stats().writes;
    counts.rowHits += s.dram().stats().rowHits;
    counts.rowMisses += s.dram().stats().rowMisses;
    {
        // Tearing the System down is part of the job's host time.
        ScopedSpan teardown(&log, "core.teardown", span.id());
        sys.reset();
    }
    return res;
}

void
SimWorkload::Counts::fill(LayerValues &v) const
{
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b == 0 ? 0.0
                      : static_cast<double>(a) / static_cast<double>(b);
    };
    const double run = warmupS + measureS;
    const double self = run - hooks.next.seconds() - hooks.l1.seconds() -
                        hooks.l2.seconds();
    v["trace.next_s"] = hooks.next.seconds();
    v["trace.records"] = static_cast<double>(hooks.next.calls);
    v["core.build_s"] = buildS;
    v["core.warmup_s"] = warmupS;
    v["core.measure_s"] = measureS;
    v["core.loop_self_s"] = self;
    v["core.ticks"] = static_cast<double>(ticks);
    v["core.skipped_cycles"] = static_cast<double>(skipped);
    v["core.ns_per_tick"] = ticks == 0 ? 0.0 : self * 1e9 / ticks;
    v["ipcp.l1.hook_s"] = hooks.l1.seconds();
    v["ipcp.l2.hook_s"] = hooks.l2.seconds();
    v["ipcp.l1.calls"] = static_cast<double>(hooks.l1.calls);
    v["ipcp.l2.calls"] = static_cast<double>(hooks.l2.calls);
    v["cache.l1d.misses"] = static_cast<double>(l1dMisses);
    v["cache.l2.misses"] = static_cast<double>(l2Misses);
    v["cache.llc.misses"] = static_cast<double>(llcMisses);
    v["cache.l1d.pf_issued"] = static_cast<double>(l1dIssued);
    v["cache.l2.pf_issued"] = static_cast<double>(l2Issued);
    v["cache.l1d.pf_useful"] = static_cast<double>(l1dUseful);
    v["cache.l2.pf_useful"] = static_cast<double>(l2Useful);
    v["cache.l1d.pf_accuracy"] = ratio(l1dUseful, l1dIssued);
    v["cache.l2.pf_accuracy"] = ratio(l2Useful, l2Issued);
    v["mem.dram.reads"] = static_cast<double>(dramReads);
    v["mem.dram.writes"] = static_cast<double>(dramWrites);
    v["mem.dram.row_hit_rate"] = ratio(rowHits, rowHits + rowMisses);
}

void
SimWorkload::record(std::vector<SimResult> results, bool traced)
{
    std::vector<SimResult> &keep = traced ? traced_ : first_;
    if (keep.empty()) {
        keep = std::move(results);
        return;
    }
    for (std::size_t j = 0; j < results.size(); ++j) {
        if (!sameResult(results[j], keep[j])) {
            ++divergentRounds_;
            return;
        }
    }
}

void
SimWorkload::check(Checks &checks)
{
    const std::vector<SimResult> &res = first_.empty() ? traced_ : first_;
    checks.expect(!res.empty(), "no round completed");
    checks.expect(divergentRounds_ == 0,
                  std::to_string(divergentRounds_) +
                      " rounds simulated differently from the first");
    for (std::size_t j = 0; j < res.size(); ++j) {
        const SimJob &job = jobs_[j];
        const SimResult &r = res[j];
        const std::string what = jobName(job);
        if (!r.ok)
            continue;  // counted in `failed`
        for (std::size_t c = 0; c < r.cores.size(); ++c) {
            const CoreResult &core = r.cores[c];
            const std::string where = what + " core " + std::to_string(c);
            checks.expect(core.instructions >= cfg_.simInstrs,
                          where + ": retired fewer than the measured "
                                  "instructions");
            checks.expect(core.cycles > 0 &&
                              core.ipc ==
                                  static_cast<double>(core.instructions) /
                                      static_cast<double>(core.cycles),
                          where + ": IPC differs from instructions / cycles");
        }
        checkOutcome(checks, r.system, cfg_.simInstrs, job.combo == "none",
                     what);
        if (!first_.empty() && !traced_.empty())
            checks.expect(sameResult(r, traced_[j]),
                          what + ": traced run simulated differently");
    }
    if (!solo_ || res.empty())
        return;

    // The paper's headline: IPCP speeds up the memory-intensive set
    // over no prefetching (geomean), and its prefetches are used on
    // the stride and stream archetypes.
    double log_sum = 0.0;
    unsigned pairs = 0;
    for (std::size_t j = 0; j + 1 < res.size(); j += 2) {
        const SimResult &none = res[j];
        const SimResult &ipcp = res[j + 1];
        if (!none.ok || !ipcp.ok || none.system.ipc <= 0.0)
            continue;
        log_sum += std::log(ipcp.system.ipc / none.system.ipc);
        ++pairs;
        const Archetype a = jobs_[j + 1].specs[0].archetype;
        if (a == Archetype::ConstantStride ||
            a == Archetype::ComplexStride || a == Archetype::GlobalStream)
            checks.expect(ipcp.system.l1d.pfUseful +
                                  ipcp.system.l2.pfUseful >
                              0,
                          jobName(jobs_[j + 1]) +
                              ": IPCP prefetches were never useful");
    }
    const double geomean = pairs == 0 ? 0.0 : std::exp(log_sum / pairs);
    std::printf("solo: IPCP / none geomean IPC speedup %.4f over %u "
                "traces\n",
                geomean, pairs);
    checks.expect(geomean > 1.0,
                  "IPCP geomean speedup over none is not above 1");
}

/** The first `per` memory-intensive stand-ins of archetype `a`. */
std::vector<TraceSpec>
standIns(Archetype a, unsigned per)
{
    std::vector<TraceSpec> out;
    for (const TraceSpec &s : memIntensiveTraces())
        if (s.archetype == a && out.size() < per)
            out.push_back(s);
    return out;
}

} // namespace

// Run lengths and input counts. Each round must stay well inside the
// run length so a run reports the median of several rounds.
constexpr unsigned kSoloPerArchetype = 2;
constexpr std::uint64_t kSoloWarmup = 50'000;
constexpr std::uint64_t kSoloSim = 250'000;
constexpr unsigned kMixes = 8;
constexpr std::uint64_t kMixWarmup = 5'000;
constexpr std::uint64_t kMixSim = 12'500;

std::unique_ptr<Workload>
makeSolo(std::uint64_t seed)
{
    std::vector<SimJob> jobs;
    std::uint64_t stream = 0;
    for (Archetype a :
         {Archetype::ConstantStride, Archetype::ComplexStride,
          Archetype::GlobalStream, Archetype::PointerChase,
          Archetype::ManyIp, Archetype::MixedRegular}) {
        for (const TraceSpec &base : standIns(a, kSoloPerArchetype)) {
            const TraceSpec spec = reseeded(base, seed, stream++);
            // none first, then ipcp: check() pairs them up.
            jobs.push_back(SimJob{{spec}, "none"});
            jobs.push_back(SimJob{{spec}, "ipcp"});
        }
    }
    return std::make_unique<SimWorkload>(std::move(jobs), kSoloWarmup,
                                         kSoloSim, true);
}

std::unique_ptr<Workload>
makeMix8(std::uint64_t seed)
{
    // Stratified draw: core slot k of every mix is drawn by sampleMixes
    // from one archetype stratum of the memory-intensive pool, with the
    // strata sized to the pool's shares (11 pointer-chase, 10 stream,
    // 8 mixed-regular, 6 constant-stride, 6 irregular, 3 many-IP and
    // 2 complex-stride stand-ins of 46). Each mix is heterogeneous and
    // every seed gets the same archetype make-up, so the seed changes
    // which stand-ins run and their random streams, not how much of a
    // round is pointer chasing.
    using A = Archetype;
    const std::vector<std::vector<A>> strata = {
        {A::PointerChase},   {A::PointerChase},   {A::GlobalStream},
        {A::GlobalStream},   {A::MixedRegular},   {A::ConstantStride},
        {A::IrregularLight}, {A::ManyIp, A::ComplexStride},
    };
    std::vector<std::vector<TraceSpec>> mixes(kMixes);
    const std::vector<TraceSpec> &all = memIntensiveTraces();
    for (std::size_t k = 0; k < strata.size(); ++k) {
        std::vector<TraceSpec> pool;
        for (std::size_t i = 0; i < all.size(); ++i)
            for (A a : strata[k])
                if (all[i].archetype == a)
                    pool.push_back(reseeded(all[i], seed, i));
        const auto draws = sampleMixes(pool, 1, kMixes, mixSeed(seed, k));
        for (unsigned m = 0; m < kMixes; ++m)
            mixes[m].push_back(draws[m][0]);
    }
    std::vector<SimJob> jobs;
    for (std::vector<TraceSpec> &mix : mixes)
        jobs.push_back(SimJob{std::move(mix), "ipcp"});
    return std::make_unique<SimWorkload>(std::move(jobs), kMixWarmup,
                                         kMixSim, false);
}

} // namespace perfbench
