/**
 * @file
 * perfbench: runs one named workload of the IPCP simulator in this
 * process and prints its metrics as one JSON line.
 *
 *   perfbench --workload solo|mix8|sweep --seed N --seconds S
 *             --trace 0|1 --workdir DIR --outdir DIR
 *
 * Untraced (--trace 0): rounds of the workload's fixed job list run
 * until S seconds have passed (at least kMinRounds), and each
 * end-to-end metric is the median over rounds. Traced (--trace 1):
 * untraced and traced rounds alternate; each per-layer value is the
 * median over traced rounds and the spans go to
 * DIR/spans-<workload>-<seed>.json. The outputs are checked after
 * timing; a failed check fails the run.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.hh"

extern char **environ;

namespace
{

using namespace perfbench;

constexpr unsigned kMinRounds = 3;

/** The per-layer metrics of BENCHMARK.json, in its order. */
constexpr const char *kLayers[] = {
    "trace.next_s", "trace.records", "core.build_s", "core.warmup_s",
    "core.measure_s", "core.loop_self_s", "core.ticks",
    "core.skipped_cycles", "core.ns_per_tick", "ipcp.l1.hook_s",
    "ipcp.l2.hook_s", "ipcp.l1.calls", "ipcp.l2.calls", "cache.l1d.misses",
    "cache.l2.misses", "cache.llc.misses", "cache.l1d.pf_issued",
    "cache.l2.pf_issued", "cache.l1d.pf_useful", "cache.l2.pf_useful",
    "cache.l1d.pf_accuracy", "cache.l2.pf_accuracy", "mem.dram.reads",
    "mem.dram.writes", "mem.dram.row_hit_rate",
    "common.stateio.capture_s", "common.stateio.restore_s",
    "harness.warm.hits", "harness.warm.misses", "harness.warm.publishes",
    "harness.warm.heals", "harness.warm_bytes", "harness.store_bytes",
    "harness.stats_bytes", "campaign.submit_s", "campaign.cold_pass_s",
    "campaign.warm_pass_s", "campaign.aggregate_s",
    "campaign.job_overhead_ms", "campaign.attempts", "campaign.reclaims",
    "campaign.quarantined", "campaign.degraded", "traced.overhead_s",
    "traced.unattributed_share",
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
    std::string outdir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload solo|mix8|sweep --seed N "
                 "--seconds S --trace 0|1 --workdir DIR --outdir DIR\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool seen[6] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
            seen[0] = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            seen[1] = *end == '\0' && !val.empty();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            seen[2] = *end == '\0' && o.seconds > 0.0;
        } else if (arg == "--trace") {
            o.trace = val == "1";
            seen[3] = val == "0" || val == "1";
        } else if (arg == "--workdir") {
            o.workdir = val;
            seen[4] = !val.empty();
        } else if (arg == "--outdir") {
            o.outdir = val;
            seen[5] = !val.empty();
        } else {
            usage("unknown argument " + arg);
        }
    }
    for (bool s : seen)
        if (!s)
            usage("every argument is required, with a valid value");
    return o;
}

/**
 * Refuse inherited IPCP_* knobs: several change what runs (run
 * lengths, tick threads, event skipping, warm sharing). The workloads
 * set the few they need themselves.
 */
void
refuseIpcpEnv()
{
    std::vector<std::string> found;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "IPCP_", 5) == 0)
            found.emplace_back(*e, std::strcspn(*e, "="));
    if (found.empty())
        return;
    std::cerr << "perfbench: refusing to run with inherited";
    for (const std::string &name : found)
        std::cerr << " " << name;
    std::cerr << "; unset them\n";
    std::exit(2);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Unit of a per-layer metric, from its name. */
std::string
layerUnit(const std::string &name)
{
    const auto ends = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_s"))
        return "s";
    if (ends("_ms"))
        return "ms";
    if (ends("ns_per_tick"))
        return "ns";
    if (ends("_bytes"))
        return "bytes";
    if (ends("_accuracy") || ends("_rate") || ends("_share"))
        return "ratio";
    return "count";
}

void
printHost()
{
    double load[3] = {};
    ::getloadavg(load, 3);
    std::printf("host: nproc=%ld loadavg=%.2f,%.2f,%.2f compiler=\"%s\" "
                "build=%s\n",
                ::sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1], load[2],
                __VERSION__, PERFBENCH_BUILD_TYPE);
    std::fflush(stdout);
}

/** Share of a traced round's wall time outside every top-level span. */
double
unattributedShare(const SpanLog &log, std::size_t first_span, double wall)
{
    double covered = 0.0;
    for (std::size_t i = first_span; i < log.spans().size(); ++i) {
        const Span &s = log.spans()[i];
        if (s.parent < 0)
            covered += s.end - s.start;
    }
    return wall > 0.0 ? (wall - covered) / wall : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    refuseIpcpEnv();
    const Options opt = parse(argc, argv);
    printHost();

    // A leftover campaign directory would serve stale outcomes.
    std::error_code ec;
    if (!std::filesystem::is_empty(opt.workdir, ec) && !ec)
        usage("--workdir " + opt.workdir + " is not empty");
    std::unique_ptr<Workload> w;
    try {
        std::filesystem::create_directories(opt.workdir);
        if (opt.workload == "solo")
            w = makeSolo(opt.seed);
        else if (opt.workload == "mix8")
            w = makeMix8(opt.seed);
        else if (opt.workload == "sweep")
            w = makeSweep(opt.seed, opt.workdir);
        else
            usage("unknown workload " + opt.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: cannot build inputs: " << e.what() << "\n";
        return 1;
    }

    std::vector<RoundTimes> plain, traced;
    std::vector<LayerValues> layers;
    std::vector<double> unattributed;
    // Whole-round wall times as main sees them, traced work included.
    std::vector<double> plain_wall, traced_wall;
    double rss_mb = 0.0;
    SpanLog log;
    unsigned long attempted = 0, failed = 0;
    const Clock::time_point start = Clock::now();
    try {
        while (since(start) < opt.seconds ||
               (opt.trace ? traced.empty() : plain.size() < kMinRounds)) {
            const bool traced_round = opt.trace && traced.size() < plain.size();
            RoundTimes t;
            const Clock::time_point r0 = Clock::now();
            if (traced_round) {
                const std::size_t first_span = log.spans().size();
                layers.emplace_back();
                t = w->round(&log, &layers.back());
                traced.push_back(t);
                traced_wall.push_back(since(r0));
                unattributed.push_back(
                    unattributedShare(log, first_span, traced_wall.back()));
            } else {
                t = w->round(nullptr, nullptr);
                plain.push_back(t);
                plain_wall.push_back(since(r0));
                // Later rounds repeat the same work; the first round's
                // peak is the workload's (see README).
                if (plain.size() == 1)
                    rss_mb = peakRssMb();
            }
            attempted += t.jobs;
            failed += t.failed;
            std::fprintf(stderr,
                         "[perfbench] %s round: wall %.4f s, setup %.4f s, "
                         "measure %.4f s, cpu %.4f s\n",
                         traced_round ? "traced" : "untraced", t.wallS,
                         t.setupS, t.measureS, t.cpuS);
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: round failed: " << e.what() << "\n";
        return 1;
    }

    Checks checks;
    try {
        w->check(checks);
    } catch (const std::exception &e) {
        checks.expect(false, std::string("check threw: ") + e.what());
    }
    std::cerr << "[perfbench] " << checks.run() << " checks, "
              << checks.failures() << " failed; " << plain.size()
              << " untraced and " << traced.size() << " traced rounds\n";

    const auto med = [](const std::vector<RoundTimes> &rounds, auto get) {
        std::vector<double> v;
        for (const RoundTimes &r : rounds)
            v.push_back(get(r));
        return median(v);
    };
    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", "s", med(plain, [](const RoundTimes &r) {
                 return r.setupS;
             })},
            {"kips", "kips", med(plain, [](const RoundTimes &r) {
                 return static_cast<double>(r.measuredInstrs) / r.measureS /
                        1e3;
             })},
            {"jobs_per_s", "1/s", med(plain, [](const RoundTimes &r) {
                 return (r.jobs - r.failed) / r.wallS;
             })},
            {"cpu_s", "s", med(plain, [](const RoundTimes &r) {
                 return r.cpuS;
             })},
            {"peak_rss_mb", "MB", rss_mb},
        };
    } else {
        std::map<std::string, std::vector<double>> by_name;
        for (const LayerValues &lv : layers)
            for (const auto &[name, value] : lv)
                by_name[name].push_back(value);
        for (const auto &[name, values] : by_name)
            if (std::find(std::begin(kLayers), std::end(kLayers), name) ==
                std::end(kLayers))
                std::cerr << "perfbench: unlisted layer metric " << name
                          << "\n";
        // Every workload prints every layer; one it does not exercise
        // reads 0 (the README lists which workload fills which).
        for (const char *name : kLayers)
            if (std::strncmp(name, "traced.", 7) != 0)
                metrics.push_back(
                    {name, layerUnit(name), median(by_name[name])});
        metrics.push_back({"traced.overhead_s", "s",
                           median(traced_wall) - median(plain_wall)});
        metrics.push_back({"traced.unattributed_share", "ratio",
                           median(unattributed)});
        checks.expect(median(unattributed) < 0.05,
                      "over 5% of the traced wall time is outside any span");
        const std::string path = opt.outdir + "/spans-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".json";
        std::filesystem::create_directories(opt.outdir);
        if (!log.writeJson(path))
            std::cerr << "perfbench: cannot write " << path << "\n";
    }

    std::filesystem::remove_all(opt.workdir, ec);

    std::printf("{\"correct\": %s, \"attempted\": %lu, \"failed\": %lu, "
                "\"metrics\": {",
                checks.failures() == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return checks.failures() == 0 ? 0 : 1;
}
