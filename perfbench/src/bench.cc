#include "bench.hh"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <type_traits>

#include <sys/resource.h>


namespace perfbench
{

using namespace bouquet;

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

double
since(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

double
cpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    // VmHWM belongs to this process image. getrusage's ru_maxrss would
    // also count the parent's pages the process had before exec.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    char line[256];
    long kb = -1;
    while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr)
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    if (f != nullptr)
        std::fclose(f);
    if (kb < 0) {
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        kb = ru.ru_maxrss;
    }
    return static_cast<double>(kb) / 1024.0;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TraceSpec
reseeded(const TraceSpec &base, std::uint64_t seed, std::uint64_t stream)
{
    TraceSpec spec = base;
    spec.seed = base.seed + 420 * (1 + mixSeed(seed, stream) % (1u << 20));
    return spec;
}

int
SpanLog::open(const std::string &name, int parent)
{
    spans_.push_back(Span{name, parent, since(origin_), 0.0});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = since(origin_);
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                     i, s.name.c_str(), s.parent, s.start, s.end,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++run_;
    if (!ok) {
        ++failures_;
        std::cerr << "[perfbench] CHECK FAILED: " << what << "\n";
    }
}

void
checkOutcome(Checks &checks, const Outcome &out, std::uint64_t sim_instrs,
             bool no_prefetch, const std::string &what)
{
    checks.expect(out.instructions >= sim_instrs,
                  what + ": retired fewer than the measured instructions");
    checks.expect(out.cycles > 0 &&
                      out.ipc == static_cast<double>(out.instructions) /
                                     static_cast<double>(out.cycles),
                  what + ": IPC differs from instructions / cycles");
    checks.expect(out.dramBytes == 64 * (out.dram.reads + out.dram.writes),
                  what + ": DRAM bytes differ from 64 B x (reads + writes)");
    if (no_prefetch)
        checks.expect(out.l1i.pfIssued + out.l1d.pfIssued +
                              out.l2.pfIssued + out.llc.pfIssued ==
                          0,
                      what + ": combo none issued prefetches");
}

namespace
{

template <typename T>
bool
sameBytes(const T &a, const T &b)
{
    static_assert(std::is_trivially_copyable_v<T>);
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

} // namespace

bool
sameSimulated(const Outcome &a, const Outcome &b)
{
    return a.ipc == b.ipc && a.instructions == b.instructions &&
           a.cycles == b.cycles && sameBytes(a.l1i, b.l1i) &&
           sameBytes(a.l1d, b.l1d) && sameBytes(a.l2, b.l2) &&
           sameBytes(a.llc, b.llc) && sameBytes(a.dram, b.dram) &&
           a.dramBytes == b.dramBytes;
}

} // namespace perfbench
