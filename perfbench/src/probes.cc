#include "probes.hh"

#include <stdexcept>

#include "harness/factory.hh"
#include "trace/suite.hh"

namespace perfbench
{

using namespace bouquet;

ComboLevels
comboLevels(const std::string &combo)
{
    if (combo == "none")
        return {"none", "none", "none"};
    if (combo == "ipcp")
        return {"ipcp", "ipcp", "none"};
    throw std::invalid_argument("perfbench traces only none and ipcp, not " +
                                combo);
}

std::unique_ptr<System>
buildTraced(const std::vector<TraceSpec> &specs, const std::string &combo,
            const ExperimentConfig &cfg, TracedLayers &layers)
{
    SystemConfig sys_cfg = cfg.system;
    sys_cfg.dram.channels = specs.size() == 1 ? 1 : 2;  // Table II
    std::vector<GeneratorPtr> workloads;
    for (const TraceSpec &spec : specs)
        workloads.push_back(
            std::make_unique<TimedGenerator>(makeWorkload(spec),
                                             layers.next));
    auto sys = std::make_unique<System>(sys_cfg, std::move(workloads));

    const ComboLevels names = comboLevels(combo);
    const auto attach = [](Cache &cache, const std::string &name,
                           CacheLevel level, HookTime &acc) {
        std::unique_ptr<Prefetcher> pf = makePrefetcher(name, level);
        if (name != "none")
            pf = std::make_unique<TimedPrefetcher>(std::move(pf), acc);
        cache.setPrefetcher(std::move(pf));
    };
    for (unsigned c = 0; c < sys->numCores(); ++c) {
        attach(sys->l1d(c), names.l1d, CacheLevel::L1D, layers.l1);
        attach(sys->l2(c), names.l2, CacheLevel::L2, layers.l2);
    }
    sys->llc().setPrefetcher(makePrefetcher(names.llc, CacheLevel::LLC));
    return sys;
}

} // namespace perfbench
