/**
 * @file
 * Forwarding timers for a traced round. Both wrap public virtual
 * interfaces of the simulator: a WorkloadGenerator is handed to the
 * System constructor, a Prefetcher to Cache::setPrefetcher. Each call
 * is forwarded unchanged and its host time added to a HookTime, so a
 * traced run simulates exactly what an untraced one does (the checks
 * compare the two outcomes).
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <memory>
#include <string>

#include "bench.hh"
#include "core/system.hh"
#include "prefetch/prefetcher.hh"
#include "trace/trace.hh"

namespace perfbench
{

/** Host time and call count accumulated by one or more probes. */
struct HookTime
{
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;

    double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/** Adds the host time of its own lifetime to a HookTime. */
class HookTimer
{
  public:
    explicit HookTimer(HookTime &acc) : acc_(acc), t0_(Clock::now()) {}
    ~HookTimer()
    {
        acc_.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0_)
                .count());
        ++acc_.calls;
    }
    HookTimer(const HookTimer &) = delete;
    HookTimer &operator=(const HookTimer &) = delete;

  private:
    HookTime &acc_;
    Clock::time_point t0_;
};

/** A WorkloadGenerator that times every record it hands out. */
class TimedGenerator : public bouquet::WorkloadGenerator
{
  public:
    TimedGenerator(bouquet::GeneratorPtr inner, HookTime &acc)
        : inner_(std::move(inner)), acc_(acc)
    {
    }

    void
    next(bouquet::TraceRecord &out) override
    {
        HookTimer t(acc_);
        inner_->next(out);
    }

    void reset() override { inner_->reset(); }
    std::string name() const override { return inner_->name(); }

  private:
    bouquet::GeneratorPtr inner_;
    HookTime &acc_;
};

/**
 * A Prefetcher that times every hook. It hands the cache's host link
 * straight to the inner prefetcher and forwards name(), state and
 * audit, so the System's config hash and checkpoints are unchanged.
 */
class TimedPrefetcher : public bouquet::Prefetcher
{
  public:
    TimedPrefetcher(std::unique_ptr<bouquet::Prefetcher> inner,
                    HookTime &acc)
        : inner_(std::move(inner)), acc_(acc)
    {
    }

    void
    setHost(bouquet::PrefetchHost *host) override
    {
        Prefetcher::setHost(host);
        inner_->setHost(host);
    }

    void
    operate(bouquet::Addr addr, bouquet::Ip ip, bool cache_hit,
            bouquet::AccessType type, std::uint32_t meta_in) override
    {
        HookTimer t(acc_);
        inner_->operate(addr, ip, cache_hit, type, meta_in);
    }

    void
    onFill(bouquet::Addr addr, bool was_prefetch,
           std::uint8_t pf_class) override
    {
        HookTimer t(acc_);
        inner_->onFill(addr, was_prefetch, pf_class);
    }

    void
    onPrefetchUseful(bouquet::Addr addr, std::uint8_t pf_class) override
    {
        HookTimer t(acc_);
        inner_->onPrefetchUseful(addr, pf_class);
    }

    void
    cycle() override
    {
        HookTimer t(acc_);
        inner_->cycle();
    }

    bool needsCycle() const override { return inner_->needsCycle(); }
    std::string name() const override { return inner_->name(); }
    std::size_t storageBits() const override
    {
        return inner_->storageBits();
    }
    void serialize(bouquet::StateIO &io) override { inner_->serialize(io); }
    void audit() const override { inner_->audit(); }
    void registerStats(const bouquet::StatGroup &g) override
    {
        inner_->registerStats(g);
    }

  private:
    std::unique_ptr<bouquet::Prefetcher> inner_;
    HookTime &acc_;
};

/** Per-level prefetcher names of a combo, as applyCombo attaches them. */
struct ComboLevels
{
    std::string l1d;
    std::string l2;
    std::string llc;
};

/**
 * The per-level names of the combos a traced round attaches by hand
 * ("none" and "ipcp"). The traced-equals-untraced check fails if they
 * ever drift from applyCombo.
 */
ComboLevels comboLevels(const std::string &combo);

/** Host time of one traced System, split by layer. */
struct TracedLayers
{
    HookTime next;   //!< WorkloadGenerator::next
    HookTime l1;     //!< L1D prefetcher hooks
    HookTime l2;     //!< L2 prefetcher hooks
};

/**
 * Build a System the way runSingleCore / runMix do (same config, one
 * or two DRAM channels), with every generator and every non-"none"
 * L1D and L2 prefetcher wrapped in a forwarding timer. Both traced
 * combos leave the LLC without a prefetcher.
 */
std::unique_ptr<bouquet::System>
buildTraced(const std::vector<bouquet::TraceSpec> &specs,
            const std::string &combo,
            const bouquet::ExperimentConfig &cfg, TracedLayers &layers);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
