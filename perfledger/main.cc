/**
 * @file
 * perf_ledger: the repository's benchmark program (metric catalog in
 * perfledger/METRICS.md; perfledger/run.py builds and runs it).
 *
 *   perf_ledger --workload paper-quality|paper-sweep|serve-mix
 *               --seed N --seconds S --trace 0|1
 *               [--edge N] [--paper-ws name=x,...] [--spans-out PATH]
 *
 * A run sets the workload up at least three times (setup_s is the
 * median), computes the reference result of every program on a
 * one-lane, caches-off runtime, then measures. With --trace 0 it times
 * the workload for --seconds and reports the end-to-end metrics. With
 * --trace 1 it runs the same untraced loop for half of --seconds (for
 * counter deltas and session queueing), a short host-pool phase on
 * nproc lanes (for the pool counters) and the traced runner
 * (traced.hh) for the other half, and reports the per-layer metrics.
 * Every program executed in any phase is checked against its
 * reference.
 *
 * Output: one "metric <name> <value> <unit>" line per metric, then the
 * result as one JSON object on the last line.
 */

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "apps/harness.hh"
#include "common/math_utils.hh"
#include "common/memory_pool.hh"
#include "common/metrics_registry.hh"
#include "common/thread_pool.hh"
#include "core/core_metrics.hh"
#include "core/session.hh"
#include "devices/backend.hh"
#include "kernels/kernel_registry.hh"
#include "ledger.hh"
#include "traced.hh"

using namespace ledger;

namespace {

struct Options
{
    Kind kind = Kind::PaperQuality;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    size_t edge = 0;     //!< 0 = the workload's default
    /** Paper work-stealing speedups at 4096^2, by benchmark name. */
    std::map<std::string, double> paperSteal;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perf_ledger: %s\nusage: perf_ledger --workload "
                 "paper-quality|paper-sweep|serve-mix --seed N --seconds S "
                 "--trace 0|1 [--edge N] [--paper-ws name=x,...] "
                 "[--spans-out PATH]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!parseKind(v, o.kind))
                usage(("unknown workload " + v).c_str());
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (!(o.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (flag == "--edge") {
            o.edge = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--paper-ws") {
            size_t pos = 0;
            while (pos < v.size()) {
                const size_t comma = std::min(v.find(',', pos), v.size());
                const std::string item = v.substr(pos, comma - pos);
                const size_t eq = item.find('=');
                if (eq == std::string::npos)
                    usage("--paper-ws takes name=value pairs");
                o.paperSteal[item.substr(0, eq)] =
                    std::strtod(item.c_str() + eq + 1, nullptr);
                pos = comma + 1;
            }
        } else if (flag == "--spans-out") {
            o.spansOut = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

/** A runtime of servingConfig() on @p lanes host lanes. */
std::unique_ptr<core::Runtime>
makeServingRuntime(size_t lanes)
{
    core::RuntimeConfig config = servingConfig();
    config.hostThreads = lanes;
    return std::make_unique<core::Runtime>(
        devices::makePrototypeBackends(kernels::KernelRegistry::instance(),
                                       sim::defaultCalibration()),
        sim::defaultCalibration(), config);
}

/** Process-wide counters read around a timed phase. */
struct Counters
{
    uint64_t planHits = 0, planMisses = 0;
    uint64_t quantHits = 0, quantMisses = 0;
    uint64_t statsHits = 0, statsMisses = 0, scanBytesAvoided = 0;
    uint64_t resHits = 0, resMisses = 0, resEvictions = 0;
    uint64_t resBytesAvoided = 0;
    uint64_t simQueueWaitNanos = 0;  //!< summed over devices
    common::MemoryStats mem;

    static Counters
    read()
    {
        const core::CoreCounters &cc = core::CoreCounters::get();
        Counters c;
        c.planHits = cc.planHits.value();
        c.planMisses = cc.planMisses.value();
        c.quantHits = cc.quantHits.value();
        c.quantMisses = cc.quantMisses.value();
        c.statsHits = cc.statsHits.value();
        c.statsMisses = cc.statsMisses.value();
        c.scanBytesAvoided = cc.scanBytesAvoided.value();
        c.resHits = cc.residencyHits.value();
        c.resMisses = cc.residencyMisses.value();
        c.resEvictions = cc.residencyEvictions.value();
        c.resBytesAvoided = cc.residencyBytesAvoided.value();
        // Labelled by the prototype platform's device names.
        const auto &reg = common::MetricsRegistry::instance();
        for (const char *dev : {"gpu0", "edgetpu0"})
            c.simQueueWaitNanos +=
                reg.histogramSnapshot("shmt_hlop_queue_wait_sim_seconds",
                                      {{"device", dev}})
                    .sumNanos;
        c.mem = common::MemoryPool::stats();
        return c;
    }
};

/** What one untraced timed phase measured. */
struct Phase
{
    std::vector<double> latency;  //!< host seconds, call to result
    std::vector<double> runWall;  //!< RunResult::hostWall.totalSec
    std::vector<double> hlopsAt;  //!< simulated HLOPs of each program
    /**
     * Host seconds the stack had worked when each program completed:
     * summed calls (and fresh-runtime construction) for one-at-a-time
     * workloads, wall time since the first submission for the session.
     */
    std::vector<double> clock;
    /**
     * Programs per pass. Samples are cut into blocks only at multiples
     * of it, so every block has the workload's program mix (exactly
     * for one-at-a-time workloads, by submission order for the
     * session).
     */
    size_t unit = 1;
    size_t attempted = 0, failed = 0;
    size_t hlops = 0, deviceHlops = 0, stolen = 0, recovered = 0;
    double schedulingSec = 0.0, aggregationSec = 0.0, makespanSec = 0.0;
    double gpuBusySec = 0.0, tpuBusySec = 0.0;
    size_t peakQueue = 0;

    void
    record(const Program &p, const core::RunResult &r, double latency_s,
           double clock_s)
    {
        ++attempted;
        clock.push_back(clock_s);
        hlopsAt.push_back(static_cast<double>(r.hlopsTotal));
        if (!matchesReference(p, r)) {
            ++failed;
            std::fprintf(stderr, "perf_ledger: %s differs from its "
                                 "reference (status %s, makespan %.17g vs "
                                 "%.17g)\n",
                         p.label.c_str(), r.status.toString().c_str(),
                         r.makespanSec, p.refMakespanSec);
        }
        latency.push_back(latency_s);
        runWall.push_back(r.hostWall.totalSec);
        hlops += r.hlopsTotal;
        recovered += r.recoveredHlops;
        schedulingSec += r.schedulingSec;
        aggregationSec += r.aggregationSec;
        makespanSec += r.makespanSec;
        for (const core::DeviceStats &d : r.devices) {
            deviceHlops += d.hlops;
            stolen += d.stolen;
            (d.kind == sim::DeviceKind::Gpu ? gpuBusySec : tpuBusySec) +=
                d.busySec;
        }
    }
};

/**
 * One program at a time, pass after pass, until @p seconds elapse. On
 * paper-sweep every pass builds a fresh runtime on @p lanes host lanes;
 * the other workloads run on @p rt as it is.
 */
Phase
sequentialPhase(const Workload &w, std::unique_ptr<core::Runtime> &rt,
                size_t lanes, double seconds)
{
    Phase ph;
    double clock = 0.0;
    const double end = now() + seconds;
    do {
        if (w.kind == Kind::PaperSweep) {
            // Every Fig. 6 pass starts on cold serving caches.
            rt.reset();
            const double t0 = now();
            rt = makeServingRuntime(lanes);
            clock += now() - t0;
        }
        for (const Program &p : w.pass) {
            const double t0 = now();
            const core::RunResult r = execute(*rt, p);
            const double dt = now() - t0;
            clock += dt;
            ph.record(p, r, dt, clock);
        }
    } while (now() < end);
    ph.unit = w.pass.size();
    return ph;
}

/**
 * The serve-mix closed loop: one load-generator thread keeps kWindow
 * submissions outstanding on a Session of @p workers workers,
 * submitting the instances in a fixed cyclic order, and waits on the
 * oldest submission. One worker completes programs in submission
 * order, so the generator then takes each result as it resolves (more
 * workers may finish a younger one first; its latency then includes
 * the wait for the older ones). With more instances than kWindow, an
 * instance is resubmitted only after its previous run resolved and its
 * output was checked.
 */
Phase
servePhase(const Workload &w, core::Runtime &rt, size_t workers,
           double seconds)
{
    constexpr size_t kWindow = 8;
    core::SessionOptions options;
    options.workers = workers;
    core::Session session(rt, options);

    struct Inflight
    {
        size_t program;
        double submitted;
        std::future<core::RunResult> result;
    };
    std::deque<Inflight> inflight;
    size_t next = 0;
    auto submit = [&] {
        const Program &p = w.pass[next];
        const double t = now();
        inflight.push_back({next, t,
                            session.submit(p.bench->program(),
                                           core::makePolicy(p.policy),
                                           p.functional)});
        next = (next + 1) % w.pass.size();
    };

    Phase ph;
    const double begin = now();
    const double end = begin + seconds;
    while (inflight.size() < kWindow)
        submit();
    while (!inflight.empty()) {
        Inflight oldest = std::move(inflight.front());
        inflight.pop_front();
        const core::RunResult r = oldest.result.get();
        const double t = now();
        ph.record(w.pass[oldest.program], r, t - oldest.submitted,
                  t - begin);
        if (t < end)
            submit();
    }
    ph.unit = w.pass.size();
    ph.peakQueue = session.peakQueueDepth();
    return ph;
}

/** Length of the host-pool phase of --trace 1. */
constexpr double kPoolPhaseSec = 1.0;
/** Session workers of the host-pool phase on serve-mix (at most nproc). */
constexpr size_t kPoolWorkers = 4;

/** What the host-pool phase measured. */
struct PoolPhase
{
    size_t lanes = 0, workers = 0;
    size_t programs = 0;               //!< programs of the measured part
    size_t attempted = 0, failed = 0;  //!< including the warm-up pass
    size_t tasks = 0, steals = 0, parks = 0;  //!< ThreadPool deltas
};

/**
 * The host-pool phase of --trace 1, the source of threadpool.*: the
 * workload on nproc host lanes (serve-mix: through a Session of up to
 * kPoolWorkers workers sharing them) for kPoolPhaseSec, after a warm-up
 * pass on the functional workloads. The timed phases run one lane, on
 * which ThreadPool::submit and parallelFor run inline and count
 * nothing. Only counters are kept; every program is still checked.
 */
PoolPhase
poolPhase(const Workload &w)
{
    PoolPhase pp;
    pp.lanes = common::ThreadPool::resolveThreads(0);
    pp.workers = w.kind == Kind::ServeMix ? std::min(kPoolWorkers, pp.lanes)
                                          : 0;
    common::ThreadPool::configureGlobal(pp.lanes);
    std::unique_ptr<core::Runtime> rt;
    Phase warm;
    if (w.kind != Kind::PaperSweep) {
        rt = makeServingRuntime(pp.lanes);
        for (const Program &p : w.pass)
            warm.record(p, execute(*rt, p), 0.0, 0.0);
    }
    const common::ThreadPool::Stats s0 = common::ThreadPool::global().stats();
    const Phase ph = w.kind == Kind::ServeMix
                         ? servePhase(w, *rt, pp.workers, kPoolPhaseSec)
                         : sequentialPhase(w, rt, pp.lanes, kPoolPhaseSec);
    const common::ThreadPool::Stats s1 = common::ThreadPool::global().stats();
    pp.programs = ph.attempted;
    pp.attempted = warm.attempted + ph.attempted;
    pp.failed = warm.failed + ph.failed;
    pp.tasks = s1.submitted - s0.submitted;
    pp.steals = s1.steals - s0.steals;
    pp.parks = s1.parked - s0.parked;
    return pp;
}

/** What the traced phase measured. */
struct TracedPhase
{
    size_t programsOn = 0, programsOff = 0;
    double wallOn = 0.0, wallOff = 0.0;  //!< summed runner calls
    size_t attempted = 0, failed = 0;
    std::array<double, kLayers> self{};
    std::array<size_t, kLayers> calls{};
    double gpuBusySec = 0.0, tpuBusySec = 0.0;
    uint64_t gpuCalls = 0, tpuCalls = 0;
};

/**
 * Alternate spans-on and spans-off passes of the traced runner until
 * @p seconds elapse (the off passes give the tracing overhead).
 */
TracedPhase
tracedPhase(const Workload &w, double seconds, const std::string &spans_out)
{
    SpanLog log;
    TracedRunner runner(log);
    TracedPhase tp;
    uint32_t id = 0;
    auto pass = [&](bool on) {
        log.setEnabled(on);
        if (w.kind == Kind::PaperSweep)
            runner.reset();
        for (const Program &p : w.pass) {
            const double t0 = now();
            const core::RunResult r = runner.run(p, id++);
            const double dt = now() - t0;
            ++tp.attempted;
            if (!matchesReference(p, r)) {
                ++tp.failed;
                std::fprintf(stderr, "perf_ledger: traced %s differs from "
                                     "its reference (makespan %.17g vs "
                                     "%.17g)\n",
                             p.label.c_str(), r.makespanSec,
                             p.refMakespanSec);
            }
            (on ? tp.wallOn : tp.wallOff) += dt;
            ++(on ? tp.programsOn : tp.programsOff);
        }
    };
    if (w.kind != Kind::PaperSweep)
        pass(false);  // warm the traced runtime's caches, as set-up did
    tp.programsOff = 0;
    tp.wallOff = 0.0;
    const double end = now() + seconds;
    do {
        pass(true);
        pass(false);
    } while (now() < end);

    tp.self = log.selfSeconds();
    tp.calls = log.counts();
    const std::vector<sim::DeviceKind> kinds = runner.deviceKinds();
    for (size_t d = 0; d < kinds.size(); ++d) {
        const bool gpu = kinds[d] == sim::DeviceKind::Gpu;
        const double busy =
            static_cast<double>(runner.busy()[d].nanos.load()) * 1e-9;
        const uint64_t calls = runner.busy()[d].calls.load();
        (gpu ? tp.gpuBusySec : tp.tpuBusySec) += busy;
        (gpu ? tp.gpuCalls : tp.tpuCalls) += calls;
    }
    if (!spans_out.empty() && !log.write(spans_out))
        std::fprintf(stderr, "perf_ledger: cannot write %s\n",
                     spans_out.c_str());
    return tp;
}

/** Ordered metric list, printed as lines and as the JSON object. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "perf_ledger: %s is not finite\n",
                         name.c_str());
            value = 0.0;
            nonFinite_ = true;
        }
        items_.push_back({name, value, unit});
    }

    bool nonFinite() const { return nonFinite_; }

    void
    print(bool correct, size_t attempted, size_t failed,
          const std::string &extra) const
    {
        for (const Item &m : items_)
            std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                    "\"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (size_t i = 0; i < items_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", items_[i].name.c_str(),
                        items_[i].value, items_[i].unit.c_str());
        std::printf("}%s}\n", extra.c_str());
        std::fflush(stdout);
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
    bool nonFinite_ = false;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

constexpr double kMiB = 1024.0 * 1024.0;

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Median of @p v. */
double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Half-open sample index ranges [first, second). */
using Blocks = std::vector<std::pair<size_t, size_t>>;

/**
 * Cut @p ph's samples into consecutive blocks at pass boundaries, each
 * closed as soon as @p enough(first, end) holds; a short tail joins the
 * last block.
 */
template <class Enough>
Blocks
cutBlocks(const Phase &ph, Enough enough)
{
    Blocks out;
    size_t first = 0;
    const size_t n = ph.latency.size();
    for (size_t e = ph.unit; e <= n; e += ph.unit)
        if (enough(first, e)) {
            out.emplace_back(first, e);
            first = e;
        }
    if (first < n) {
        if (out.empty())
            out.emplace_back(first, n);
        else
            out.back().second = n;
    }
    return out;
}

/** Rates are taken over blocks of at least this many host seconds. */
constexpr double kRateBlockSec = 1.0;
/** The tail percentile, and the block size that leaves at least ten
 *  samples beyond it. A one-lane paper-quality run of 30 s completes
 *  ~480 programs, too few for a p99 with ten beyond. */
constexpr double kTail = 0.95;
constexpr size_t kTailBlockSamples = 200;

/** Median over >= 1 s blocks of the block's summed @p weight per
 *  second; robust to a stall that hits a few seconds of a run. */
double
blockRate(const Phase &ph, const std::vector<double> &weight)
{
    auto start = [&](size_t first) {
        return first == 0 ? 0.0 : ph.clock[first - 1];
    };
    std::vector<double> rates;
    for (const auto &[first, end] :
         cutBlocks(ph, [&](size_t f, size_t e) {
             return ph.clock[e - 1] - start(f) >= kRateBlockSec;
         })) {
        double sum = 0.0;
        for (size_t i = first; i < end; ++i)
            sum += weight[i];
        rates.push_back(ratio(sum, ph.clock[end - 1] - start(first)));
    }
    return median(rates);
}

/** Blocks of at least kTailBlockSamples samples. */
Blocks
tailBlocks(const Phase &ph)
{
    return cutBlocks(ph, [](size_t f, size_t e) {
        return e - f >= kTailBlockSamples;
    });
}

/** Median over @p blocks of each block's @p q latency quantile. */
double
blockQuantile(const Phase &ph, const Blocks &blocks, double q)
{
    std::vector<double> per_block;
    for (const auto &[first, end] : blocks)
        per_block.push_back(quantile(
            std::vector<double>(ph.latency.begin() +
                                    static_cast<long>(first),
                                ph.latency.begin() + static_cast<long>(end)),
            q));
    return median(per_block);
}

/**
 * Median over passes of each pass's median latency. A mix of program
 * kinds has gaps between the kinds' latencies; the median of all
 * samples falls in such a gap and reads the extremes of its two
 * neighbours, while a pass median reads their typical values.
 */
double
passP50(const Phase &ph)
{
    return blockQuantile(ph,
                         cutBlocks(ph, [](size_t, size_t) { return true; }),
                         0.5);
}

/** Mean |simulated - paper| / paper of the per-kernel work-stealing
 *  speedups, percent; 0 when no paper value applies. */
double
simErrorPct(const Workload &w, const Options &o)
{
    if (w.kind != Kind::PaperSweep)
        return 0.0;
    double sum = 0.0;
    size_t n = 0;
    for (size_t k = 0; k < w.benches.size(); ++k) {
        const auto it = o.paperSteal.find(w.benches[k]->name());
        if (it == o.paperSteal.end() || w.stealSec[k] <= 0.0)
            continue;
        const double sim = w.baselineSec[k] / w.stealSec[k];
        sum += std::fabs(sim - it->second) / it->second;
        ++n;
    }
    return n ? 100.0 * sum / static_cast<double>(n) : 0.0;
}

double
speedupGmean(const Workload &w)
{
    std::vector<double> s;
    for (size_t k = 0; k < w.benches.size(); ++k)
        s.push_back(w.baselineSec[k] / w.qawsSec[k]);
    return geomean(s);
}

} // namespace

int
main(int argc, char **argv)
{
    const double t_main = now();
    const Options o = parseOptions(argc, argv);
    // Input generation, the one multi-threaded part of set-up.
    const size_t gen_threads = common::ThreadPool::resolveThreads(0);

    // --- Set-up, repeated; setup_s is the median. ----------------------
    // At least kMinSetups times and, for cheap set-ups, until a second
    // has been spent, so the median of a short set-up is steady too.
    constexpr size_t kMinSetups = 3;
    constexpr double kSetupSpanSec = 1.0;
    constexpr size_t kMaxSetups = 31;
    const size_t lanes = servingConfig().hostThreads;
    Workload w;
    std::unique_ptr<core::Runtime> rt;
    std::vector<double> setups;
    for (size_t k = 0; k < kMinSetups ||
                       (now() - t_main < kSetupSpanSec && k < kMaxSetups);
         ++k) {
        rt.reset();  // release the previous set-up before the next
        w = Workload{};
        const double t0 = k == 0 ? t_main : now();
        w = buildWorkload(o.kind, o.seed, o.edge, gen_threads);
        if (o.kind != Kind::PaperSweep) {
            rt = makeServingRuntime(lanes);
            for (const Program &p : w.pass)  // fill the serving caches
                execute(*rt, p);
        }
        setups.push_back(now() - t0);
    }
    const double t_ref = now();
    computeReference(w);
    const double reference_s = now() - t_ref;

    // --- Untraced timed phase. --------------------------------------------
    common::ThreadPool::configureGlobal(lanes);
    const double untraced_s = o.trace ? o.seconds / 2.0 : o.seconds;
    const Counters c0 = Counters::read();
    const Phase ph = o.kind == Kind::ServeMix
                         ? servePhase(w, *rt, 1, untraced_s)
                         : sequentialPhase(w, rt, lanes, untraced_s);
    const Counters c1 = Counters::read();
    const double programs = static_cast<double>(ph.attempted);

    double ref_makespan = 0.0;
    for (const Program &p : w.pass)
        ref_makespan += p.refMakespanSec;
    const double mape = w.mapePct;
    const double sim_error = simErrorPct(w, o);
    const double gmean = speedupGmean(w);

    std::printf("workload %s seed %llu edge %zu programs/pass %zu\n",
                kindName(o.kind), static_cast<unsigned long long>(o.seed),
                w.edge, w.pass.size());
    std::printf("set-up %.3f s (median of %zu), reference %.3f s\n",
                median(setups), setups.size(), reference_s);
    const Blocks tails = tailBlocks(ph);
    size_t smallest = ph.latency.size();
    for (const auto &[first, end] : tails)
        smallest = std::min(smallest, end - first);
    std::printf("latency samples %zu; p95 is the median over %zu block(s), "
                "the smallest with %zu samples beyond its p95\n",
                ph.latency.size(), tails.size(),
                static_cast<size_t>(static_cast<double>(smallest) *
                                    (1.0 - kTail)));

    Report rep;
    size_t attempted = ph.attempted;
    size_t failed = ph.failed;
    if (!o.trace) {
        rep.add("throughput_pps",
                blockRate(ph, std::vector<double>(ph.attempted, 1.0)),
                "1/s");
        rep.add("latency_p50_ms", 1e3 * passP50(ph), "ms");
        rep.add("latency_p95_ms", 1e3 * blockQuantile(ph, tails, kTail),
                "ms");
        rep.add("setup_s", median(setups), "s");
        rep.add("peak_rss_mb", peakRssMb(), "MiB");
        rep.add("ok_ratio", ratio(programs - static_cast<double>(failed),
                                  programs),
                "ratio");
        rep.add("sim_makespan_ms", 1e3 * ref_makespan, "sim-ms");
        rep.add("sim_speedup_gmean", gmean, "x");
        rep.add("sim_hlops_per_s", blockRate(ph, ph.hlopsAt), "1/s");
    } else {
        rt.reset();  // the pool phase builds its own runtime
        const PoolPhase pp = poolPhase(w);
        attempted += pp.attempted;
        failed += pp.failed;
        std::printf("host-pool phase: %zu lanes, %zu session workers, %zu "
                    "programs\n",
                    pp.lanes, pp.workers, pp.programs);
        const TracedPhase tp = tracedPhase(w, o.seconds / 2.0, o.spansOut);
        attempted += tp.attempted;
        failed += tp.failed;
        const double on = static_cast<double>(tp.programsOn);
        auto layer_ms = [&](Layer l) {
            return 1e3 * tp.self[static_cast<size_t>(l)] / on;
        };
        auto layer_calls = [&](Layer l) {
            return static_cast<double>(tp.calls[static_cast<size_t>(l)]) /
                   on;
        };
        auto per_program = [&](uint64_t a, uint64_t b) {
            return static_cast<double>(b - a) / programs;
        };
        auto hit_ratio = [](uint64_t h0, uint64_t h1, uint64_t m0,
                            uint64_t m1) {
            return ratio(static_cast<double>(h1 - h0),
                         static_cast<double>((h1 - h0) + (m1 - m0)));
        };
        std::vector<double> queue_wait;
        for (size_t i = 0; i < ph.latency.size(); ++i)
            queue_wait.push_back(ph.latency[i] - ph.runWall[i]);
        const bool session = o.kind == Kind::ServeMix;

        rep.add("graph.build_ms", layer_ms(Layer::Graph), "ms");
        rep.add("planner.calls", layer_calls(Layer::Planner), "count");
        rep.add("planner.ms", layer_ms(Layer::Planner), "ms");
        rep.add("planner.plan_hit_ratio",
                hit_ratio(c0.planHits, c1.planHits, c0.planMisses,
                          c1.planMisses),
                "ratio");
        rep.add("planner.quant_hit_ratio",
                hit_ratio(c0.quantHits, c1.quantHits, c0.quantMisses,
                          c1.quantMisses),
                "ratio");
        rep.add("sampling.calls", layer_calls(Layer::Sampling), "count");
        rep.add("sampling.ms", layer_ms(Layer::Sampling), "ms");
        rep.add("sampling.stats_hit_ratio",
                hit_ratio(c0.statsHits, c1.statsHits, c0.statsMisses,
                          c1.statsMisses),
                "ratio");
        rep.add("sampling.scan_mib_avoided",
                per_program(c0.scanBytesAvoided, c1.scanBytesAvoided) / kMiB,
                "MiB");
        rep.add("sampling.sim_sched_ms", 1e3 * ph.schedulingSec / programs,
                "sim-ms");
        rep.add("dispatch.calls", layer_calls(Layer::Dispatch), "count");
        rep.add("dispatch.ms", layer_ms(Layer::Dispatch), "ms");
        rep.add("dispatch.hlops", static_cast<double>(ph.hlops) / programs,
                "count");
        rep.add("dispatch.steal_ratio",
                ratio(static_cast<double>(ph.stolen),
                      static_cast<double>(ph.deviceHlops)),
                "ratio");
        rep.add("dispatch.sim_queue_wait_ms",
                1e-6 *
                    per_program(c0.simQueueWaitNanos, c1.simQueueWaitNanos),
                "sim-ms");
        rep.add("dispatch.sim_busy_ratio.gpu",
                ratio(ph.gpuBusySec, ph.makespanSec), "ratio");
        rep.add("dispatch.sim_busy_ratio.edgetpu",
                ratio(ph.tpuBusySec, ph.makespanSec), "ratio");
        rep.add("executor.calls", layer_calls(Layer::Executor), "count");
        rep.add("executor.ms", layer_ms(Layer::Executor), "ms");
        rep.add("executor.recovered",
                static_cast<double>(ph.recovered) / programs, "count");
        rep.add("backend.gpu.busy_ms", 1e3 * tp.gpuBusySec / on, "ms");
        rep.add("backend.gpu.hlops", static_cast<double>(tp.gpuCalls) / on,
                "count");
        rep.add("backend.edgetpu.busy_ms", 1e3 * tp.tpuBusySec / on, "ms");
        rep.add("backend.edgetpu.hlops",
                static_cast<double>(tp.tpuCalls) / on, "count");
        rep.add("aggregator.calls",
                layer_calls(Layer::AggCost) + layer_calls(Layer::AggCombine),
                "count");
        rep.add("aggregator.ms",
                layer_ms(Layer::AggCost) + layer_ms(Layer::AggCombine),
                "ms");
        rep.add("aggregator.sim_ms", 1e3 * ph.aggregationSec / programs,
                "sim-ms");
        rep.add("residency.hit_ratio",
                hit_ratio(c0.resHits, c1.resHits, c0.resMisses,
                          c1.resMisses),
                "ratio");
        rep.add("residency.mib_avoided",
                per_program(c0.resBytesAvoided, c1.resBytesAvoided) / kMiB,
                "MiB");
        rep.add("residency.evictions",
                per_program(c0.resEvictions, c1.resEvictions), "count");
        rep.add("mempool.leases", per_program(c0.mem.allocs, c1.mem.allocs),
                "count");
        rep.add("mempool.reuse_ratio",
                ratio(static_cast<double>(c1.mem.reuseHits -
                                          c0.mem.reuseHits),
                      static_cast<double>(c1.mem.allocs - c0.mem.allocs)),
                "ratio");
        rep.add("mempool.fresh_mib",
                per_program(c0.mem.freshBytes, c1.mem.freshBytes) / kMiB,
                "MiB");
        rep.add("mempool.peak_live_mib",
                static_cast<double>(c1.mem.peakLive) / kMiB, "MiB");
        const double pool_programs = static_cast<double>(pp.programs);
        rep.add("threadpool.tasks",
                static_cast<double>(pp.tasks) / pool_programs, "count");
        rep.add("threadpool.steals",
                static_cast<double>(pp.steals) / pool_programs, "count");
        rep.add("threadpool.parks",
                static_cast<double>(pp.parks) / pool_programs, "count");
        rep.add("session.queue_wait_p50_ms",
                session ? 1e3 * quantile(queue_wait, 0.50) : 0.0, "ms");
        rep.add("session.queue_wait_p99_ms",
                session ? 1e3 * quantile(queue_wait, 0.99) : 0.0, "ms");
        rep.add("session.run_p50_ms",
                session ? 1e3 * quantile(ph.runWall, 0.50) : 0.0, "ms");
        rep.add("session.peak_queue", static_cast<double>(ph.peakQueue),
                "count");
        rep.add("baseline.ms", layer_ms(Layer::Baseline), "ms");
        rep.add("swpipe.ms", layer_ms(Layer::SwPipe), "ms");
        // The wall around the runner's calls, less every layer's self
        // time: the runner's own bookkeeping and the span recording.
        const double wall_ms = 1e3 * tp.wallOn / on;
        double layers_ms = 0.0;
        for (size_t l = 0; l < kLayers; ++l)
            if (static_cast<Layer>(l) != Layer::Program)
                layers_ms += layer_ms(static_cast<Layer>(l));
        rep.add("trace.wall_ms", wall_ms, "ms");
        rep.add("trace.unattributed_ms", wall_ms - layers_ms, "ms");
        rep.add("trace.overhead_pct",
                100.0 * (ratio(tp.wallOn / on,
                               tp.wallOff /
                                   static_cast<double>(tp.programsOff)) -
                         1.0),
                "%");
        rep.add("mape_pct", mape, "%");
        rep.add("sim_error_pct", sim_error, "%");
        rep.add("failed_ratio",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                "ratio");
    }

    // Fidelity figures ride along on every run for run.py's check.
    char extra[512];
    std::snprintf(extra, sizeof extra,
                  ", \"fidelity\": {\"edge\": %zu, \"mape_pct\": %.17g, "
                  "\"sim_error_pct\": %.17g, \"sim_speedup_gmean\": %.17g, "
                  "\"sim_makespan_ms\": %.17g}",
                  w.edge, mape, sim_error, gmean, 1e3 * ref_makespan);
    const bool correct = failed == 0 && !rep.nonFinite();
    rep.print(correct, attempted, failed, extra);
    return correct ? 0 : 1;
}
