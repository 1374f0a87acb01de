#include "traced.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/thread_pool.hh"
#include "core/aggregator.hh"
#include "core/dispatch_sim.hh"
#include "core/hlop_executor.hh"
#include "core/pipeline.hh"
#include "core/plan.hh"
#include "core/policy.hh"
#include "core/sampling_engine.hh"
#include "core/vop_graph.hh"
#include "kernels/kernel_registry.hh"

namespace ledger {

namespace {

/** Forwards every call to a backend it does not own. */
class BackendRef : public devices::Backend
{
  public:
    explicit BackendRef(const devices::Backend &target) : target_(&target)
    {}

    sim::DeviceKind kind() const override { return target_->kind(); }
    std::string_view name() const override { return target_->name(); }
    DType nativeDtype() const override { return target_->nativeDtype(); }
    bool
    supports(const kernels::KernelInfo &info) const override
    {
        return target_->supports(info);
    }
    common::Status
    execute(const kernels::KernelInfo &info, const kernels::KernelArgs &args,
            const Rect &region, TensorView out,
            uint64_t seed) const override
    {
        return target_->execute(info, args, region, out, seed);
    }
    size_t
    stagingBytesPerElement() const override
    {
        return target_->stagingBytesPerElement();
    }

  protected:
    const devices::Backend *target_;
};

/** Owns a backend and, while armed, times its execute() calls. */
class TimedBackend final : public BackendRef
{
  public:
    TimedBackend(std::unique_ptr<devices::Backend> inner, DeviceBusy &busy,
                 const std::atomic<bool> &armed)
        : BackendRef(*inner), inner_(std::move(inner)), busy_(&busy),
          armed_(&armed)
    {}

    common::Status
    execute(const kernels::KernelInfo &info, const kernels::KernelArgs &args,
            const Rect &region, TensorView out,
            uint64_t seed) const override
    {
        if (!armed_->load(std::memory_order_relaxed))
            return inner_->execute(info, args, region, out, seed);
        const auto t0 = std::chrono::steady_clock::now();
        common::Status st = inner_->execute(info, args, region, out, seed);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0);
        busy_->nanos.fetch_add(static_cast<uint64_t>(ns.count()),
                               std::memory_order_relaxed);
        busy_->calls.fetch_add(1, std::memory_order_relaxed);
        return st;
    }

  private:
    std::unique_ptr<devices::Backend> inner_;
    DeviceBusy *busy_;
    const std::atomic<bool> *armed_;
};

/** Times its own lifetime as one span. */
class Scope
{
  public:
    Scope(SpanLog &log, Layer layer, uint32_t program, int32_t parent)
        : log_(log), id_(log.open(layer, program, parent))
    {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    int32_t id_;
};

} // namespace

const char *
spanName(Layer layer)
{
    switch (layer) {
      case Layer::Program: return "program";
      case Layer::Graph: return "graph.build";
      case Layer::Planner: return "planner.plan";
      case Layer::Sampling: return "sampling.charge";
      case Layer::Dispatch: return "dispatch.run";
      case Layer::AggCost: return "aggregator.cost";
      case Layer::Executor: return "executor.execute";
      case Layer::AggCombine: return "aggregator.combine";
      case Layer::Baseline: return "baseline";
      case Layer::SwPipe: return "swpipe";
      case Layer::Count: break;
    }
    return "?";
}

int32_t
SpanLog::open(Layer layer, uint32_t program, int32_t parent)
{
    if (!enabled_)
        return -1;
    Span s;
    s.start = now();
    s.parent = parent;
    s.program = program;
    s.layer = layer;
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
}

void
SpanLog::close(int32_t id)
{
    if (id >= 0)
        spans_[static_cast<size_t>(id)].end = now();
}

std::array<double, kLayers>
SpanLog::selfSeconds() const
{
    std::array<double, kLayers> self{};
    for (const Span &s : spans_) {
        const double d = s.end - s.start;
        self[static_cast<size_t>(s.layer)] += d;
        if (s.parent >= 0)
            self[static_cast<size_t>(
                spans_[static_cast<size_t>(s.parent)].layer)] -= d;
    }
    return self;
}

std::array<size_t, kLayers>
SpanLog::counts() const
{
    std::array<size_t, kLayers> n{};
    for (const Span &s : spans_)
        ++n[static_cast<size_t>(s.layer)];
    return n;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "span,name,program,parent,start_us,end_us\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu,%s,%u,%d,%.3f,%.3f\n", i, spanName(s.layer),
                     s.program, s.parent, (s.start - t0) * 1e6,
                     (s.end - t0) * 1e6);
    }
    return std::fclose(f) == 0;
}

TracedRunner::TracedRunner(SpanLog &log) : log_(log) { reset(); }

TracedRunner::~TracedRunner() = default;

void
TracedRunner::reset()
{
    view_.clear();
    rt_.reset();
    const sim::PlatformCalibration &cal = sim::defaultCalibration();
    auto inner = devices::makePrototypeBackends(
        kernels::KernelRegistry::instance(), cal);
    if (busy_.size() != inner.size())
        busy_ = std::vector<DeviceBusy>(inner.size());
    std::vector<std::unique_ptr<devices::Backend>> timed;
    for (size_t d = 0; d < inner.size(); ++d)
        timed.push_back(std::make_unique<TimedBackend>(
            std::move(inner[d]), busy_[d], armed_));
    rt_ = std::make_unique<core::Runtime>(std::move(timed), cal,
                                          servingConfig());
    for (size_t d = 0; d < rt_->deviceCount(); ++d)
        view_.push_back(std::make_unique<BackendRef>(rt_->backend(d)));
}

std::vector<sim::DeviceKind>
TracedRunner::deviceKinds() const
{
    std::vector<sim::DeviceKind> kinds;
    for (size_t d = 0; d < rt_->deviceCount(); ++d)
        kinds.push_back(rt_->backend(d).kind());
    return kinds;
}

core::RunResult
TracedRunner::run(const Program &p, uint32_t id)
{
    armed_.store(log_.enabled(), std::memory_order_relaxed);
    const int32_t program = log_.open(Layer::Program, id, -1);
    core::RunResult r;
    switch (p.call) {
      case Call::Baseline: {
        Scope s(log_, Layer::Baseline, id, program);
        r = rt_->runGpuBaseline(p.bench->program(), p.functional);
        break;
      }
      case Call::SwPipelined: {
        Scope s(log_, Layer::SwPipe, id, program);
        r = core::runSwPipelined(*rt_, p.bench->program(), {},
                                 p.functional);
        break;
      }
      case Call::Run:
        r = runLayers(p, id, program);
        break;
    }
    log_.close(program);
    return r;
}

/*
 * Runtime::run's pipeline walk (GraphScheduler::execute with every VOp
 * charged and executed in program order), one span per layer call.
 * Simulated charging is the scheduler's: sampling advances the serial
 * clock, dispatch charges the device timelines, aggregation cost is
 * added after the last device finishes.
 */
core::RunResult
TracedRunner::runLayers(const Program &p, uint32_t id, int32_t parent)
{
    const core::Runtime &rt = *rt_;
    const core::RuntimeConfig &cfg = rt.config();
    const sim::CostModel &cost = rt.costModel();
    const core::VopProgram &program = p.bench->program();
    common::ThreadPool::configureGlobal(cfg.hostThreads);

    core::RunResult result;
    result.devices.resize(view_.size());
    for (size_t d = 0; d < view_.size(); ++d) {
        result.devices[d].name = std::string(view_[d]->name());
        result.devices[d].kind = view_[d]->kind();
    }

    const core::VopGraph graph = [&] {
        Scope s(log_, Layer::Graph, id, parent);
        return core::VopGraph::build(program);
    }();
    (void)graph;  // timed for its cost; execution stays in program order

    const core::Planner planner = rt.makePlanner();
    const core::SamplingEngine sampler(cost);
    const core::DispatchSim dispatch(view_, cost, cfg.stealSplitting);
    const core::HlopExecutor executor(view_);
    const core::Aggregator aggregator(cost.calibration(), cost);
    const std::unique_ptr<core::Policy> policy = core::makePolicy(p.policy);
    core::CriticalityCache *memo = cfg.planCache ? &rt.dataCache() : nullptr;

    std::vector<sim::DeviceTimeline> timelines;
    timelines.reserve(view_.size());
    for (const auto &bk : view_)
        timelines.emplace_back(bk->kind(), cfg.doubleBuffering);
    core::ProducerMap producers;

    double clock = 0.0;
    for (size_t i = 0; i < program.ops.size(); ++i) {
        const core::VOp &vop = program.ops[i];
        core::VopPlan plan = [&] {
            Scope s(log_, Layer::Planner, id, parent);
            return planner.plan(vop, i, cfg.seed);
        }();
        policy->beginVop(
            core::VopContext{plan.costKey(), &cost, plan.costWeight()});

        std::vector<core::PartitionInfo> pinfos;
        const double release = [&] {
            Scope s(log_, Layer::Sampling, id, parent);
            return sampler.charge(plan, *policy, clock, pinfos, nullptr,
                                  memo);
        }();
        result.schedulingSec += release - clock;

        core::DispatchOutcome outcome = [&] {
            Scope s(log_, Layer::Dispatch, id, parent);
            return dispatch.run(plan, pinfos, *policy, release, timelines,
                                &producers);
        }();
        for (const core::DispatchRecord &rec : outcome.records) {
            if (rec.kind == core::DispatchRecord::Kind::Steal)
                result.devices[rec.device].stolen += rec.count;
            else
                result.devices[rec.device].hlops += 1;
        }

        double completion = release;
        for (const sim::DeviceTimeline &tl : timelines)
            completion = std::max(completion, tl.now());
        const double agg = [&] {
            Scope s(log_, Layer::AggCost, id, parent);
            return aggregator.cost(plan);
        }();
        result.aggregationSec += agg;
        clock = completion + agg;
        result.hlopsTotal += plan.partitions.size();

        if (!p.functional)
            continue;
        const kernels::KernelInfo &info = *plan.info();
        std::vector<Tensor> accumulators;
        if (info.reduce != kernels::ReduceKind::None) {
            accumulators.reserve(plan.partitions.size());
            for (size_t k = 0; k < plan.partitions.size(); ++k)
                accumulators.emplace_back(info.reduceRows, info.reduceCols);
        }
        const core::ExecOutcome eo = [&] {
            Scope s(log_, Layer::Executor, id, parent);
            return executor.execute(plan, outcome.records, accumulators,
                                    nullptr);
        }();
        result.recoveredHlops += eo.recoveries.size();
        if (!eo.status.ok()) {
            result.status = eo.status;
            break;
        }
        Scope s(log_, Layer::AggCombine, id, parent);
        aggregator.combine(plan, accumulators, nullptr);
    }

    result.makespanSec = clock;
    for (size_t d = 0; d < timelines.size(); ++d) {
        result.devices[d].busySec = timelines[d].busySeconds();
        result.devices[d].computeSec = timelines[d].computeSeconds();
        result.devices[d].stallSec = timelines[d].stallSeconds();
        result.devices[d].transferSec = timelines[d].transferSeconds();
    }
    return result;
}

} // namespace ledger
