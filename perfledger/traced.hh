/**
 * @file
 * The ledger's traced run: a runner that executes a program through
 * the pipeline layers' public entry points itself — VopGraph::build,
 * Planner::plan, SamplingEngine::charge, DispatchSim::run,
 * Aggregator::cost, HlopExecutor::execute, Aggregator::combine — in
 * program order, timing each call as a span. The GPU baseline and SW
 * pipelining are timed as whole calls. Every device backend sits
 * behind a decorator that sums Backend::execute time per device over
 * all host lanes.
 *
 * The runner reproduces Runtime::run's simulated makespan and output
 * bytes exactly (the ledger checks every traced program against the
 * reference). Its host path differs from Runtime::run's in two ways:
 *  - it drops the dataflow overlap, so its wall is the program-order
 *    cost of the same work;
 *  - it drops GraphScheduler's whole-input NPU prestaging, which
 *    quantizes a whole-input VOp's (gemm's) INT8 planes once ahead of
 *    its Edge TPU HLOPs. Each of those HLOPs stages them itself, as
 *    with graph execution off, so on serve-mix the GEMM chain's INT8
 *    staging counts in HlopExecutor::execute's span.
 */

#ifndef SHMT_PERFLEDGER_TRACED_HH
#define SHMT_PERFLEDGER_TRACED_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "devices/backend.hh"
#include "ledger.hh"

namespace ledger {

/** Span names: the pipeline entry point each span times. */
enum class Layer : uint8_t {
    Program,     //!< one whole program (parent of the others)
    Graph,       //!< VopGraph::build
    Planner,     //!< Planner::plan
    Sampling,    //!< SamplingEngine::charge
    Dispatch,    //!< DispatchSim::run
    AggCost,     //!< Aggregator::cost
    Executor,    //!< HlopExecutor::execute
    AggCombine,  //!< Aggregator::combine
    Baseline,    //!< Runtime::runGpuBaseline, whole call
    SwPipe,      //!< core::runSwPipelined, whole call
    Count
};
constexpr size_t kLayers = static_cast<size_t>(Layer::Count);

const char *spanName(Layer layer);

/** In-memory span log of the traced run; written out at the end. */
class SpanLog
{
  public:
    struct Span
    {
        double start = 0.0, end = 0.0;  //!< host seconds
        int32_t parent = -1;            //!< index of the parent span
        uint32_t program = 0;           //!< program id
        Layer layer = Layer::Program;
    };

    /** Whether spans are recorded (off: the runner runs untimed). */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; -1 when disabled. */
    int32_t open(Layer layer, uint32_t program, int32_t parent);
    /** Close the span @p id opened (no-op for -1). */
    void close(int32_t id);

    /**
     * Self seconds per span name: each span's duration minus the
     * durations of its child spans. Program self time is the part of a
     * program no layer call covers (the runner's own bookkeeping).
     */
    std::array<double, kLayers> selfSeconds() const;
    /** Spans per name. */
    std::array<size_t, kLayers> counts() const;

    /** Write every span as CSV to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
};

/** Backend::execute time and calls of one device, over all lanes. */
struct DeviceBusy
{
    std::atomic<uint64_t> nanos{0};
    std::atomic<uint64_t> calls{0};
};

/** Runs programs layer by layer with spans (see the file comment). */
class TracedRunner
{
  public:
    explicit TracedRunner(SpanLog &log);
    ~TracedRunner();
    TracedRunner(const TracedRunner &) = delete;
    TracedRunner &operator=(const TracedRunner &) = delete;

    /** Start over on a fresh runtime (cold serving caches). */
    void reset();

    /**
     * Execute @p p as program @p id. The result carries the status,
     * makespan, HLOP count and recoveries — what the ledger checks
     * against the reference — plus the simulated per-device stats.
     */
    core::RunResult run(const Program &p, uint32_t id);

    /** Per-device busy time, in backend order (GPU, Edge TPU). */
    const std::vector<DeviceBusy> &busy() const { return busy_; }
    /** Device kinds, in backend order. */
    std::vector<sim::DeviceKind> deviceKinds() const;

  private:
    core::RunResult runLayers(const Program &p, uint32_t id,
                              int32_t parent);

    SpanLog &log_;
    std::atomic<bool> armed_{false};
    std::vector<DeviceBusy> busy_;
    std::unique_ptr<core::Runtime> rt_;
    /** Non-owning views of rt_'s backends, for the stage classes. */
    std::vector<std::unique_ptr<devices::Backend>> view_;
};

} // namespace ledger

#endif // SHMT_PERFLEDGER_TRACED_HH
