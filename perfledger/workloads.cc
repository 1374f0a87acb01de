#include "ledger.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "apps/harness.hh"
#include "core/pipeline.hh"
#include "core/policy.hh"
#include "kernels/workload.hh"
#include "metrics/error_metrics.hh"

namespace ledger {

namespace {

/** The ten Fig. 6 policies, in the figure's column order. */
const std::vector<std::string> kSweepPolicies = {
    "ira",     "sw-pipelining", "even",    "work-stealing",
    "qaws-ts", "qaws-tu",       "qaws-tr", "qaws-ls",
    "qaws-lu", "qaws-lr"};

/** The policy of the functional workloads (the paper's default). */
constexpr const char *kServingPolicy = "qaws-ts";

/**
 * An 8-step GEMM chain A_{j+1} = A_j x B: 16-row activations against
 * one constant n x n weight. B is near-identity so the chain's values
 * stay bounded; every step re-reads the same B (residency hits) while
 * the activations are rewritten on every run.
 */
class GemmChain final : public apps::Benchmark
{
  public:
    static constexpr size_t kRows = 16;
    static constexpr size_t kSteps = 8;

    GemmChain(size_t n, uint64_t seed) : Benchmark("gemm-chain", false)
    {
        const Tensor *a = &store(kernels::makeField(kRows, n, seed));
        const Tensor noise = kernels::makeField(n, n, seed + 1000);
        Tensor b(n, n);
        for (size_t r = 0; r < n; ++r)
            for (size_t k = 0; k < n; ++k)
                b.at(r, k) = (r == k ? 1.0f : 0.0f) +
                             0.1f * noise.at(r, k) /
                                 static_cast<float>(n);
        const Tensor *weight = &store(std::move(b));
        program_.name = name_;
        for (size_t j = 0; j < kSteps; ++j) {
            Tensor &out = store(Tensor(kRows, n));
            core::VOp vop;
            vop.opcode = "gemm";
            vop.inputs = {a, weight};
            vop.output = &out;
            program_.ops.push_back(std::move(vop));
            a = &out;
            output_ = &out;
        }
    }
};

using Maker = std::function<std::unique_ptr<apps::Benchmark>()>;

/** Run every maker, on up to @p threads threads, into @p out. */
void
generate(const std::vector<Maker> &makers, size_t threads,
         std::vector<std::unique_ptr<apps::Benchmark>> &out)
{
    out.resize(makers.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t i; (i = next.fetch_add(1)) < makers.size();)
            out[i] = makers[i]();
    };
    std::vector<std::thread> pool;
    const size_t n = std::min(std::max<size_t>(threads, 1), makers.size());
    for (size_t t = 1; t < n; ++t)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();
}

[[noreturn]] void
fatal(const std::string &what)
{
    std::fprintf(stderr, "perf_ledger: %s\n", what.c_str());
    std::exit(2);
}

std::vector<float>
copyOutput(const apps::Benchmark &b)
{
    const Tensor &t = b.output();
    return std::vector<float>(t.data(), t.data() + t.size());
}

} // namespace

bool
parseKind(const std::string &name, Kind &kind)
{
    for (Kind k : {Kind::PaperQuality, Kind::PaperSweep, Kind::ServeMix})
        if (name == kindName(k)) {
            kind = k;
            return true;
        }
    return false;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::PaperQuality: return "paper-quality";
      case Kind::PaperSweep: return "paper-sweep";
      case Kind::ServeMix: return "serve-mix";
    }
    return "?";
}

Workload
buildWorkload(Kind kind, uint64_t seed, size_t edge, size_t threads)
{
    Workload w;
    w.kind = kind;
    w.edge = edge != 0 ? edge
                       : kind == Kind::PaperQuality ? 1024
                       : kind == Kind::PaperSweep   ? 4096
                                                    : 128;
    const size_t n = w.edge;

    std::vector<Maker> makers;
    if (kind == Kind::ServeMix) {
        // Four instances of each kind, interleaved so consecutive
        // submissions differ in kind. The serve loop submits them in
        // this cyclic order; with more instances than its window, the
        // next one has almost always resolved by its turn.
        for (uint64_t copy = 0; copy < 4; ++copy) {
            const uint64_t s = seed + 1000003 * copy;
            for (const char *name : {"sobel", "srad", "histogram",
                                     "blackscholes"})
                makers.push_back([name, n, s] {
                    return apps::makeBenchmark(name, n, n, s);
                });
            makers.push_back(
                [n, s] { return std::make_unique<GemmChain>(n, s); });
        }
    } else {
        for (const std::string &name : apps::benchmarkNames())
            makers.push_back([name, n, seed] {
                return apps::makeBenchmark(name, n, n, seed);
            });
    }
    generate(makers, threads, w.benches);

    for (size_t k = 0; k < w.benches.size(); ++k) {
        apps::Benchmark *b = w.benches[k].get();
        auto add = [&](Call call, const std::string &policy) {
            Program p;
            p.label = b->name() + "/" +
                      (call == Call::Baseline ? "gpu-baseline" : policy);
            p.bench = b;
            p.call = call;
            p.policy = policy;
            p.functional = kind != Kind::PaperSweep;
            p.kernel = k;
            w.pass.push_back(std::move(p));
        };
        if (kind == Kind::PaperSweep) {
            add(Call::Baseline, "");
            for (const std::string &policy : kSweepPolicies)
                add(policy == "sw-pipelining" ? Call::SwPipelined
                                              : Call::Run,
                    policy);
        } else {
            add(Call::Run, kServingPolicy);
        }
    }
    return w;
}

core::RuntimeConfig
servingConfig()
{
    core::RuntimeConfig config;
    config.hostThreads = 1;
    return config;
}

void
computeReference(Workload &w)
{
    core::RuntimeConfig cfg;
    cfg.hostThreads = 1;
    cfg.planCache = false;
    cfg.graphExec = false;
    cfg.residency = false;
    core::Runtime ref = apps::makePrototypeRuntime(cfg);

    const size_t nk = w.benches.size();
    w.baselineSec.assign(nk, 0.0);
    w.qawsSec.assign(nk, 0.0);
    w.stealSec.assign(nk, 0.0);
    double mape_sum = 0.0;
    for (Program &p : w.pass) {
        std::vector<float> exact;
        if (p.functional) {
            // The exact FP32 GPU output, for MAPE.
            const core::RunResult b =
                ref.runGpuBaseline(p.bench->program(), true);
            if (!b.status.ok())
                fatal("reference baseline failed on " + p.label);
            w.baselineSec[p.kernel] = b.makespanSec;
            exact = copyOutput(*p.bench);
        }
        const core::RunResult r = execute(ref, p);
        if (!r.status.ok())
            fatal("reference run failed on " + p.label + ": " +
                  r.status.toString());
        p.refMakespanSec = r.makespanSec;
        if (p.functional) {
            p.refOutput = copyOutput(*p.bench);
            const Tensor &out = p.bench->output();
            mape_sum += metrics::mape(
                ConstTensorView(exact.data(), out.rows(), out.cols(),
                                out.cols()),
                out.view());
        }
        if (p.call == Call::Baseline)
            w.baselineSec[p.kernel] = r.makespanSec;
        else if (p.policy == kServingPolicy)
            w.qawsSec[p.kernel] = r.makespanSec;
        else if (p.policy == "work-stealing")
            w.stealSec[p.kernel] = r.makespanSec;
    }
    if (w.kind != Kind::PaperSweep)
        w.mapePct = mape_sum / static_cast<double>(w.pass.size());
}

core::RunResult
execute(core::Runtime &rt, const Program &p)
{
    const core::VopProgram &program = p.bench->program();
    switch (p.call) {
      case Call::Baseline:
        return rt.runGpuBaseline(program, p.functional);
      case Call::SwPipelined:
        return core::runSwPipelined(rt, program, {}, p.functional);
      case Call::Run:
        break;
    }
    const std::unique_ptr<core::Policy> policy = core::makePolicy(p.policy);
    return rt.run(program, *policy, p.functional);
}

bool
outputMatches(const Program &p)
{
    const Tensor &out = p.bench->output();
    return out.size() == p.refOutput.size() &&
           std::memcmp(out.data(), p.refOutput.data(), out.bytes()) == 0;
}

bool
matchesReference(const Program &p, const core::RunResult &r)
{
    return r.status.ok() && r.makespanSec == p.refMakespanSec &&
           (!p.functional || outputMatches(p));
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

} // namespace ledger
