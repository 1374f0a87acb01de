/**
 * @file
 * Shared declarations of the perf-ledger benchmark program.
 *
 * A workload is a fixed list of programs (one "pass") built from the
 * workload seed. Each program names how it is executed (Runtime::run
 * under a policy, the GPU baseline, or SW pipelining), whether its
 * HLOP bodies run, and — once the reference runtime has executed it —
 * the output bytes and simulated makespan every later execution must
 * reproduce exactly.
 */

#ifndef SHMT_PERFLEDGER_LEDGER_HH
#define SHMT_PERFLEDGER_LEDGER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/benchmarks.hh"
#include "core/runtime.hh"

namespace ledger {

using namespace shmt;

/** The entry point a program is executed through. */
enum class Call : uint8_t {
    Run,          //!< core::Runtime::run under a named policy
    Baseline,     //!< core::Runtime::runGpuBaseline
    SwPipelined,  //!< core::runSwPipelined
};

/** One program of a workload pass and its reference result. */
struct Program
{
    std::string label;          //!< "<benchmark>/<policy>", for reports
    apps::Benchmark *bench = nullptr;
    Call call = Call::Run;
    std::string policy;         //!< core::makePolicy name (Call::Run)
    bool functional = true;     //!< whether HLOP bodies run
    size_t kernel = 0;          //!< index into Workload::benches

    double refMakespanSec = 0.0;
    /** Reference output bytes (functional programs only). */
    std::vector<float> refOutput;
};

/** Which of the three ledger workloads. */
enum class Kind : uint8_t { PaperQuality, PaperSweep, ServeMix };

/** A built workload: owned program instances plus one pass. */
struct Workload
{
    Kind kind = Kind::PaperQuality;
    size_t edge = 0;     //!< dataset edge length
    std::vector<std::unique_ptr<apps::Benchmark>> benches;
    std::vector<Program> pass;

    /** Per bench: reference GPU-baseline and qaws-ts makespans and, on
     *  the sweep, the work-stealing one (speedup and fidelity). */
    std::vector<double> baselineSec, qawsSec, stealSec;
    /** Mean MAPE of the qaws-ts outputs against the exact FP32 GPU
     *  outputs (functional workloads only). */
    double mapePct = 0.0;
};

/** Parse a workload name; false when unknown. */
bool parseKind(const std::string &name, Kind &kind);
const char *kindName(Kind kind);

/**
 * Build @p kind's program instances at edge @p edge from @p seed
 * (0 = the workload's default edge). Inputs are generated on up to
 * @p threads threads; the programs see only the generated tensors.
 */
Workload buildWorkload(Kind kind, uint64_t seed, size_t edge,
                       size_t threads);

/**
 * Execute every program of @p w once on a reference runtime (one host
 * lane; plan cache, graph execution and residency off) and record its
 * output bytes and makespan, plus the per-kernel baseline speedups and
 * the MAPE against the exact FP32 GPU outputs. Not part of set-up.
 */
void computeReference(Workload &w);

/**
 * The runtime configuration of the timed and traced phases: every
 * default except one host lane. On the 4-vCPU VM the ledger was tuned
 * on, runs that park and wake pool lanes lost 20-45% of their CPU time
 * to hypervisor steal and spread 2x from run to run; one lane kept
 * steal near 5% and the spread within a few percent.
 */
core::RuntimeConfig servingConfig();

/** Execute @p p once on @p rt, as its Call says. */
core::RunResult execute(core::Runtime &rt, const Program &p);

/**
 * Whether @p r reproduces @p p's reference: OK status, identical
 * makespan and (functional programs) identical output bytes.
 */
bool matchesReference(const Program &p, const core::RunResult &r);

/** Output bytes of @p p's benchmark equal the reference bytes. */
bool outputMatches(const Program &p);

/** Monotonic host seconds. */
double now();

/** Value at quantile @p q of @p v (sorted copy; linear interpolation). */
double quantile(std::vector<double> v, double q);

} // namespace ledger

#endif // SHMT_PERFLEDGER_LEDGER_HH
