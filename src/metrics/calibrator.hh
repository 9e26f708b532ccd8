/**
 * @file
 * Single-job reference IPC calibration.
 *
 * Weighted speedup divides each job's realized IPC by its "natural
 * offer rate" -- the IPC it achieves running alone on the machine.
 * The paper extends the definition to multithreaded jobs by using the
 * issue rate of the job running alone with no other jobs coscheduled
 * (Section 7), so a parallel job's reference depends on its thread
 * count.
 *
 * The file has two parts. measureSoloIpc() is the measurement itself:
 * a private job with a fixed internal seed on a private machine, so a
 * reference is a pure function of its soloIpcKey() (core, memory,
 * intervals, fidelity, workload, threads). The Calibrator is the memo
 * around it: a per-instance (workload, threads) map in front of a
 * mutex-guarded process-wide table keyed by soloIpcKey(), so
 * Calibrators built by different experiments -- or on different sweep
 * worker threads -- reuse each other's references instead of
 * re-simulating them.
 *
 * Calibrator::prefill() measures the missing keys of a batch in
 * parallel on a ThreadPool and stores them only once the whole batch
 * is done. Since every key is a pure function and nothing is stored
 * mid-batch, neither the worker count nor the claim order can change
 * a value: a parallel fill is bit-identical to a serial one.
 */

#ifndef SOS_METRICS_CALIBRATOR_HH
#define SOS_METRICS_CALIBRATOR_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core_params.hh"
#include "cpu/sample_windows.hh"
#include "mem/cache_hierarchy.hh"

namespace sos {

class Job;
class JobMix;

/**
 * Canonical rendering of everything a solo-IPC measurement depends
 * on. Collision-free by construction (unlike a hash), so a cache hit
 * is always the right reference. Must enumerate every CoreParams and
 * MemParams field: a missed field would alias configurations.
 */
std::string soloIpcKey(const CoreParams &core, const MemParams &mem,
                       std::uint64_t warmup_cycles,
                       std::uint64_t measure_cycles,
                       const SampleWindows &sample,
                       const std::string &workload, int threads);

/**
 * Measure the solo IPC of @p workload with @p threads threads: a
 * private job on a private core warmed for @p warmup_cycles, then
 * measured over @p measure_cycles at the @p sample fidelity. Touches
 * no shared state, so concurrent calls are safe and each result is a
 * pure function of soloIpcKey() of the same arguments.
 */
double measureSoloIpc(const CoreParams &core, const MemParams &mem,
                      std::uint64_t warmup_cycles,
                      std::uint64_t measure_cycles,
                      const SampleWindows &sample,
                      const std::string &workload, int threads);

/** Measures and caches solo IPC references. */
class Calibrator
{
  public:
    /** A reference: (workload, thread count). */
    using Key = std::pair<std::string, int>;

    /**
     * @param core Core configuration the experiment uses.
     * @param mem Memory configuration the experiment uses.
     * @param warmup_cycles Cycles run before measuring (cache warmup).
     * @param measure_cycles Measurement interval length.
     */
    Calibrator(const CoreParams &core, const MemParams &mem,
               std::uint64_t warmup_cycles = 300000,
               std::uint64_t measure_cycles = 500000);

    /**
     * Measure references at sampled fidelity (default: full detail).
     * A sweep that runs its co-schedules sampled scores them against
     * references measured the same way, so fidelity error largely
     * cancels in the weighted-speedup ratio. Sampled and full-detail
     * references are cached under distinct keys and never mix.
     */
    void setSampling(const SampleWindows &sample) { sample_ = sample; }

    /**
     * Make every key of @p keys cached. Keys already cached (here or
     * process-wide) and duplicates are dropped; the rest are measured
     * on a pool of min(@p workers, missing) workers and stored once
     * the batch is done. A pool of at most one worker runs inline, and
     * so does any fill issued from inside a pool task: no pool is ever
     * nested.
     *
     * @return How many keys were measured.
     */
    std::size_t prefill(const std::vector<Key> &keys, int workers);

    /**
     * Reference IPC of a workload running alone with the given number
     * of threads (1 for sequential jobs). Measured inline on a miss.
     */
    double soloIpc(const std::string &workload, int threads = 1);

    /** Set job.soloIpc from its workload and current thread count. */
    void calibrate(Job &job);

    /**
     * Calibrate every job of a mix, filling the missing references
     * on @p workers workers first.
     */
    void calibrate(JobMix &mix, int workers = 1);

  private:
    CoreParams coreParams_;
    MemParams memParams_;
    std::uint64_t warmupCycles_;
    std::uint64_t measureCycles_;
    SampleWindows sample_;
    std::map<Key, double> cache_;
};

} // namespace sos

#endif // SOS_METRICS_CALIBRATOR_HH
