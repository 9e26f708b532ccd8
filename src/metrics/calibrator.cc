#include "calibrator.hh"

#include <algorithm>
#include <mutex>
#include <type_traits>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "cpu/machine.hh"
#include "cpu/sampling.hh"
#include "sched/job.hh"
#include "sched/jobmix.hh"
#include "trace/workload_library.hh"

namespace sos {

namespace {

void
appendField(std::string &key, const std::string &value)
{
    key += value;
    key += ';';
}

template <typename Int,
          typename = std::enable_if_t<std::is_integral_v<Int>>>
void
appendField(std::string &key, Int value)
{
    appendField(key, std::to_string(value));
}

void
appendCache(std::string &key, const CacheParams &cache)
{
    appendField(key, cache.name);
    appendField(key, cache.sizeBytes);
    appendField(key, cache.lineBytes);
    appendField(key, cache.assoc);
}

/**
 * Process-wide reference table. A solo IPC is a pure function of its
 * key (the measurement runs a private job with a fixed internal seed
 * on a private machine), so experiments sharing a configuration --
 * every figure harness builds several Calibrators with the same one --
 * can share measurements across instances and threads.
 */
std::mutex soloIpcCacheMutex;
std::map<std::string, double> soloIpcCache;

} // namespace

std::string
soloIpcKey(const CoreParams &core, const MemParams &mem,
           std::uint64_t warmup_cycles, std::uint64_t measure_cycles,
           const SampleWindows &sample, const std::string &workload,
           int threads)
{
    std::string key;
    key.reserve(256);
    appendField(key, workload);
    appendField(key, threads);
    appendField(key, warmup_cycles);
    appendField(key, measure_cycles);
    appendField(key, sample.fastForward);
    appendField(key, sample.warm);
    appendField(key, sample.measure);

    appendField(key, core.numContexts);
    appendField(key, core.fetchWidth);
    appendField(key, core.fetchThreads);
    appendField(key, core.fetchQueueSize);
    appendField(key, core.frontendDelay);
    appendField(key, core.mispredictRedirect);
    appendField(key, core.dispatchWidth);
    appendField(key, core.commitWidth);
    appendField(key, core.intQueueSize);
    appendField(key, core.fpQueueSize);
    appendField(key, core.intRenameRegs);
    appendField(key, core.fpRenameRegs);
    appendField(key, core.robSize);
    appendField(key, core.numIntUnits);
    appendField(key, core.fpAddPipes);
    appendField(key, core.fpMulPipes);
    appendField(key, core.numLsPorts);
    appendField(key, core.intAluLat);
    appendField(key, core.intMultLat);
    appendField(key, core.fpAddLat);
    appendField(key, core.fpMultLat);
    appendField(key, core.fpDivLat);
    appendField(key, core.l1dHitLat);
    appendField(key, core.predictorBits);
    appendField(key, core.roundRobinFetch ? 1 : 0);

    appendCache(key, mem.l1i);
    appendCache(key, mem.l1d);
    appendCache(key, mem.l2);
    appendCache(key, mem.itlb);
    appendCache(key, mem.dtlb);
    appendField(key, mem.l2HitLatency);
    appendField(key, mem.memLatency);
    appendField(key, mem.tlbMissLatency);
    appendField(key, mem.prefetch.enabled ? 1 : 0);
    appendField(key, mem.prefetch.tableBits);
    appendField(key, mem.prefetch.confidenceThreshold);
    appendField(key, mem.prefetch.degree);
    return key;
}

double
measureSoloIpc(const CoreParams &core, const MemParams &mem,
               std::uint64_t warmup_cycles, std::uint64_t measure_cycles,
               const SampleWindows &sample, const std::string &workload,
               int threads)
{
    SOS_ASSERT(measure_cycles > 0);
    SOS_ASSERT(threads >= 1 && threads <= core.numContexts,
               "solo run cannot use more threads than contexts");

    // A private job on a private core: the reference must not perturb
    // or observe the experiment's machine state.
    const WorkloadProfile &profile =
        WorkloadLibrary::instance().get(workload);
    Job job(1, profile, 0xca11b7a7eULL, threads,
            /*adaptive=*/false);
    Machine machine(core, mem);
    SmtCore &smt = machine.core(0);
    for (int t = 0; t < threads; ++t) {
        ThreadBinding binding;
        binding.gen = &job.generator(t);
        binding.sync = job.syncDomain();
        binding.syncIndex = t;
        binding.asid = job.asid();
        smt.attachThread(t, binding);
    }

    // References are measured at the experiment's fidelity (see
    // Calibrator::setSampling), but never recorded into the run's
    // sampling stats: a reference is cached machinery, not part of
    // any one run.
    SamplingController sampler(smt, sample);
    sampler.setRecording(false);
    PerfCounters warmup;
    sampler.run(warmup_cycles, warmup);
    PerfCounters measured;
    sampler.run(measure_cycles, measured);

    const double ipc = measured.ipc();
    SOS_ASSERT(ipc > 0.0, "calibration produced zero IPC for ", workload);
    return ipc;
}

Calibrator::Calibrator(const CoreParams &core, const MemParams &mem,
                       std::uint64_t warmup_cycles,
                       std::uint64_t measure_cycles)
    : coreParams_(core), memParams_(mem), warmupCycles_(warmup_cycles),
      measureCycles_(measure_cycles)
{
    SOS_ASSERT(measure_cycles > 0);
}

std::size_t
Calibrator::prefill(const std::vector<Key> &keys, int workers)
{
    // Resolve what is already known; collect each missing key once.
    std::vector<Key> missing;
    std::vector<std::string> missing_global;
    {
        const std::lock_guard<std::mutex> lock(soloIpcCacheMutex);
        for (const Key &key : keys) {
            SOS_ASSERT(key.second >= 1 &&
                           key.second <= coreParams_.numContexts,
                       "solo run cannot use more threads than contexts");
            if (cache_.count(key) != 0 ||
                std::find(missing.begin(), missing.end(), key) !=
                    missing.end())
                continue;
            std::string global_key = soloIpcKey(
                coreParams_, memParams_, warmupCycles_, measureCycles_,
                sample_, key.first, key.second);
            const auto shared = soloIpcCache.find(global_key);
            if (shared != soloIpcCache.end()) {
                cache_.emplace(key, shared->second);
                continue;
            }
            missing.push_back(key);
            missing_global.push_back(std::move(global_key));
        }
    }
    if (missing.empty())
        return 0;

    // Each task writes only its own slot; nothing is stored until the
    // whole batch is done, so no value depends on the claim order.
    std::vector<double> measured(missing.size());
    const int pool_workers =
        ThreadPool::inTask()
            ? 1
            : static_cast<int>(std::min<std::size_t>(
                  static_cast<std::size_t>(std::max(workers, 1)),
                  missing.size()));
    ThreadPool pool(pool_workers);
    pool.run(missing.size(), [&](std::size_t i) {
        measured[i] = measureSoloIpc(coreParams_, memParams_,
                                     warmupCycles_, measureCycles_,
                                     sample_, missing[i].first,
                                     missing[i].second);
    });

    const std::lock_guard<std::mutex> lock(soloIpcCacheMutex);
    for (std::size_t i = 0; i < missing.size(); ++i) {
        cache_.emplace(missing[i], measured[i]);
        // Another thread may have stored the same key meanwhile; the
        // measurement is deterministic, so either copy is the value.
        soloIpcCache.emplace(missing_global[i], measured[i]);
    }
    return missing.size();
}

double
Calibrator::soloIpc(const std::string &workload, int threads)
{
    const Key key(workload, threads);
    const auto cached = cache_.find(key);
    if (cached != cache_.end())
        return cached->second;
    prefill({key}, 1);
    return cache_.at(key);
}

void
Calibrator::calibrate(Job &job)
{
    job.soloIpc = soloIpc(job.name(), job.numThreads());
}

void
Calibrator::calibrate(JobMix &mix, int workers)
{
    std::vector<Key> keys;
    keys.reserve(static_cast<std::size_t>(mix.numJobs()));
    for (int j = 0; j < mix.numJobs(); ++j)
        keys.emplace_back(mix.job(j).name(), mix.job(j).numThreads());
    prefill(keys, workers);
    for (int j = 0; j < mix.numJobs(); ++j)
        calibrate(mix.job(j));
}

} // namespace sos
