/** @file Unit tests for weighted speedup and calibration. */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "metrics/calibrator.hh"
#include "metrics/weighted_speedup.hh"
#include "sched/jobmix.hh"

namespace sos {
namespace {

TEST(WeightedSpeedup, PaperWorkedExampleFairShare)
{
    // Section 4: solo IPCs 2 and 1; coscheduled for 1 M cycles the
    // jobs contribute 1 M and 0.5 M instructions -> WS = 1.
    const std::vector<JobProgress> jobs{{1000000, 2.0}, {500000, 1.0}};
    EXPECT_DOUBLE_EQ(weightedSpeedup(jobs, 1000000), 1.0);
}

TEST(WeightedSpeedup, PaperWorkedExampleSpeedup)
{
    // ...and 1.2 M / 0.6 M instructions -> WS = 1.2.
    const std::vector<JobProgress> jobs{{1200000, 2.0}, {600000, 1.0}};
    EXPECT_DOUBLE_EQ(weightedSpeedup(jobs, 1000000), 1.2);
}

TEST(WeightedSpeedup, SoloJobIsOne)
{
    const std::vector<JobProgress> jobs{{500000, 0.5}};
    EXPECT_DOUBLE_EQ(weightedSpeedup(jobs, 1000000), 1.0);
}

TEST(WeightedSpeedup, TimeSharingIsOneEvenWhenUnfair)
{
    // Two jobs time-shared 80/20 on one context: each contributes its
    // solo IPC for its share; WS is still 1 (Section 4's point).
    const std::vector<JobProgress> jobs{
        {static_cast<std::uint64_t>(0.8 * 1000000 * 2.0), 2.0},
        {static_cast<std::uint64_t>(0.2 * 1000000 * 1.0), 1.0}};
    EXPECT_DOUBLE_EQ(weightedSpeedup(jobs, 1000000), 1.0);
}

TEST(WeightedSpeedup, PathologicalInterferenceBelowOne)
{
    const std::vector<JobProgress> jobs{{300000, 2.0}, {200000, 1.0}};
    EXPECT_LT(weightedSpeedup(jobs, 1000000), 1.0);
}

TEST(WeightedSpeedup, HighIpcThreadCannotInflate)
{
    // Favouring the high-IPC job does not raise WS beyond what the
    // low-IPC job loses: normalization equalizes contributions.
    const std::vector<JobProgress> favored{{1900000, 2.0}, {50000, 1.0}};
    const std::vector<JobProgress> fair{{1000000, 2.0}, {500000, 1.0}};
    EXPECT_LE(weightedSpeedup(favored, 1000000),
              weightedSpeedup(fair, 1000000) + 1e-9);
}

TEST(WeightedSpeedup, MixOverloadUsesJobReferences)
{
    JobMix mix(3);
    mix.addJob("FP");
    mix.addJob("GCC");
    mix.job(0).soloIpc = 2.0;
    mix.job(1).soloIpc = 0.5;
    const double ws = weightedSpeedup(mix, {1000000, 250000}, 1000000);
    EXPECT_DOUBLE_EQ(ws, 1.0);
}

TEST(WeightedSpeedup, RequiresCalibration)
{
    const std::vector<JobProgress> jobs{{100, 0.0}};
    EXPECT_DEATH(weightedSpeedup(jobs, 1000), "calibrated");
}

TEST(Calibrator, ProducesPositiveIpc)
{
    Calibrator calib(CoreParams{}, MemParams{}, 20000, 50000);
    const double ipc = calib.soloIpc("EP");
    EXPECT_GT(ipc, 0.3);
    EXPECT_LT(ipc, 8.0);
}

TEST(Calibrator, CachesResults)
{
    Calibrator calib(CoreParams{}, MemParams{}, 20000, 50000);
    const double first = calib.soloIpc("GCC");
    const double second = calib.soloIpc("GCC");
    EXPECT_DOUBLE_EQ(first, second);
}

TEST(Calibrator, DeterministicAcrossInstances)
{
    Calibrator a(CoreParams{}, MemParams{}, 20000, 50000);
    Calibrator b(CoreParams{}, MemParams{}, 20000, 50000);
    EXPECT_DOUBLE_EQ(a.soloIpc("MG"), b.soloIpc("MG"));
}

TEST(Calibrator, RanksComputeAboveMemoryBound)
{
    Calibrator calib(CoreParams{}, MemParams{}, 40000, 100000);
    EXPECT_GT(calib.soloIpc("EP"), calib.soloIpc("IS"));
    EXPECT_GT(calib.soloIpc("FP"), calib.soloIpc("GCC"));
}

TEST(Calibrator, MultithreadedReferenceUsesAllThreads)
{
    CoreParams params;
    params.numContexts = 2;
    Calibrator calib(params, MemParams{}, 30000, 80000);
    const double one = calib.soloIpc("mt_EP", 1);
    const double two = calib.soloIpc("mt_EP", 2);
    EXPECT_GT(two, one * 1.1); // the parallel job uses both contexts
}

TEST(Calibrator, CalibratesWholeMix)
{
    JobMix mix(4);
    mix.addJob("FP");
    mix.addJob("GO");
    Calibrator calib(CoreParams{}, MemParams{}, 20000, 50000);
    calib.calibrate(mix);
    EXPECT_GT(mix.job(0).soloIpc, 0.0);
    EXPECT_GT(mix.job(1).soloIpc, 0.0);
}

/**
 * The mix the fill tests calibrate: a duplicate job, a 2-thread
 * parallel job and two other workloads.
 */
JobMix
fillMix()
{
    JobMix mix(5);
    mix.addJob("GCC");
    mix.addJob("GCC");
    mix.addParallelJob("ARRAY", 2);
    mix.addJob("FP");
    mix.addJob("IS");
    return mix;
}

std::vector<Calibrator::Key>
mixKeys(const JobMix &mix)
{
    std::vector<Calibrator::Key> keys;
    for (int j = 0; j < mix.numJobs(); ++j)
        keys.emplace_back(mix.job(j).name(), mix.job(j).numThreads());
    return keys;
}

void
expectDirectValues(const JobMix &mix, std::uint64_t warmup,
                   std::uint64_t measure)
{
    for (int j = 0; j < mix.numJobs(); ++j) {
        const Job &job = mix.job(j);
        // Bit-identical, not approximately equal: a parallel fill
        // must not change a single reference.
        EXPECT_EQ(job.soloIpc,
                  measureSoloIpc(CoreParams{}, MemParams{}, warmup,
                                 measure, SampleWindows{}, job.name(),
                                 job.numThreads()))
            << job.name() << " x" << job.numThreads();
    }
}

TEST(Calibrator, ParallelFillMatchesDirectMeasurement)
{
    // A warm-up/measure pair no other test uses: every key is cold.
    const std::uint64_t warmup = 21011;
    const std::uint64_t measure = 43013;
    JobMix mix = fillMix();
    ASSERT_EQ(mix.job(2).numThreads(), 2);
    Calibrator calib(CoreParams{}, MemParams{}, warmup, measure);
    calib.calibrate(mix, 4);
    expectDirectValues(mix, warmup, measure);
    EXPECT_EQ(mix.job(0).soloIpc, mix.job(1).soloIpc);

    // A serial calibration of the same configuration agrees.
    JobMix serial = fillMix();
    Calibrator(CoreParams{}, MemParams{}, warmup, measure)
        .calibrate(serial, 1);
    for (int j = 0; j < mix.numJobs(); ++j)
        EXPECT_EQ(serial.job(j).soloIpc, mix.job(j).soloIpc);

    // Everything is cached now, here and process-wide: a second fill
    // measures nothing, so it never builds a pool.
    EXPECT_EQ(calib.prefill(mixKeys(mix), 4), 0u);
    Calibrator fresh(CoreParams{}, MemParams{}, warmup, measure);
    EXPECT_EQ(fresh.prefill(mixKeys(mix), 4), 0u);
}

TEST(Calibrator, SerialFillMatchesDirectMeasurement)
{
    const std::uint64_t warmup = 21013;
    const std::uint64_t measure = 43019;
    JobMix mix = fillMix();
    Calibrator calib(CoreParams{}, MemParams{}, warmup, measure);
    // Duplicates are measured once: GCC, ARRAY x2, FP, IS.
    EXPECT_EQ(calib.prefill(mixKeys(mix), 1), 4u);
    calib.calibrate(mix, 1);
    expectDirectValues(mix, warmup, measure);
}

template <typename Params>
using FieldEdits =
    std::vector<std::pair<std::string, std::function<void(Params &)>>>;

void bump(int &value) { ++value; }
void bump(std::uint32_t &value) { ++value; }
void bump(std::uint64_t &value) { ++value; }
void bump(bool &value) { value = !value; }
void bump(std::string &value) { value += "'"; }

#define SOS_FIELD(field)                                                \
    {                                                                   \
        #field, [](auto &params) { bump(params.field); }                \
    }

/**
 * Structured bindings need one name per data member, so these stop
 * compiling when a field is added: extend the lists below (and
 * soloIpcKey) to match.
 */
[[maybe_unused]] void
fieldCounts(const CoreParams &core, const MemParams &mem,
            const CacheParams &cache, const PrefetcherParams &prefetch,
            const SampleWindows &sample)
{
    [[maybe_unused]] const auto &[c1, c2, c3, c4, c5, c6, c7, c8, c9,
                                  c10, c11, c12, c13, c14, c15, c16,
                                  c17, c18, c19, c20, c21, c22, c23,
                                  c24, c25] = core;
    [[maybe_unused]] const auto &[m1, m2, m3, m4, m5, m6, m7, m8, m9] =
        mem;
    [[maybe_unused]] const auto &[k1, k2, k3, k4] = cache;
    [[maybe_unused]] const auto &[p1, p2, p3, p4] = prefetch;
    [[maybe_unused]] const auto &[s1, s2, s3] = sample;
}

TEST(Calibrator, KeyCoversEveryConfigurationField)
{
    // Parallel fills share results through this key; a field left
    // out of it would alias two configurations' references.
    const CoreParams core;
    const MemParams mem;
    const SampleWindows sample;
    const std::string base =
        soloIpcKey(core, mem, 1000, 2000, sample, "EP", 1);

    const FieldEdits<CoreParams> core_edits = {
        SOS_FIELD(numContexts),    SOS_FIELD(fetchWidth),
        SOS_FIELD(fetchThreads),   SOS_FIELD(fetchQueueSize),
        SOS_FIELD(frontendDelay),  SOS_FIELD(mispredictRedirect),
        SOS_FIELD(dispatchWidth),  SOS_FIELD(commitWidth),
        SOS_FIELD(intQueueSize),   SOS_FIELD(fpQueueSize),
        SOS_FIELD(intRenameRegs),  SOS_FIELD(fpRenameRegs),
        SOS_FIELD(robSize),        SOS_FIELD(numIntUnits),
        SOS_FIELD(fpAddPipes),     SOS_FIELD(fpMulPipes),
        SOS_FIELD(numLsPorts),     SOS_FIELD(intAluLat),
        SOS_FIELD(intMultLat),     SOS_FIELD(fpAddLat),
        SOS_FIELD(fpMultLat),      SOS_FIELD(fpDivLat),
        SOS_FIELD(l1dHitLat),      SOS_FIELD(predictorBits),
        SOS_FIELD(roundRobinFetch),
    };
    ASSERT_EQ(core_edits.size(), 25u);
    for (const auto &[name, edit] : core_edits) {
        CoreParams changed = core;
        edit(changed);
        ASSERT_FALSE(changed == core) << name;
        EXPECT_NE(soloIpcKey(changed, mem, 1000, 2000, sample, "EP", 1),
                  base)
            << "CoreParams::" << name;
    }

    const FieldEdits<CacheParams> cache_edits = {
        SOS_FIELD(name), SOS_FIELD(sizeBytes), SOS_FIELD(lineBytes),
        SOS_FIELD(assoc)};
    const FieldEdits<PrefetcherParams> prefetch_edits = {
        SOS_FIELD(enabled), SOS_FIELD(tableBits),
        SOS_FIELD(confidenceThreshold), SOS_FIELD(degree)};
    FieldEdits<MemParams> mem_edits = {
        SOS_FIELD(l2HitLatency), SOS_FIELD(memLatency),
        SOS_FIELD(tlbMissLatency)};
    const std::vector<std::pair<const char *, CacheParams MemParams::*>>
        caches = {{"l1i", &MemParams::l1i},
                  {"l1d", &MemParams::l1d},
                  {"l2", &MemParams::l2},
                  {"itlb", &MemParams::itlb},
                  {"dtlb", &MemParams::dtlb}};
    for (const auto &[cache_name, member] : caches) {
        for (const auto &[field, edit] : cache_edits) {
            mem_edits.emplace_back(
                std::string(cache_name) + "." + field,
                [member = member, edit = edit](MemParams &params) {
                    edit(params.*member);
                });
        }
    }
    for (const auto &[field, edit] : prefetch_edits) {
        mem_edits.emplace_back("prefetch." + field,
                               [edit = edit](MemParams &params) {
                                   edit(params.prefetch);
                               });
    }
    ASSERT_EQ(mem_edits.size(), 3u + 5u * 4u + 4u);
    for (const auto &[name, edit] : mem_edits) {
        MemParams changed = mem;
        edit(changed);
        ASSERT_FALSE(changed == mem) << name;
        EXPECT_NE(soloIpcKey(core, changed, 1000, 2000, sample, "EP", 1),
                  base)
            << "MemParams::" << name;
    }

    // ...and the measurement arguments themselves.
    const FieldEdits<SampleWindows> sample_edits = {
        SOS_FIELD(fastForward), SOS_FIELD(warm), SOS_FIELD(measure)};
    for (const auto &[name, edit] : sample_edits) {
        SampleWindows changed = sample;
        edit(changed);
        EXPECT_NE(soloIpcKey(core, mem, 1000, 2000, changed, "EP", 1),
                  base)
            << "SampleWindows::" << name;
    }
    EXPECT_NE(soloIpcKey(core, mem, 1001, 2000, sample, "EP", 1), base);
    EXPECT_NE(soloIpcKey(core, mem, 1000, 2001, sample, "EP", 1), base);
    EXPECT_NE(soloIpcKey(core, mem, 1000, 2000, sample, "IS", 1), base);
    EXPECT_NE(soloIpcKey(core, mem, 1000, 2000, sample, "EP", 2), base);
}

#undef SOS_FIELD

} // namespace
} // namespace sos
