/**
 * @file
 * Machine-level experiment tests: the 1-core MachineEngine reproduces
 * the single-core TimesliceEngine bit-for-bit, and the machine sweep
 * obeys the PR 1 determinism contract -- profiles and symbios WS are
 * bit-identical for any worker count (the SOS_JOBS=1/2/8 acceptance
 * check, run in-process via config.jobs).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/machine_experiment.hh"
#include "sim/timeslice_engine.hh"

namespace sos {
namespace {

MachineExperimentSpec
smallSpec()
{
    MachineExperimentSpec spec;
    spec.label = "Jm(4,2,2,2)";
    spec.workloads = {"FP", "MG", "GCC", "IS"};
    spec.numCores = 2;
    spec.level = 2;
    spec.swap = 2;
    return spec;
}

TEST(MachineEngine, OneCoreMatchesTimesliceEngine)
{
    // The machine-level driver on one core must be the old engine,
    // bit-for-bit: same tuples, same quantum, same counters.
    const MachineExperimentSpec spec = smallSpec();
    const Schedule core_schedule =
        Schedule::fromRotation({0, 1, 2, 3}, 2, 2);
    const std::uint64_t timeslices = 8;
    const std::uint64_t quantum = 10000;

    TimesliceEngine::ScheduleRunResult single;
    {
        JobMix mix = spec.makeMix(0x1234);
        Machine machine(CoreParams{}, MemParams{});
        TimesliceEngine engine(machine.core(0), quantum);
        single = engine.runSchedule(mix, core_schedule, timeslices);
    }
    MachineEngine::MachineRunResult lifted;
    {
        JobMix mix = spec.makeMix(0x1234);
        Machine machine(CoreParams{}, MemParams{});
        MachineEngine engine(machine, quantum);
        const MachineSchedule schedule({{0, 1, 2, 3}},
                                       {core_schedule});
        lifted = engine.runSchedule(mix, schedule, timeslices);
    }
    EXPECT_EQ(lifted.total, single.total);
    EXPECT_EQ(lifted.jobRetired, single.jobRetired);
    EXPECT_EQ(lifted.cycles, single.cycles);
    ASSERT_EQ(lifted.perCore.size(), 1u);
    EXPECT_EQ(lifted.perCore[0], single.total);
}

TEST(MachineExperiment, SweepIsBitIdenticalForAnyWorkerCount)
{
    const MachineExperimentSpec spec = smallSpec();

    struct Observed
    {
        std::vector<std::string> keys;
        std::vector<double> sampleWs;
        std::vector<double> symbiosWs;
    };
    std::vector<Observed> runs;
    for (const int jobs : {1, 2, 8}) {
        SimConfig config = makeFastConfig();
        config.jobs = jobs;
        MachineExperiment exp(spec, config);
        exp.runSamplePhase();
        exp.runSymbiosValidation();
        Observed obs;
        for (const MachineSchedule &s : exp.schedules())
            obs.keys.push_back(s.key());
        for (const ScheduleProfile &p : exp.profiles())
            obs.sampleWs.push_back(p.sampleWs);
        obs.symbiosWs = exp.symbiosWs();
        runs.push_back(std::move(obs));
    }
    ASSERT_EQ(runs.size(), 3u);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].keys, runs[0].keys);
        // Bit-identical, not approximately equal: the determinism
        // contract promises the same floating-point results.
        EXPECT_EQ(runs[i].sampleWs, runs[0].sampleWs);
        EXPECT_EQ(runs[i].symbiosWs, runs[0].symbiosWs);
    }
    EXPECT_FALSE(runs[0].symbiosWs.empty());
    for (const double ws : runs[0].symbiosWs)
        EXPECT_GT(ws, 0.0);
}

TEST(MachineExperiment, PolicyEvaluationIsDeterministicAndWellFormed)
{
    const MachineExperimentSpec spec = smallSpec();
    SimConfig config = makeFastConfig();
    config.jobs = 2;
    MachineExperiment exp(spec, config);
    exp.runSamplePhase();

    for (const std::string &name : threadToCorePolicyNames()) {
        const MachineExperiment::PolicyResult &result =
            exp.evaluatePolicy(name);
        EXPECT_EQ(result.policy, name);
        EXPECT_EQ(static_cast<int>(result.allocation.size()),
                  spec.numCores);
        EXPECT_GT(result.schedulesRun, 0);
        EXPECT_GT(result.bestWs, 0.0);
        EXPECT_GE(result.bestWs, result.avgWs);
    }
    EXPECT_EQ(exp.policyResults().size(),
              threadToCorePolicyNames().size());

    // A second experiment replays the synpa evaluation identically.
    MachineExperiment again(spec, config);
    again.runSamplePhase();
    const auto &a = exp.policyResults().front();
    const auto &b = again.evaluatePolicy(a.policy);
    EXPECT_EQ(a.allocation, b.allocation);
    EXPECT_EQ(a.avgWs, b.avgWs);
}

TEST(MachineExperiment, BatchedPolicyEvaluationMatchesPerName)
{
    // evaluatePolicies fans every policy's schedule runs out at once;
    // splitting the batch back must give, bit for bit, what one
    // evaluatePolicy call per name gives -- on either warm-up path.
    const MachineExperimentSpec spec = smallSpec();
    const std::vector<std::string> names = threadToCorePolicyNames();
    for (const bool snapshot : {true, false}) {
        SimConfig config = makeFastConfig();
        config.snapshot = snapshot;
        config.jobs = 1;
        MachineExperiment single(spec, config);
        single.runSamplePhase();
        for (const std::string &name : names)
            single.evaluatePolicy(name);

        config.jobs = 4;
        MachineExperiment batched(spec, config);
        batched.runSamplePhase();
        const std::vector<MachineExperiment::PolicyResult> results =
            batched.evaluatePolicies(names);

        ASSERT_EQ(results.size(), names.size());
        ASSERT_EQ(batched.policyResults().size(), names.size());
        ASSERT_EQ(single.policyResults().size(), names.size());
        for (std::size_t p = 0; p < names.size(); ++p) {
            const MachineExperiment::PolicyResult &a =
                single.policyResults()[p];
            for (const MachineExperiment::PolicyResult *b :
                 {&results[p], &batched.policyResults()[p]}) {
                EXPECT_EQ(b->policy, names[p]);
                EXPECT_EQ(b->policy, a.policy);
                EXPECT_EQ(b->allocation, a.allocation);
                EXPECT_EQ(b->allocationLabel, a.allocationLabel);
                EXPECT_EQ(b->schedulesRun, a.schedulesRun);
                EXPECT_EQ(b->bestWs, a.bestWs) << a.policy;
                EXPECT_EQ(b->avgWs, a.avgWs) << a.policy;
            }
        }
    }
}

TEST(MachineExperiment, CoscheduleSamplesCoverEveryCandidate)
{
    const MachineExperimentSpec spec = smallSpec();
    SimConfig config = makeFastConfig();
    config.jobs = 1;
    MachineExperiment exp(spec, config);
    exp.runSamplePhase();
    const std::vector<CoscheduleSample> samples =
        exp.coscheduleSamples();
    ASSERT_EQ(samples.size(), exp.schedules().size());
    for (const CoscheduleSample &sample : samples) {
        EXPECT_FALSE(sample.tuples.empty());
        EXPECT_GT(sample.ws, 0.0);
    }
}

} // namespace
} // namespace sos
