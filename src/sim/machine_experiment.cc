#include "machine_experiment.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "metrics/calibrator.hh"
#include "metrics/weighted_speedup.hh"
#include "sim/snapshot.hh"
#include "sos/closed_backend.hh"
#include "stats/stats.hh"
#include "stats/trace.hh"

namespace sos {

namespace {

std::uint64_t
hashLabel(const std::string &label)
{
    // FNV-1a: stable per-label seed derivation.
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : label)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h;
}

std::string
partitionLabel(const Partition &allocation)
{
    std::string out;
    for (const std::vector<int> &group : allocation) {
        out += '{';
        for (std::size_t i = 0; i < group.size(); ++i) {
            if (i > 0)
                out += ',';
            out += std::to_string(group[i]);
        }
        out += '}';
    }
    return out;
}

/** Package one measured machine run the way the sweeps report it. */
ParallelScheduleRunner::ScheduleRun
toScheduleRun(const MachineEngine::MachineRunResult &run,
              const JobMix &mix)
{
    ParallelScheduleRunner::ScheduleRun result;
    result.run.total = run.total;
    result.run.jobRetired = run.jobRetired;
    result.run.sliceIpc = run.sliceIpc;
    result.run.sliceMixImbalance = run.sliceMixImbalance;
    result.run.cycles = run.cycles;
    result.ws = weightedSpeedup(mix, run.jobRetired, run.cycles);
    return result;
}

/**
 * The machine sweep presented to the kernel. Machine phases run every
 * candidate for the same number of quanta, so the kernel's per-index
 * interval function is evaluated once.
 */
class MachineSweepBackend : public ClosedSweepBackend
{
  public:
    using RunFn = std::function<
        std::vector<ParallelScheduleRunner::ScheduleRun>(
            std::uint64_t)>;

    MachineSweepBackend(const std::vector<MachineSchedule> &schedules,
                        RunFn run)
        : schedules_(schedules), run_(std::move(run))
    {
    }

    std::size_t
    numCandidates() const override
    {
        return schedules_.size();
    }

    std::string
    candidateLabel(std::size_t index) const override
    {
        return schedules_[index].label();
    }

    std::vector<ParallelScheduleRunner::ScheduleRun>
    runCandidates(
        const std::function<std::uint64_t(std::size_t)> &timeslices)
        const override
    {
        return run_(timeslices(0));
    }

  private:
    const std::vector<MachineSchedule> &schedules_;
    RunFn run_;
};

} // namespace

JobMix
MachineExperimentSpec::makeMix(std::uint64_t seed) const
{
    JobMix mix(seed);
    for (const std::string &workload : workloads)
        mix.addJob(workload);
    return mix;
}

const std::vector<MachineExperimentSpec> &
machineExperiments()
{
    // The Jsb(8,4,4) jobs (Table 1) redistributed over a CMP: the
    // same eight single-threaded jobs on two and on four two-way
    // cores. Jm(8,2,2,2) has 35 allocations x 3^2 per-core schedules
    // = 315 machine schedules; Jm(8,4,2,2) has 105.
    static const std::vector<MachineExperimentSpec> experiments = {
        {"Jm(8,2,2,2)",
         {"FP", "MG", "WAVE", "SWIM", "GCC", "GCC", "GO", "IS"},
         2, 2, 2},
        {"Jm(8,4,2,2)",
         {"FP", "MG", "WAVE", "SWIM", "GCC", "GCC", "GO", "IS"},
         4, 2, 2},
    };
    return experiments;
}

MachineExperiment::MachineExperiment(const MachineExperimentSpec &spec,
                                     const SimConfig &config)
    : spec_(spec), config_(config),
      machineParams_(config.machineFor(spec.level, spec.numCores)),
      space_(spec.numJobs(), spec.numCores, spec.level, spec.swap,
             machineParams_.coreClasses()),
      mix_(spec.makeMix(config.seed ^ hashLabel(spec.label))),
      runner_(config.jobs)
{
    if (space_.heterogeneous())
        coreClasses_ = space_.coreClasses();

    // Solo IPC is a property of one job alone on one core; core 0's
    // configuration is the machine's reference class (on a
    // homogeneous machine that is the one configuration there is).
    Calibrator calibrator(machineParams_.coreParams(0),
                          machineParams_.memParams(0),
                          config_.calibWarmupCycles,
                          config_.calibMeasureCycles);
    calibrator.setSampling(config_.sample);
    calibrator.calibrate(mix_, runner_.jobs());

    if (coreClasses_.empty())
        return;
    // Heterogeneity-aware policies additionally need every job's solo
    // IPC on every core class. One calibrator per class representative
    // -- the process-wide cache already keys on the full per-class
    // configuration, so repeated experiments share the measurements.
    const int num_classes =
        1 + *std::max_element(coreClasses_.begin(), coreClasses_.end());
    std::vector<Calibrator::Key> keys;
    for (int j = 0; j < mix_.numJobs(); ++j)
        keys.emplace_back(mix_.job(j).name(), mix_.job(j).numThreads());
    soloIpcByClass_.resize(static_cast<std::size_t>(num_classes));
    for (int c = 0; c < num_classes; ++c) {
        const int rep = static_cast<int>(
            std::find(coreClasses_.begin(), coreClasses_.end(), c) -
            coreClasses_.begin());
        Calibrator class_calibrator(machineParams_.coreParams(rep),
                                    machineParams_.memParams(rep),
                                    config_.calibWarmupCycles,
                                    config_.calibMeasureCycles);
        class_calibrator.setSampling(config_.sample);
        class_calibrator.prefill(keys, runner_.jobs());
        auto &references = soloIpcByClass_[static_cast<std::size_t>(c)];
        for (const Calibrator::Key &key : keys)
            references.push_back(
                class_calibrator.soloIpc(key.first, key.second));
    }
}

std::uint64_t
MachineExperiment::timesliceCycles() const
{
    return config_.timesliceCycles();
}

JobMix
MachineExperiment::freshMix() const
{
    // Every task rebuilds the same mix from the same seed, so all
    // candidates see identical workload streams; the prototype's
    // calibration is copied instead of re-measured.
    JobMix mix = spec_.makeMix(config_.seed ^ hashLabel(spec_.label));
    for (int j = 0; j < mix.numJobs(); ++j)
        mix.job(j).soloIpc = mix_.job(j).soloIpc;
    return mix;
}

MachineSchedule
MachineExperiment::warmupFor(const Partition &allocation) const
{
    std::vector<Schedule> per_core;
    per_core.reserve(allocation.size());
    for (const std::vector<int> &raw : allocation) {
        std::vector<int> group = raw;
        std::sort(group.begin(), group.end());
        per_core.push_back(
            static_cast<int>(group.size()) == spec_.level
                ? Schedule::fromPartition({group})
                : Schedule::fromRotation(group, spec_.level,
                                         spec_.swap));
    }
    return MachineSchedule(allocation, std::move(per_core));
}

ParallelScheduleRunner::ScheduleRun
MachineExperiment::runOne(const MachineSchedule &schedule,
                          std::uint64_t timeslices) const
{
    JobMix mix = freshMix();
    // A private machine per task keeps the sweep a pure function of
    // the candidate index (DESIGN.md determinism contract).
    Machine machine(machineParams_);
    MachineEngine engine(machine, timesliceCycles());
    engine.setSampling(config_.sample);

    const MachineSchedule warm = warmupFor(schedule.allocation());
    engine.setSampleRecording(false);
    engine.runSchedule(mix, warm, warm.periodTimeslices());
    engine.setSampleRecording(true);

    return toScheduleRun(engine.runSchedule(mix, schedule, timeslices),
                         mix);
}

std::vector<ParallelScheduleRunner::ScheduleRun>
MachineExperiment::runAll(const std::vector<MachineSchedule> &schedules,
                          std::uint64_t timeslices) const
{
    if (!config_.snapshot) {
        return runner_.map<ParallelScheduleRunner::ScheduleRun>(
            schedules.size(), [&](std::size_t i) {
                return runOne(schedules[i], timeslices);
            });
    }

    // Shared-warmup fast path. The warmup key of a candidate is its
    // allocation: warmupFor() depends on nothing else, and every task
    // warms the same freshMix() on an identical machine, so all
    // candidates sharing an allocation reach bit-identical warmed
    // state (DESIGN.md §5c). Warm one snapshot per distinct
    // allocation -- in parallel, the groups are independent -- then
    // run each candidate's measured interval on a private fork.
    std::vector<std::size_t> group_of(schedules.size());
    std::vector<std::size_t> first_in_group;
    std::map<std::string, std::size_t> group_index;
    for (std::size_t i = 0; i < schedules.size(); ++i) {
        const auto [it, inserted] = group_index.emplace(
            partitionLabel(schedules[i].allocation()),
            first_in_group.size());
        if (inserted)
            first_in_group.push_back(i);
        group_of[i] = it->second;
    }

    const auto snapshots =
        runner_.map<std::shared_ptr<const MachineSnapshot>>(
            first_in_group.size(), [&](std::size_t g) {
                const MachineSchedule &leader =
                    schedules[first_in_group[g]];
                JobMix mix = freshMix();
                Machine machine(machineParams_);
                MachineEngine engine(machine, timesliceCycles());
                engine.setSampling(config_.sample);
                engine.setSampleRecording(false);
                const MachineSchedule warm =
                    warmupFor(leader.allocation());
                engine.runSchedule(mix, warm, warm.periodTimeslices());
                return std::make_shared<const MachineSnapshot>(
                    machine, mix, engine);
            });

    return runner_.map<ParallelScheduleRunner::ScheduleRun>(
        schedules.size(), [&](std::size_t i) {
            MachineSnapshot::Fork fork(*snapshots[group_of[i]]);
            MachineEngine engine(fork.machine(), timesliceCycles());
            engine.setSampling(config_.sample);
            fork.adopt(engine);
            return toScheduleRun(
                engine.runSchedule(fork.mix(), schedules[i],
                                   timeslices),
                fork.mix());
        });
}

void
MachineExperiment::runSamplePhase()
{
    Rng rng(config_.seed ^ hashLabel(spec_.label) ^ 0x5a3217e1ULL);
    schedules_ = space_.sample(config_.sampleSchedules, rng);

    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config_.samplePeriods));
    const std::uint64_t timeslices =
        space_.periodTimeslices() * periods;
    const MachineSweepBackend backend(
        schedules_,
        [this](std::uint64_t t) { return runAll(schedules_, t); });
    kernel_.runSamplePhase(
        backend, [timeslices](std::size_t) { return timeslices; });
}

void
MachineExperiment::runSymbiosValidation(std::uint64_t symbios_cycles)
{
    const std::uint64_t cycles =
        symbios_cycles > 0 ? symbios_cycles : config_.symbiosCycles();
    const std::uint64_t timeslices =
        std::max<std::uint64_t>(1, cycles / timesliceCycles());

    const MachineSweepBackend backend(
        schedules_,
        [this](std::uint64_t t) { return runAll(schedules_, t); });
    kernel_.runSymbiosValidation(
        backend, [timeslices](std::size_t) { return timeslices; });

    // Replay the measured best on a persistent machine so dumps can
    // read live cache and contention counters (publishStats binds,
    // never copies).
    const std::vector<double> &symbios = kernel_.symbiosWs();
    bestIndex_ = static_cast<int>(
        std::max_element(symbios.begin(), symbios.end()) -
        symbios.begin());
    const MachineSchedule &best =
        schedules_[static_cast<std::size_t>(bestIndex_)];
    JobMix mix = freshMix();
    statsMachine_ = std::make_unique<Machine>(machineParams_);
    MachineEngine engine(*statsMachine_, timesliceCycles());
    engine.setSampling(config_.sample);
    const MachineSchedule warm = warmupFor(best.allocation());
    engine.setSampleRecording(false);
    engine.runSchedule(mix, warm, warm.periodTimeslices());
    engine.setSampleRecording(true);
    bestRun_ = engine.runSchedule(mix, best, timeslices);
    engine.evictAll();
}

std::vector<MachineExperiment::PolicyResult>
MachineExperiment::evaluatePolicies(const std::vector<std::string> &names,
                                    std::uint64_t symbios_cycles)
{
    SOS_ASSERT(!kernel_.profiles().empty(),
               "run the sample phase first");

    AllocationContext ctx;
    ctx.numJobs = spec_.numJobs();
    ctx.numCores = spec_.numCores;
    for (int j = 0; j < mix_.numJobs(); ++j)
        ctx.soloIpc.push_back(mix_.job(j).soloIpc);
    ctx.samples = coscheduleSamples();
    ctx.seed = config_.seed ^ hashLabel(spec_.label);
    ctx.coreClass = coreClasses_;
    ctx.soloIpcByClass = soloIpcByClass_;

    // Allocate for every policy first, then measure all their
    // schedules in one fan-out: runAll's results are a pure function
    // of each schedule, so the batch splits back bit-identically.
    std::vector<PolicyResult> results;
    std::vector<MachineSchedule> schedules;
    std::vector<std::size_t> first_run;
    for (const std::string &name : names) {
        const std::unique_ptr<ThreadToCorePolicy> policy =
            makeThreadToCorePolicy(name);
        PolicyResult result;
        result.policy = policy->name();
        result.allocation = policy->allocate(ctx);
        result.allocationLabel = partitionLabel(result.allocation);
        first_run.push_back(schedules.size());
        for (MachineSchedule &schedule :
             space_.schedulesForAllocation(result.allocation))
            schedules.push_back(std::move(schedule));
        results.push_back(std::move(result));
    }
    first_run.push_back(schedules.size());

    const std::uint64_t cycles =
        symbios_cycles > 0 ? symbios_cycles : config_.symbiosCycles();
    const std::uint64_t timeslices =
        std::max<std::uint64_t>(1, cycles / timesliceCycles());
    const std::vector<ParallelScheduleRunner::ScheduleRun> runs =
        runAll(schedules, timeslices);

    for (std::size_t p = 0; p < results.size(); ++p) {
        PolicyResult &result = results[p];
        double total = 0.0;
        double best = 0.0;
        for (std::size_t r = first_run[p]; r < first_run[p + 1]; ++r) {
            total += runs[r].ws;
            best = std::max(best, runs[r].ws);
        }
        const std::size_t count = first_run[p + 1] - first_run[p];
        result.schedulesRun = static_cast<int>(count);
        result.bestWs = best;
        result.avgWs =
            count == 0 ? 0.0 : total / static_cast<double>(count);
        policyResults_.push_back(result);
    }
    return results;
}

const MachineExperiment::PolicyResult &
MachineExperiment::evaluatePolicy(const std::string &name,
                                  std::uint64_t symbios_cycles)
{
    evaluatePolicies({name}, symbios_cycles);
    return policyResults_.back();
}

std::vector<CoscheduleSample>
MachineExperiment::coscheduleSamples() const
{
    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    std::vector<CoscheduleSample> samples;
    samples.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        CoscheduleSample sample;
        const MachineSchedule &schedule = schedules_[i];
        for (int k = 0; k < schedule.numCores(); ++k) {
            const auto &tuples = schedule.coreSchedule(k).tuples();
            sample.tuples.insert(sample.tuples.end(), tuples.begin(),
                                 tuples.end());
        }
        sample.ws = profiles[i].sampleWs;
        samples.push_back(std::move(sample));
    }
    return samples;
}

void
MachineExperiment::publishStats(const stats::Group &group) const
{
    group.info("label", "machine experiment label") = spec_.label;
    group.scalar("sample_phase_cycles",
                 "simulated machine cycles spent profiling candidates")
        .bind(&kernel_.samplePhaseCyclesStorage());

    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    const std::vector<double> &symbios = kernel_.symbiosWs();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const ScheduleProfile &profile = profiles[i];
        const stats::Group cand =
            group.group("candidate" + std::to_string(i));
        cand.info("schedule", "candidate machine schedule label") =
            profile.label;
        cand.value("sample_ws", "WS observed during the sample phase") =
            profile.sampleWs;
        cand.value("balance", "stddev of per-timeslice machine IPC") =
            profile.balance();
        cand.value("diversity",
                   "mean per-timeslice machine mix imbalance") =
            profile.diversity();
        if (i < symbios.size())
            cand.value("ws", "symbios-phase machine weighted speedup") =
                symbios[i];
        profile.counters.registerStats(cand.group("counters"));
    }

    if (statsMachine_) {
        // The acceptance-visible per-core groups: machine.l2.*,
        // machine.core<k>.{l1i,l1d,itlb,dtlb,prefetch,l2_contention},
        // plus each core's best-run pipeline counters.
        const stats::Group machine = group.group("machine");
        machine.info("best_schedule",
                     "machine schedule replayed for these counters") =
            schedules_[static_cast<std::size_t>(bestIndex_)].label();
        statsMachine_->registerStats(machine);
        for (std::size_t k = 0; k < bestRun_.perCore.size(); ++k) {
            bestRun_.perCore[k].registerStats(
                machine.group("core" + std::to_string(k))
                    .group("perf"));
        }
    }

    for (const PolicyResult &policy : policyResults_) {
        const stats::Group pg =
            group.group("policy").group(policy.policy);
        pg.info("allocation", "jobs-to-cores partition chosen") =
            policy.allocationLabel;
        pg.value("best_ws", "best symbios WS under the allocation") =
            policy.bestWs;
        pg.value("avg_ws", "mean symbios WS under the allocation") =
            policy.avgWs;
        pg.value("schedules_run",
                 "per-core schedule combinations measured") =
            static_cast<double>(policy.schedulesRun);
    }

    if (!symbios.empty()) {
        const stats::Group summary = group.group("summary");
        summary.value("best_ws", "best symbios WS in the sample") =
            bestWs();
        summary.value("worst_ws", "worst symbios WS in the sample") =
            worstWs();
        summary.value("avg_ws",
                      "oblivious-scheduler expectation over the sample") =
            averageWs();
    }
}

void
MachineExperiment::recordTrace(stats::EventTrace &trace) const
{
    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    const std::vector<double> &symbios = kernel_.symbiosWs();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        trace.event("machine_sample_candidate")
            .field("experiment", spec_.label)
            .field("index", static_cast<std::uint64_t>(i))
            .field("schedule", profiles[i].label)
            .field("sample_ws", profiles[i].sampleWs)
            .field("ipc", profiles[i].counters.ipc());
    }
    if (!symbios.empty()) {
        for (const std::unique_ptr<Predictor> &predictor :
             makeAllPredictors()) {
            const int pick = predictedIndex(*predictor);
            trace.event("machine_predictor_vote")
                .field("experiment", spec_.label)
                .field("predictor", predictor->name())
                .field("pick", pick)
                .field("schedule",
                       profiles[static_cast<std::size_t>(pick)].label)
                .field("ws",
                       symbios[static_cast<std::size_t>(pick)]);
        }
        for (std::size_t i = 0; i < symbios.size(); ++i) {
            trace.event("machine_symbios_result")
                .field("experiment", spec_.label)
                .field("index", static_cast<std::uint64_t>(i))
                .field("schedule", profiles[i].label)
                .field("ws", symbios[i]);
        }
    }
    for (const PolicyResult &policy : policyResults_) {
        trace.event("allocation_policy")
            .field("experiment", spec_.label)
            .field("policy", policy.policy)
            .field("allocation", policy.allocationLabel)
            .field("best_ws", policy.bestWs)
            .field("avg_ws", policy.avgWs);
    }
}

} // namespace sos
