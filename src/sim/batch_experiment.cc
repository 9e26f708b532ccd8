#include "batch_experiment.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "metrics/weighted_speedup.hh"
#include "model/model.hh"
#include "sim/sweep_backend.hh"
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

/**
 * The neutral warmup schedule: cycle every job through the machine
 * once so no candidate is charged for compulsory cache and predictor
 * misses. (The paper's 5 M-cycle timeslices amortize cold start; our
 * scaled ones need this.)
 */
Schedule
warmupSchedule(const ExperimentSpec &spec)
{
    std::vector<int> order(static_cast<std::size_t>(spec.numUnits()));
    for (std::size_t u = 0; u < order.size(); ++u)
        order[u] = static_cast<int>(u);
    return spec.numUnits() == spec.level
               ? Schedule::fromPartition({order})
               : Schedule::fromRotation(order, spec.level, spec.swap);
}

} // namespace

BatchExperiment::BatchExperiment(const ExperimentSpec &spec,
                                 const SimConfig &config)
    : spec_(spec), config_(config),
      mix_(spec.makeMix(config.seed ^ hashLabel(spec.label))),
      runner_(config.jobs)
{
    Calibrator calibrator(config_.coreFor(spec_.level), config_.mem,
                          config_.calibWarmupCycles,
                          config_.calibMeasureCycles);
    calibrator.setSampling(config_.sample);
    calibrator.calibrate(mix_, runner_.jobs());
}

std::uint64_t
BatchExperiment::timesliceCycles() const
{
    return spec_.little ? config_.littleTimesliceCycles()
                        : config_.timesliceCycles();
}

ParallelScheduleRunner::SweepSpec
BatchExperiment::makeSweep() const
{
    ParallelScheduleRunner::SweepSpec sweep;
    // Every task rebuilds the same mix from the same seed, so all
    // candidates see identical workload streams; the prototype's
    // calibration is copied instead of re-measured.
    sweep.makeMix = [this](std::size_t) {
        JobMix mix =
            spec_.makeMix(config_.seed ^ hashLabel(spec_.label));
        for (int j = 0; j < mix.numJobs(); ++j)
            mix.job(j).soloIpc = mix_.job(j).soloIpc;
        return mix;
    };
    sweep.core = config_.coreFor(spec_.level);
    sweep.mem = config_.mem;
    sweep.timesliceCycles = timesliceCycles();
    sweep.warm = warmupSchedule(spec_);
    sweep.warmTimeslices = sweep.warm.periodTimeslices();
    sweep.useSnapshot = config_.snapshot;
    sweep.sample = config_.sample;
    return sweep;
}

std::vector<model::ThreadSignature>
BatchExperiment::unitSignatures() const
{
    std::vector<model::ThreadSignature> signatures;
    for (int u = 0; u < mix_.numUnits(); ++u) {
        const Job *job = mix_.unit(u).job;
        SOS_ASSERT(job != nullptr);
        signatures.push_back(model::makeThreadSignature(
            static_cast<int>(job->id()), job->profile(), job->soloIpc));
    }
    return signatures;
}

std::vector<model::FeatureVector>
BatchExperiment::candidateFeatures() const
{
    SOS_ASSERT(!schedules_.empty(), "run the sample phase first");
    const std::vector<model::ThreadSignature> signatures =
        unitSignatures();
    std::vector<model::FeatureVector> features;
    features.reserve(schedules_.size());
    for (const Schedule &schedule : schedules_)
        features.push_back(model::composeScheduleFeatures(
            signatures, schedule.tuples()));
    return features;
}

void
BatchExperiment::runScreenedSamplePhase(std::uint64_t periods)
{
    std::shared_ptr<const model::WsModel> ws_model;
    try {
        ws_model = model::loadModel(config_.modelPath);
    } catch (const model::ModelError &error) {
        fatal("samplek screen: ", error.what());
    }

    const std::vector<model::FeatureVector> features =
        candidateFeatures();
    std::vector<double> predicted(features.size());
    std::vector<double> uncertainty(features.size());
    for (std::size_t i = 0; i < features.size(); ++i) {
        predicted[i] = ws_model->predict(features[i]);
        uncertainty[i] = ws_model->uncertainty(features[i]);
    }

    // Shortlist = top-K predictions plus every candidate whose
    // uncertainty exceeds the model's stored (training-p90)
    // threshold; ties in prediction break toward the lower index so
    // the screen is deterministic.
    std::vector<std::size_t> order(features.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return predicted[a] > predicted[b];
                     });
    const std::size_t keep_top = std::min(
        features.size(), static_cast<std::size_t>(config_.samplek));
    std::vector<bool> keep(features.size(), false);
    for (std::size_t i = 0; i < keep_top; ++i)
        keep[order[i]] = true;
    for (std::size_t i = 0; i < features.size(); ++i) {
        if (uncertainty[i] > ws_model->uncertaintyThreshold())
            keep[i] = true;
    }

    std::vector<std::size_t> shortlist;
    std::vector<Schedule> shortlisted;
    for (std::size_t i = 0; i < keep.size(); ++i) {
        if (!keep[i])
            continue;
        shortlist.push_back(i);
        shortlisted.push_back(schedules_[i]);
    }

    // Synthetic profiles for the screened-out candidates: the model's
    // prediction stands in for the sample-phase WS, and no counters
    // exist (predictors never score these; see
    // SosKernel::predictedIndex).
    std::vector<ScheduleProfile> synthetic(schedules_.size());
    for (std::size_t i = 0; i < schedules_.size(); ++i) {
        synthetic[i].label = schedules_[i].label();
        synthetic[i].sampleWs = predicted[i];
        synthetic[i].detailed = false;
    }

    const ScheduleSweepBackend backend(runner_, makeSweep(),
                                       shortlisted);
    kernel_.runSamplePhaseScreened(
        backend,
        [&](std::size_t i) {
            return shortlisted[i].periodTimeslices() * periods;
        },
        shortlist, std::move(synthetic));
}

void
BatchExperiment::runSamplePhase()
{
    Rng rng(config_.seed ^ hashLabel(spec_.label) ^ 0x5a3217e1ULL);

    const ScheduleSpace space(spec_.numUnits(), spec_.level, spec_.swap);
    schedules_ = space.sample(config_.sampleSchedules, rng);

    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config_.samplePeriods));

    if (config_.samplek > 0 && !config_.modelPath.empty()) {
        runScreenedSamplePhase(periods);
        return;
    }

    const ScheduleSweepBackend backend(runner_, makeSweep(),
                                       schedules_);
    kernel_.runSamplePhase(backend, [&](std::size_t i) {
        return schedules_[i].periodTimeslices() * periods;
    });
}

void
BatchExperiment::runSymbiosValidation(std::uint64_t symbios_cycles)
{
    const std::uint64_t cycles =
        symbios_cycles > 0 ? symbios_cycles : config_.symbiosCycles();
    const std::uint64_t timeslices =
        std::max<std::uint64_t>(1, cycles / timesliceCycles());

    const ScheduleSweepBackend backend(runner_, makeSweep(),
                                       schedules_);
    kernel_.runSymbiosValidation(
        backend, [timeslices](std::size_t) { return timeslices; });
}

void
BatchExperiment::publishStats(const stats::Group &group) const
{
    group.info("label", "experiment label") = spec_.label;
    group.scalar("sample_phase_cycles",
                 "simulated cycles spent profiling candidates")
        .bind(&kernel_.samplePhaseCyclesStorage());

    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    const std::vector<double> &symbios = kernel_.symbiosWs();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const ScheduleProfile &profile = profiles[i];
        const stats::Group cand =
            group.group("candidate" + std::to_string(i));
        cand.info("schedule", "candidate schedule label") =
            profile.label;
        cand.value("sample_ws", "WS observed during the sample phase") =
            profile.sampleWs;
        cand.value("balance", "stddev of per-timeslice IPC") =
            profile.balance();
        cand.value("diversity", "mean per-timeslice mix imbalance") =
            profile.diversity();
        if (i < symbios.size())
            cand.value("ws", "symbios-phase weighted speedup") =
                symbios[i];
        profile.counters.registerStats(cand.group("counters"));
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
BatchExperiment::recordTrace(stats::EventTrace &trace) const
{
    const std::vector<ScheduleProfile> &profiles = kernel_.profiles();
    const std::vector<double> &symbios = kernel_.symbiosWs();
    // Candidate features ride along so sostrain can join them against
    // the symbios_result labels without re-deriving the mix.
    const std::vector<model::FeatureVector> features =
        candidateFeatures();
    const std::vector<std::string> &names = model::featureNames();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        auto event =
            trace.event("sample_candidate")
                .field("experiment", spec_.label)
                .field("index", static_cast<std::uint64_t>(i))
                .field("schedule", profiles[i].label)
                .field("sample_ws", profiles[i].sampleWs)
                .field("ipc", profiles[i].counters.ipc())
                .field("features_version",
                       static_cast<std::uint64_t>(
                           model::kFeatureSchemaVersion));
        for (std::size_t f = 0; f < names.size(); ++f)
            event.field("feat_" + names[f], features[i][f]);
    }
    if (symbios.empty())
        return;

    for (const std::unique_ptr<Predictor> &predictor :
         makeAllPredictors()) {
        const int pick = predictedIndex(*predictor);
        trace.event("predictor_vote")
            .field("experiment", spec_.label)
            .field("predictor", predictor->name())
            .field("pick", pick)
            .field("schedule",
                   profiles[static_cast<std::size_t>(pick)].label)
            .field("ws", symbios[static_cast<std::size_t>(pick)]);
    }
    for (std::size_t i = 0; i < symbios.size(); ++i) {
        trace.event("symbios_result")
            .field("experiment", spec_.label)
            .field("index", static_cast<std::uint64_t>(i))
            .field("schedule", profiles[i].label)
            .field("ws", symbios[i]);
    }
}

} // namespace sos
