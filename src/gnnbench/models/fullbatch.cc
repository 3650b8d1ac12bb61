#include "gnnbench/models/fullbatch.h"

#include "gnnbench/models/driver.h"

namespace gnnbench {
namespace models {

namespace {

template <typename FW>
FullBatchResult
runFullBatch(const graph::Dataset &dataset, RunMode mode,
             int measured_epochs, uint64_t seed)
{
    device::Session session;
    profiling::PhaseTracker tracker(session);
    core::Rng rng(seed);
    const nn::KernelCtx ctx = FW::kernelCtx(
        session,
        mode == RunMode::GPU ? device::DeviceType::GPU
                             : device::DeviceType::CPU,
        dataset);

    // Everything below up to the measured loop is setup: loading,
    // model init, (for GPU) one-time movement, one warmup epoch.
    core::Rng wrng = rng.fork();
    const typename FW::Loaded ld = FW::load(dataset);
    driver::TwoLayerModel<FW, typename FW::SageConv> model(
        dataset.info.numFeatures, 256, dataset.info.numClasses, wrng,
        1e-3f);
    if (mode == RunMode::GPU)
        session.transfer(ld.features.bytes());

    auto run_epoch = [&] {
        core::ag::Var out =
            model.forward(FW::graph(ld), ld.features.clone(), ctx);
        model.update(core::ag::nllLoss(core::ag::logSoftmax(out),
                                       ld.labels, ld.trainIdx));
    };

    run_epoch();  // warmup (also pays pygx's lazy CSC conversion)

    const auto t0 = session.snapshot();
    {
        auto s = tracker.track(profiling::Phase::Training);
        for (int e = 0; e < measured_epochs; ++e)
            run_epoch();
    }
    const auto slice =
        profiling::sliceBetween(t0, session.snapshot());

    FullBatchResult result;
    result.config = configName(FW::kFramework, mode);
    result.secondsPerEpoch = slice.seconds() / measured_epochs;
    const power::PowerModel pm(power::PowerSpec{},
                               mode == RunMode::GPU);
    power::ActivitySlice per_epoch = slice;
    per_epoch.cpuBusySeconds /= measured_epochs;
    per_epoch.gpuBusySeconds /= measured_epochs;
    per_epoch.gpuUtilSeconds /= measured_epochs;
    per_epoch.xferSeconds /= measured_epochs;
    result.energyPerEpoch = pm.energyOf(per_epoch);
    return result;
}

} // namespace

FullBatchResult
trainFullBatchSage(const graph::Dataset &dataset, Framework framework,
                   RunMode mode, int measured_epochs, uint64_t seed)
{
    GNNBENCH_CHECK(mode == RunMode::CPU || mode == RunMode::GPU,
                   "full-batch training runs on CPU or GPU");
    GNNBENCH_CHECK(measured_epochs > 0, "need at least one epoch");
    if (framework == Framework::Dglx)
        return runFullBatch<driver::Dglx>(dataset, mode, measured_epochs,
                                          seed);
    return runFullBatch<driver::Pygx>(dataset, mode, measured_epochs,
                                      seed);
}

} // namespace models
} // namespace gnnbench
