/**
 * @file
 * A full command-line training driver over the library: pick any
 * model, framework, placement mode, and dataset; snapshot datasets
 * and measurements for reproducible comparisons.
 *
 *   train_cli --model sage --framework dgl --mode cpugpu \
 *             --dataset reddit --scale 1 --epochs 10 \
 *             [--save-dataset d.bin | --load-dataset d.bin] \
 *             [--preload] [--prefetch] [--seed 42]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "gnnbench/core/parse.h"
#include "gnnbench/io/serialize.h"
#include "gnnbench/models/clustergcn.h"
#include "gnnbench/models/fullbatch.h"
#include "gnnbench/models/graphsage.h"
#include "gnnbench/models/graphsaint.h"

using namespace gnnbench;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --model sage|cluster|saint|fullbatch   (default sage)\n"
        "  --framework dgl|pyg                    (default dgl)\n"
        "  --mode cpu|cpugpu|gpu|uvagpu           (default cpu)\n"
        "  --dataset <table-1 name>               (default ppi)\n"
        "  --scale <mult on default scale>        (default 1)\n"
        "  --epochs <n>                           (default 3)\n"
        "  --seed <s>                             (default 42)\n"
        "  --preload            pre-load graph+features to GPU\n"
        "  --prefetch           overlap movement with compute\n"
        "  --save-dataset <f>   snapshot the synthesized dataset\n"
        "  --load-dataset <f>   run on a snapshotted dataset\n",
        argv0);
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model = "sage", framework = "dgl", mode = "cpu";
    std::string dataset = "ppi", save_ds, load_ds;
    double scale = 1.0;
    models::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.seed = 42;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            GNNBENCH_CHECK(i + 1 < argc, "missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--model")
            model = next();
        else if (arg == "--framework")
            framework = next();
        else if (arg == "--mode")
            mode = next();
        else if (arg == "--dataset")
            dataset = next();
        else if (arg == "--scale")
            scale = core::parsePositive(arg, next());
        else if (arg == "--epochs")
            cfg.epochs = core::parseInt<int>(arg, next());
        else if (arg == "--seed")
            cfg.seed = core::parseInt<uint64_t>(arg, next(), 0);
        else if (arg == "--preload")
            cfg.preloadFeatures = true;
        else if (arg == "--prefetch")
            cfg.prefetch = true;
        else if (arg == "--save-dataset")
            save_ds = next();
        else if (arg == "--load-dataset")
            load_ds = next();
        else
            usage(argv[0]);
    }

    cfg.framework = framework == "pyg" ? models::Framework::Pygx
                                       : models::Framework::Dglx;
    if (mode == "cpugpu")
        cfg.mode = models::RunMode::CPUGPU;
    else if (mode == "gpu")
        cfg.mode = models::RunMode::GPU;
    else if (mode == "uvagpu")
        cfg.mode = models::RunMode::UVAGPU;
    else
        cfg.mode = models::RunMode::CPU;

    graph::Dataset ds =
        load_ds.empty()
            ? graph::loadDataset(dataset, scale, cfg.seed)
            : io::loadDatasetFile(load_ds);
    if (!save_ds.empty()) {
        io::saveDataset(ds, save_ds);
        std::printf("dataset snapshot written to %s\n",
                    save_ds.c_str());
    }
    std::printf("%s on %s (%d nodes, %lld edges), %s-%s, %d "
                "epochs\n\n",
                model.c_str(), ds.info.name.c_str(), ds.numNodes(),
                static_cast<long long>(ds.numEdges()),
                framework.c_str(), mode.c_str(), cfg.epochs);

    if (model == "fullbatch") {
        auto r = models::trainFullBatchSage(
            ds, cfg.framework,
            cfg.mode == models::RunMode::CPU
                ? models::RunMode::CPU
                : models::RunMode::GPU,
            cfg.epochs, cfg.seed);
        std::printf("%s: %.4f s/epoch, %.1f W avg, %.2f J/epoch\n",
                    r.config.c_str(), r.secondsPerEpoch,
                    r.avgWatts(), r.energyPerEpoch.joules());
        return 0;
    }

    models::TrainResult r;
    if (model == "cluster")
        r = models::trainClusterGcn(ds, cfg);
    else if (model == "saint")
        r = models::trainGraphSaint(ds, cfg);
    else
        r = models::trainGraphSage(ds, cfg);

    std::printf("config:    %s\n", r.config.c_str());
    std::printf("loading:   %.4f s\n",
                r.phaseSeconds(profiling::Phase::DataLoading));
    std::printf("sampling:  %.4f s\n",
                r.phaseSeconds(profiling::Phase::Sampling));
    std::printf("movement:  %.4f s\n",
                r.phaseSeconds(profiling::Phase::DataMovement));
    std::printf("training:  %.4f s\n",
                r.phaseSeconds(profiling::Phase::Training));
    std::printf("total:     %.4f s\n", r.totalSeconds());
    std::printf("energy:    %.1f J (avg %.1f W)\n",
                r.energy.joules(), r.avgWatts());
    for (size_t e = 0; e < r.epochs.size(); ++e)
        std::printf("epoch %zu: loss %.4f, train acc %.3f\n", e + 1,
                    r.epochs[e].loss, r.epochs[e].accuracy());
    return 0;
}
