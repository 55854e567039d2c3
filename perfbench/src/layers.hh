/**
 * @file
 * The traced run's per-layer metrics: a replay of a workload's inputs
 * through each layer's public call at 1, 2 and 4 participants, and the
 * service-layer numbers of a traced live run read from ServiceReport
 * and the recorded spans.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct LayerReport
{
    std::vector<Metric> metrics;
    /** Correctness failures (byte-identity, decode, seal). */
    std::vector<std::string> errors;
    /** Human-readable findings, e.g. a stage slower at 4 participants
     *  than at 1. */
    std::vector<std::string> flags;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/**
 * Replay @p in's frames through adjustFrameInto, toSrgb8Into,
 * BdCodec::encodeInto, encodeFrameInto and BdCodec::decodeInto at 1, 2
 * and 4 participants (asserting that the decomposed stream is
 * byte-identical to encodeFrameInto's), read the self times of the bd
 * stage spans at 1 and 4, time the frame seal, the gaze updater over the scanpath,
 * and the packetizer and delivery loop over the step loss schedule.
 */
void replayLayers(const Inputs &in, LayerReport &out);

/**
 * Service-layer metrics of the traced live run @p traced: submit,
 * queue-wait, collect-wait and dispatch times from the service's own
 * spans, occupancy, steals, queue peak and pool participation from its
 * reports. Cross-checks the service's queue wait against the
 * benchmark's frame latency.
 */
void serviceLayers(const LiveResult &traced, LayerReport &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
