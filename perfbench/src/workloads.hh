/**
 * @file
 * The benchmark's three workloads: their fixed configuration, the
 * seeded inputs they replay, the live runs against the encode service
 * (and delivery tier), and the after-the-fact correctness check against
 * a serial single-shot encoder.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gaze/gaze_trace.hh"
#include "image/image.hh"
#include "net/delivery.hh"
#include "obs/trace.hh"
#include "perception/discrimination.hh"
#include "perception/display.hh"
#include "service/encode_service.hh"
#include "stats.hh"

namespace perfbench {

/** Fixed configuration of one workload (README.md says why each). */
struct WorkloadSpec
{
    const char *name = "";
    int width = 0;
    int height = 0;
    int streams = 0;
    /** ServiceParams::threads / shards. */
    int threads = 1;
    std::size_t shards = 1;
    /** Eye-tracked streams (openGazeStream) driven by a scanpath. */
    bool gaze = false;
    /** A DeliverySession per stream over a seeded LossyChannel. */
    bool delivery = false;
    /** Open loop: frames due at rateHz per stream. */
    double rateHz = 0.0;
    /** Latency limit a frame must meet: one frame period. */
    double limitMs = 0.0;
    bool verifyRoundTrip = false;
    bool hardenIntegrity = false;
    /** Distinct frames each stream cycles through. */
    int poolPerStream = 8;
    /** Delivery link provisioning, bits per pixel per frame: the rate
     *  controller's floor budget (a property of the deployment, fixed
     *  so that a larger encoded frame has to shed more). */
    double provisionBitsPerPixel = 0.0;
};

/** The workload named @p name, or nullptr. BENCHMARK.json lists the
 *  gated ones; README.md says why hmd_gaze is not among them. */
const WorkloadSpec *findWorkload(const std::string &name);

/** CPU time all threads of this process have run, seconds. Time the
 *  hypervisor gives a vCPU to another guest (steal) is not in it. */
double processCpuSeconds();

/** The discrimination model every encoder of the benchmark uses. */
const pce::DiscriminationModel &benchModel();

/** Everything a run replays, generated from the seed at set-up. */
struct Inputs
{
    WorkloadSpec spec;
    pce::DisplayGeometry geom;  ///< centred fixation
    /** Eccentricity map of the static streams (centred fixation). */
    std::unique_ptr<pce::EccentricityMap> ecc;
    std::vector<pce::ImageF> pool;
    /** Per stream: the pool indices it cycles through. */
    std::vector<std::vector<int>> cycle;
    /** One gaze sample per frame index, shared by both eyes of a gaze
     *  workload (static workloads replay it only through the gaze
     *  layer); timestamps come from the script. */
    pce::GazeTrace scanpath;
    /** Per stream: base seed of its lossy channel. */
    std::vector<std::uint64_t> channelSeeds;

    const pce::ImageF &frame(int stream, std::size_t k) const
    {
        const std::vector<int> &c =
            cycle[static_cast<std::size_t>(stream)];
        return pool[static_cast<std::size_t>(c[k % c.size()])];
    }
    /** Frames due per stream in a run of @p seconds (warm-up
     *  excluded); the same for every run and every commit. */
    std::size_t measuredFrames(double seconds) const;
    std::size_t warmupFrames() const;
};

/**
 * Generate a workload's inputs from @p seed: frame pool, per-stream
 * cycles, scanpath (long enough for @p max_seconds of frames) and
 * channel seeds. Same seed, same inputs.
 */
Inputs makeInputs(const WorkloadSpec &spec, std::uint64_t seed,
                  double max_seconds);

/** One collected result, checked against the reference afterwards. */
struct Observation
{
    int stream = 0;
    /** Stream-local input index the result encodes. */
    std::size_t seq = 0;
    /** hash64 of the collected bdStream, or, for delivered frames, of
     *  the byte-identical image the receiver reassembled. */
    std::uint64_t hash = 0;
    bool delivered = false;
};

/** Delivery-tier totals of a lossy_delivery run's measured frames. */
struct DeliveryTotals
{
    std::size_t frames = 0;  ///< deliverNext calls that delivered
    std::size_t fovealIntact = 0;
    std::size_t tilesDelivered = 0;
    std::size_t tilesDue = 0;
    std::size_t bytesSent = 0;
};

/** What one live run measured and saw. */
struct LiveResult
{
    FrameLedger ledger{0.0};
    /** Time the producer spent inside submit(), measured frames. */
    std::vector<double> submitMs;
    /** How late the generator issued each submit, against its due
     *  time. */
    std::vector<double> generatorLateMs;
    /** Completion time of every completed measured frame, seconds
     *  since measurement started (throughput_mps windows these). */
    std::vector<double> doneSeconds;
    /** Every result collected (warm-up included), for the check. */
    std::vector<Observation> observed;
    /** Frames submitted per stream (warm-up included). */
    std::vector<std::size_t> submitted;
    DeliveryTotals delivery;
    /** Correctness failures found while running. */
    std::vector<std::string> errors;
    /** Service reports at the start and end of the run. */
    pce::ServiceReport before;
    pce::ServiceReport after;
    /** Longest queue wait any stream's queue-latency histogram in
     *  EncodeService::metrics() recorded. */
    double histogramQueueMaxMs = 0.0;
    /** Traced runs: every span the run recorded. */
    std::vector<pce::obs::TraceEvent> events;
    std::uint64_t droppedEvents = 0;
    /** CPU time the whole process ran while the measured frames were
     *  due and collected (steal excluded). */
    double cpuSeconds = 0.0;
};

/**
 * Set up the service (and delivery sessions) for @p in, run the
 * workload for @p seconds of measured frames after a short warm-up,
 * and tear everything down. @p traced turns the obs tracer on for the
 * run and returns its spans.
 */
LiveResult runLive(const Inputs &in, double seconds, bool traced);

/** Build the service side of a run and tear it down again: the part
 *  of set-up that runLive repeats. */
void constructAndDestroyRig(const Inputs &in);

/** Sender policy of delivery stream @p stream: adaptive rate control
 *  with the workload's fixed link provisioning. */
pce::net::SenderPolicy deliveryPolicy(const WorkloadSpec &spec, int stream,
                                      std::uint32_t trace_id);
/** Channel impairments of one phase of the step loss schedule. */
pce::net::LossyChannelConfig channelConfig(std::uint64_t seed, bool lossy);
/** Frame @p k of @p total falls in the lossy middle third. */
bool lossyPhase(std::size_t k, std::size_t total);

/** Outcome of the serial single-shot re-encode. */
struct Verification
{
    std::vector<std::string> errors;
    /** Collected results that differ from the reference. */
    std::size_t mismatched = 0;
    std::size_t checkedFrames = 0;
    std::size_t decodedFrames = 0;
    /** BD bits per pixel / stream bytes per frame over the run's
     *  reference set (deterministic for a seed). */
    double bitsPerPixel = 0.0;
    double streamBytesPerFrame = 0.0;
};

/**
 * Re-encode every input @p live observed with a serial single-shot
 * PerceptualEncoder (gaze streams through encodeFrameGazeInto with the
 * same samples), require every observed hash to match, and decode a
 * sample of the reference streams with BdCodec::decodeInto against
 * their adjustedSrgb.
 */
Verification verifyRun(const Inputs &in, const LiveResult &live);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
