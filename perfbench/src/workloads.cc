#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/integrity.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "net/delivery.hh"
#include "render/scenes.hh"

namespace perfbench {

using namespace pce;
using namespace std::chrono_literals;

namespace {

/** Open-loop frames run before measurement starts (caches, pools). */
constexpr double kWarmupSeconds = 1.0;
/** Fixation dwell between the scanpath's scripted saccades. */
constexpr double kDwellSeconds = 0.9;
/** Scanpath the gaze layer replays on static workloads. */
constexpr std::size_t kStaticScanpathFrames = 400;
constexpr double kStaticScanpathHz = 20.0;
/** A collect that waits this long means the service wedged. */
constexpr std::chrono::milliseconds kStallTimeout{10000};

/**
 * The per-stream frame rates were calibrated once (README.md,
 * "Calibration") at about half the capacity of a loaded host or less,
 * and are fixed here: recomputing them per run would offer a faster
 * encoder more load and hide the gain.
 */
const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    {
        WorkloadSpec s;
        s.name = "hmd_gaze";
        s.width = s.height = 256;
        s.streams = 2;
        s.threads = 4;
        s.shards = 1;
        s.gaze = true;
        s.rateHz = 17.0;
        s.limitMs = 1000.0 / s.rateHz;
        s.poolPerStream = 16;
        w.push_back(s);
    }
    {
        WorkloadSpec s;
        s.name = "fleet_small";
        s.width = s.height = 128;
        s.streams = 32;
        s.threads = 4;
        s.shards = 4;
        s.rateHz = 20.0;
        s.limitMs = 1000.0 / s.rateHz;
        s.poolPerStream = 16;
        w.push_back(s);
    }
    {
        WorkloadSpec s;
        s.name = "lossy_delivery";
        s.width = s.height = 256;
        s.streams = 2;
        s.threads = 2;
        s.shards = 2;
        s.delivery = true;
        s.rateHz = 20.0;
        s.limitMs = 1000.0 / s.rateHz;
        s.verifyRoundTrip = true;
        s.hardenIntegrity = true;
        s.poolPerStream = 16;
        s.provisionBitsPerPixel = 12.0;
        w.push_back(s);
    }
    return w;
}();

PipelineParams
referencePipeline()
{
    // Same tile size and foveal cutoff as ServiceParams' defaults, one
    // participant: the serial single-shot reference encoder.
    PipelineParams p;
    p.threads = 1;
    return p;
}

/** Seeded smooth pursuit around a centre that jumps to a new seeded
 *  point every kDwellSeconds (the scripted saccades), plus tracker
 *  noise. The script's clock does not depend on the seed, so every
 *  seed has the same number of saccades. */
GazeTrace
makeScanpath(const DisplayGeometry &g, std::size_t n, double hz, Rng &rng)
{
    // floor(duration * hz) + 1 samples; the half-sample margin keeps
    // the floor away from a rounding edge.
    const double duration = (static_cast<double>(n) - 0.5) / hz;
    GazeTrace t = smoothPursuitTrace(duration, hz, 0.0, 0.0,
                                     0.06 * g.width, 2.0);
    double cx = g.width / 2.0;
    double cy = g.height / 2.0;
    double next_jump = kDwellSeconds;
    for (GazeSample &s : t.samples) {
        if (s.timeSeconds >= next_jump) {
            cx = rng.uniform(0.2, 0.8) * g.width;
            cy = rng.uniform(0.2, 0.8) * g.height;
            next_jump += kDwellSeconds;
        }
        s.x += cx;
        s.y += cy;
    }
    addTrackerNoise(t, 0.6, rng);
    t.samples.resize(n);
    return t;
}

struct Rig
{
    std::unique_ptr<EncodeService> svc;
    std::vector<StreamHandle> handles;
    std::vector<std::unique_ptr<net::LossyChannel>> channels;
    /** Declared last: sessions borrow the service and the channels. */
    std::vector<std::unique_ptr<net::DeliverySession>> sessions;
};

std::size_t
tilesPerFrame(const WorkloadSpec &s)
{
    return static_cast<std::size_t>((s.width + 3) / 4) *
           static_cast<std::size_t>((s.height + 3) / 4);
}

Rig
makeRig(const Inputs &in)
{
    const WorkloadSpec &sp = in.spec;
    ServiceParams params;
    params.threads = sp.threads;
    params.shards = sp.shards;
    params.verifyRoundTrip = sp.verifyRoundTrip;
    params.hardenIntegrity = sp.hardenIntegrity;
    Rig rig;
    rig.svc = std::make_unique<EncodeService>(benchModel(), params);
    for (int s = 0; s < sp.streams; ++s) {
        const std::string name =
            std::string(sp.name) + "/" + std::to_string(s);
        rig.handles.push_back(sp.gaze
                                  ? rig.svc->openGazeStream(name, in.geom)
                                  : rig.svc->openStream(name, *in.ecc));
        if (!sp.delivery)
            continue;
        rig.channels.push_back(std::make_unique<net::LossyChannel>(
            channelConfig(in.channelSeeds[static_cast<std::size_t>(s)],
                          false)));
        rig.sessions.push_back(std::make_unique<net::DeliverySession>(
            *rig.svc, rig.handles.back(), *rig.channels.back(),
            deliveryPolicy(sp, s,
                           rig.svc->streamTraceId(rig.handles.back())),
            in.ecc.get()));
    }
    return rig;
}

Outcome
collectOne(EncodeService &svc, StreamHandle h, FrameLease &lease)
{
    try {
        lease = svc.collectFor(h, kStallTimeout);
    } catch (const FrameQuarantined &) {
        return Outcome::Quarantined;
    } catch (const std::exception &) {
        return Outcome::Failed;
    }
    if (!lease.valid())
        throw std::runtime_error("encode service stalled for 10 s");
    return Outcome::Completed;
}

/** Collect (and drop) finished frames until @p done is set, so that a
 *  generator blocked on backpressure can see it should stop. */
void
drainUntil(const std::atomic<bool> &done, Rig &rig)
{
    while (!done.load()) {
        for (const StreamHandle h : rig.handles) {
            try {
                rig.svc->tryCollect(h);
            } catch (const std::exception &) {
                // A failed frame is still collected; keep draining.
            }
        }
        std::this_thread::sleep_for(1ms);
    }
}

void
runOpenLoop(const Inputs &in, Rig &rig, double seconds, LiveResult &r)
{
    const WorkloadSpec &sp = in.spec;
    const int streams = sp.streams;
    const std::size_t warmup = in.warmupFrames();
    const std::size_t total = warmup + in.measuredFrames(seconds);
    const DueSchedule sched{Clock::now() + 20ms, 1000.0 / sp.rateHz,
                            streams};

    // Generator: one thread issuing every submit at its due time.
    std::vector<std::atomic<std::size_t>> submitted(
        static_cast<std::size_t>(streams));
    std::exception_ptr gen_error;
    std::atomic<bool> gen_done{false};
    std::atomic<bool> stop{false};
    std::thread gen([&] {
        try {
            for (std::size_t k = 0; k < total && !stop.load(); ++k)
                for (int s = 0; s < streams; ++s) {
                    const auto su = static_cast<std::size_t>(s);
                    const Clock::time_point due = sched.due(k, s);
                    std::this_thread::sleep_until(due);
                    const Clock::time_point t0 = Clock::now();
                    if (sp.gaze)
                        rig.svc->submit(rig.handles[su], in.frame(s, k),
                                        in.scanpath.samples[k]);
                    else
                        rig.svc->submit(rig.handles[su], in.frame(s, k));
                    const Clock::time_point t1 = Clock::now();
                    if (k >= warmup) {
                        r.submitMs.push_back(msBetween(t0, t1));
                        r.generatorLateMs.push_back(msBetween(due, t0));
                    }
                    submitted[su].store(k + 1, std::memory_order_release);
                    submitted[su].notify_all();
                }
        } catch (...) {
            gen_error = std::current_exception();
            for (auto &c : submitted) {
                c.store(static_cast<std::size_t>(-1));
                c.notify_all();
            }
        }
        gen_done.store(true);
    });

    // Consumer: this thread, in due order. Every frame is timed from
    // its own due time. A delivery whose encode misses the collect
    // deadline finalizes that frame id as a temporal hold and leaves
    // the frame owed; the consumer keeps delivering until the slot's
    // frame is out, so a late encode costs late frames, never a stream
    // that stays behind (or a generator blocked on its slots while the
    // consumer waits for another stream's submit).
    const std::size_t tiles = tilesPerFrame(sp);
    std::vector<std::size_t> next_input(static_cast<std::size_t>(streams));
    std::vector<ImageU8> delivered(static_cast<std::size_t>(streams));
    std::vector<int> phase(static_cast<std::size_t>(streams), -1);
    const Clock::time_point measure_start = sched.due(warmup, 0);
    auto settle = [&](int s, std::size_t j, Clock::time_point done,
                      Outcome outcome) {
        if (j < warmup)
            return;
        r.ledger.record(sched.due(j, s), done, outcome);
        if (outcome == Outcome::Completed)
            r.doneSeconds.push_back(msBetween(measure_start, done) / 1e3);
    };
    auto await_submit = [&](std::size_t su) {
        std::size_t seen;
        while ((seen = submitted[su].load(std::memory_order_acquire)) <=
               next_input[su])
            submitted[su].wait(seen, std::memory_order_acquire);
        if (seen == static_cast<std::size_t>(-1))
            throw std::runtime_error("generator failed");
    };
    double cpu_start = 0.0;
    try {
        for (std::size_t k = 0; k < total; ++k)
            for (int s = 0; s < streams; ++s) {
                const auto su = static_cast<std::size_t>(s);
                // The warm-up frames are out (a delivery still owed
                // after a timeout aside) before the first measured one
                // is due, so the CPU clock starts on a frame boundary.
                if (k == warmup && s == 0)
                    cpu_start = processCpuSeconds();
                std::this_thread::sleep_until(sched.due(k, s));
                if (!sp.delivery) {
                    await_submit(su);
                    FrameLease lease;
                    const Outcome outcome =
                        collectOne(*rig.svc, rig.handles[su], lease);
                    settle(s, next_input[su]++, Clock::now(), outcome);
                    if (lease.valid())
                        r.observed.push_back(
                            {s, k,
                             hash64(lease->bdStream.data(),
                                    lease->bdStream.size()),
                             false});
                    continue;
                }
                const bool lossy = lossyPhase(k, total);
                if (phase[su] != (lossy ? 1 : 0)) {
                    // Phase boundary: a fresh channel, so no copy in
                    // flight crosses from one phase into the next.
                    phase[su] = lossy ? 1 : 0;
                    *rig.channels[su] = net::LossyChannel(channelConfig(
                        in.channelSeeds[su] + 0x9e3779b97f4a7c15ULL * k,
                        lossy));
                }
                while (next_input[su] <= k) {
                    await_submit(su);
                    const std::size_t j = next_input[su];
                    Outcome outcome = Outcome::Completed;
                    net::DeliveryReport rep;
                    try {
                        rep = rig.sessions[su]->deliverNext(
                            delivered[su],
                            std::chrono::milliseconds(
                                static_cast<long>(sp.limitMs)));
                    } catch (const FrameQuarantined &) {
                        outcome = Outcome::Quarantined;
                    } catch (const std::exception &) {
                        outcome = Outcome::Failed;
                    }
                    const Clock::time_point done = Clock::now();
                    DeliveryTotals &d = r.delivery;
                    if (k >= warmup)
                        d.tilesDue += tiles;
                    if (outcome == Outcome::Completed && rep.encodeTimedOut) {
                        // A temporal hold went out; frame j is still
                        // owed and is delivered, late, on the next call.
                        if (done - sched.due(j, s) > kStallTimeout)
                            throw std::runtime_error(
                                "encode service stalled for 10 s");
                        continue;
                    }
                    ++next_input[su];
                    settle(s, j, done, outcome);
                    if (outcome != Outcome::Completed)
                        continue;
                    if (k >= warmup) {
                        ++d.frames;
                        d.fovealIntact += rep.fovealIntact ? 1 : 0;
                        d.tilesDelivered += rep.frame.deliveredTiles;
                        d.bytesSent += rep.bytesSent;
                    }
                    if (rep.frame.byteIdentical)
                        r.observed.push_back(
                            {s, j,
                             hash64(delivered[su].data().data(),
                                    delivered[su].data().size()),
                             true});
                    else if (!lossy && rep.shedBytes == 0)
                        r.errors.push_back(
                            "stream " + std::to_string(s) + " frame " +
                            std::to_string(j) +
                            ": clean-phase frame not byte-identical");
                }
            }
    } catch (...) {
        stop.store(true);
        drainUntil(gen_done, rig);
        gen.join();
        throw;
    }
    r.cpuSeconds = processCpuSeconds() - cpu_start;
    gen.join();
    if (gen_error)
        std::rethrow_exception(gen_error);
    r.submitted.assign(static_cast<std::size_t>(streams), total);
}

} // namespace

net::LossyChannelConfig
channelConfig(std::uint64_t seed, bool lossy)
{
    net::LossyChannelConfig c;
    c.seed = seed;
    if (lossy) {
        c.dropRate = 0.25;
        c.duplicateRate = 0.02;
        c.corruptRate = 0.02;
        c.reorderRate = 0.10;
    }
    return c;
}

net::SenderPolicy
deliveryPolicy(const WorkloadSpec &spec, int stream, std::uint32_t trace_id)
{
    net::SenderPolicy p;
    p.sessionId = 0x5e55 + static_cast<std::uint64_t>(stream);
    p.streamId = trace_id;
    p.adaptiveRate = true;
    const std::size_t frame_bytes = static_cast<std::size_t>(
        spec.width * spec.height * spec.provisionBitsPerPixel / 8.0);
    const std::size_t rounds = static_cast<std::size_t>(p.deadlineRounds);
    net::RateControlParams &rc = p.rateControl;
    rc.minBudgetBytesPerRound =
        std::max<std::size_t>(2 * p.mtuBytes, frame_bytes / rounds);
    rc.initialBudgetBytesPerRound = rc.minBudgetBytesPerRound;
    rc.maxBudgetBytesPerRound = 2 * rc.minBudgetBytesPerRound;
    rc.additiveIncreaseBytes =
        std::max<std::size_t>(p.mtuBytes, frame_bytes / 64);
    rc.multiplicativeDecrease = 0.9;
    return p;
}

/** The step loss schedule (clean, lossy, clean) for frame @p k. */
bool
lossyPhase(std::size_t k, std::size_t total)
{
    return net::scheduledDropRate(net::LossScheduleId::Step,
                                  static_cast<int>(k),
                                  static_cast<int>(total)) > 0.0;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

const DiscriminationModel &
benchModel()
{
    static const AnalyticDiscriminationModel model;
    return model;
}

std::size_t
Inputs::measuredFrames(double seconds) const
{
    return static_cast<std::size_t>(std::llround(spec.rateHz * seconds));
}

std::size_t
Inputs::warmupFrames() const
{
    return static_cast<std::size_t>(std::ceil(spec.rateHz * kWarmupSeconds));
}

Inputs
makeInputs(const WorkloadSpec &spec, std::uint64_t seed, double max_seconds)
{
    Inputs in;
    in.spec = spec;
    in.geom.width = spec.width;
    in.geom.height = spec.height;
    in.geom.horizontalFovDeg = 100.0;
    in.geom.fixationX = spec.width / 2.0;
    in.geom.fixationY = spec.height / 2.0;
    in.ecc = std::make_unique<EccentricityMap>(in.geom);

    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL);
    // Each stream's frames sample the scene's whole 20 s loop at evenly
    // spaced times; the seed shifts the phase and the render noise, so
    // every seed sees content of the same mix and cost.
    const double phase = rng.uniform(0.0, 1.0);
    const int per = spec.poolPerStream;
    auto loop_time = [&](int i) { return (i + phase) * 20.0 / per; };

    // The frame pool: a stereo clip for the two-stream workloads (the
    // headset's eyes, or two eye streams of one delivered scene), a
    // scene mix shared by the small streams.
    struct Job
    {
        SceneId scene;
        int eye;
        double time;
    };
    std::vector<Job> jobs;
    if (spec.streams <= 2) {
        const SceneId scene = spec.gaze ? SceneId::Office : SceneId::Skyline;
        for (int s = 0; s < spec.streams; ++s) {
            std::vector<int> c;
            for (int i = 0; i < per; ++i) {
                c.push_back(static_cast<int>(jobs.size()));
                jobs.push_back({scene, s, loop_time(i)});
            }
            in.cycle.push_back(c);
        }
    } else {
        const std::vector<SceneId> &scenes = allScenes();
        for (int i = 0; i < per; ++i)
            jobs.push_back({scenes[static_cast<std::size_t>(i) %
                                   scenes.size()],
                            0, loop_time(i)});
        for (int s = 0; s < spec.streams; ++s) {
            std::vector<int> c;
            for (int i = 0; i < per; ++i)
                c.push_back((s + i) % per);
            in.cycle.push_back(c);
        }
    }
    in.pool.resize(jobs.size());
    // Two generator threads render the pool, each taking the next
    // unrendered frame, so that a thread the host slows does not hold
    // up a fixed half of the set-up.
    std::atomic<std::size_t> next_job{0};
    auto render = [&] {
        for (std::size_t i; (i = next_job.fetch_add(1)) < jobs.size();) {
            RenderOptions o;
            o.width = spec.width;
            o.height = spec.height;
            o.eye = jobs[i].eye;
            o.time = jobs[i].time;
            in.pool[i] = renderScene(jobs[i].scene, o);
        }
    };
    std::thread helper(render);
    render();
    helper.join();

    // Static workloads replay a scanpath only through the gaze layer
    // of the traced run.
    in.scanpath =
        spec.gaze
            ? makeScanpath(in.geom,
                           in.warmupFrames() +
                               in.measuredFrames(max_seconds) + 1,
                           spec.rateHz, rng)
            : makeScanpath(in.geom, kStaticScanpathFrames,
                           kStaticScanpathHz, rng);
    for (int s = 0; s < spec.streams; ++s)
        in.channelSeeds.push_back(rng.next());
    return in;
}

void
constructAndDestroyRig(const Inputs &in)
{
    Rig rig = makeRig(in);
}

namespace {

/**
 * Hold every slot of every static stream at once, so that the service
 * has allocated each slot's buffers before the run: whether an open
 * loop ever fills a stream's second slot depends on how fast the host
 * runs, and peak_rss_mb must not. Gaze streams are left alone (a frame
 * would advance their gaze state).
 */
void
fillEverySlot(const Inputs &in, Rig &rig)
{
    if (in.spec.gaze)
        return;
    const int depth = ServiceParams().streamDepth;
    for (std::size_t s = 0; s < rig.handles.size(); ++s) {
        for (int i = 0; i < depth; ++i)
            rig.svc->submit(rig.handles[s],
                            in.frame(static_cast<int>(s),
                                     static_cast<std::size_t>(i)));
        for (int i = 0; i < depth; ++i) {
            FrameLease lease;
            if (collectOne(*rig.svc, rig.handles[s], lease) !=
                Outcome::Completed)
                throw std::runtime_error("a warm-up frame failed");
        }
    }
}

} // namespace

LiveResult
runLive(const Inputs &in, double seconds, bool traced)
{
    Rig rig = makeRig(in);
    // Not in a traced run: its spans must cover every frame the
    // service's own histograms saw.
    if (!traced)
        fillEverySlot(in, rig);
    LiveResult r;
    r.ledger = FrameLedger(in.spec.limitMs);
    obs::Tracer &tracer = obs::Tracer::instance();
    if (traced) {
        tracer.setCapacityPerThread(std::size_t(1) << 17);
        tracer.reset();
        obs::setTraceEnabled(true);
    }
    r.before = rig.svc->report();
    runOpenLoop(in, rig, seconds, r);
    if (traced) {
        obs::setTraceEnabled(false);
        r.events = tracer.collect();
        r.droppedEvents = tracer.droppedEvents();
        tracer.reset();
    }
    r.after = rig.svc->report();
    for (const obs::MetricsRegistry::Reading &m :
         rig.svc->metrics().snapshot())
        if (m.name.rfind("stream/", 0) == 0 &&
            m.kind == obs::MetricsRegistry::Reading::Kind::Histogram)
            r.histogramQueueMaxMs =
                std::max(r.histogramQueueMaxMs, m.maxValue);
    return r;
}

Verification
verifyRun(const Inputs &in, const LiveResult &live)
{
    const WorkloadSpec &sp = in.spec;
    const auto streams = static_cast<std::size_t>(sp.streams);
    const double pixels = static_cast<double>(sp.width) * sp.height;
    struct Ref
    {
        std::uint64_t bdHash = 0;
        std::uint64_t srgbHash = 0;
        std::size_t bits = 0;
        std::size_t bytes = 0;
        bool done = false;
    };
    Verification v;
    std::atomic<std::size_t> decoded{0};
    auto fill = [&](Ref &ref, EncodedFrame &out, bool decode,
                    std::vector<std::string> &errs) {
        ref.bdHash = hash64(out.bdStream.data(), out.bdStream.size());
        ref.srgbHash = hash64(out.adjustedSrgb.data().data(),
                              out.adjustedSrgb.data().size());
        ref.bits = out.bdStats.totalBits();
        ref.bytes = out.bdStream.size();
        ref.done = true;
        if (!decode)
            return;
        ImageU8 img;
        BdCodec::decodeInto(out.bdStream, img);
        if (!(img == out.adjustedSrgb))
            errs.push_back("decodeInto does not reproduce adjustedSrgb");
        ++decoded;
    };

    // Four verification threads; per-thread error lists merged below.
    constexpr int kThreads = 4;
    std::vector<std::vector<std::string>> errs(kThreads);
    std::vector<std::vector<Ref>> gaze_ref(streams);
    std::vector<Ref> pool_ref(in.pool.size());
    std::vector<std::thread> workers;
    if (sp.gaze) {
        // Each eye's gaze state is sequential, so every thread replays
        // the whole sample sequence through its own state and encodes
        // only its share of the frames (an update-only step leaves the
        // state exactly as encodeFrameGazeInto would).
        const int parts = std::max(1, kThreads / sp.streams);
        for (std::size_t s = 0; s < streams; ++s)
            gaze_ref[s].resize(live.submitted[s]);
        for (int t = 0; t < sp.streams * parts; ++t)
            workers.emplace_back([&, t] {
                const auto s = static_cast<std::size_t>(t % sp.streams);
                const int part = t / sp.streams;
                GazeTrackedEccentricity gaze(in.geom);
                const PerceptualEncoder enc(benchModel(),
                                            referencePipeline());
                EncodedFrame out;
                for (std::size_t k = 0; k < gaze_ref[s].size(); ++k) {
                    const GazeSample &g = in.scanpath.samples[k];
                    if (static_cast<int>(k % static_cast<std::size_t>(
                                             parts)) != part) {
                        gaze.update(g);
                        continue;
                    }
                    enc.encodeFrameGazeInto(
                        in.frame(static_cast<int>(s), k), gaze, g, out);
                    fill(gaze_ref[s][k], out, k % 16 == 0,
                         errs[static_cast<std::size_t>(t)]);
                }
            });
    } else {
        for (int t = 0; t < kThreads; ++t)
            workers.emplace_back([&, t] {
                const PerceptualEncoder enc(benchModel(),
                                            referencePipeline());
                EncodedFrame out;
                for (std::size_t i = static_cast<std::size_t>(t);
                     i < in.pool.size(); i += kThreads) {
                    enc.encodeFrameInto(in.pool[i], *in.ecc, out);
                    fill(pool_ref[i], out, true,
                         errs[static_cast<std::size_t>(t)]);
                }
            });
    }
    for (std::thread &w : workers)
        w.join();
    for (const auto &e : errs)
        v.errors.insert(v.errors.end(), e.begin(), e.end());
    v.decodedFrames = decoded.load();

    auto ref_for = [&](std::size_t s, std::size_t k) -> const Ref & {
        if (sp.gaze)
            return gaze_ref[s][k];
        const std::vector<int> &c = in.cycle[s];
        return pool_ref[static_cast<std::size_t>(c[k % c.size()])];
    };
    std::size_t mismatches = 0;
    for (const Observation &o : live.observed) {
        const auto s = static_cast<std::size_t>(o.stream);
        if (o.seq >= live.submitted[s] || !ref_for(s, o.seq).done) {
            ++mismatches;
            continue;
        }
        const Ref &ref = ref_for(s, o.seq);
        if (o.hash != (o.delivered ? ref.srgbHash : ref.bdHash))
            ++mismatches;
        ++v.checkedFrames;
    }
    v.mismatched = mismatches;
    if (mismatches)
        v.errors.push_back(std::to_string(mismatches) +
                           " collected frames differ from the serial "
                           "single-shot encode");

    // The reference set: every due frame, fixed by the seed.
    double bits = 0.0;
    double bytes = 0.0;
    std::size_t frames = 0;
    for (std::size_t s = 0; s < streams; ++s) {
        for (std::size_t k = 0; k < live.submitted[s]; ++k) {
            const Ref &ref = ref_for(s, k);
            bits += static_cast<double>(ref.bits);
            bytes += static_cast<double>(ref.bytes);
            ++frames;
        }
    }
    if (frames) {
        v.bitsPerPixel = bits / (pixels * static_cast<double>(frames));
        v.streamBytesPerFrame = bytes / static_cast<double>(frames);
    }
    return v;
}

} // namespace perfbench
