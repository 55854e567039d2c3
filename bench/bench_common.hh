/**
 * @file
 * Shared setup for the figure/table reproduction benches.
 *
 * Every bench renders the six scenes at a per-eye resolution taken from
 * the environment (PCE_BENCH_WIDTH / PCE_BENCH_HEIGHT, default 512x512)
 * so users can scale runs from CI-sized to paper-sized. Threads default
 * to the hardware concurrency (PCE_BENCH_THREADS).
 */

#ifndef PCE_BENCH_BENCH_COMMON_HH
#define PCE_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/env.hh"
#include "core/pipeline.hh"
#include "perception/discrimination.hh"
#include "perception/display.hh"
#include "render/scenes.hh"

namespace pce::bench {

/** Per-eye bench resolution from the environment. */
inline int
benchWidth()
{
    return static_cast<int>(envInt("PCE_BENCH_WIDTH", 512));
}

inline int
benchHeight()
{
    return static_cast<int>(envInt("PCE_BENCH_HEIGHT", 512));
}

inline int
benchThreads()
{
    const long def = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(envInt("PCE_BENCH_THREADS", def));
}

/** Centered-fixation display geometry for the bench resolution. */
inline DisplayGeometry
benchDisplay(int w, int h)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return g;
}

/** The population discrimination model used across all benches. */
inline const AnalyticDiscriminationModel &
benchModel()
{
    static const AnalyticDiscriminationModel model;
    return model;
}

} // namespace pce::bench

#endif // PCE_BENCH_BENCH_COMMON_HH
