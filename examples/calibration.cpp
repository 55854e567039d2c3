/**
 * @file
 * calibration: the Sec. 6.5 per-user story — fit an RBF network to a
 * (simulated) per-user discrimination model, check the fit, and show
 * how conservative-vs-average calibration moves the compression /
 * visibility trade-off for a sensitive user.
 *
 *   $ ./calibration [user_scale]
 *
 * user_scale < 1 models a color-sensitive user (the paper's "visual
 * artist"); > 1 a tolerant one.
 */

#include <cstdlib>
#include <iostream>

#include "bd/bd_codec.hh"
#include "core/pipeline.hh"
#include "metrics/report.hh"
#include "perception/observer.hh"
#include "perception/rbf.hh"
#include "render/scenes.hh"

int
main(int argc, char **argv)
{
    using namespace pce;

    const double user_scale = argc > 1 ? std::atof(argv[1]) : 0.6;
    const int width = 384;
    const int height = 384;

    std::cout << "simulated user threshold scale: " << user_scale
              << (user_scale < 1.0 ? " (color-sensitive)"
                                   : " (tolerant)")
              << "\n\n";

    // The user's true thresholds: population model times their scale.
    const AnalyticDiscriminationModel population;
    const ScaledDiscriminationModel user_truth(population, user_scale);

    // Calibration fits the deployable RBF network to the user's model
    // (in a real system the ground truth comes from a short
    // psychophysical calibration session, Sec. 6.5).
    std::cout << "fitting RBF network to the user's thresholds...\n";
    const RbfDiscriminationModel user_rbf(user_truth);
    std::cout << "  " << user_rbf.centerCount()
              << " Gaussian centers, relative RMS fit error "
              << fmtDouble(user_rbf.relativeRmsError(user_truth) * 100.0,
                           1)
              << "%\n\n";

    DisplayGeometry display;
    display.width = width;
    display.height = height;
    display.fixationX = width / 2.0;
    display.fixationY = height / 2.0;
    const EccentricityMap ecc(display);

    ObserverPopulationParams op;
    const SimulatedObserver user(user_scale, op);

    TextTable table("population vs per-user encoding for this user");
    table.setHeader({"scene", "model", "bits/px", "vs raw",
                     "user sees artifacts?"});

    // Midtone scenes: observer variation is what calibration fixes.
    // (The dark-region model error of Sec. 6.3 is a *model* limitation;
    // no per-user scale can repair it, as the paper also notes.)
    for (SceneId id : {SceneId::Thai, SceneId::Office}) {
        const ImageF frame =
            renderScene(id, {width, height, 0, 0.0, 0});
        for (int which = 0; which < 2; ++which) {
            const DiscriminationModel &model =
                which == 0
                    ? static_cast<const DiscriminationModel &>(
                          population)
                    : static_cast<const DiscriminationModel &>(
                          user_rbf);
            PipelineParams params;
            params.threads = 4;
            const PerceptualEncoder encoder(model, params);
            const EncodedFrame encoded =
                encoder.encodeFrame(frame, ecc);
            const bool notices = user.noticesArtifact(
                frame, encoder.adjustFrame(frame, ecc), ecc, population);
            table.addRow(
                {sceneName(id),
                 which == 0 ? "population" : "per-user RBF",
                 fmtDouble(encoded.bdStats.bitsPerPixel(), 2),
                 fmtDouble(encoded.bdStats.reductionVsRawPercent(), 1) +
                     "%",
                 notices ? "YES" : "no"});
        }
    }
    table.print(std::cout);

    std::cout << "\nPer-user calibration trades a little compression for "
                 "a guarantee tailored to this user's\nthresholds "
                 "(Sec. 6.5: such calibrations are routine in HMD "
                 "setup, like IPD adjustment).\n";
    return 0;
}
