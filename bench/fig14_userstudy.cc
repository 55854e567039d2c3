/**
 * @file
 * Fig. 14 reproduction (simulated): number of participants, out of 11,
 * who did not notice any artifact per scene, using the simulated
 * observer population (see src/perception/observer.hh and DESIGN.md for
 * the substitution), plus the Sec. 6.3 objective-quality PSNR analysis.
 *
 * Paper shape: fortnite is clean for everyone (green shifts hide in
 * green content); the dark scenes dumbo and monkey show the most
 * artifacts; on average 2.8 of 11 participants notice something.
 * PSNR averages 46 dB with most scenes below 37 dB — subjectively
 * clean despite being numerically lossy.
 */

#include <iostream>

#include "bench_common.hh"
#include "metrics/report.hh"
#include "perception/observer.hh"

using namespace pce;

int
main()
{
    const int w = bench::benchWidth();
    const int h = bench::benchHeight();
    const EccentricityMap ecc(bench::benchDisplay(w, h));

    PipelineParams params;
    params.threads = bench::benchThreads();
    const PerceptualEncoder encoder(bench::benchModel(), params);

    ObserverPopulationParams pop_params;
    const auto population = drawObserverPopulation(pop_params);

    TextTable table("Fig. 14: simulated user study (11 participants), " +
                    std::to_string(w) + "x" + std::to_string(h));
    table.setHeader({"scene", "no-artifact count", "PSNR (dB)",
                     "mean supra-threshold frac"});

    double notice_sum = 0.0;
    double psnr_sum = 0.0;
    for (SceneId id : allScenes()) {
        const ImageF frame = renderScene(id, {w, h, 0, 0.0, 0});
        const auto encoded = encoder.encodeFrame(frame, ecc);
        const auto result = runUserStudy(
            population, frame, encoder.adjustFrame(frame, ecc), ecc,
            bench::benchModel());
        const double quality =
            psnr(toSrgb8(frame), encoded.adjustedSrgb);
        notice_sum += result.participants - result.noArtifactCount;
        psnr_sum += quality;
        table.addRow({sceneName(id),
                      std::to_string(result.noArtifactCount) + "/11",
                      fmtDouble(quality, 1),
                      fmtDouble(result.meanSupraFraction, 5)});
    }
    table.print(std::cout);

    std::cout << "\nMean participants noticing artifacts: "
              << fmtDouble(notice_sum / 6.0, 1)
              << " of 11 (paper: 2.8, sd 1.5)\n";
    std::cout << "Mean PSNR: " << fmtDouble(psnr_sum / 6.0, 1)
              << " dB (paper: 46.0 dB mean, most scenes < 37 dB -- low "
                 "PSNR with clean subjective quality is the point)\n";
    return 0;
}
