#include "gaze/gaze_trace.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pce {

IVTClassifier::IVTClassifier(const DisplayGeometry &geom,
                             double saccade_velocity_deg_per_sec)
    : geom_(geom), threshold_(saccade_velocity_deg_per_sec)
{
    if (!(threshold_ > 0.0))
        throw std::invalid_argument(
            "IVTClassifier: saccade velocity threshold must be > 0");
}

GazePhase
IVTClassifier::update(const GazeSample &sample)
{
    // A NaN time would stall every later velocity at 0 (t > NaN is
    // false), and a NaN position would poison the next one.
    if (!std::isfinite(sample.timeSeconds) || !std::isfinite(sample.x) ||
        !std::isfinite(sample.y))
        throw std::invalid_argument(
            "IVTClassifier::update: non-finite gaze sample");
    lastVelocity_ = 0.0;
    if (havePrev_ && sample.timeSeconds > prev_.timeSeconds) {
        const Vec3 from = geom_.viewRay(prev_.x, prev_.y);
        lastVelocity_ = viewAngleDeg(from, from.norm(),
                                     geom_.viewRay(sample.x, sample.y)) /
                        (sample.timeSeconds - prev_.timeSeconds);
    }
    havePrev_ = true;
    prev_ = sample;
    return lastVelocity_ > threshold_ ? GazePhase::Saccade
                                      : GazePhase::Fixation;
}

void
IVTClassifier::reset()
{
    havePrev_ = false;
    lastVelocity_ = 0.0;
}

std::vector<GazePhase>
classifyIVT(const GazeTrace &trace, const DisplayGeometry &geom,
            double saccade_velocity_deg_per_sec)
{
    IVTClassifier ivt(geom, saccade_velocity_deg_per_sec);
    std::vector<GazePhase> phases;
    phases.reserve(trace.samples.size());
    for (const GazeSample &s : trace.samples)
        phases.push_back(ivt.update(s));
    return phases;
}

GazeTrace
smoothPursuitTrace(double duration_seconds, double sample_hz,
                   double center_x, double center_y, double radius_px,
                   double period_seconds)
{
    if (!(duration_seconds >= 0.0) || !(sample_hz > 0.0) ||
        !(period_seconds > 0.0) || !(radius_px >= 0.0))
        throw std::invalid_argument("smoothPursuitTrace: bad params");
    GazeTrace trace;
    const auto n = static_cast<std::size_t>(
        std::floor(duration_seconds * sample_hz)) + 1;
    trace.samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / sample_hz;
        const double phase = 2.0 * M_PI * t / period_seconds;
        trace.samples.push_back(
            {t, center_x + radius_px * std::cos(phase),
             center_y + radius_px * std::sin(phase)});
    }
    return trace;
}

GazeTrace
saccadeJumpTrace(const DisplayGeometry &geom, double duration_seconds,
                 double sample_hz, double mean_fixation_seconds,
                 Rng &rng, double extent_fraction)
{
    if (!(duration_seconds >= 0.0) || !(sample_hz > 0.0) ||
        !(mean_fixation_seconds > 0.0) || !(extent_fraction > 0.0) ||
        extent_fraction > 1.0)
        throw std::invalid_argument("saccadeJumpTrace: bad params");
    const double x_lo = geom.width * (1.0 - extent_fraction) / 2.0;
    const double x_hi = geom.width - x_lo;
    const double y_lo = geom.height * (1.0 - extent_fraction) / 2.0;
    const double y_hi = geom.height - y_lo;

    GazeTrace trace;
    const auto n = static_cast<std::size_t>(
        std::floor(duration_seconds * sample_hz)) + 1;
    trace.samples.reserve(n);
    double fx = rng.uniform(x_lo, x_hi);
    double fy = rng.uniform(y_lo, y_hi);
    // Exponential dwell (clamped to one sample so every fixation is
    // observable), re-drawn after each jump.
    double next_jump =
        -mean_fixation_seconds * std::log(1.0 - rng.uniform());
    next_jump = std::max(next_jump, 1.0 / sample_hz);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / sample_hz;
        if (t >= next_jump) {
            fx = rng.uniform(x_lo, x_hi);
            fy = rng.uniform(y_lo, y_hi);
            double dwell =
                -mean_fixation_seconds * std::log(1.0 - rng.uniform());
            dwell = std::max(dwell, 1.0 / sample_hz);
            next_jump = t + dwell;
        }
        trace.samples.push_back({t, fx, fy});
    }
    return trace;
}

void
addTrackerNoise(GazeTrace &trace, double sigma_px, Rng &rng)
{
    if (!(sigma_px >= 0.0))
        throw std::invalid_argument("addTrackerNoise: sigma_px < 0");
    for (GazeSample &s : trace.samples) {
        s.x += rng.gaussian(0.0, sigma_px);
        s.y += rng.gaussian(0.0, sigma_px);
    }
}

namespace {

/** Parse one strict double field; throws on trailing garbage. */
double
parseField(const std::string &field, std::size_t line_no)
{
    std::size_t consumed = 0;
    double v = 0.0;
    try {
        v = std::stod(field, &consumed);
    } catch (const std::exception &) {
        throw std::runtime_error(
            "gaze CSV line " + std::to_string(line_no) +
            ": not a number: \"" + field + "\"");
    }
    // Allow trailing spaces only.
    for (std::size_t i = consumed; i < field.size(); ++i)
        if (field[i] != ' ' && field[i] != '\t' && field[i] != '\r')
            throw std::runtime_error(
                "gaze CSV line " + std::to_string(line_no) +
                ": trailing garbage in \"" + field + "\"");
    if (!std::isfinite(v))
        throw std::runtime_error("gaze CSV line " +
                                 std::to_string(line_no) +
                                 ": non-finite value");
    return v;
}

bool
looksNumeric(const std::string &field)
{
    for (char c : field)
        if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.')
            return true;
    return false;
}

} // namespace

GazeTrace
loadGazeTraceCsv(std::istream &in)
{
    GazeTrace trace;
    std::string line;
    std::size_t line_no = 0;
    bool first_content = true;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and surrounding whitespace.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto is_ws = [](char c) {
            return c == ' ' || c == '\t' || c == '\r';
        };
        while (!line.empty() && is_ws(line.back()))
            line.pop_back();
        std::size_t start = 0;
        while (start < line.size() && is_ws(line[start]))
            ++start;
        line.erase(0, start);
        if (line.empty())
            continue;

        std::vector<std::string> fields;
        std::stringstream ss(line);
        std::string field;
        while (std::getline(ss, field, ','))
            fields.push_back(field);
        if (first_content && !fields.empty() &&
            !looksNumeric(fields[0])) {
            first_content = false;  // header row (e.g. "time,x,y")
            continue;
        }
        first_content = false;
        if (fields.size() != 3)
            throw std::runtime_error(
                "gaze CSV line " + std::to_string(line_no) +
                ": expected 3 fields (time,x,y), got " +
                std::to_string(fields.size()));
        GazeSample s;
        s.timeSeconds = parseField(fields[0], line_no);
        s.x = parseField(fields[1], line_no);
        s.y = parseField(fields[2], line_no);
        if (!trace.samples.empty() &&
            s.timeSeconds <= trace.samples.back().timeSeconds)
            throw std::runtime_error(
                "gaze CSV line " + std::to_string(line_no) +
                ": timestamps must be strictly increasing");
        trace.samples.push_back(s);
    }
    return trace;
}

GazeTrace
loadGazeTraceCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("gaze CSV: cannot open " + path);
    return loadGazeTraceCsv(in);
}

void
saveGazeTraceCsv(const GazeTrace &trace, std::ostream &out)
{
    out << "time,x,y\n";
    out.precision(17);
    for (const GazeSample &s : trace.samples)
        out << s.timeSeconds << ',' << s.x << ',' << s.y << '\n';
}

} // namespace pce
