#include "image/image.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "color/srgb.hh"

namespace pce {

ImageF::ImageF(int width, int height, const Vec3 &fill)
    : width_(width), height_(height),
      pixels_(static_cast<std::size_t>(width) * height, fill)
{
    if (width < 0 || height < 0)
        throw std::invalid_argument("ImageF: negative dimensions");
}

double
ImageF::meanLuminance() const
{
    if (pixels_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &p : pixels_)
        sum += 0.2126 * p.x + 0.7152 * p.y + 0.0722 * p.z;
    return sum / static_cast<double>(pixels_.size());
}

Vec3
ImageF::meanColor() const
{
    Vec3 sum;
    for (const auto &p : pixels_)
        sum += p;
    return pixels_.empty() ? sum : sum / static_cast<double>(pixels_.size());
}

ImageU8::ImageU8(int width, int height)
    : width_(width), height_(height),
      data_(static_cast<std::size_t>(width) * height * 3, 0)
{
    if (width < 0 || height < 0)
        throw std::invalid_argument("ImageU8: negative dimensions");
}

ImageU8
toSrgb8(const ImageF &linear)
{
    ImageU8 out;
    toSrgb8Into(linear, out);
    return out;
}

void
toSrgb8Into(const ImageF &linear, ImageU8 &out)
{
    if (out.width() != linear.width() ||
        out.height() != linear.height())
        out = ImageU8(linear.width(), linear.height());
    // Pixels are contiguous row-major in both images: one batched call.
    linearToSrgb8(linear.pixels().data(), linear.pixelCount(),
                  out.data().data());
}

ImageF
toLinear(const ImageU8 &srgb)
{
    ImageF out(srgb.width(), srgb.height());
    for (int y = 0; y < srgb.height(); ++y) {
        for (int x = 0; x < srgb.width(); ++x)
            out.at(x, y) = srgb8ToLinear(srgb.pixel(x, y));
    }
    return out;
}

double
meanSquaredError(const ImageU8 &a, const ImageU8 &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        throw std::invalid_argument("meanSquaredError: size mismatch");
    if (a.data().empty())
        return 0.0;
    double sum = 0.0;
    const auto &da = a.data();
    const auto &db = b.data();
    for (std::size_t i = 0; i < da.size(); ++i) {
        const double d = static_cast<double>(da[i]) - db[i];
        sum += d * d;
    }
    return sum / static_cast<double>(da.size());
}

double
psnr(const ImageU8 &a, const ImageU8 &b)
{
    const double mse = meanSquaredError(a, b);
    if (mse == 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(255.0 * 255.0 / mse);
}

} // namespace pce
