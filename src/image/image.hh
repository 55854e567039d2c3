/**
 * @file
 * Image containers and tile iteration.
 *
 * Two pixel formats are used throughout the pipeline:
 *  - ImageF: linear RGB, 3 doubles per pixel — the rendering/adjustment
 *    domain (paper Sec. 2.1);
 *  - ImageU8: 8-bit sRGB, 3 bytes per pixel — the encoding domain where
 *    BD/PNG/SCC operate.
 *
 * Tiles are the unit of BD compression (default 4x4, paper Sec. 6.4
 * sweeps 4..16). TileGrid is the one statement of their layout: tiles
 * numbered row-major, edge tiles clamped to the image bounds, so codecs
 * receive the true (possibly ragged) extent.
 */

#ifndef PCE_IMAGE_IMAGE_HH
#define PCE_IMAGE_IMAGE_HH

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/vec3.hh"

namespace pce {

/** Axis-aligned pixel rectangle [x0, x0+w) x [y0, y0+h). */
struct TileRect
{
    int x0 = 0;
    int y0 = 0;
    int w = 0;
    int h = 0;

    int pixelCount() const { return w * h; }
    bool operator==(const TileRect &) const = default;
};

/**
 * The tile layout of a width x height image: tileSize x tileSize tiles
 * numbered row-major, edge tiles clamped to the image. Rects are
 * computed, never stored: a pass over tiles [begin, end) takes
 * rect(begin) and steps with next(). tileSize must be positive.
 */
struct TileGrid
{
    int width = 0;
    int height = 0;
    int tileSize = 0;

    int cols() const { return (width + tileSize - 1) / tileSize; }
    int rows() const { return (height + tileSize - 1) / tileSize; }
    std::uint64_t count() const
    { return static_cast<std::uint64_t>(cols()) * rows(); }

    /** Tile @p i < count(); on an empty image, an empty rect. */
    TileRect rect(std::size_t i) const
    {
        const auto c = static_cast<std::size_t>(std::max(cols(), 1));
        return clamped(static_cast<int>(i % c) * tileSize,
                       static_cast<int>(i / c) * tileSize);
    }

    /** The tile after @p r, without a division; past the last tile,
     *  a rect below the image (h <= 0). */
    TileRect next(TileRect r) const
    {
        r.x0 += r.w;
        if (r.x0 >= width)
            return clamped(0, r.y0 + tileSize);
        r.w = std::min(tileSize, width - r.x0);
        return r;
    }

  private:
    TileRect clamped(int x0, int y0) const
    {
        return {x0, y0, std::min(tileSize, width - x0),
                std::min(tileSize, height - y0)};
    }
};

/** Linear-RGB floating point image. */
class ImageF
{
  public:
    ImageF() = default;
    ImageF(int width, int height, const Vec3 &fill = Vec3());
    ImageF(const ImageF &) = default;
    ImageF &operator=(const ImageF &) = default;
    /** A moved-from image is 0x0, like its (empty) pixel buffer. */
    ImageF(ImageF &&other) noexcept
        : width_(std::exchange(other.width_, 0)),
          height_(std::exchange(other.height_, 0)),
          pixels_(std::move(other.pixels_))
    {}
    ImageF &operator=(ImageF &&other) noexcept
    {
        if (this != &other) {
            width_ = std::exchange(other.width_, 0);
            height_ = std::exchange(other.height_, 0);
            pixels_ = std::move(other.pixels_);
            other.pixels_.clear();
        }
        return *this;
    }

    int width() const { return width_; }
    int height() const { return height_; }
    std::size_t pixelCount() const
    { return static_cast<std::size_t>(width_) * height_; }

    const Vec3 &at(int x, int y) const
    { return pixels_[static_cast<std::size_t>(y) * width_ + x]; }
    Vec3 &at(int x, int y)
    { return pixels_[static_cast<std::size_t>(y) * width_ + x]; }

    const std::vector<Vec3> &pixels() const { return pixels_; }
    std::vector<Vec3> &pixels() { return pixels_; }

    /** Mean linear-RGB luminance (Rec.709 weights), for scene stats. */
    double meanLuminance() const;

    /** Mean of each channel. */
    Vec3 meanColor() const;

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<Vec3> pixels_;
};

/** 8-bit sRGB image, 3 interleaved bytes per pixel. */
class ImageU8
{
  public:
    ImageU8() = default;
    ImageU8(int width, int height);
    ImageU8(const ImageU8 &) = default;
    ImageU8 &operator=(const ImageU8 &) = default;
    /** A moved-from image is 0x0, like its (empty) byte buffer. */
    ImageU8(ImageU8 &&other) noexcept
        : width_(std::exchange(other.width_, 0)),
          height_(std::exchange(other.height_, 0)),
          data_(std::move(other.data_))
    {}
    ImageU8 &operator=(ImageU8 &&other) noexcept
    {
        if (this != &other) {
            width_ = std::exchange(other.width_, 0);
            height_ = std::exchange(other.height_, 0);
            data_ = std::move(other.data_);
            other.data_.clear();
        }
        return *this;
    }

    int width() const { return width_; }
    int height() const { return height_; }
    std::size_t pixelCount() const
    { return static_cast<std::size_t>(width_) * height_; }
    std::size_t byteSize() const { return data_.size(); }

    const uint8_t *pixel(int x, int y) const
    { return &data_[(static_cast<std::size_t>(y) * width_ + x) * 3]; }
    uint8_t *pixel(int x, int y)
    { return &data_[(static_cast<std::size_t>(y) * width_ + x) * 3]; }

    uint8_t channel(int x, int y, int c) const { return pixel(x, y)[c]; }
    void setChannel(int x, int y, int c, uint8_t v) { pixel(x, y)[c] = v; }

    const std::vector<uint8_t> &data() const { return data_; }
    std::vector<uint8_t> &data() { return data_; }

    bool operator==(const ImageU8 &) const = default;

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<uint8_t> data_;
};

/** Convert a linear-RGB image to quantized 8-bit sRGB (Eq. 1). */
ImageU8 toSrgb8(const ImageF &linear);

/**
 * toSrgb8 into a caller-owned image, reallocating only when the
 * dimensions change — the allocation-free path of a frame stream.
 */
void toSrgb8Into(const ImageF &linear, ImageU8 &out);

/** Convert an 8-bit sRGB image back to linear RGB. */
ImageF toLinear(const ImageU8 &srgb);

/** Peak signal-to-noise ratio between two same-size 8-bit images, dB. */
double psnr(const ImageU8 &a, const ImageU8 &b);

/** Mean squared error over all channels of two same-size 8-bit images. */
double meanSquaredError(const ImageU8 &a, const ImageU8 &b);

} // namespace pce

#endif // PCE_IMAGE_IMAGE_HH
