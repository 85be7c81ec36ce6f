// Unit tests for the image substrate: container, generators, comparison, I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <filesystem>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "image/image.hpp"
#include "image/image_io.hpp"

namespace ispb {
namespace {

TEST(Image, ConstructionAndSize) {
  Image<f32> img(17, 9);
  EXPECT_EQ(img.width(), 17);
  EXPECT_EQ(img.height(), 9);
  EXPECT_EQ(img.size(), (Size2{17, 9}));
  EXPECT_GE(img.pitch(), img.width());
  EXPECT_EQ(img.pitch() % Image<f32>::kRowAlign, 0);
  EXPECT_FALSE(img.empty());
}

TEST(Image, DefaultConstructedIsEmpty) {
  Image<f32> img;
  EXPECT_TRUE(img.empty());
}

TEST(Image, RejectsNonPositiveExtent) {
  EXPECT_THROW(Image<f32>(0, 4), ContractError);
  EXPECT_THROW(Image<f32>(4, -1), ContractError);
}

TEST(Image, ZeroInitialized) {
  Image<i32> img(5, 5);
  for (i32 y = 0; y < 5; ++y) {
    for (i32 x = 0; x < 5; ++x) EXPECT_EQ(img(x, y), 0);
  }
}

// Image(Size2, Uninitialized) has the zeroing constructor's geometry and
// zero padding columns; once every pixel is written, copies and moves keep
// each of them. A freed buffer of -1s sits where the allocation is likely
// to land, so padding that were left unwritten would read -1.
TEST(Image, UninitializedKeepsGeometryAndZeroPadding) {
  EXPECT_THROW(Image<f32>(Size2{0, 4}, Uninitialized{}), ContractError);
  for (const Size2 size : {Size2{17, 9}, Size2{64, 4}, Size2{131, 75}}) {
    const Image<f32> zeroed(size);
    {
      std::vector<f32> dirty(zeroed.buffer().size(), -1.0f);
      ASSERT_EQ(dirty.front(), -1.0f);
    }
    Image<f32> img(size, Uninitialized{});
    EXPECT_EQ(img.size(), zeroed.size());
    EXPECT_EQ(img.pitch(), zeroed.pitch());
    ASSERT_EQ(img.buffer().size(), zeroed.buffer().size());
    for (i32 y = 0; y < size.y; ++y) {
      for (i32 x = size.x; x < img.pitch(); ++x) {
        EXPECT_EQ(img.buffer()[static_cast<std::size_t>(y) * img.pitch() + x],
                  0.0f)
            << size.x << "x" << size.y << " padding (" << x << ", " << y
            << ")";
      }
    }

    for (i32 y = 0; y < size.y; ++y) {
      for (i32 x = 0; x < size.x; ++x) img(x, y) = static_cast<f32>(y * 1000 + x);
    }
    const Image<f32> copy = img;
    EXPECT_TRUE(std::equal(copy.buffer().begin(), copy.buffer().end(),
                           img.buffer().begin(), img.buffer().end()));
    Image<f32> assigned(1, 1);
    assigned = copy;
    EXPECT_TRUE(assigned == img);
    const Image<f32> moved = std::move(img);
    EXPECT_TRUE(moved == copy);
    EXPECT_EQ(moved.pitch(), copy.pitch());
  }
}

TEST(Image, AtBoundsChecked) {
  Image<f32> img(4, 4);
  EXPECT_NO_THROW((void)img.at(3, 3));
  EXPECT_THROW((void)img.at(4, 3), ContractError);
  EXPECT_THROW((void)img.at(3, 4), ContractError);
  EXPECT_THROW((void)img.at(-1, 0), ContractError);
}

TEST(Image, PitchedAddressingMatchesAccessors) {
  Image<f32> img(33, 3);  // width just past one alignment unit
  img.at(32, 2) = 7.0f;
  const auto buf = img.buffer();
  EXPECT_EQ(buf[static_cast<std::size_t>(2) * img.pitch() + 32], 7.0f);
}

TEST(Image, RowSpanExcludesPadding) {
  Image<f32> img(5, 2);
  EXPECT_EQ(img.row(0).size(), 5u);
  img.row(1)[4] = 3.0f;
  EXPECT_EQ(img(4, 1), 3.0f);
}

TEST(Image, FillAndEquality) {
  Image<f32> a(6, 4);
  Image<f32> b(6, 4);
  a.fill(2.5f);
  b.fill(2.5f);
  EXPECT_EQ(a, b);
  b.at(5, 3) = 0.0f;
  EXPECT_FALSE(a == b);
}

TEST(Image, EqualityRequiresSameSize) {
  Image<f32> a(4, 4);
  Image<f32> b(4, 5);
  EXPECT_FALSE(a == b);
}

TEST(Image, MapConvertsPixelwise) {
  Image<f32> a(3, 2);
  a.fill(1.5f);
  const Image<i32> b = a.map<i32>([](f32 v) { return static_cast<i32>(v * 2); });
  EXPECT_EQ(b(2, 1), 3);
}

TEST(Generators, NoiseDeterministicPerSeed) {
  const auto a = make_noise_image({16, 16}, 99);
  const auto b = make_noise_image({16, 16}, 99);
  const auto c = make_noise_image({16, 16}, 100);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Generators, NoiseValuesInRange) {
  const auto img = make_noise_image({32, 32}, 1);
  for (i32 y = 0; y < 32; ++y) {
    for (i32 x = 0; x < 32; ++x) {
      ASSERT_GE(img(x, y), 0.0f);
      ASSERT_LE(img(x, y), 255.0f);
    }
  }
}

TEST(Generators, GradientFormula) {
  const auto img = make_gradient_image({300, 4});
  EXPECT_EQ(img(0, 0), 0.0f);
  EXPECT_EQ(img(10, 2), static_cast<f32>((10 + 4) % 256));
  EXPECT_EQ(img(299, 0), static_cast<f32>(299 % 256));
}

TEST(Generators, CheckerAlternates) {
  const auto img = make_checker_image({8, 8}, 2);
  EXPECT_EQ(img(0, 0), 0.0f);
  EXPECT_EQ(img(2, 0), 255.0f);
  EXPECT_EQ(img(0, 2), 255.0f);
  EXPECT_EQ(img(2, 2), 0.0f);
}

TEST(Generators, ImpulseSinglePixel) {
  const auto img = make_impulse_image({9, 9}, {4, 4});
  f64 sum = 0.0;
  for (i32 y = 0; y < 9; ++y) {
    for (i32 x = 0; x < 9; ++x) sum += static_cast<f64>(img(x, y));
  }
  EXPECT_DOUBLE_EQ(sum, 255.0);
  EXPECT_EQ(img(4, 4), 255.0f);
}

TEST(Generators, CoordinateImageEncodesPosition) {
  const auto img = make_coordinate_image({7, 5});
  EXPECT_EQ(img(3, 2), static_cast<f32>(2 * 7 + 3));
}

TEST(Compare, IdenticalImages) {
  const auto img = make_noise_image({16, 16}, 5);
  const CompareResult r = compare(img, img);
  EXPECT_EQ(r.max_abs, 0.0);
  EXPECT_EQ(r.mismatches, 0);
  EXPECT_TRUE(std::isinf(psnr(img, img)));
}

TEST(Compare, DetectsWorstPixel) {
  auto a = make_gradient_image({8, 8});
  auto b = a;
  b.at(5, 6) += 50.0f;
  const CompareResult r = compare(a, b);
  EXPECT_DOUBLE_EQ(r.max_abs, 50.0);
  EXPECT_EQ(r.worst, (Index2{5, 6}));
  EXPECT_EQ(r.mismatches, 1);
}

TEST(Compare, ToleranceSuppressesSmallDiffs) {
  auto a = make_gradient_image({8, 8});
  auto b = a;
  b.at(1, 1) += 0.5f;
  EXPECT_EQ(compare(a, b, 1.0).mismatches, 0);
  EXPECT_TRUE(images_close(a, b, 1.0));
  EXPECT_FALSE(images_close(a, b, 0.1));
}

TEST(Compare, RelativeTolerance) {
  Image<f32> a(2, 1);
  Image<f32> b(2, 1);
  b(0, 0) = 1000.0f;
  a(0, 0) = 1000.5f;
  EXPECT_TRUE(images_close(a, b, 0.0, 1e-3));
  EXPECT_FALSE(images_close(a, b, 0.0, 1e-6));
}

TEST(Compare, SizeMismatchRejected) {
  Image<f32> a(2, 2);
  Image<f32> b(3, 2);
  EXPECT_THROW((void)compare(a, b), ContractError);
}

class ImageIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("ispb_io_test_" + std::to_string(::getpid()) + ".pgm");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(ImageIoTest, PgmRoundTrip) {
  const auto img = make_noise_image({37, 21}, 3);
  write_pgm(img, path_.string());
  const auto back = read_pgm(path_.string());
  ASSERT_EQ(back.size(), img.size());
  // Values are integral in [0,255], so the round trip is exact.
  EXPECT_EQ(compare(img, back).max_abs, 0.0);
}

TEST_F(ImageIoTest, PgmClampsOutOfRange) {
  Image<f32> img(2, 1);
  img(0, 0) = -10.0f;
  img(1, 0) = 300.0f;
  write_pgm(img, path_.string());
  const auto back = read_pgm(path_.string());
  EXPECT_EQ(back(0, 0), 0.0f);
  EXPECT_EQ(back(1, 0), 255.0f);
}

TEST_F(ImageIoTest, ReadRejectsBadMagic) {
  {
    std::ofstream out(path_);
    out << "P2\n2 2\n255\n0 0 0 0\n";
  }
  EXPECT_THROW((void)read_pgm(path_.string()), IoError);
}

TEST_F(ImageIoTest, ReadRejectsTruncated) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P5\n4 4\n255\n";
    out << "xy";  // only 2 of 16 bytes
  }
  EXPECT_THROW((void)read_pgm(path_.string()), IoError);
}

TEST_F(ImageIoTest, ReadRejectsTruncatedHeader) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P5\n4";  // EOF mid-dimensions
  }
  EXPECT_THROW((void)read_pgm(path_.string()), IoError);
}

TEST_F(ImageIoTest, ReadRejectsOversizedDimensions) {
  // A hostile header must be rejected before the pixel allocation, not
  // by an OOM: 2e9 x 2e9 would be ~1.6e19 bytes of f32.
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P5\n2000000000 2000000000\n255\n";
  }
  EXPECT_THROW((void)read_pgm(path_.string()), IoError);
}

TEST_F(ImageIoTest, ReadRejectsOversizedPixelProduct) {
  // Each side is under the per-dimension cap but the product overflows the
  // total-pixel budget — the check that must be done in 64-bit.
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P5\n1000000 1000000\n255\n";
  }
  EXPECT_THROW((void)read_pgm(path_.string()), IoError);
}

TEST_F(ImageIoTest, ReadRejectsNegativeDimensions) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P5\n-4 4\n255\n";
  }
  EXPECT_THROW((void)read_pgm(path_.string()), IoError);
}

TEST_F(ImageIoTest, ReadHonorsComments) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "P5\n# a comment line\n2 1\n255\n";
    const char px[2] = {10, 20};
    out.write(px, 2);
  }
  const auto img = read_pgm(path_.string());
  EXPECT_EQ(img(0, 0), 10.0f);
  EXPECT_EQ(img(1, 0), 20.0f);
}

TEST_F(ImageIoTest, WriteToBadPathThrows) {
  const auto img = make_gradient_image({4, 4});
  EXPECT_THROW(write_pgm(img, "/nonexistent-dir/x.pgm"), IoError);
}

TEST_F(ImageIoTest, PpmWritesThreePlanes) {
  const auto r = make_gradient_image({5, 4});
  const auto g = make_checker_image({5, 4}, 1);
  const auto b = make_noise_image({5, 4}, 8);
  const auto ppm = path_.parent_path() / "ispb_io_test.ppm";
  write_ppm(r, g, b, ppm.string());
  EXPECT_GE(std::filesystem::file_size(ppm), 11u + 5u * 4u * 3u);  // header + payload
  std::filesystem::remove(ppm);
}

}  // namespace
}  // namespace ispb
