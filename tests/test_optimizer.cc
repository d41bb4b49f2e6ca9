/**
 * @file
 * Tests for the classical optimizers and the landscape scanner.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "optimizer/landscape.h"
#include "optimizer/nelder_mead.h"
#include "optimizer/spsa.h"

namespace {

using namespace fq;
using namespace fq::optimizer;

double
quadratic_bowl(const std::vector<double>& x)
{
    double s = 0.0;
    for (std::size_t d = 0; d < x.size(); ++d) {
        const double c = 1.0 + static_cast<double>(d);
        s += (x[d] - c) * (x[d] - c);
    }
    return s;
}

TEST(NelderMead, ConvergesOnQuadratic)
{
    NelderMeadOptions opts;
    opts.max_evaluations = 600;
    const auto result = nelder_mead(quadratic_bowl, {0.0, 0.0, 0.0}, opts);
    EXPECT_NEAR(result.best_point[0], 1.0, 1e-2);
    EXPECT_NEAR(result.best_point[1], 2.0, 1e-2);
    EXPECT_NEAR(result.best_point[2], 3.0, 1e-2);
    EXPECT_LT(result.best_value, 1e-3);
}

TEST(NelderMead, HandlesRosenbrock)
{
    const auto rosenbrock = [](const std::vector<double>& x) {
        return 100.0 * std::pow(x[1] - x[0] * x[0], 2) +
               std::pow(1.0 - x[0], 2);
    };
    NelderMeadOptions opts;
    opts.max_evaluations = 2000;
    opts.initial_step = 0.5;
    const auto result = nelder_mead(rosenbrock, {-1.0, 1.0}, opts);
    EXPECT_LT(result.best_value, 0.05);
}

TEST(NelderMead, OneDimensional)
{
    const auto f = [](const std::vector<double>& x) {
        return std::cos(x[0]) + 0.05 * x[0] * x[0];
    };
    // Stationary point: sin(x) = 0.1 x -> x ~= 2.852.
    const auto result = nelder_mead(f, {2.0});
    EXPECT_NEAR(result.best_point[0], 2.852, 0.05);
}

TEST(Spsa, ToleratesNoisyObjective)
{
    Rng noise_rng(1);
    auto noisy = [&noise_rng](const std::vector<double>& x) {
        return quadratic_bowl(x) + 0.05 * noise_rng.normal();
    };
    SpsaOptions opts;
    opts.iterations = 400;
    Rng rng(2);
    const auto result = spsa(noisy, {4.0, -2.0, 6.0}, opts, rng);
    // SPSA should land near (1, 2, 3) despite the noise.
    EXPECT_NEAR(result.best_point[0], 1.0, 0.5);
    EXPECT_NEAR(result.best_point[1], 2.0, 0.5);
    EXPECT_NEAR(result.best_point[2], 3.0, 0.5);
}

TEST(Landscape, ScanAndStats)
{
    // Smooth sinusoid: strong contrast, moderate gradient.
    const auto smooth = [](double x, double y) {
        return std::sin(x) * std::cos(y);
    };
    const auto land = scan_landscape(smooth, 40, 40, 2 * M_PI, 2 * M_PI);
    const auto stats = landscape_stats(land);
    EXPECT_NEAR(stats.min_value, -1.0, 0.05);
    EXPECT_NEAR(stats.max_value, 1.0, 0.05);
    EXPECT_GT(stats.contrast, 5.0);

    // Pure noise: contrast collapses toward the (max-min)/jitter floor.
    Rng rng(3);
    const auto noise = [&rng](double, double) { return rng.normal(); };
    const auto noisy_land =
        scan_landscape(noise, 40, 40, 2 * M_PI, 2 * M_PI);
    const auto noisy_stats = landscape_stats(noisy_land);
    EXPECT_LT(noisy_stats.contrast, stats.contrast);
}

TEST(Landscape, DownsampleAveragesBlocks)
{
    Landscape land;
    land.nx = 4;
    land.ny = 4;
    land.values.assign(16, 1.0);
    land.values[0] = 5.0;
    const auto coarse = downsample(land, 2, 2);
    EXPECT_EQ(coarse.nx, 2);
    EXPECT_EQ(coarse.ny, 2);
    EXPECT_DOUBLE_EQ(coarse.at(0, 0), 2.0); // (5+1+1+1)/4
    EXPECT_DOUBLE_EQ(coarse.at(1, 1), 1.0);
}

TEST(Landscape, AsciiRendering)
{
    const auto land = scan_landscape(
        [](double x, double y) { return x + y; }, 8, 4, 1.0, 1.0);
    const auto art = render_ascii(land);
    // 4 rows of 8 characters plus newlines.
    EXPECT_EQ(art.size(), 4u * 9u);
    EXPECT_NE(art.find('@'), std::string::npos);
    EXPECT_NE(art.find(' '), std::string::npos);
}

} // namespace
