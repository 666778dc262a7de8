// Unit tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include "linalg/vec.hpp"
#include "util/error.hpp"

namespace mdo::linalg {
namespace {

TEST(Vec, DotAndNorms) {
  Vec a{1.0, 2.0, 3.0};
  Vec b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
  EXPECT_DOUBLE_EQ(sum(a), 6.0);
}

TEST(Vec, DotRejectsSizeMismatch) {
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), InvalidArgument);
}

TEST(Vec, AxpyAndScale) {
  Vec y{1.0, 1.0};
  axpy(2.0, {3.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  scale(y, 0.5);
  EXPECT_DOUBLE_EQ(y[0], 3.5);
}

TEST(Vec, ClampAndArithmetic) {
  Vec x{-1.0, 0.5, 2.0};
  clamp(x, 0.0, 1.0);
  EXPECT_EQ(x, (Vec{0.0, 0.5, 1.0}));
  EXPECT_EQ(add({1.0, 2.0}, {3.0, 4.0}), (Vec{4.0, 6.0}));
  EXPECT_EQ(subtract({1.0, 2.0}, {3.0, 4.0}), (Vec{-2.0, -2.0}));
}

TEST(Vec, ApproxEqual) {
  EXPECT_TRUE(approx_equal({1.0, 2.0}, {1.0 + 1e-10, 2.0}, 1e-9));
  EXPECT_FALSE(approx_equal({1.0}, {1.1}, 1e-9));
  EXPECT_FALSE(approx_equal({1.0}, {1.0, 2.0}, 1e-9));
}

}  // namespace
}  // namespace mdo::linalg
