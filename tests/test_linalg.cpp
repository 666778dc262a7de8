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
}

TEST(Vec, DotRejectsSizeMismatch) {
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), InvalidArgument);
}

}  // namespace
}  // namespace mdo::linalg
