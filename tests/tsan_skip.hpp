// MDO_SKIP_IF_TSAN(): skips the calling test under ThreadSanitizer.
//
// Tests that fork shard workers use it: the worker children start the
// thread pool after fork(), which TSan instrumentation does not support
// ("starting new threads after multi-threaded fork"). Clang reports TSan
// through __has_feature; GCC defines __SANITIZE_THREAD__ (GCC < 14 has no
// __has_feature). Every other build runs the test.
#pragma once

#include <gtest/gtest.h>

#if defined(__SANITIZE_THREAD__)
#define MDO_TESTS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MDO_TESTS_TSAN 1
#endif
#endif

#ifdef MDO_TESTS_TSAN
#define MDO_SKIP_IF_TSAN() \
  GTEST_SKIP() << "fork-based shard tests are not TSan-compatible"
#else
#define MDO_SKIP_IF_TSAN() (void)0
#endif
