// Readable names for struct test parameters. gtest prints a parameter
// with no PrintTo overload as its raw bytes — padding and heap pointers
// included — and gtest_discover_tests builds the ctest id from that
// print, so the ids would change from one build tree to the next. A
// PrintTo built on this helper spells the case out instead.
#pragma once

#include <ostream>

#include "nn/conv2d.hpp"
#include "tensor/shape.hpp"

namespace adv::test {

/// "c1o2k3s1p1_2x1x5x5": channels in/out, kernel, stride, padding, then
/// the input shape.
inline void print_conv_case(const nn::Conv2dConfig& c, const Shape& in,
                            std::ostream* os) {
  *os << 'c' << c.in_channels << 'o' << c.out_channels << 'k' << c.kernel
      << 's' << c.stride << 'p' << c.padding << '_';
  const char* sep = "";
  for (const std::size_t d : in.dims()) {
    *os << sep << d;
    sep = "x";
  }
}

}  // namespace adv::test
