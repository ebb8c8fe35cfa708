#include "util/wavelet.hpp"

namespace opprentice::util {

std::size_t floor_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace opprentice::util
