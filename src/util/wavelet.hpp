// Shared vocabulary of the wavelet anomaly detector.
//
// The detector (Barford et al., "A signal analysis of network traffic
// anomalies") splits a window of the signal into low / mid / high frequency
// Haar bands and measures how much the newest point contributes to a band
// (src/detectors/wavelet_detector.hpp).
#pragma once

#include <cstddef>

namespace opprentice::util {

// With L detail levels, the coarsest third of the levels (plus the
// approximation) forms the low band, the middle third the mid band, and
// the finest third the high band.
enum class FrequencyBand { kLow, kMid, kHigh };

// Rounds n down to a power of two (>= 1). Used to size detector windows.
std::size_t floor_pow2(std::size_t n);

}  // namespace opprentice::util
