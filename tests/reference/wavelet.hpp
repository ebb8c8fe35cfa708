// Reference oracle: Haar discrete wavelet transform for the wavelet
// anomaly detector.
//
// The detector (Barford et al., "A signal analysis of network traffic
// anomalies") splits a window of the signal into low / mid / high frequency
// bands and measures how much energy the newest point contributes to a band.
// It used to run a forward and an inverse transform per point; it now reads
// the bands off block means (src/detectors/wavelet_detector.hpp). The
// transform stays here as the differential oracle.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/wavelet.hpp"

namespace opprentice::reference {

using util::FrequencyBand;

// Full multi-level Haar DWT of a power-of-two-length input.
// Output layout: [approx(1), detail level 1 (1), detail level 2 (2), ...,
// detail level L (n/2)] where level L holds the finest details.
// Throws std::invalid_argument if the size is not a power of two (>= 2).
std::vector<double> haar_forward(std::span<const double> xs);

// Inverse of haar_forward.
std::vector<double> haar_inverse(std::span<const double> coeffs);

// Reconstructs the signal keeping only the coefficients of one band.
// With L total detail levels, the coarsest third of the levels (plus the
// approximation) forms the low band, the middle third the mid band, and the
// finest third the high band.
std::vector<double> band_reconstruction(std::span<const double> xs,
                                        FrequencyBand band);

}  // namespace opprentice::reference
