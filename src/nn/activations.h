// Activation derivatives for vkey::nn, written in terms of the activation's
// output. The activations themselves are the owned transcendentals in
// nn/vmath.h.
#pragma once

namespace vkey::nn {

inline double dsigmoid_from_y(double y) { return y * (1.0 - y); }

inline double dtanh_from_y(double y) { return 1.0 - y * y; }

}  // namespace vkey::nn
