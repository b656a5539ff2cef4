#include "circuit/energy.hpp"

#include <stdexcept>

namespace lain::circuit {

double random_alpha01(double static_probability) {
  if (static_probability < 0.0 || static_probability > 1.0) {
    throw std::invalid_argument("static probability must be in [0,1]");
  }
  return static_probability * (1.0 - static_probability);
}

double precharge_alpha01(double static_probability) {
  if (static_probability < 0.0 || static_probability > 1.0) {
    throw std::invalid_argument("static probability must be in [0,1]");
  }
  return 1.0 - static_probability;
}

}  // namespace lain::circuit
