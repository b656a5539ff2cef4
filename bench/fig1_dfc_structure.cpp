// E2 — Fig 1 reproduction: structural report of the DFC output slice
// (and the SC baseline it shares its circuit with): device inventory,
// roles, dual-Vt assignment, total widths.

#include <cstdio>

#include "tech/units.hpp"
#include "xbar/builder.hpp"

using namespace lain;
using namespace lain::xbar;

namespace {

void report(const char* title, const OutputSlice& s) {
  std::printf("%s\n", title);
  std::printf("  nodes=%zu devices=%zu\n", s.nl.node_count(),
              s.nl.device_count());
  std::printf("  pass transistors (N1..N4): %zu (high-Vt: %zu)\n",
              s.nl.count_devices(circuit::DeviceRole::kPassTransistor),
              s.nl.count_devices(circuit::DeviceRole::kPassTransistor,
                                 tech::VtClass::kHigh));
  std::printf("  keeper (P1):               %zu (high-Vt: %zu)\n",
              s.nl.count_devices(circuit::DeviceRole::kKeeper),
              s.nl.count_devices(circuit::DeviceRole::kKeeper,
                                 tech::VtClass::kHigh));
  std::printf("  driver devices (I1,I2):    %zu (high-Vt: %zu)\n",
              s.nl.count_devices(circuit::DeviceRole::kDriverPull),
              s.nl.count_devices(circuit::DeviceRole::kDriverPull,
                                 tech::VtClass::kHigh));
  std::printf("  sleep pulldown (N5):       %zu (high-Vt: %zu)\n",
              s.nl.count_devices(circuit::DeviceRole::kSleep),
              s.nl.count_devices(circuit::DeviceRole::kSleep,
                                 tech::VtClass::kHigh));
  std::printf("  total width: %.2f um (high-Vt share: %.1f%%)\n\n",
              to_um(s.nl.total_width_m()),
              100.0 * s.nl.total_width_m(tech::VtClass::kHigh) /
                  s.nl.total_width_m());
}

}  // namespace

int main() {
  std::printf("E2: Fig 1 — dual-Vt feedback crossbar (DFC), one output "
              "slice (1 bit)\n\n");
  const CrossbarSpec spec = table1_spec();
  report("SC baseline (same circuit, single nominal Vt):",
         build_output_slice(spec, Scheme::kSC));
  report("DFC (staggered dual-Vt favoring the HL transition):",
         build_output_slice(spec, Scheme::kDFC));
  std::printf("Per-crossbar totals: multiply by flit_bits x ports = %d\n",
              spec.flit_bits * spec.ports);
  return 0;
}
