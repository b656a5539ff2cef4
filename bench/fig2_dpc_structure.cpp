// E3 — Fig 2 reproduction: the pre-charged-to-HIGH DPC output path.
// Reports the precharge device, the asymmetric-Vt driver assignment,
// and the parked-state leakage that gives DPC its 93.68 % standby row.

#include <cstdio>

#include "circuit/leakage.hpp"
#include "tech/units.hpp"
#include "xbar/builder.hpp"
#include "xbar/characterize.hpp"

using namespace lain;
using namespace lain::xbar;

int main() {
  std::printf("E3: Fig 2 — dual-Vt pre-charged crossbar (DPC)\n\n");
  const CrossbarSpec spec = table1_spec();
  const OutputSlice s = build_output_slice(spec, Scheme::kDPC);

  std::printf("Precharge pFETs: %zu (width %.2f um, high-Vt)\n",
              s.nl.count_devices(circuit::DeviceRole::kPrecharge),
              to_um(spec.sizing.precharge_width_m));
  std::printf("Asymmetric-Vt driver (favoring High->Low):\n");
  const CellHandles& cell = s.cells.front();
  auto vt_name = [](tech::VtClass v) {
    return v == tech::VtClass::kHigh ? "HIGH" : "nom ";
  };
  std::printf("  I1 NMOS: %s   I1 PMOS: %s\n",
              vt_name(s.nl.device(cell.i1_n).mos.vt),
              vt_name(s.nl.device(cell.i1_p).mos.vt));
  std::printf("  I2 NMOS: %s   I2 PMOS: %s\n",
              vt_name(s.nl.device(cell.i2_n).mos.vt),
              vt_name(s.nl.device(cell.i2_p).mos.vt));
  std::printf("  pass:    %s   keeper:  %s\n\n",
              vt_name(s.nl.device(cell.pass_devices[0]).mos.vt),
              vt_name(s.nl.device(cell.keeper).mos.vt));

  const Characterization sc = characterize(spec, Scheme::kSC);
  const Characterization dpc = characterize(spec, Scheme::kDPC);
  std::printf("Minimum-leakage parked state (sleep=1, pre deactivated):\n");
  std::printf("  SC  standby leakage: %8.2f mW\n", to_mW(sc.standby_leakage_w));
  std::printf("  DPC standby leakage: %8.2f mW  (saving %.2f%%, paper: "
              "93.68%%)\n",
              to_mW(dpc.standby_leakage_w),
              100.0 * relative_saving(sc.standby_leakage_w,
                                      dpc.standby_leakage_w));
  std::printf("  DPC precharge delay: %6.2f ps (paper: 61.25 ps)\n",
              to_ps(dpc.delay_lh_s));
  std::printf("  DPC data HL delay:   %6.2f ps (paper: 53.08 ps)\n",
              to_ps(dpc.delay_hl_s));
  return 0;
}
