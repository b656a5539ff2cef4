// E4 — Fig 3 reproduction: path-1 vs path-2 load analysis of the
// segmented crossbars.  Path 1 (bold in the figure) stays in the near
// wire half; path 2 (dashed) crosses the boundary switch and sees the
// full RC.  Also enumerates the idealized per-port segment counts the
// figure depicts.

#include <cstdio>

#include "tech/units.hpp"
#include "xbar/builder.hpp"
#include "xbar/characterize.hpp"
#include "xbar/floorplan.hpp"

using namespace lain;
using namespace lain::xbar;

int main() {
  std::printf("E4: Fig 3 — segmented crossbar path analysis\n\n");
  const CrossbarSpec spec = table1_spec();
  const Floorplan fp(spec, tech::itrs_node(spec.node));

  std::printf("Matrix span: %.1f um per row/column wire (%d ports x %d "
              "bits x %.0f nm pitch)\n\n",
              to_um(fp.span_m()), spec.ports, spec.flit_bits,
              fp.span_m() / spec.ports / spec.flit_bits * 1e9);

  std::printf("Idealized per-port segment counts (input row i -> output "
              "column j):\n");
  std::printf("  path 1 (adjacent, bold):  %d + %d segments\n",
              fp.input_segments_traversed(0), fp.output_segments_traversed(4));
  std::printf("  path 2 (far corner, dashed): %d + %d segments\n\n",
              fp.input_segments_traversed(4), fp.output_segments_traversed(0));

  std::printf("Implemented two-way segmentation:\n");
  std::printf("  average traversed wire fraction: %.2f (vs 1.00 flat)\n",
              fp.two_way_traversed_fraction());
  std::printf("  per-port idealization would give: %.2f\n\n",
              fp.avg_traversed_fraction());

  const Characterization sc = characterize(spec, Scheme::kSC);
  for (Scheme s : {Scheme::kSDFC, Scheme::kSDPC}) {
    const Characterization c = characterize(spec, s);
    std::printf("%-5s worst path (path 2): HL %.2f ps, LH %.2f ps -> "
                "penalty %.2f%% vs SC\n",
                scheme_name(s).data(), to_ps(c.delay_hl_s), to_ps(c.delay_lh_s),
                100.0 * delay_penalty(sc, c));
  }
  std::printf("(paper penalties: SDFC 4.69%%, SDPC 2.28%% — our boundary\n"
              " hardware is costlier; `lain_bench table1` prints the\n"
              " paper-vs-measured comparison)\n");

  // Structural inventory of the segmented slices.
  for (Scheme s : {Scheme::kSDFC, Scheme::kSDPC}) {
    const OutputSlice slice = build_output_slice(spec, s);
    std::printf("%-5s slice: %zu crossing cells, %zu segment switches, "
                "%zu precharge devices, high-Vt width share %.1f%%\n",
                scheme_name(s).data(), slice.cells.size(),
                slice.segment_tgs.size(),
                slice.nl.count_devices(circuit::DeviceRole::kPrecharge),
                100.0 * slice.nl.total_width_m(tech::VtClass::kHigh) /
                    slice.nl.total_width_m());
  }
  return 0;
}
