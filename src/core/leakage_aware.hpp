// leakage_aware.hpp — umbrella header for the LAIN library.
//
// LAIN (Leakage-Aware Interconnect for on-chip Networks) reproduces
// Tsai et al., "Leakage-Aware Interconnect for On-Chip Network",
// DATE 2005.  Typical entry points:
//
//   #include "core/leakage_aware.hpp"
//
//   lain::core::LainContext ctx;                      // a session
//   auto spec = lain::xbar::table1_spec();
//   auto& c = ctx.characterization(spec, lain::xbar::Scheme::kDPC);
//   auto table = lain::core::measured_table1(ctx, ctx.make_engine());
//   std::puts(lain::core::table1_report(table).to_text().c_str());
//   auto run = ctx.run_noc(noc_run_spec);             // NoC-level experiment

#pragma once

#include "core/bench_suite.hpp"       // IWYU pragma: export
#include "core/context.hpp"           // IWYU pragma: export
#include "core/experiments.hpp"       // IWYU pragma: export
#include "core/noc_integration.hpp"   // IWYU pragma: export
#include "core/reporting.hpp"         // IWYU pragma: export
#include "core/scenario.hpp"          // IWYU pragma: export
#include "core/sweep.hpp"             // IWYU pragma: export
#include "core/table1.hpp"            // IWYU pragma: export
#include "core/thread_budget.hpp"     // IWYU pragma: export
#include "xbar/characterize.hpp"      // IWYU pragma: export
