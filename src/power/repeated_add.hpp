// repeated_add.hpp — n sequential floating-point additions, in
// O(log n) steps.
//
// The batched idle accounting (RouterPower::idle_cycles,
// SleepController::idle_cycles) must leave each energy accumulator
// exactly as n per-cycle `acc += k` would; n * k rounds differently.
// repeated_add returns that same double without n additions.

#pragma once

#include <cstdint>

namespace lain::power {

// The value of `acc` after `for (i = 0; i < n; ++i) acc += k;`, bit for
// bit, under round-to-nearest-even.
//
// While acc stays inside one binade [2^(e-1), 2^e), every step adds the
// same amount: k rounded to that binade's ulp, ulp * round(k / ulp).
// So the helper jumps in one exact addition to the last step whose
// result stays below the binade's edge, takes the step across the edge
// singly, and repeats in the next binade.  It falls back to single
// steps where that rule does not hold: a rounding tie (k / ulp has
// fraction exactly 0.5, so the result depends on acc's parity), a
// subnormal, zero, negative or non-finite value, and k not below acc
// (each step then crosses a binade).  A k below half an ulp never
// moves acc again, so the helper returns at once.  The binade comes
// from acc's exponent bits, and the ulp, its reciprocal and the edge
// are built as powers of two (frexp/ldexp only where the ulp is
// subnormal), so a run that stays inside one binade costs a few
// multiplications and no division.
double repeated_add(double acc, double k, std::int64_t n);

}  // namespace lain::power
