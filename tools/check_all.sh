#!/bin/sh
# check_all.sh — configure + build + lint/tidy/format + tests in one
# command, exiting nonzero on any finding.  Suitable as a pre-push
# hook and as a CI entrypoint.
#
# Default: the `release` preset — fast + smoke + perf tests plus the
# whole static-analysis gate (lint_lain, lint_tidy, format_check).
# Pass preset names to run more of the matrix, or `matrix` for all of
# it (roughly an hour of wall clock on one core):
#
#   tools/check_all.sh                    # release: tests + lint gate
#   tools/check_all.sh release racecheck  # plus the race detector
#   tools/check_all.sh matrix             # every gating preset
#
# Presets: release debug asan tsan ubsan racecheck.  tsan is skipped
# gracefully when the toolchain lacks libtsan; any other failure
# stops the run.
set -e

cd "$(dirname "$0")/.."

PRESETS="${*:-release}"
if [ "$PRESETS" = matrix ]; then
  PRESETS="release debug asan tsan ubsan racecheck"
fi

for preset in $PRESETS; do
  echo "==== preset: $preset ===================================="
  if ! cmake --preset "$preset"; then
    echo "check_all: configure failed for $preset" >&2
    exit 1
  fi
  if ! cmake --build --preset "$preset" -j "$(nproc)"; then
    if [ "$preset" = tsan ]; then
      echo "check_all: SKIP tsan (toolchain cannot build it)" >&2
      continue
    fi
    echo "check_all: build failed for $preset" >&2
    exit 1
  fi
  case $preset in
    release) ctest --preset all ;;  # fast+smoke+perf+lint, no filter
    *) ctest --preset "$preset" ;;
  esac

  # Streaming-telemetry smoke (release only): a windowed sharded run
  # must emit a manifest, window records and a summary over JSONL.
  if [ "$preset" = release ]; then
    metrics_out="build/$preset/check_all_metrics.jsonl"
    if ! "build/$preset/lain_bench" injection_sweep --rates 0.05 \
        --patterns uniform --schemes sdpc --sim-threads 2 \
        --metrics-window 500 --trace-flits 64 \
        --metrics-out "$metrics_out" >/dev/null; then
      echo "check_all: metrics smoke run failed" >&2
      exit 1
    fi
    for record in manifest window summary; do
      if ! grep -q "\"type\":\"$record\"" "$metrics_out"; then
        echo "check_all: metrics smoke: no $record record in JSONL" >&2
        exit 1
      fi
    done
    echo "check_all: metrics smoke OK ($metrics_out)"

    # Sparse twin: at 0.002 the sharded kernel steps event-driven, and
    # the JSONL summary must say so.
    sparse_out="build/$preset/check_all_metrics_sparse.jsonl"
    if ! "build/$preset/lain_bench" injection_sweep --rates 0.002 \
        --patterns uniform --schemes sdpc --sim-threads 2 \
        --metrics-window 500 --metrics-out "$sparse_out" >/dev/null; then
      echo "check_all: sparse metrics smoke run failed" >&2
      exit 1
    fi
    if ! grep '"type":"summary"' "$sparse_out" |
        grep -q '"stepping":"event"'; then
      echo "check_all: sparse metrics smoke: summary not event-stepped" >&2
      exit 1
    fi
    echo "check_all: sparse metrics smoke OK ($sparse_out)"

    # Scenario-file smoke: the wire-format batch driver must run a
    # JSONL job file clean (the served twin of this path is covered by
    # ctest's smoke_lain_serve, which boots the daemon end to end).
    jobs_file="build/$preset/check_all_jobs.jsonl"
    printf '%s\n' \
      '{"scenario":"injection_sweep","rates":"0.05","patterns":"uniform","schemes":"sdpc"}' \
      > "$jobs_file"
    if ! "build/$preset/lain_bench" --scenario-file "$jobs_file" \
        --csv >/dev/null; then
      echo "check_all: scenario-file smoke failed" >&2
      exit 1
    fi
    echo "check_all: scenario-file smoke OK ($jobs_file)"
  fi
done

echo "check_all: all presets green"
