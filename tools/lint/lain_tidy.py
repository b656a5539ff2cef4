#!/usr/bin/env python3
"""lain_tidy — the compile-database-driven tidy gate.

Two backends, chosen by what the host has:

  clang-tidy     when on PATH: runs it over every src/ translation
                 unit in compile_commands.json with the checked-in
                 .clang-tidy (bugprone-*, concurrency-*,
                 performance-*, modernize-use-override).
  GCC fallback   otherwise: re-runs each TU with `g++ -fsyntax-only`
                 plus a curated warning set approximating the tidy
                 profile (-Wsuggest-override, -Wnon-virtual-dtor,
                 -Wduplicated-cond/-branches, -Wlogical-op,
                 -Wextra-semi, ...), one compiler per CPU at a time.
                 Any warning fails the gate.

Either way the gate is enforced — a container without clang-tidy
still rejects override-less virtuals and duplicated conditions, and a
developer box with clang-tidy gets the full profile.

Usage:
  lain_tidy.py --root <repo> --build-dir <build>   gate the tree
  lain_tidy.py --self-test                         prove the active
                                                   backend flags the
                                                   seeded fixture
"""

import argparse
import concurrent.futures
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

# The GCC approximation of the .clang-tidy profile.  Every flag here
# must hold on the clean tree: additions are welcome, noise is not.
GCC_WARNINGS = [
    "-Wall",
    "-Wextra",
    "-Wsuggest-override",
    "-Wnon-virtual-dtor",
    "-Wduplicated-cond",
    "-Wduplicated-branches",
    "-Wlogical-op",
    "-Wextra-semi",
    "-Woverloaded-virtual",
]


def load_compile_commands(build_dir):
    db = build_dir / "compile_commands.json"
    if not db.is_file():
        print("lain_tidy: %s not found (configure with CMake first; "
              "CMAKE_EXPORT_COMPILE_COMMANDS is on by default)" % db,
              file=sys.stderr)
        return None
    return json.loads(db.read_text())


def src_entries(entries, root):
    src = (root / "src").resolve()
    for e in entries:
        f = Path(e["file"])
        if not f.is_absolute():
            f = Path(e["directory"]) / f
        try:
            f.resolve().relative_to(src)
        except ValueError:
            continue
        yield e


def entry_argv(entry):
    if "arguments" in entry:
        return list(entry["arguments"])
    return shlex.split(entry["command"])


def strip_output_args(argv):
    """Drop -c and -o <obj>; keep flags, defines and includes."""
    out = []
    skip = False
    for a in argv[1:]:
        if skip:
            skip = False
            continue
        if a == "-o":
            skip = True
            continue
        if a == "-c":
            continue
        out.append(a)
    return out


def run_clang_tidy(clang_tidy, entries, root, build_dir):
    files = sorted({e["file"] for e in src_entries(entries, root)})
    failures = 0
    for f in files:
        r = subprocess.run(
            [clang_tidy, "-p", str(build_dir), "--quiet",
             "--warnings-as-errors=*", f],
            capture_output=True, text=True)
        if r.returncode != 0:
            failures += 1
            sys.stdout.write(r.stdout)
            sys.stderr.write(r.stderr)
    return failures


def gcc_fallback_cmd(entry):
    argv = entry_argv(entry)
    compiler = argv[0]
    args = [a for a in strip_output_args(argv) if a != entry["file"]]
    # The last operand may be a relative spelling of the source.
    args = [a for a in args
            if Path(entry["directory"], a).resolve() !=
            Path(entry["directory"], entry["file"]).resolve()]
    return [compiler, "-fsyntax-only"] + GCC_WARNINGS + args + [entry["file"]]


def run_gcc_fallback(entries, root):
    """Checks every src/ TU, os.cpu_count() compilers at a time.

    Each TU is an independent `g++ -fsyntax-only`, so the pool changes
    only the wall time: findings print in compile-database order and
    the failure rule (nonzero exit or any diagnostic) is per TU.
    """
    todo = list(src_entries(entries, root))

    def check(entry):
        return subprocess.run(gcc_fallback_cmd(entry), cwd=entry["directory"],
                              capture_output=True, text=True)

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(check, todo))
    failures = 0
    for e, r in zip(todo, results):
        if r.returncode != 0 or r.stderr.strip():
            failures += 1
            print("lain_tidy[gcc]: %s" % e["file"])
            sys.stderr.write(r.stderr)
    return failures


def self_test():
    fixture = Path(__file__).resolve().parent / "fixtures" / "fixture_tidy.cpp"
    clang_tidy = shutil.which("clang-tidy")
    if clang_tidy:
        config = Path(__file__).resolve().parents[2] / ".clang-tidy"
        r = subprocess.run(
            [clang_tidy, "--quiet", "--warnings-as-errors=*",
             "--config-file=%s" % config, str(fixture), "--", "-std=c++17"],
            capture_output=True, text=True)
        fired = r.returncode != 0 and "override" in (r.stdout + r.stderr)
        backend = "clang-tidy"
    else:
        r = subprocess.run(
            ["g++", "-fsyntax-only", "-std=c++17"] + GCC_WARNINGS +
            [str(fixture)],
            capture_output=True, text=True)
        fired = "override" in r.stderr
        backend = "gcc fallback"
    if fired:
        print("ok: %s flags the override-less virtual in %s" %
              (backend, fixture.name))
        return 0
    print("SELF-TEST FAILURE: %s did not flag %s:\n%s%s" %
          (backend, fixture.name, r.stdout, r.stderr), file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path)
    ap.add_argument("--build-dir", type=Path)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.root or not args.build_dir:
        ap.error("--root and --build-dir are required (or --self-test)")
    entries = load_compile_commands(args.build_dir.resolve())
    if entries is None:
        return 1
    clang_tidy = shutil.which("clang-tidy")
    if clang_tidy:
        failures = run_clang_tidy(clang_tidy, entries, args.root.resolve(),
                                  args.build_dir.resolve())
        backend = "clang-tidy"
    else:
        failures = run_gcc_fallback(entries, args.root.resolve())
        backend = "gcc fallback"
    if failures:
        print("lain_tidy: %d translation unit(s) failed (%s)" %
              (failures, backend), file=sys.stderr)
        return 1
    print("lain_tidy: clean (%s)" % backend)
    return 0


if __name__ == "__main__":
    sys.exit(main())
