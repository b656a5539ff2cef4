#!/usr/bin/env python3
"""lain_lint — project-contract lint for the lain simulator.

Enforces the invariants clang-tidy has no checks for, driven by the
contract markers in src/core/contracts.hpp:

  no-alloc       no operator new / malloc / container-growth calls
                 inside a LAIN_NO_ALLOC function extent (the runtime
                 proof lives in tests/noalloc_probe.cpp; this is the
                 static half).
  hot-throw      no `throw` inside a LAIN_HOT_PATH function extent
                 (hot-path flow-control checks are asserts, free in
                 Release).
  determinism    no rand()/std::random_device/wall-clock reads in
                 src/ outside src/noc/rng.hpp: every stochastic or
                 timing decision must flow through the deterministic
                 per-node RNG streams.  src/core/bench_suite.cpp is
                 pinned (the wall-clock Mcyc/s column is measurement,
                 not simulation).
  mutable-global no mutable namespace-scope state outside LainContext:
                 globals silently break the bit-identical sharding
                 contract and re-entrancy.
  telemetry-hook no heavyweight telemetry (MetricsSink/MetricsStreamer
                 types, on_window/on_flit emission calls, to_json) in a
                 LAIN_HOT_PATH or LAIN_NO_ALLOC extent: hot code may
                 only use the LAIN_TELEMETRY_* counter hooks and
                 ScopedNs/FlitTraceRing (zero-alloc, no-throw by
                 construction); sinks format and write — cold-path
                 work that belongs after the phase barrier.  The same
                 rule keeps the sweep service's socket machinery
                 (serve::, FrameWriter, write_line, send/recv) out of
                 hot extents: frames go out after the boundary, never
                 from inside a shard phase.

  event-queue    no std::priority_queue or node-allocating ordered
                 container (std::map/set/multimap/multiset) inside a
                 LAIN_HOT_PATH or LAIN_NO_ALLOC extent: the
                 event-driven kernel schedules with std::push_heap /
                 std::pop_heap over preallocated vectors precisely so
                 the skip-target computation stays allocation-free in
                 steady state — a drive-by "cleaner" rewrite to
                 priority_queue would reintroduce per-event churn.
  json-literal   no string literal spelling a JSON key (\"key\":)
                 outside src/core/json.cpp: every JSON line LAIN
                 writes goes through core::JsonLine, so the string
                 rule and the number formats live in one codec.

Suppress a single finding with a `LAIN_LINT_ALLOW(<rule>): why`
comment on the offending line or up to three lines above it.

Usage:
  lain_lint.py --root <repo>     lint src/ (exit 1 on findings)
  lain_lint.py --self-test       prove every rule fires on the seeded
                                 fixtures in tools/lint/fixtures/
"""

import argparse
import re
import sys
from pathlib import Path

MARKERS = {"no-alloc": "LAIN_NO_ALLOC", "hot-throw": "LAIN_HOT_PATH"}

ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "C allocation"),
    (re.compile(
        r"\.\s*(?:push_back|emplace_back|push_front|emplace_front|resize|"
        r"reserve|insert|emplace|assign|append)\s*\("), "container growth"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "smart-pointer allocation"),
]

THROW_PATTERN = re.compile(r"\bthrow\b")

# Telemetry machinery that formats or writes — forbidden in marked hot
# extents.  The approved hot-path instruments (LAIN_TELEMETRY_* macros,
# telemetry::ScopedNs, FlitTraceRing::push) do not match any of these.
TELEMETRY_PATTERNS = [
    (re.compile(r"\btelemetry\s*::\s*\w*(?:Sink|Streamer)\b"),
     "telemetry sink/streamer use"),
    (re.compile(r"\b(?:Metrics|Memory|Jsonl|Progress|Multi)Sink\b"),
     "telemetry sink use"),
    (re.compile(r"\.\s*on_(?:manifest|window|flit|summary)\s*\("),
     "telemetry emission call"),
    (re.compile(r"\bto_json\s*\("), "telemetry serialization"),
    # The sweep service's transport lives strictly on the host side of
    # the telemetry boundary: sockets, frame writers and protocol
    # serialization may never appear inside a marked hot extent.
    (re.compile(r"\bserve\s*::|\bFrameWriter\b|\bSocketServer\b"),
     "sweep-service socket machinery"),
    (re.compile(r"\bwrite_line\s*\(|::\s*(?:send|recv)\s*\("),
     "socket frame write"),
]

# Allocating schedulers — forbidden in marked hot extents.  The event
# kernel's arrival heap is std::push_heap/pop_heap over a preallocated
# vector; these types would put an allocation on every event.
EVENTQUEUE_PATTERNS = [
    (re.compile(r"\bpriority_queue\s*<"), "std::priority_queue scheduler"),
    (re.compile(r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<"),
     "node-allocating ordered container"),
]

DETERMINISM_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock read"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
]

# Files exempt from the determinism rule, with the reason pinned here.
DETERMINISM_EXEMPT = {
    "src/noc/rng.hpp": "the deterministic RNG implementation itself",
    "src/core/bench_suite.cpp": "wall-clock Mcyc/s column (measurement)",
    "src/core/telemetry.cpp":
        "host-profiling monotonic clock (telemetry; never fed back "
        "into the simulation)",
    "src/serve/service.cpp":
        "job wall-clock timeout monitor (serve robustness; host-side "
        "only, never fed into a simulation)",
}

# A JSON key as C++ source spells it inside a string literal: \"key\":
JSON_KEY_RE = re.compile(r'\\"[^"\\\n]+\\":')
# The one file allowed to spell JSON (the codec itself).
JSON_CODEC = "src/core/json.cpp"

ALLOW_RE = re.compile(r"LAIN_LINT_ALLOW\(([a-z-]+)\)")
# An allow comment covers its own line and the three lines below it
# (multi-line comments sit above the statement they suppress).
ALLOW_REACH = 3

KEYWORD_SKIP = (
    "const", "constexpr", "using", "typedef", "namespace", "class",
    "struct", "union", "enum", "extern", "template", "friend",
    "static_assert", "public", "private", "protected", "return",
    "if", "for", "while", "switch", "case", "break", "goto", "else",
)


# Comments, string literals and character literals, in source order.
TOKEN_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.DOTALL)


def strip_comments_and_strings(text):
    """Blank out comments and literals, preserving offsets/newlines."""

    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))

    return TOKEN_RE.sub(blank, text)


def allow_lines(raw_text):
    """rule -> set of 1-based line numbers where findings are waived."""
    allowed = {}
    for i, line in enumerate(raw_text.splitlines(), start=1):
        for m in ALLOW_RE.finditer(line):
            reach = allowed.setdefault(m.group(1), set())
            reach.update(range(i, i + ALLOW_REACH + 1))
    return allowed


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def marker_extents(stripped, marker):
    """Yield (start, end) offsets of function bodies tagged `marker`."""
    for m in re.finditer(r"\b%s\b" % marker, stripped):
        line_start = stripped.rfind("\n", 0, m.start()) + 1
        if stripped[line_start:m.start()].lstrip().startswith("#"):
            continue  # the macro definition itself
        pos, open_brace = m.end(), -1
        while pos < len(stripped):
            c = stripped[pos]
            if c == ";":
                break  # declaration, not a definition: no extent
            if c == "{":
                open_brace = pos
                break
            pos += 1
        if open_brace < 0:
            continue
        depth, pos = 1, open_brace + 1
        while pos < len(stripped) and depth:
            if stripped[pos] == "{":
                depth += 1
            elif stripped[pos] == "}":
                depth -= 1
            pos += 1
        yield open_brace, pos


def check_extent_rule(path, raw, stripped, allowed, rule, patterns):
    findings = []
    waived = allowed.get(rule, set())
    for start, end in marker_extents(stripped, MARKERS[rule]):
        body = stripped[start:end]
        for pat, what in patterns:
            for m in pat.finditer(body):
                ln = line_of(stripped, start + m.start())
                if ln in waived:
                    continue
                findings.append("%s:%d: [%s] %s in a %s extent" %
                                (path, ln, rule, what, MARKERS[rule]))
    return findings


def check_telemetry_hooks(path, stripped, allowed):
    """telemetry-hook: only the zero-cost instruments may appear in a
    marked hot extent; sinks/streamers/serializers may not."""
    findings = []
    waived = allowed.get("telemetry-hook", set())
    for marker in ("LAIN_HOT_PATH", "LAIN_NO_ALLOC"):
        for start, end in marker_extents(stripped, marker):
            body = stripped[start:end]
            for pat, what in TELEMETRY_PATTERNS:
                for m in pat.finditer(body):
                    ln = line_of(stripped, start + m.start())
                    if ln in waived:
                        continue
                    findings.append(
                        "%s:%d: [telemetry-hook] %s in a %s extent "
                        "(hot code may only use LAIN_TELEMETRY_* hooks)" %
                        (path, ln, what, marker))
    return findings


def check_event_queue(path, stripped, allowed):
    """event-queue: no allocating scheduler containers in hot extents
    (heap algorithms over preallocated vectors are the approved shape)."""
    findings = []
    waived = allowed.get("event-queue", set())
    for marker in ("LAIN_HOT_PATH", "LAIN_NO_ALLOC"):
        for start, end in marker_extents(stripped, marker):
            body = stripped[start:end]
            for pat, what in EVENTQUEUE_PATTERNS:
                for m in pat.finditer(body):
                    ln = line_of(stripped, start + m.start())
                    if ln in waived:
                        continue
                    findings.append(
                        "%s:%d: [event-queue] %s in a %s extent (schedule "
                        "with std::push_heap/pop_heap over a preallocated "
                        "vector)" % (path, ln, what, marker))
    return findings


def check_determinism(path, rel, stripped, allowed):
    if str(rel).replace("\\", "/") in DETERMINISM_EXEMPT:
        return []
    findings = []
    waived = allowed.get("determinism", set())
    for pat, what in DETERMINISM_PATTERNS:
        for m in pat.finditer(stripped):
            ln = line_of(stripped, m.start())
            if ln in waived:
                continue
            findings.append(
                "%s:%d: [determinism] %s outside src/noc/rng.hpp" %
                (path, ln, what))
    return findings


def check_json_literals(path, rel, raw, allowed):
    """json-literal: JSON is spelled only by the codec in JSON_CODEC."""
    if str(rel).replace("\\", "/") == JSON_CODEC:
        return []
    findings = []
    waived = allowed.get("json-literal", set())
    for m in TOKEN_RE.finditer(raw):
        literal = m.group(0)
        if not literal.startswith('"') or not JSON_KEY_RE.search(literal):
            continue
        ln = line_of(raw, m.start())
        if ln in waived:
            continue
        findings.append(
            "%s:%d: [json-literal] JSON key spelled in a string literal "
            "outside %s (build the line with core::JsonLine)" %
            (path, ln, JSON_CODEC))
    return findings


def classify_brace(stripped, pos):
    """What kind of scope does the '{' at pos open?"""
    look = stripped[max(0, pos - 240):pos]
    # Strip a trailing run of template/attribute noise conservatively.
    if re.search(r"\bnamespace(\s+[\w:]+)?\s*$", look):
        return "namespace"
    if re.search(r"\b(?:class|struct|union|enum)\b[^;{}()]*$", look):
        return "type"
    if re.search(r'\bextern\s+"C[^"]*"\s*$', look):
        return "namespace"
    return "other"  # function body, initializer, lambda, ...


def namespace_scope_statements(stripped):
    """Yield (start, text) of each ';'-terminated statement whose
    enclosing scopes are all namespaces (i.e. true globals)."""
    depth_kinds = []
    stmt_start = 0
    i = 0
    n = len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            kind = classify_brace(stripped, i)
            depth_kinds.append(kind)
            if kind == "namespace" and all(
                    k == "namespace" for k in depth_kinds):
                stmt_start = i + 1  # statements resume inside a namespace
            else:
                stmt_start = -1  # skip the statement closing this scope
        elif c == "}":
            if depth_kinds:
                depth_kinds.pop()
            if all(k == "namespace" for k in depth_kinds):
                stmt_start = i + 1
        elif c == ";":
            at_ns_scope = all(k == "namespace" for k in depth_kinds)
            if at_ns_scope and stmt_start >= 0:
                yield stmt_start, stripped[stmt_start:i]
            if at_ns_scope:
                stmt_start = i + 1
        i += 1


DECL_RE = re.compile(
    r"^(?:static\s+|thread_local\s+|inline\s+)*"
    r"[A-Za-z_][\w:<>,\s*&]*?[\s*&]"
    r"[A-Za-z_]\w*\s*(?:=[^;]*|\[[^\]]*\]\s*(?:=[^;]*)?)?$")


def check_mutable_globals(path, stripped, allowed):
    findings = []
    waived = allowed.get("mutable-global", set())
    for start, stmt in namespace_scope_statements(stripped):
        text = stmt.strip()
        if not text or text.startswith("#"):
            continue
        first_word = re.match(r"[A-Za-z_]\w*", text)
        if not first_word or first_word.group(0) in KEYWORD_SKIP:
            continue
        if "(" in text or ")" in text:
            continue  # function declaration / macro call
        if re.search(r"\bconst\b|\bconstexpr\b", text):
            continue
        if not DECL_RE.match(text):
            continue
        ln = line_of(stripped, start + len(stmt) - len(stmt.lstrip()))
        if ln in waived:
            continue
        findings.append(
            "%s:%d: [mutable-global] mutable namespace-scope state "
            "(keep mutable state in LainContext or pass it explicitly)" %
            (path, ln))
    return findings


def lint_file(path, rel):
    raw = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(raw)
    allowed = allow_lines(raw)
    findings = []
    findings += check_extent_rule(path, raw, stripped, allowed, "no-alloc",
                                  ALLOC_PATTERNS)
    findings += check_extent_rule(path, raw, stripped, allowed, "hot-throw",
                                  [(THROW_PATTERN, "throw")])
    findings += check_telemetry_hooks(path, stripped, allowed)
    findings += check_event_queue(path, stripped, allowed)
    findings += check_determinism(path, rel, stripped, allowed)
    findings += check_mutable_globals(path, stripped, allowed)
    findings += check_json_literals(path, rel, raw, allowed)
    return findings


def lint_tree(root):
    src = root / "src"
    findings = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
            continue
        findings += lint_file(path, path.relative_to(root))
    return findings


def self_test():
    fixtures = Path(__file__).resolve().parent / "fixtures"
    expect = {
        "fixture_noalloc.cpp": "[no-alloc]",
        "fixture_throw.cpp": "[hot-throw]",
        "fixture_determinism.cpp": "[determinism]",
        "fixture_global.cpp": "[mutable-global]",
        "fixture_telemetry.cpp": "[telemetry-hook]",
        "fixture_serve.cpp": "[telemetry-hook]",
        "fixture_eventqueue.cpp": "[event-queue]",
        "fixture_json.cpp": "[json-literal]",
    }
    failures = []
    for name, tag in sorted(expect.items()):
        path = fixtures / name
        findings = lint_file(path, Path(name))
        hits = [f for f in findings if tag in f]
        if hits:
            print("ok: %s -> %d %s finding(s), e.g. %s" %
                  (name, len(hits), tag, hits[0]))
        else:
            failures.append("%s: expected a %s finding, got %r" %
                            (name, tag, findings))
    # The allow-comment escape hatch must also work.
    allow_src = fixtures / "fixture_allow.cpp"
    allow_findings = lint_file(allow_src, Path("fixture_allow.cpp"))
    if allow_findings:
        failures.append("fixture_allow.cpp: LAIN_LINT_ALLOW did not "
                        "suppress: %r" % allow_findings)
    else:
        print("ok: fixture_allow.cpp -> suppressed by LAIN_LINT_ALLOW")
    for f in failures:
        print("SELF-TEST FAILURE: %s" % f, file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, help="repository root to lint")
    ap.add_argument("--self-test", action="store_true",
                    help="prove each rule fires on the seeded fixtures")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.root:
        ap.error("--root is required (or use --self-test)")
    findings = lint_tree(args.root.resolve())
    for f in findings:
        print(f)
    if findings:
        print("lain_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("lain_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
