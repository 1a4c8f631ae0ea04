#!/usr/bin/env python3
"""vkey_lint.py — repo-invariant linter for the Vehicle-Key tree.

Enforces determinism and hygiene rules that clang-tidy cannot express.
Zero dependencies; run it directly or via `cmake --build build --target lint`.

Rules
-----
wall-clock
    No wall-clock reads (`std::chrono::*_clock::now`, `time()`, `clock()`,
    `gettimeofday`, ...) in library (`src/`) or test (`tests/`) code.
    Protocol/nn/core code must take time from the PR-1 `SimClock` (or the
    pluggable `trace::NowFn`) so sessions are bit-reproducible; the single
    sanctioned wall-clock entry point is `trace::wall_now_ms()` in
    `src/common/trace.cpp`. Benches and examples measure real elapsed time
    and are exempt.

unseeded-random
    No `rand()`, `srand()`, `std::random_device`, `std::mt19937`, or
    `<random>` anywhere in `src/` or `tests/`. All randomness must flow
    through the explicitly seeded generator in `common/rng.h`, otherwise
    the paper's KAR/Eve numbers stop being reproducible.

iostream-in-lib
    No `<iostream>` in library targets (`src/`): global stream objects add
    static-init order hazards and the library reports through the metrics /
    table / json layers, never by printing. Benches, examples and tests are
    driver code and may print.

raw-thread
    No `std::thread` / `std::jthread` construction in library (`src/`) code
    outside `common/parallel`. Ad-hoc threads bypass the determinism
    contract (per-index purity, ordered reduction — DESIGN.md "Parallel
    execution & determinism contract") and the pool's queue-depth/task
    accounting; fan work out through `parallel::parallel_for` instead.
    Qualified statics like `std::thread::hardware_concurrency()` are fine.
    Tests, benches, examples and tools drive the library from outside and
    may spawn threads.

bounded-reader
    No raw byte parsing in the protocol layer (`src/protocol/`): no
    `reinterpret_cast` and no `.data() + offset` pointer arithmetic. Wire
    bytes are parsed exclusively through the bounds-checked
    `wire::FrameReader` / built through `wire::FrameWriter`; hand-rolled
    pointer walks are how length-field bugs become buffer overruns. The
    codec itself (`src/protocol/wire.*`) is the single sanctioned owner of
    raw byte access.

sim-clock-owner
    No private `SimClock` construction in the protocol layer
    (`src/protocol/`) outside the gateway scheduler. The gateway engine is
    the clock authority: it owns THE shared lifecycle timeline and
    constructs the per-session sub-clocks it hands to
    `run_reliable_key_agreement_on` (DESIGN.md "Gateway engine"). A layer
    that quietly news up its own clock forks the timeline — its events can
    never interleave with the rest of the gateway, which is exactly the
    multi-session bug the shared queue exists to prevent. The
    single-session convenience wrapper in `reliability.cpp` carries an
    inline `// vkey-lint: allow(sim-clock-owner)` suppression. Tests,
    benches and examples construct clocks freely.

no-raw-memcmp-on-secrets
    No `memcmp` in the key-lifecycle layers (`src/crypto/`, `src/protocol/`).
    memcmp short-circuits on the first differing byte, so comparing MACs or
    keys with it leaks a timing oracle (the classic remote-timing HMAC
    bypass). All comparisons in those layers go through
    `crypto::constant_time_equal` (src/crypto/secret_buffer.h), whose
    OR-accumulator touches every byte regardless of where the mismatch is.
    `secret_buffer.cpp` is the single sanctioned comparison owner. Code
    outside the secret layers (e.g. file-magic checks in nn/serialize) and
    tests comparing public vectors are unaffected.

instrument-lookup
    In library code (`src/`), `metrics::Registry::global()` appears only
    as the initializer of a `static` — one function-local static per
    instrument (or per registry reference), bound once per process. Any
    other statement that reaches the registry runs its find-or-create
    search, which builds a name, takes the global mutex and scans by string,
    every time it executes; on a per-event path that is most of the
    metrics cost, and `VKEY_METRICS=off` cannot remove it. The protocol
    stack declares its instruments in the catalogue
    (`src/protocol/instruments.*`); elsewhere, bind a function-local
    static. The registry itself and the whole-snapshot readers are
    allowlisted.

pragma-once
    Every header's first preprocessor directive must be `#pragma once`.

using-namespace-in-header
    No `using namespace` at any scope in a header: it leaks into every
    includer.

Suppressions
------------
A violating line may carry a trailing `// vkey-lint: allow(<rule>)` comment;
use it only with a justification nearby. Per-file exemptions live in
ALLOWLIST below, each with a reason.
"""

import argparse
import re
import sys
from pathlib import Path

LINT_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

# path (repo-relative, POSIX) -> {rule: reason}. Reasons are printed with
# --explain so the allowlist stays self-documenting.
ALLOWLIST = {
    "src/common/trace.cpp": {
        "wall-clock": (
            "wall_now_ms() is the single sanctioned wall-clock entry point; "
            "everything else routes through trace::NowFn / SimClock"
        ),
    },
    "src/common/parallel.cpp": {
        "raw-thread": (
            "the deterministic pool is the single sanctioned owner of "
            "worker threads; everything else borrows lanes via parallel_for"
        ),
    },
    "src/protocol/wire.h": {
        "bounded-reader": (
            "the frame codec is the single sanctioned owner of raw wire "
            "bytes; everything else parses through FrameReader"
        ),
    },
    "src/protocol/wire.cpp": {
        "bounded-reader": (
            "the frame codec is the single sanctioned owner of raw wire "
            "bytes; everything else parses through FrameReader"
        ),
    },
    "src/protocol/gateway.h": {
        "sim-clock-owner": (
            "the gateway engine is the clock authority: it owns the shared "
            "lifecycle timeline every session's events interleave on"
        ),
    },
    "src/protocol/gateway.cpp": {
        "sim-clock-owner": (
            "the gateway scheduler constructs the dedicated per-session "
            "sub-clocks it hands to run_reliable_key_agreement_on"
        ),
    },
    "src/common/metrics.cpp": {
        "instrument-lookup": (
            "the registry itself: defines Registry::global()"
        ),
    },
    "src/protocol/instruments.cpp": {
        "instrument-lookup": (
            "the protocol stack's instrument catalogue binds every member "
            "once, inside the initializer of its function-local static"
        ),
    },
    "src/common/bench_io.cpp": {
        "instrument-lookup": (
            "snapshot reader: copies the whole registry into a bench "
            "document once per run, never per event"
        ),
    },
    "src/common/telemetry.cpp": {
        "instrument-lookup": (
            "snapshot reader: the sampler reads the whole registry once per "
            "virtual-time sample, never per event"
        ),
    },
    "src/crypto/secret_buffer.cpp": {
        "no-raw-memcmp-on-secrets": (
            "the zeroizing container is the single sanctioned comparison "
            "owner; constant_time_equal lives here"
        ),
    },
}

# Directories exempt from a rule wholesale.
RULE_EXEMPT_DIRS = {
    "wall-clock": ("bench", "examples", "tools"),
    "unseeded-random": ("bench", "examples", "tools"),
    "iostream-in-lib": ("bench", "examples", "tests", "tools"),
    "raw-thread": ("bench", "examples", "tests", "tools"),
}

WALL_CLOCK_PATTERNS = [
    re.compile(r"std\s*::\s*chrono\s*::\s*steady_clock"),
    re.compile(r"std\s*::\s*chrono\s*::\s*system_clock"),
    re.compile(r"std\s*::\s*chrono\s*::\s*high_resolution_clock"),
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?time\s*\(\s*(?:nullptr|NULL|0|&)"),
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?clock\s*\(\s*\)"),
    re.compile(r"(?<![\w:])gettimeofday\s*\("),
    re.compile(r"(?<![\w:])clock_gettime\s*\("),
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?(?:localtime|gmtime)\s*\("),
]

RANDOM_PATTERNS = [
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?s?rand\s*\(\s*\)"),
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?srand\s*\("),
    re.compile(r"std\s*::\s*random_device"),
    re.compile(r"std\s*::\s*(?:mt19937|minstd_rand|default_random_engine)"),
    re.compile(r"#\s*include\s*<random>"),
]

# `std::thread` / `std::jthread` as a type, but not qualified statics such
# as `std::thread::hardware_concurrency()`.
RAW_THREAD_PATTERN = re.compile(r"std\s*::\s*j?thread\b(?!\s*::)")

# Raw byte access in protocol code: type-punning casts and pointer
# arithmetic off a buffer's .data(). Scoped to src/protocol/ (see
# BOUNDED_READER_SCOPE); the wire codec is allowlisted.
BOUNDED_READER_PATTERNS = [
    re.compile(r"(?<![\w:])reinterpret_cast\s*<"),
    re.compile(r"\.data\s*\(\s*\)\s*\+"),
]
BOUNDED_READER_SCOPE = "src/protocol/"

# SimClock construction (by value, new, or make_unique/make_shared) in
# protocol code: only the gateway scheduler may mint timelines. References
# and parameters (`SimClock&`) pass an existing clock and are fine.
SIM_CLOCK_OWNER_PATTERNS = [
    re.compile(r"(?<![\w:])SimClock\s+\w+\s*[;{(=]"),
    re.compile(r"(?<![\w:])new\s+SimClock\b"),
    re.compile(r"make_(?:unique|shared)\s*<\s*SimClock\b"),
]
SIM_CLOCK_OWNER_SCOPE = "src/protocol/"

# memcmp in the key-lifecycle layers: short-circuit comparison is a timing
# oracle when the operands are MACs or keys. constant_time_equal
# (src/crypto/secret_buffer.h) is the sanctioned comparator there.
MEMCMP_PATTERN = re.compile(r"(?<![\w:])(?:std\s*::\s*)?memcmp\s*\(")
MEMCMP_SCOPES = ("src/crypto/", "src/protocol/")

# Registry lookups in library code: allowed only as the initializer of a
# `static` (the statement, which may span lines, must start with `static`).
INSTRUMENT_LOOKUP_PATTERN = re.compile(r"Registry\s*::\s*global\s*\(\s*\)")
INSTRUMENT_LOOKUP_SCOPE = "src/"
STATEMENT_START = re.compile(r"^\s*static\b")

IOSTREAM_PATTERN = re.compile(r"#\s*include\s*<iostream>")
USING_NAMESPACE_PATTERN = re.compile(r"(?<![\w:])using\s+namespace\s+[\w:]+")
SUPPRESS_PATTERN = re.compile(r"//\s*vkey-lint:\s*allow\(([\w, -]+)\)")
PREPROC_PATTERN = re.compile(r"^\s*#\s*(\w+)")

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def top_dir(rel):
    return rel.split("/", 1)[0]


def rule_applies(rule, rel):
    if top_dir(rel) in RULE_EXEMPT_DIRS.get(rule, ()):
        return False
    return rule not in ALLOWLIST.get(rel, {})


def strippable_positions(text):
    """Line numbers (1-based) fully inside block comments."""
    inside = set()
    for m in BLOCK_COMMENT.finditer(text):
        start = text.count("\n", 0, m.start()) + 1
        end = text.count("\n", 0, m.end()) + 1
        for ln in range(start, end + 1):
            inside.add(ln)
    return inside


def code_view(line):
    """The line with string literals and trailing // comment removed."""
    line = STRING_LIT.sub('""', line)
    idx = line.find("//")
    if idx >= 0:
        line = line[:idx]
    return line


def lookup_statements(lines, block_lines):
    """(line, statement prefix) for each Registry::global() in the code.

    The prefix runs from the end of the previous statement or brace to the
    lookup, so a static initializer split over lines still starts with
    `static`."""
    code = []
    starts = []
    offset = 0
    for i, raw in enumerate(lines, start=1):
        text = "" if i in block_lines else code_view(raw)
        starts.append(offset)
        code.append(text)
        offset += len(text) + 1
    joined = "\n".join(code)
    out = []
    for m in INSTRUMENT_LOOKUP_PATTERN.finditer(joined):
        begin = max(joined.rfind(c, 0, m.start()) for c in ";{}") + 1
        lineno = joined.count("\n", 0, m.start()) + 1
        out.append((lineno, joined[begin:m.start()]))
    return out


def scan_file(path, rel, explain):
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.split("\n")
    block_lines = strippable_positions(text)
    out = []

    def check(rule, lineno, raw, message):
        if not rule_applies(rule, rel):
            return
        m = SUPPRESS_PATTERN.search(raw)
        if m and rule in {r.strip() for r in m.group(1).split(",")}:
            return
        out.append(Violation(rel, lineno, rule, message))

    is_header = path.suffix in {".h", ".hpp"}
    saw_pragma_once = False
    first_directive = None

    for i, raw in enumerate(lines, start=1):
        if i in block_lines:
            continue
        code = code_view(raw)
        if not code.strip():
            continue

        d = PREPROC_PATTERN.match(code)
        if d and first_directive is None:
            first_directive = (i, d.group(1), code.strip())
        if "#pragma once" in code:
            saw_pragma_once = True

        for pat in WALL_CLOCK_PATTERNS:
            if pat.search(code):
                check("wall-clock", i, raw,
                      "wall-clock read in deterministic code; use SimClock / "
                      "trace::NowFn (see DESIGN.md determinism rules)")
                break
        for pat in RANDOM_PATTERNS:
            if pat.search(code):
                check("unseeded-random", i, raw,
                      "randomness outside common/rng.h; seeded Rng only")
                break
        if RAW_THREAD_PATTERN.search(code):
            check("raw-thread", i, raw,
                  "raw std::thread in a library target; fan out through "
                  "parallel::parallel_for (common/parallel) so the "
                  "determinism contract holds")
        if rel.startswith(BOUNDED_READER_SCOPE):
            for pat in BOUNDED_READER_PATTERNS:
                if pat.search(code):
                    check("bounded-reader", i, raw,
                          "raw byte access in protocol code; parse wire "
                          "bytes through wire::FrameReader (bounds-checked) "
                          "instead of casts/pointer arithmetic")
                    break
        if rel.startswith(MEMCMP_SCOPES) and MEMCMP_PATTERN.search(code):
            check("no-raw-memcmp-on-secrets", i, raw,
                  "memcmp in a key-lifecycle layer is a timing oracle; "
                  "compare through crypto::constant_time_equal "
                  "(src/crypto/secret_buffer.h)")
        if rel.startswith(SIM_CLOCK_OWNER_SCOPE):
            for pat in SIM_CLOCK_OWNER_PATTERNS:
                if pat.search(code):
                    check("sim-clock-owner", i, raw,
                          "private SimClock construction in protocol code; "
                          "the gateway engine owns the shared timeline and "
                          "mints per-session sub-clocks — take a SimClock& "
                          "from the caller instead")
                    break
        if IOSTREAM_PATTERN.search(code):
            check("iostream-in-lib", i, raw,
                  "<iostream> in a library target; report via metrics/"
                  "table/json instead")
        if is_header and USING_NAMESPACE_PATTERN.search(code):
            check("using-namespace-in-header", i, raw,
                  "`using namespace` leaks into every includer")

    if rel.startswith(INSTRUMENT_LOOKUP_SCOPE):
        for lineno, statement in lookup_statements(lines, block_lines):
            if not STATEMENT_START.match(statement):
                check("instrument-lookup", lineno, lines[lineno - 1],
                      "registry lookup outside a static initializer runs a "
                      "locked by-name search each time; declare the "
                      "instrument in the protocol catalogue "
                      "(protocol/instruments.h) or bind a function-local "
                      "static")

    if is_header:
        if not saw_pragma_once:
            check("pragma-once", 1, "", "header lacks `#pragma once`")
        elif first_directive and first_directive[1] != "pragma":
            check("pragma-once", first_directive[0], "",
                  "`#pragma once` must be the first preprocessor directive "
                  f"(found `{first_directive[2]}` first)")

    if explain and rel in ALLOWLIST:
        for rule, reason in ALLOWLIST[rel].items():
            print(f"note: {rel} exempt from [{rule}]: {reason}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--explain", action="store_true",
                    help="print allowlist reasons for scanned files")
    ap.add_argument("paths", nargs="*",
                    help="specific files to lint (default: whole tree)")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    if args.paths:
        files = [Path(p).resolve() for p in args.paths]
    else:
        files = []
        for d in LINT_DIRS:
            base = root / d
            if base.is_dir():
                files.extend(p for p in sorted(base.rglob("*"))
                             if p.suffix in SOURCE_SUFFIXES)

    violations = []
    for f in files:
        try:
            rel = f.relative_to(root).as_posix()
        except ValueError:
            rel = f.as_posix()
        violations.extend(scan_file(f, rel, args.explain))

    for v in violations:
        print(v)
    if violations:
        print(f"vkey_lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)", file=sys.stderr)
        return 1
    print(f"vkey_lint: clean ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
