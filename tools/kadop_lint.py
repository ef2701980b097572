#!/usr/bin/env python3
"""kadop_lint: repo-specific static checks for the KadoP codebase.

Enforces invariants no off-the-shelf tool knows about:

  KDP001  no-exceptions      `throw` / `try` / `catch` anywhere under src/.
                             The library is exception-free by contract;
                             fallible operations return Status/Result.
  KDP002  naked-value        `x.value()` / `x.take()` on a Result without a
                             prior `x.ok()` / `x.status()` / `x.has_value()`
                             check in the same function body.
  KDP003  include-guard      Headers under src/ must guard with
                             KADOP_<RELATIVE_PATH>_H_ (e.g. src/xml/sid.h
                             -> KADOP_XML_SID_H_).
  KDP004  bare-assert        `assert(...)` in non-header code under src/.
                             Use KADOP_CHECK (always on, prints location)
                             instead; `assert` compiles out in NDEBUG builds
                             and silently stops guarding the index.
  KDP005  dyadic-construct   Brace-construction of DyadicInterval outside
                             src/bloom/. Intervals must come from
                             DyadicCover / DyadicContainers / DyadicAncestors
                             so the level/alignment invariants hold.
  KDP006  manual-sid-test    Hand-rolled ancestor test (`a.start < b.start &&
                             b.end < a.end`-style conjunction) outside
                             src/xml/sid.h. Use IsAncestorOf / Encloses —
                             inline copies drift from the level-aware rules.
  KDP007  dyadic-zero        DyadicCover / DyadicContainers called with a
                             literal 0 position. The dyadic domain is
                             [1, 2^l]; position 0 is not representable.
  KDP008  posting-sort       `std::sort` with a custom comparator in the
                             posting-carrying layers (src/index, src/store).
                             Posting lists are kept in the canonical
                             (peer, doc, sid) order; sorting with an ad-hoc
                             comparator silently breaks merge joins and
                             range scans.
  KDP009  adhoc-counter      New integer member/variable declarations named
                             `*_count` / `*_counter` under src/ outside
                             src/obs/. Observable event tallies belong in
                             the metrics registry (obs::MetricRegistry) so
                             they show up in KadopStats / bench JSON;
                             existing wire-format and structural-size
                             fields are grandfathered per file.
  KDP010  raw-posting-math   `... * Posting::kWireBytes` (or `kWireBytes *
                             ...`) arithmetic outside src/index/posting.h
                             and src/index/codec.{h,cc}. Posting transfer
                             and storage sizes must route through the codec
                             size functions (codec::RawBytes / WireBytes /
                             EncodedBytes) so the encoded size is charged
                             consistently everywhere; a bare non-multiplied
                             `kWireBytes` term (fixed-format field) is fine.

Deliberate exceptions use the shared `// KDP-ALLOW(KDPxxx): <reason>`
suppression syntax (kdp_common.py — same mechanism as kadop_analyze.py);
the reason is mandatory and every accepted allow is printed in an
inventory. `--json` emits the machine-readable findings document that
tools/check_findings_json.py validates; kadop_analyze.py --with-lint
merges both tools into one such document.

Usage:
  kadop_lint.py --root <repo-root>            lint the tree (src/ + tools/)
  kadop_lint.py --root <repo-root> --json findings.json
  kadop_lint.py --root <repo-root> --self-test
      run the linter against tools/lint_fixtures/violations.cc.txt and fail
      unless every seeded violation is reported (guards against the linter
      rotting into a no-op).

Exit status: 0 clean, 1 violations found (or self-test mismatch), 2 usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from kdp_common import (Finding, apply_suppressions, findings_json, line_of,
                        parse_suppressions, print_suppression_inventory,
                        strip_comments_and_strings, write_findings_json)

TOOL = "kadop_lint"
OWN_RULES = {f"KDP{i:03d}" for i in range(1, 11)} | {"KDP000"}


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

RE_EXCEPTION = re.compile(r"\b(throw\b|try\s*\{|catch\s*\()")
RE_VALUE_USE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(value|take)\s*\(\s*\)")
RE_ASSERT = re.compile(r"(?<!_)\bassert\s*\(")
RE_DYADIC_BRACE = re.compile(r"\bDyadicInterval\s*\{")
RE_SID_MANUAL = re.compile(
    r"\.\s*start\s*<=?\s*[\w.]*\.\s*start\s*&&[^;\n]*\.\s*end\s*<=?"
    r"|\.\s*end\s*<=?\s*[\w.]*\.\s*end\s*&&[^;\n]*\.\s*start\s*<=?"
)
RE_DYADIC_ZERO = re.compile(r"\bDyadic(?:Cover|Containers)\s*\(\s*0\s*[,u]")
RE_SORT_CMP = re.compile(r"\bstd::(?:stable_)?sort\s*\(")
RE_GUARD = re.compile(r"^\s*#\s*ifndef\s+(\w+)", re.MULTILINE)
RE_ADHOC_COUNTER = re.compile(
    r"\b(?:uint(?:8|16|32|64)_t|int(?:8|16|32|64)_t|size_t|unsigned|int|"
    r"long)\s+(\w*_(?:count|counts|counter|counters)_?)\s*(?:=|;|\{)"
)
RE_RAW_POSTING_MATH = re.compile(
    r"\*\s*(?:\w+\s*::\s*)*kWireBytes\b|\bkWireBytes\s*\*"
)

# KDP010 exempt list: the raw record size's definition site and the codec
# library, which is the sanctioned home of raw-size arithmetic
# (codec::RawBytes and friends).
KDP010_EXEMPT_FILES = {
    "src/index/posting.h",
    "src/index/codec.h",
    "src/index/codec.cc",
}

# KDP009 grandfather list: files whose *_count declarations predate the
# metrics registry and are not event tallies — wire-format fields
# (messages.h, dpp_messages.h, reducer.h) and structural size bookkeeping
# (bplus_tree.h). New counters anywhere else must go through obs/.
KDP009_EXEMPT_FILES = {
    "src/query/messages.h",
    "src/query/reducer.h",
    "src/index/dpp_messages.h",
    "src/store/bplus_tree.h",
}


def function_scope_start(clean: str, offset: int) -> int:
    """Offset of the opening brace of the outermost scope enclosing `offset`.

    Tracks brace depth from the start of the file; namespace/class braces are
    included, which only widens the window the KDP002 check searches — a
    prior ok() check is still required to appear before the use.
    """
    stack: list[int] = []
    for i in range(offset):
        c = clean[i]
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            stack.pop()
    return stack[0] if stack else 0


def check_file(path: Path, rel: str, text: str) -> list[Violation]:
    clean = strip_comments_and_strings(text)
    violations: list[Violation] = []
    is_header = rel.endswith(".h")
    in_src = rel.startswith("src/")

    def add(rule: str, offset: int, message: str) -> None:
        violations.append(Violation(rule, Path(rel), line_of(text, offset), message))

    # KDP001: exception-free contract.
    if in_src:
        for m in RE_EXCEPTION.finditer(clean):
            add("KDP001", m.start(),
                "exceptions are banned in src/ (return Status/Result instead)")

    # KDP002: naked value()/take() without a prior check in the same scope.
    # status.h implements Result itself and is exempt.
    if in_src and rel != "src/common/status.h":
        for m in RE_VALUE_USE.finditer(clean):
            var = m.group(1)
            scope = function_scope_start(clean, m.start())
            window = clean[scope:m.start()]
            checked = re.search(
                rf"\b{re.escape(var)}\s*\.\s*(ok|status|has_value)\s*\(", window)
            if not checked:
                add("KDP002", m.start(),
                    f"`{var}.{m.group(2)}()` without a prior `{var}.ok()` "
                    "check in the enclosing scope")

    # KDP003: include-guard naming.
    if in_src and is_header:
        expected = (
            "KADOP_" + rel[len("src/"):-len(".h")]
            .replace("/", "_").replace(".", "_").replace("-", "_").upper()
            + "_H_"
        )
        m = RE_GUARD.search(clean)
        if not m:
            add("KDP003", 0, f"missing include guard (expected {expected})")
        elif m.group(1) != expected:
            add("KDP003", m.start(),
                f"include guard `{m.group(1)}` should be `{expected}`")

    # KDP004: bare assert in non-header src code.
    if in_src and not is_header:
        for m in RE_ASSERT.finditer(clean):
            add("KDP004", m.start(),
                "bare assert() in .cc code; use KADOP_CHECK (assert "
                "compiles out under NDEBUG)")

    # KDP005: DyadicInterval brace-construction outside the bloom layer.
    if in_src and not rel.startswith("src/bloom/"):
        for m in RE_DYADIC_BRACE.finditer(clean):
            add("KDP005", m.start(),
                "construct DyadicInterval via DyadicCover/DyadicContainers/"
                "DyadicAncestors, not by hand (alignment invariant)")

    # KDP006: hand-rolled SID ancestor test.
    if in_src and rel != "src/xml/sid.h":
        for m in RE_SID_MANUAL.finditer(clean):
            add("KDP006", m.start(),
                "hand-rolled start/end containment test; use "
                "StructuralId::IsAncestorOf or Encloses")

    # KDP007: dyadic helpers called with position 0.
    if in_src:
        for m in RE_DYADIC_ZERO.finditer(clean):
            add("KDP007", m.start(),
                "dyadic domain is [1, 2^l]; position 0 is invalid")

    # KDP008: custom comparator sorts in posting-carrying layers.
    if rel.startswith(("src/index/", "src/store/")):
        for m in RE_SORT_CMP.finditer(clean):
            # A third top-level argument means a custom comparator.
            depth, args, i = 0, 1, m.end()
            while i < len(clean):
                c = clean[i]
                if c in "([{":
                    depth += 1
                elif c in ")]}":
                    if depth == 0:
                        break
                    depth -= 1
                elif c == "," and depth == 0:
                    args += 1
                i += 1
            if args >= 3:
                add("KDP008", m.start(),
                    "std::sort with a custom comparator in a posting layer; "
                    "posting lists must keep the canonical (peer, doc, sid) "
                    "order (default operator<=>)")

    # KDP009: ad-hoc integer counters outside the metrics registry.
    if (in_src and not rel.startswith("src/obs/")
            and rel not in KDP009_EXEMPT_FILES):
        for m in RE_ADHOC_COUNTER.finditer(clean):
            add("KDP009", m.start(),
                f"ad-hoc counter `{m.group(1)}`; register a Counter in "
                "obs::MetricRegistry instead so it reaches KadopStats and "
                "the bench JSON")

    # KDP010: raw posting-size multiplication outside the codec library.
    if in_src and rel not in KDP010_EXEMPT_FILES:
        for m in RE_RAW_POSTING_MATH.finditer(clean):
            add("KDP010", m.start(),
                "raw `* Posting::kWireBytes` size math; use the codec size "
                "functions (index::codec::RawBytes/WireBytes/EncodedBytes) "
                "so the encoded size is charged consistently")

    return violations


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

LINT_DIRS = ("src",)
LINT_SUFFIXES = (".h", ".cc")


def collect_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for d in LINT_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in LINT_SUFFIXES and p.is_file():
                files.append(p)
    return files


def lint_tree(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    for p in collect_files(root):
        rel = p.relative_to(root).as_posix()
        violations.extend(check_file(p, rel, p.read_text(encoding="utf-8")))
    return violations


def lint_tree_with_suppressions(root: Path):
    """Lints the tree and applies KDP-ALLOW suppressions.

    Returns (findings, suppressions) in the shared kdp_common model; the
    merge entry point kadop_analyze.py --with-lint calls this.
    """
    findings: list[Finding] = []
    suppressions: list = []
    for p in collect_files(root):
        rel = p.relative_to(root).as_posix()
        text = p.read_text(encoding="utf-8")
        file_findings = [Finding(TOOL, v.rule, rel, v.line, v.message)
                         for v in check_file(p, rel, text)]
        file_suppressions, malformed = parse_suppressions(TOOL, rel, text)
        file_findings.extend(malformed)
        apply_suppressions(file_findings, file_suppressions)
        findings.extend(file_findings)
        suppressions.extend(file_suppressions)
    return findings, suppressions


def self_test(root: Path) -> int:
    """Lint the seeded-violation fixture and check every rule fires."""
    fixture = root / "tools" / "lint_fixtures" / "violations.cc.txt"
    header_fixture = root / "tools" / "lint_fixtures" / "bad_guard.h.txt"
    if not fixture.is_file() or not header_fixture.is_file():
        print(f"self-test: fixture missing under {fixture.parent}", file=sys.stderr)
        return 1
    # The fixtures are linted as if they lived inside src/.
    got = check_file(fixture, "src/index/violations.cc",
                     fixture.read_text(encoding="utf-8"))
    got += check_file(header_fixture, "src/index/bad_guard.h",
                      header_fixture.read_text(encoding="utf-8"))
    fired = {v.rule for v in got}
    expected = {f"KDP{i:03d}" for i in range(1, 11)}
    missing = expected - fired
    unexpected = fired - expected
    for v in got:
        print(f"  (fixture) {v}")
    if missing:
        print(f"self-test FAILED: rules never fired: {sorted(missing)}",
              file=sys.stderr)
        return 1
    if unexpected:
        print(f"self-test FAILED: unknown rules fired: {sorted(unexpected)}",
              file=sys.stderr)
        return 1
    # A clean file must stay clean (false-positive guard).
    clean_src = (root / "src" / "xml" / "sid.h")
    if clean_src.is_file():
        fp = check_file(clean_src, "src/xml/sid.h",
                        clean_src.read_text(encoding="utf-8"))
        if fp:
            print("self-test FAILED: false positives on src/xml/sid.h:",
                  file=sys.stderr)
            for v in fp:
                print(f"  {v}", file=sys.stderr)
            return 1
    # The shared KDP-ALLOW mechanism must suppress a seeded KDP002
    # violation (and demand a reason).
    allow_fixture = root / "tools" / "lint_fixtures" / "kdp002_allow.cc.txt"
    if not allow_fixture.is_file():
        print(f"self-test: fixture missing: {allow_fixture}", file=sys.stderr)
        return 1
    text = allow_fixture.read_text(encoding="utf-8")
    rel = "src/index/kdp002_allow.cc"
    findings = [Finding(TOOL, v.rule, rel, v.line, v.message)
                for v in check_file(allow_fixture, rel, text)]
    suppressions, malformed = parse_suppressions(TOOL, rel, text)
    findings.extend(malformed)
    apply_suppressions(findings, suppressions)
    kdp002 = [f for f in findings if f.rule == "KDP002"]
    if not kdp002 or not all(f.suppressed and f.suppression_reason
                             for f in kdp002):
        print("self-test FAILED: KDP-ALLOW(KDP002) did not suppress the "
              "seeded violation with a reason", file=sys.stderr)
        return 1
    if len(malformed) != 1:
        print("self-test FAILED: expected exactly 1 malformed KDP-ALLOW "
              f"(KDP000) in {allow_fixture.name}, got {len(malformed)}",
              file=sys.stderr)
        return 1
    print(f"self-test OK: all {len(expected)} rules fire on the fixture; "
          "KDP-ALLOW suppression verified")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches the seeded fixture")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings JSON here")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"error: {root} does not look like the repo root", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root)

    findings, suppressions = lint_tree_with_suppressions(root)
    for f in findings:
        print(f)
    print_suppression_inventory(suppressions, OWN_RULES)
    if args.json is not None:
        write_findings_json(args.json, findings_json(
            [TOOL], root, findings, suppressions, len(collect_files(root))))
        print(f"wrote {args.json}")
    unsuppressed = [f for f in findings if not f.suppressed]
    if unsuppressed:
        print(f"kadop_lint: {len(unsuppressed)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"kadop_lint: clean ({len(collect_files(root))} files, "
          f"{len(suppressions)} suppression(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
