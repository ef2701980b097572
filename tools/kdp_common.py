"""Infrastructure of the KadoP static analyzer (`kadop_analyze.py`):

  * comment/string stripping that keeps offsets stable,
  * the `KDP-ALLOW` suppression syntax shared by every rule,
  * the Finding model and the machine-readable findings JSON
    (validated by tools/check_findings_json.py, the same way
    check_bench_json.py validates BENCH_*.json).

Suppression syntax
------------------

    // KDP-ALLOW(KDP012): iteration only sums counts; order cannot escape
    for (const auto& [k, v] : index_) total += v;

One comment suppresses the named rule(s) on its own line and — when the
comment stands alone on its line — on the first following code line
(intervening pure-comment lines are skipped, so multi-line justifications
work). Multiple rules separate with commas: `KDP-ALLOW(KDP011,KDP013)`.
The reason after the colon is MANDATORY; a reasonless KDP-ALLOW is itself
reported as rule KDP000 and fails the run. Every accepted suppression is
printed in an inventory so reviewers see the full exception surface.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Source preprocessing
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Replace comment and string-literal contents with spaces.

    Keeps offsets and line numbers stable so violation positions map back
    to the original file. Handles //, /* */, "..." (with escapes) and
    '...'.
    """
    out = list(text)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------


class Finding:
    """One rule violation at a source location.

    `suppressed` / `suppression_reason` are filled in by
    `apply_suppressions`; an unsuppressed finding fails the run.
    """

    def __init__(self, tool: str, rule: str, path: str, line: int,
                 message: str):
        self.tool = tool
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.suppressed = False
        self.suppression_reason: str | None = None

    def __str__(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{tag}"

    def to_json(self) -> dict:
        return {
            "tool": self.tool,
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
            "suppression_reason": self.suppression_reason,
        }


# ---------------------------------------------------------------------------
# KDP-ALLOW suppressions
# ---------------------------------------------------------------------------

RE_KDP_ALLOW = re.compile(
    r"//\s*KDP-ALLOW\s*\(\s*([A-Za-z0-9_,\s]*)\s*\)\s*(?::\s*(.*))?")


class Suppression:
    def __init__(self, rules: list[str], path: str, comment_line: int,
                 covered_lines: set[int], reason: str):
        self.rules = rules
        self.path = path
        self.comment_line = comment_line
        self.covered_lines = covered_lines
        self.reason = reason
        self.used = False

    def to_json(self) -> dict:
        return {
            "rules": self.rules,
            "file": self.path,
            "line": self.comment_line,
            "reason": self.reason,
            "used": self.used,
        }


def parse_suppressions(tool: str, rel: str,
                       text: str) -> tuple[list[Suppression], list[Finding]]:
    """Extracts KDP-ALLOW comments from raw (un-stripped) file text.

    Returns (suppressions, malformed-findings). A KDP-ALLOW without a
    non-empty reason or without any rule id is malformed and reported as
    rule KDP000.
    """
    suppressions: list[Suppression] = []
    malformed: list[Finding] = []
    lines = text.split("\n")
    for idx, raw_line in enumerate(lines):
        m = RE_KDP_ALLOW.search(raw_line)
        if not m:
            continue
        lineno = idx + 1
        rules = [r.strip().upper() for r in m.group(1).split(",") if r.strip()]
        reason = (m.group(2) or "").strip()
        if not rules or not reason:
            malformed.append(Finding(
                tool, "KDP000", rel, lineno,
                "malformed KDP-ALLOW: a rule list and a non-empty reason "
                "after ':' are mandatory (KDP-ALLOW(KDPxxx): <why>)"))
            continue
        covered = {lineno}
        # A standalone comment also covers the next code line, skipping
        # pure-comment continuation lines.
        if raw_line.lstrip().startswith("//"):
            j = idx + 1
            while j < len(lines) and lines[j].lstrip().startswith("//"):
                j += 1
            if j < len(lines):
                covered.add(j + 1)
        suppressions.append(Suppression(rules, rel, lineno, covered, reason))
    return suppressions, malformed


def apply_suppressions(findings: list[Finding],
                       suppressions: list[Suppression]) -> None:
    """Marks findings covered by a matching KDP-ALLOW as suppressed."""
    by_file: dict[str, list[Suppression]] = {}
    for s in suppressions:
        by_file.setdefault(s.path, []).append(s)
    for f in findings:
        if f.rule == "KDP000":
            continue  # malformed suppressions are never suppressible
        for s in by_file.get(f.path, []):
            if f.rule in s.rules and f.line in s.covered_lines:
                f.suppressed = True
                f.suppression_reason = s.reason
                s.used = True
                break


def print_suppression_inventory(suppressions: list[Suppression],
                                stream=sys.stdout) -> None:
    """Prints every suppression plus a staleness note for unused ones."""
    if not suppressions:
        return
    print("KDP-ALLOW inventory:", file=stream)
    for s in sorted(suppressions, key=lambda s: (s.path, s.comment_line)):
        print(f"  {s.path}:{s.comment_line}: "
              f"[{','.join(s.rules)}] {s.reason}", file=stream)
        if not s.used:
            print("    note: no finding matched this allow here "
                  "(stale? consider removing)", file=stream)


# ---------------------------------------------------------------------------
# Machine-readable findings JSON (schema_version 1)
# ---------------------------------------------------------------------------


def findings_json(tools: list[str], root: Path, findings: list[Finding],
                  suppressions: list[Suppression],
                  files_scanned: int) -> dict:
    unsuppressed = [f for f in findings if not f.suppressed]
    return {
        "schema_version": 1,
        "tools": tools,
        "root": str(root),
        "findings": [f.to_json() for f in
                     sorted(findings, key=lambda f: (f.path, f.line, f.rule))],
        "suppressions": [s.to_json() for s in
                         sorted(suppressions,
                                key=lambda s: (s.path, s.comment_line))],
        "summary": {
            "files_scanned": files_scanned,
            "findings": len(findings),
            "suppressed": len(findings) - len(unsuppressed),
            "unsuppressed": len(unsuppressed),
        },
    }


def write_findings_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
