#!/usr/bin/env python3
"""Validates the findings JSON emitted by kadop_analyze.

Hand-rolled schema check in the check_bench_json.py mold (no third-party
deps): each file must be a JSON object with

  schema_version  the integer 1
  tools           non-empty array of strings from {"kadop_analyze"}
  root            non-empty string
  findings        array of objects with tool/rule/file/line/message/
                  suppressed (+ suppression_reason, a non-empty string
                  whenever suppressed is true)
  suppressions    array of objects with rules/file/line/reason/used;
                  reasons must be non-empty (reasonless allows are the
                  KDP000 failure mode, never valid data)
  summary         files_scanned/findings/suppressed/unsuppressed integers,
                  internally consistent with the findings array

Usage: check_findings_json.py FILE [FILE...]
Exits non-zero listing every violation, so CI fails loudly when the
analyzer stops emitting what the analyze job consumes.
"""

import json
import re
import sys

KNOWN_TOOLS = {"kadop_analyze"}
RULE_RE = re.compile(r"^KDP\d{3}$")


def _err(errors, path, message):
    errors.append(f"{path}: {message}")


def check_finding(f, i, path, errors):
    if not isinstance(f, dict):
        _err(errors, path, f"findings[{i}] must be an object")
        return
    if f.get("tool") not in KNOWN_TOOLS:
        _err(errors, path, f"findings[{i}].tool must be one of "
             f"{sorted(KNOWN_TOOLS)}")
    rule = f.get("rule")
    if not isinstance(rule, str) or not RULE_RE.match(rule):
        _err(errors, path, f"findings[{i}].rule must match KDPnnn")
    if not isinstance(f.get("file"), str) or not f["file"]:
        _err(errors, path, f"findings[{i}].file must be a non-empty string")
    if not isinstance(f.get("line"), int) or f.get("line", 0) < 1:
        _err(errors, path, f"findings[{i}].line must be a positive integer")
    if not isinstance(f.get("message"), str) or not f["message"]:
        _err(errors, path, f"findings[{i}].message must be a non-empty string")
    suppressed = f.get("suppressed")
    if not isinstance(suppressed, bool):
        _err(errors, path, f"findings[{i}].suppressed must be a boolean")
    elif suppressed:
        reason = f.get("suppression_reason")
        if not isinstance(reason, str) or not reason:
            _err(errors, path,
                 f"findings[{i}] is suppressed but carries no reason")


def check_suppression(s, i, path, errors):
    if not isinstance(s, dict):
        _err(errors, path, f"suppressions[{i}] must be an object")
        return
    rules = s.get("rules")
    if (not isinstance(rules, list) or not rules
            or not all(isinstance(r, str) and RULE_RE.match(r)
                       for r in rules)):
        _err(errors, path,
             f"suppressions[{i}].rules must be a non-empty KDPnnn array")
    if not isinstance(s.get("file"), str) or not s["file"]:
        _err(errors, path, f"suppressions[{i}].file must be a non-empty string")
    if not isinstance(s.get("line"), int) or s.get("line", 0) < 1:
        _err(errors, path, f"suppressions[{i}].line must be a positive integer")
    if not isinstance(s.get("reason"), str) or not s["reason"]:
        _err(errors, path,
             f"suppressions[{i}].reason must be a non-empty string "
             "(reasons are mandatory)")
    if not isinstance(s.get("used"), bool):
        _err(errors, path, f"suppressions[{i}].used must be a boolean")


def check_file(path, errors):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        _err(errors, path, f"unreadable or invalid JSON: {e}")
        return

    if not isinstance(data, dict):
        _err(errors, path, "top level must be a JSON object")
        return

    if data.get("schema_version") != 1:
        _err(errors, path, "'schema_version' must be 1")

    tools = data.get("tools")
    if (not isinstance(tools, list) or not tools
            or not all(t in KNOWN_TOOLS for t in tools)):
        _err(errors, path, "'tools' must be a non-empty array from "
             f"{sorted(KNOWN_TOOLS)}")

    if not isinstance(data.get("root"), str) or not data["root"]:
        _err(errors, path, "'root' must be a non-empty string")

    findings = data.get("findings")
    if not isinstance(findings, list):
        _err(errors, path, "'findings' must be an array")
        findings = []
    for i, f in enumerate(findings):
        check_finding(f, i, path, errors)

    suppressions = data.get("suppressions")
    if not isinstance(suppressions, list):
        _err(errors, path, "'suppressions' must be an array")
        suppressions = []
    for i, s in enumerate(suppressions):
        check_suppression(s, i, path, errors)

    summary = data.get("summary")
    if not isinstance(summary, dict):
        _err(errors, path, "'summary' must be an object")
        return
    for key in ("files_scanned", "findings", "suppressed", "unsuppressed"):
        if not isinstance(summary.get(key), int) or summary[key] < 0:
            _err(errors, path,
                 f"'summary.{key}' must be a non-negative integer")
            return
    n_suppressed = sum(1 for f in findings
                       if isinstance(f, dict) and f.get("suppressed") is True)
    if summary["findings"] != len(findings):
        _err(errors, path, "'summary.findings' disagrees with the array "
             f"({summary['findings']} vs {len(findings)})")
    if summary["suppressed"] != n_suppressed:
        _err(errors, path, "'summary.suppressed' disagrees with the array "
             f"({summary['suppressed']} vs {n_suppressed})")
    if summary["unsuppressed"] != len(findings) - n_suppressed:
        _err(errors, path, "'summary.unsuppressed' disagrees with the array")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    for path in argv[1:]:
        check_file(path, errors)
    if errors:
        for e in errors:
            print(f"check_findings_json: {e}", file=sys.stderr)
        return 1
    print(f"check_findings_json: {len(argv) - 1} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
