#!/usr/bin/env python3
"""kadop_analyze: the KadoP static analyzer (rules KDP001-KDP018).

Enforces invariants no off-the-shelf tool knows about. The token-level
rules guard the library's contracts:

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
                             `*_count` / `*_counter`, and any `struct` /
                             `class` named `*Stats`, under src/ outside
                             src/obs/. The metrics registry
                             (obs::MetricRegistry) is the one tally of
                             observable events: it reaches the `stats` /
                             `metrics` dumps and bench JSON, and a private
                             tally struct beside it only counts the same
                             event twice. Existing wire-format and
                             structural-size `*_count` fields are
                             grandfathered per file; the `*Stats` structs
                             that are not event tallies are allowed by
                             name, each with its reason.
  KDP010  raw-posting-math   `... * Posting::kWireBytes` (or `kWireBytes *
                             ...`) arithmetic outside src/index/posting.h
                             and src/index/codec.{h,cc}. Posting transfer
                             and storage sizes must route through the codec
                             size functions (codec::RawBytes /
                             EncodedBytes) so the encoded size is charged
                             consistently everywhere; a bare non-multiplied
                             `kWireBytes` term (fixed-format field) is fine.

The structural rules guard *seeded determinism*, which every claim this
reproduction makes rests on (fig2/fig3 traffic numbers, the chaos suite,
the byte-identity guarantees): two runs with the same seeds must be
byte-identical in every observable (virtual times, traffic counters,
metric snapshots, trace dumps).

  KDP011  wall-clock-escape   std::chrono::{system,steady,high_resolution}_
                              clock, time(), gettimeofday, clock_gettime or
                              an #include <chrono> outside the sanctioned
                              timing shim (src/obs/profile_clock.*).
                              Virtual time must come from the sim clock;
                              wall time only via obs::ProfileNowNs().
  KDP012  unordered-iteration std::unordered_{map,set,...} iterated by a
                              range-for whose body reaches a
                              nondeterminism-sensitive sink (wire message
                              construction/Send, Tracer, JsonWriter/ToJson,
                              bench report rows) without an intervening
                              sort. Hash-bucket order is a stdlib
                              implementation detail; letting it pick the
                              send order changes the whole event schedule.
  KDP013  rng-escape          std::random_device, rand()/srand(), raw
                              std::mt19937 / default_random_engine or an
                              #include <random> outside the seeded RNG
                              (src/common/random.*) and src/sim. All
                              randomness must flow from kadop::Rng(seed).
  KDP014  pointer-keyed-order std::map/std::set keyed by a pointer type
                              (or std::less/greater over pointers):
                              iteration order is the allocation order of
                              addresses and varies run-to-run under ASLR.
  KDP015  status-discard      (void)-cast, std::ignore =, or comma-operator
                              discard of a call returning [[nodiscard]]
                              Status/Result. The cast defeats the PR 1
                              annotation silently; deliberate discards need
                              a KDP-ALLOW with a reason instead.
  KDP016  span-leak           a local SpanId assigned from Tracer::Begin/
                              BeginRoot with no End(var) anywhere after it,
                              or with a `return` between the Begin and the
                              first End(var). A leaked span never closes:
                              it poisons OpenSpans() leak checks, the
                              critical-path walk, and the phase breakdown.
                              Member spans (trailing `_`) own their
                              lifecycle across methods and are exempt.

The last two rules guard the simulation's message discipline: a peer
learns another peer's state only from a message, and a message carries
its bytes.

  KDP017  gods-eye-read       calls of AuthoritativeVersion or OwnerVersion,
                              or `dht_->peer(` / `dht()->peer(` under
                              src/query and src/dht. These read another
                              peer's store directly, at zero bytes and zero
                              virtual time. DhtPeer::AuthoritativeVersion's
                              definition is exempt by file; its only
                              callers, the views, are exempt until they
                              carry versions on the wire.
  KDP018  decoded-payload     a sim::Payload subclass under src/ declaring
                              an index::PostingList member, a
                              std::vector<...Answer> member or any
                              `mutable` member. A data payload holds its
                              codec stream (std::vector<uint8_t>), encoded
                              once by its sender and decoded once by its
                              receiver, so SizeBytes() is its length and
                              nothing caches a size beside it.

Backends
--------
The analyzer is compile_commands.json-driven and resolves symbol facts
(which names are unordered containers, which functions return
Status/Result) through the best available backend:

  1. libclang Python bindings (clang.cindex) — full AST type resolution,
  2. `clang++ -Xclang -ast-dump=json` parsing when only the binary exists,
  3. a built-in C++ lexer/def-scanner (always available, zero deps).

Backends 1 and 2 *augment* the built-in facts; the structural rule engine
(scope tracking, range-for bodies, sink reachability, suppressions) is
shared, so results are reproducible on machines without LLVM — the
fixtures and ctest cases pin the built-in backend explicitly.

Deliberate exceptions use the `// KDP-ALLOW(KDPxxx): <reason>` syntax
(kdp_common.py); reasons are mandatory and the accepted inventory is
printed on every run. `--json` emits the machine-readable findings
document that tools/check_findings_json.py validates.

Usage:
  kadop_analyze.py --root <repo>                      scan src/ tools/ bench/
  kadop_analyze.py --root <repo> --json findings.json
  kadop_analyze.py --root <repo> --self-test          fixtures fire/stay clean
  kadop_analyze.py --root <repo> --meta-test          rule removed => fixture fails
  kadop_analyze.py --root <repo> --audit-unordered    list every unordered range-for

Exit status: 0 clean, 1 unsuppressed findings (or self/meta-test failure),
2 usage.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from kdp_common import (Finding, apply_suppressions, findings_json, line_of,
                        parse_suppressions, print_suppression_inventory,
                        strip_comments_and_strings, write_findings_json)

TOOL = "kadop_analyze"
ALL_RULES = tuple(f"KDP{i:03d}" for i in range(1, 19))

# Path policy (rel paths are posix, repo-root-relative). The scanned tree
# is src/**, tools/*.cc|.h (fixtures excluded) and bench/**. Each rule runs
# on the paths under one of its scope prefixes, minus its exempt prefixes:
#   KDP001-010  src/ only (KDP008: the posting layers src/index, src/store).
#   KDP011      src/ + tools/ — bench/ is exempt by design: benches exist
#               to measure wall throughput; their numbers are never part of
#               a determinism diff. No path inside src/ is exempt — even the
#               profiling shim (src/obs/profile_clock.cc) carries explicit
#               KDP-ALLOW comments, so its gated wall-clock reads stay
#               visible in the suppression inventory.
#   KDP013      everywhere but src/common/random.* (the seeded RNG itself)
#               and src/sim/ (jitter/fault draws own a seeded Rng by
#               contract).
#   KDP017      src/query/ + src/dht/, minus the god's-eye readers below.
#   KDP018      src/ only.

# KDP009 grandfather list: files whose *_count declarations predate the
# metrics registry and are not event tallies — wire-format fields
# (messages.h, dpp_messages.h, reducer.h) and structural size bookkeeping
# (bplus_tree.h). New counters anywhere else must go through obs/. The
# `*Stats` struct check ignores this list.
KDP009_EXEMPT_FILES = (
    "src/query/messages.h",
    "src/query/reducer.h",
    "src/index/dpp_messages.h",
    "src/store/bplus_tree.h",
)

# KDP009 `*Stats` structs that are not a second tally of registry events.
KDP009_ALLOWED_STATS = {
    # The disk model reads its deltas to schedule virtual time.
    "IoStats",
    # Per-category byte meter: kbench reads network().traffic(), and the
    # registry has no per-category byte counters.
    "TrafficStats",
    # Describes a generated corpus; counts no event.
    "CorpusStats",
    # The registry snapshot plus the clock and traffic meter; holds no
    # tally of its own.
    "KadopStats",
}

# KDP010 exempt list: the raw record size's definition site and the codec
# library, which is the sanctioned home of raw-size arithmetic
# (codec::RawBytes and friends).
KDP010_EXEMPT_FILES = (
    "src/index/posting.h",
    "src/index/codec.h",
    "src/index/codec.cc",
)

# KDP017 exempt list: the god's-eye readers that remain. Each is on
# ROADMAP item 7 ("No god's-eye reads: every freshness check is a
# message") and leaves this list when its freshness check becomes one.
KDP017_EXEMPT_FILES = (
    # ROADMAP item 7: the definition of DhtPeer::AuthoritativeVersion.
    # Nothing in src/dht calls it; views are its only callers.
    "src/dht/peer.h",
    "src/dht/peer.cc",
    # ROADMAP item 7: ViewCatalog::Servable's column and base-term
    # version checks.
    "src/query/view_manager.cc",
)

# rule -> (scope prefixes, exempt prefixes); unlisted rules run everywhere.
RULE_SCOPE = {
    "KDP001": (("src/",), ()),
    "KDP002": (("src/",), ("src/common/status.h",)),
    "KDP003": (("src/",), ()),
    "KDP004": (("src/",), ()),
    "KDP005": (("src/",), ("src/bloom/",)),
    "KDP006": (("src/",), ("src/xml/sid.h",)),
    "KDP007": (("src/",), ()),
    "KDP008": (("src/index/", "src/store/"), ()),
    "KDP009": (("src/",), ("src/obs/",)),
    "KDP010": (("src/",), KDP010_EXEMPT_FILES),
    "KDP011": (("src/", "tools/"), ()),
    "KDP013": (("",), ("src/common/random.", "src/sim/")),
    "KDP017": (("src/query/", "src/dht/"), KDP017_EXEMPT_FILES),
    "KDP018": (("src/",), ()),
}


# ---------------------------------------------------------------------------
# Symbol facts (what the backends produce)
# ---------------------------------------------------------------------------


class Facts:
    """Repo-wide symbol knowledge the structural rules consume."""

    def __init__(self) -> None:
        # Variable / member / accessor names with unordered container type.
        self.unordered_names: set[str] = set()
        # Type alias names that resolve to unordered containers.
        self.unordered_aliases: set[str] = set()
        # Function names returning Status / Result<T>.
        self.status_fns: set[str] = set()
        self.backend = "internal"

    def merge(self, other: "Facts") -> None:
        self.unordered_names |= other.unordered_names
        self.unordered_aliases |= other.unordered_aliases
        self.status_fns |= other.status_fns


RE_UNORDERED_DECL = re.compile(r"\bstd\s*::\s*unordered_(?:multi)?(?:map|set)\s*<")
RE_UNORDERED_ALIAS = re.compile(
    r"\busing\s+(\w+)\s*=\s*std\s*::\s*unordered_(?:multi)?(?:map|set)\s*<")
RE_STATUS_FN = re.compile(
    r"(?:^|[;{}\n]\s*|\bvirtual\s+|\]\]\s*|\bstatic\s+)"
    r"(?:Status|Result\s*<[^;{}=]{1,120}?>)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*)\s*\(")


def match_angle_brackets(clean: str, open_pos: int) -> int:
    """Offset just past the '>' matching the '<' at open_pos (or -1)."""
    depth = 0
    i = open_pos
    n = len(clean)
    while i < n:
        c = clean[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1  # statement ended before the template closed
        i += 1
    return -1


def gather_internal_facts(files: dict[str, str]) -> Facts:
    """Backend 3: regex/def-scanner facts over cleaned sources."""
    facts = Facts()
    for rel, clean in files.items():
        for m in RE_UNORDERED_ALIAS.finditer(clean):
            facts.unordered_aliases.add(m.group(1))
        for m in RE_UNORDERED_DECL.finditer(clean):
            open_pos = clean.index("<", m.start())
            end = match_angle_brackets(clean, open_pos)
            if end == -1:
                continue
            dm = re.match(r"\s*(?:const\s+)?[&*]?\s*([A-Za-z_]\w*)\s*[;={(,)]",
                          clean[end:end + 160])
            if dm:
                facts.unordered_names.add(dm.group(1))
        for m in RE_STATUS_FN.finditer(clean):
            facts.status_fns.add(m.group(1))
    # Second pass: variables declared through an unordered alias.
    if facts.unordered_aliases:
        alias_re = re.compile(
            r"\b(" + "|".join(sorted(facts.unordered_aliases)) +
            r")\s*[&]?\s+[&]?\s*([A-Za-z_]\w*)\s*[;={(,)]")
        for clean in files.values():
            for m in alias_re.finditer(clean):
                facts.unordered_names.add(m.group(2))
    return facts


def load_compile_commands(path: Path) -> list[dict]:
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
        return entries if isinstance(entries, list) else []
    except (OSError, json.JSONDecodeError):
        return []


def gather_libclang_facts(root: Path, compile_commands: Path) -> Facts | None:
    """Backend 1: full AST walk via the libclang Python bindings."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
    except Exception:  # library not loadable
        return None
    facts = Facts()
    facts.backend = "libclang"
    entries = load_compile_commands(compile_commands)
    if not entries:
        return None
    for entry in entries:
        src = Path(entry.get("file", ""))
        try:
            if not src.resolve().is_relative_to(root.resolve()):
                continue
        except (OSError, ValueError):
            continue
        args = [a for a in entry.get("command", "").split()[1:]
                if a != str(src)]
        try:
            tu = index.parse(str(src), args=args)
        except Exception:
            continue
        for cur in tu.cursor.walk_preorder():
            try:
                kind = cur.kind
                if kind in (cindex.CursorKind.VAR_DECL,
                            cindex.CursorKind.FIELD_DECL,
                            cindex.CursorKind.PARM_DECL):
                    if "unordered_" in cur.type.get_canonical().spelling:
                        facts.unordered_names.add(cur.spelling)
                elif kind in (cindex.CursorKind.FUNCTION_DECL,
                              cindex.CursorKind.CXX_METHOD):
                    ret = cur.result_type.spelling
                    if ret.startswith(("Status", "kadop::Status", "Result<",
                                       "kadop::Result<")):
                        facts.status_fns.add(cur.spelling)
                    if "unordered_" in cur.result_type.get_canonical().spelling:
                        facts.unordered_names.add(cur.spelling)
            except Exception:
                continue
    return facts


def gather_astdump_facts(root: Path, compile_commands: Path) -> Facts | None:
    """Backend 2: parse `clang++ -Xclang -ast-dump=json` output."""
    clangxx = shutil.which("clang++")
    if clangxx is None:
        return None
    entries = load_compile_commands(compile_commands)
    if not entries:
        return None
    facts = Facts()
    facts.backend = "ast-dump"

    def walk(node: dict) -> None:
        kind = node.get("kind", "")
        qual = (node.get("type") or {}).get("qualType", "")
        name = node.get("name", "")
        if name:
            if kind in ("VarDecl", "FieldDecl", "ParmVarDecl"):
                if "unordered_" in qual:
                    facts.unordered_names.add(name)
            elif kind in ("FunctionDecl", "CXXMethodDecl"):
                ret = qual.split("(")[0].strip()
                if ret.startswith(("Status", "kadop::Status", "Result<",
                                   "kadop::Result<")):
                    facts.status_fns.add(name)
                if "unordered_" in ret:
                    facts.unordered_names.add(name)
        for child in node.get("inner", []) or []:
            if isinstance(child, dict):
                walk(child)

    parsed_any = False
    for entry in entries:
        src = entry.get("file", "")
        args = [a for a in entry.get("command", "").split()[1:]
                if a != src and not a.startswith("-o")]
        cmd = ([clangxx, "-fsyntax-only", "-Xclang", "-ast-dump=json"]
               + args + [src])
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=120, cwd=entry.get("directory", "."))
            walk(json.loads(out.stdout))
            parsed_any = True
        except (OSError, subprocess.SubprocessError, json.JSONDecodeError):
            continue
    return facts if parsed_any else None


def resolve_facts(backend: str, root: Path, compile_commands: Path,
                  files: dict[str, str]) -> Facts:
    """Internal facts always; libclang/ast-dump facts merged on top."""
    facts = gather_internal_facts(files)
    augmented: Facts | None = None
    if backend in ("auto", "libclang"):
        augmented = gather_libclang_facts(root, compile_commands)
    if augmented is None and backend in ("auto", "ast-dump"):
        augmented = gather_astdump_facts(root, compile_commands)
    if augmented is not None:
        backend_name = augmented.backend
        facts.merge(augmented)
        facts.backend = backend_name
    elif backend in ("libclang", "ast-dump"):
        print(f"kadop_analyze: backend '{backend}' unavailable; "
              "using internal facts", file=sys.stderr)
    return facts


# ---------------------------------------------------------------------------
# Structural helpers (shared rule engine)
# ---------------------------------------------------------------------------


def match_parens(clean: str, open_pos: int) -> int:
    """Offset of the ')' matching the '(' at open_pos (or -1)."""
    depth = 0
    for i in range(open_pos, len(clean)):
        c = clean[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_braces(clean: str, open_pos: int) -> int:
    """Offset of the '}' matching the '{' at open_pos (or -1)."""
    depth = 0
    for i in range(open_pos, len(clean)):
        c = clean[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


RE_RANGE_FOR = re.compile(r"\bfor\s*\(")


class RangeFor:
    def __init__(self, offset: int, container_expr: str, body: str):
        self.offset = offset
        self.container_expr = container_expr
        self.body = body


def find_range_fors(clean: str) -> list[RangeFor]:
    """Every range-based for: its container expression and body text."""
    out: list[RangeFor] = []
    for m in RE_RANGE_FOR.finditer(clean):
        open_pos = clean.index("(", m.start())
        close = match_parens(clean, open_pos)
        if close == -1:
            continue
        header = clean[open_pos + 1:close]
        # Top-level ':' that is not part of '::' marks a range-for.
        colon = -1
        depth = 0
        i = 0
        while i < len(header):
            c = header[i]
            if c in "([{<":
                depth += 1
            elif c in ")]}>":
                depth = max(0, depth - 1)
            elif c == ":" and depth == 0:
                if (i + 1 < len(header) and header[i + 1] == ":") or \
                        (i > 0 and header[i - 1] == ":"):
                    i += 2
                    continue
                colon = i
                break
            i += 1
        if colon == -1:
            continue
        container = header[colon + 1:].strip()
        # Body: braced block or single statement.
        j = close + 1
        while j < len(clean) and clean[j].isspace():
            j += 1
        if j < len(clean) and clean[j] == "{":
            end = match_braces(clean, j)
            body = clean[j:end + 1] if end != -1 else clean[j:]
        else:
            end = clean.find(";", j)
            body = clean[j:end + 1] if end != -1 else clean[j:]
        out.append(RangeFor(m.start(), container, body))
    return out


def trailing_identifier(expr: str) -> str:
    """The name the iterated expression resolves to.

    `buckets` -> buckets; `peer_->pending_get_` -> pending_get_;
    `store()->Lists()` -> Lists (an accessor — backends record accessors
    returning unordered refs in unordered_names too).
    """
    expr = expr.strip()
    while expr.endswith(")"):
        open_pos = expr.rfind("(")
        if open_pos == -1:
            break
        expr = expr[:open_pos].rstrip()
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    return m.group(1) if m else ""


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

RE_KDP011 = re.compile(
    r"std\s*::\s*chrono\s*::\s*(?:system_clock|steady_clock|"
    r"high_resolution_clock)\b"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|(?<![\w:])(?:std\s*::\s*)?time\s*\(\s*(?:nullptr|NULL|0\s*\)|&)"
    r"|#\s*include\s*<chrono>")

RE_KDP013 = re.compile(
    r"\bstd\s*::\s*random_device\b"
    r"|\bstd\s*::\s*mt19937(?:_64)?\b"
    r"|\bstd\s*::\s*default_random_engine\b"
    r"|(?<![\w:])s?rand\s*\("
    r"|#\s*include\s*<random>")

RE_KDP014_LESS_PTR = re.compile(
    r"\bstd\s*::\s*(?:less|greater)\s*<[^<>;]*\*\s*>")
RE_KDP014_ORDERED = re.compile(r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<")

# Nondeterminism-sensitive sinks for KDP012: anything that freezes
# iteration order into an externally observable sequence.
RE_SINK = re.compile(
    r"\bSend[A-Z]\w*\s*\(|->\s*Send\s*\(|\bRoute\w*\s*\(|\bBroadcast\w*\s*\("
    r"|\bTracer\b|\btracer_?\b|\bAnnotate\s*\(|\bTraceEvent\s*\("
    r"|\bToJson\b|\bAppendJson\b|\bJsonWriter\b"
    r"|\bAddRow\s*\(|\.\s*Num\s*\(|\.\s*Str\s*\(")

RE_SORT_CALL = re.compile(r"\bstd\s*::\s*(?:stable_)?sort\s*\(|\bSorted\w*\s*\(")

RE_VOID_CAST = re.compile(
    r"\(\s*void\s*\)\s*((?:[A-Za-z_]\w*(?:\s*(?:::|\.|->)\s*)?)+)\s*\(")
RE_STD_IGNORE = re.compile(
    r"\bstd\s*::\s*ignore\s*=\s*((?:[A-Za-z_]\w*(?:\s*(?:::|\.|->)\s*)?)+)\s*\(")


def rule_scope_ok(rule: str, rel: str) -> bool:
    scope, exempt = RULE_SCOPE.get(rule, (("",), ()))
    return rel.startswith(scope) and not rel.startswith(exempt)


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
# A `*Stats` struct or class definition (a forward declaration has no body).
RE_STATS_STRUCT = re.compile(
    r"\b(?:struct|class)\s+(\w*Stats)\s*(?:final\s*)?(?::[^;{]*)?\{")
RE_RAW_POSTING_MATH = re.compile(
    r"\*\s*(?:\w+\s*::\s*)*kWireBytes\b|\bkWireBytes\s*\*"
)


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


def check_kdp001(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_EXCEPTION.finditer(clean):
        add("KDP001", m.start(),
            "exceptions are banned in src/ (return Status/Result instead)")


def check_kdp002(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_VALUE_USE.finditer(clean):
        var = m.group(1)
        window = clean[function_scope_start(clean, m.start()):m.start()]
        if not re.search(
                rf"\b{re.escape(var)}\s*\.\s*(ok|status|has_value)\s*\(",
                window):
            add("KDP002", m.start(),
                f"`{var}.{m.group(2)}()` without a prior `{var}.ok()` "
                "check in the enclosing scope")


def check_kdp003(rel: str, clean: str, facts: Facts, add) -> None:
    if not rel.endswith(".h"):
        return
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


def check_kdp004(rel: str, clean: str, facts: Facts, add) -> None:
    if rel.endswith(".h"):
        return
    for m in RE_ASSERT.finditer(clean):
        add("KDP004", m.start(),
            "bare assert() in .cc code; use KADOP_CHECK (assert "
            "compiles out under NDEBUG)")


def check_kdp005(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_DYADIC_BRACE.finditer(clean):
        add("KDP005", m.start(),
            "construct DyadicInterval via DyadicCover/DyadicContainers/"
            "DyadicAncestors, not by hand (alignment invariant)")


def check_kdp006(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_SID_MANUAL.finditer(clean):
        add("KDP006", m.start(),
            "hand-rolled start/end containment test; use "
            "StructuralId::IsAncestorOf or Encloses")


def check_kdp007(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_DYADIC_ZERO.finditer(clean):
        add("KDP007", m.start(),
            "dyadic domain is [1, 2^l]; position 0 is invalid")


def check_kdp008(rel: str, clean: str, facts: Facts, add) -> None:
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


def check_kdp009(rel: str, clean: str, facts: Facts, add) -> None:
    if not rel.startswith(KDP009_EXEMPT_FILES):
        for m in RE_ADHOC_COUNTER.finditer(clean):
            add("KDP009", m.start(),
                f"ad-hoc counter `{m.group(1)}`; register a Counter in "
                "obs::MetricRegistry instead so it reaches the metrics "
                "dumps and the bench JSON")
    for m in RE_STATS_STRUCT.finditer(clean):
        if m.group(1) in KDP009_ALLOWED_STATS:
            continue
        add("KDP009", m.start(),
            f"tally struct `{m.group(1)}`; count each event once, in an "
            "obs::MetricRegistry counter, not in a per-instance struct "
            "beside it")


def check_kdp010(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_RAW_POSTING_MATH.finditer(clean):
        add("KDP010", m.start(),
            "raw `* Posting::kWireBytes` size math; use the codec size "
            "functions (index::codec::RawBytes/EncodedBytes) "
            "so the encoded size is charged consistently")


def check_kdp011(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_KDP011.finditer(clean):
        add("KDP011", m.start(),
            "wall-clock read outside the timing shim; virtual time comes "
            "from the sim clock, wall time only via obs::ProfileNowNs() "
            "(src/obs/profile_clock.h)")


def check_kdp012(rel: str, clean: str, facts: Facts, add,
                 audit: list | None = None) -> None:
    for rf in find_range_fors(clean):
        name = trailing_identifier(rf.container_expr)
        if name not in facts.unordered_names:
            continue
        if audit is not None:
            audit.append((rel, line_of(clean, rf.offset), rf.container_expr))
        sink = RE_SINK.search(rf.body)
        if not sink:
            continue
        # An intervening sort before the sink launders the order.
        if RE_SORT_CALL.search(rf.body[:sink.start()]):
            continue
        add("KDP012", rf.offset,
            f"iterating unordered container `{name}` with the loop body "
            "reaching a nondeterminism-sensitive sink "
            f"(`{rf.body[sink.start():sink.end()].strip()}…`); hash-bucket "
            "order would become externally observable — iterate a sorted "
            "key vector instead")


def check_kdp013(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_KDP013.finditer(clean):
        add("KDP013", m.start(),
            "RNG construction/seeding outside the seeded RNG; all "
            "randomness must flow from kadop::Rng(seed) "
            "(src/common/random.h) so runs replay from their seeds")


def check_kdp014(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_KDP014_ORDERED.finditer(clean):
        open_pos = clean.index("<", m.start())
        end = match_angle_brackets(clean, open_pos)
        if end == -1:
            continue
        inner = clean[open_pos + 1:end - 1]
        # First top-level template argument.
        depth = 0
        first_arg = inner
        for i, c in enumerate(inner):
            if c in "<([":
                depth += 1
            elif c in ">)]":
                depth -= 1
            elif c == "," and depth == 0:
                first_arg = inner[:i]
                break
        if first_arg.strip().endswith("*"):
            add("KDP014", m.start(),
                f"ordered container keyed by a pointer "
                f"(`{first_arg.strip()}`): iteration order is address "
                "order and varies run-to-run under ASLR; key by a stable "
                "id instead")
    for m in RE_KDP014_LESS_PTR.finditer(clean):
        add("KDP014", m.start(),
            "address-based comparator (std::less/greater over a pointer "
            "type): ordering varies run-to-run under ASLR")


def check_kdp015(rel: str, clean: str, facts: Facts, add) -> None:
    for regex, what in ((RE_VOID_CAST, "(void)-cast"),
                        (RE_STD_IGNORE, "std::ignore")):
        for m in regex.finditer(clean):
            callee = re.split(r"::|\.|->", m.group(1).replace(" ", ""))[-1]
            if callee in facts.status_fns:
                add("KDP015", m.start(),
                    f"{what} discard of `{callee}(…)` which returns "
                    "[[nodiscard]] Status/Result; handle the error or "
                    "suppress with KDP-ALLOW and a written reason")
    # Comma-operator discard: a statement that *starts* with a
    # Status-returning call whose value is then thrown away by `,`.
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", clean):
        if m.group(1) not in facts.status_fns:
            continue
        k = m.start() - 1
        while k >= 0 and clean[k] in " \t\n":
            k -= 1
        if k >= 0 and clean[k] not in ";{}":
            continue  # not at statement start (e.g. an argument)
        close = match_parens(clean, clean.index("(", m.start()))
        if close == -1:
            continue
        j = close + 1
        while j < len(clean) and clean[j] in " \t\n":
            j += 1
        if j < len(clean) and clean[j] == ",":
            add("KDP015", m.start(),
                f"comma-operator discard of `{m.group(1)}(…)` which "
                "returns [[nodiscard]] Status/Result")


RE_KDP016_BEGIN = re.compile(
    r"\b(?:const\s+)?(?:obs\s*::\s*)?SpanId\s+([A-Za-z_]\w*)\s*=\s*"
    r"(?:[A-Za-z_]\w*(?:\(\s*\))?\s*(?:\.|->|::)\s*)*Begin(?:Root)?\s*\(")


def check_kdp016(rel: str, clean: str, facts: Facts, add) -> None:
    """Span-leak: a local span must reach its End() on every path.

    Textual approximation of the CFG check: the first `End(var)` after the
    Begin is the close; any `return` strictly between them is a path that
    leaks the span. Code that closes spans inside completion lambdas stays
    clean by defining the lambda (and its End) before the early returns —
    which is also the order that makes the dataflow readable.
    """
    for m in RE_KDP016_BEGIN.finditer(clean):
        var = m.group(1)
        if var.endswith("_"):
            continue  # member-style name: lifecycle spans methods
        rest = clean[m.end():]
        end_m = re.search(r"\bEnd\s*\(\s*" + re.escape(var) + r"\s*\)", rest)
        if end_m is None:
            add("KDP016", m.start(),
                f"span `{var}` from Tracer::Begin() is never passed to "
                f"End({var}); the span stays open forever and breaks "
                "OpenSpans() leak checks and the phase breakdown")
            continue
        if re.search(r"\breturn\b", rest[:end_m.start()]):
            add("KDP016", m.start(),
                f"`return` between Tracer::Begin() and the first "
                f"End({var}): the early-return path leaks the span; "
                "close it before returning (or End inside a completion "
                "lambda defined before the return)")


RE_KDP017 = re.compile(
    r"\b(?:AuthoritativeVersion|OwnerVersion)\s*\("
    r"|\bdht(?:_|\s*\(\s*\))\s*->\s*peer\s*\(")


def check_kdp017(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_KDP017.finditer(clean):
        add("KDP017", m.start(),
            f"god's-eye read (`{m.group(0)}…`): this reads another peer's "
            "state directly, at zero bytes and zero virtual time; learn it "
            "from a message (a reply, install or invalidate) instead")


RE_KDP018_PAYLOAD = re.compile(
    r"\b(?:struct|class)\s+(\w+)\s*(?:final\s*)?:\s*(?:public\s+)?"
    r"(?:\w+\s*::\s*)*Payload\s*\{")
RE_KDP018_MEMBER = re.compile(
    r"\bmutable\b"
    r"|\b(?:\w+\s*::\s*)*PostingList\s+\w+\s*[;={]"
    r"|\bstd\s*::\s*vector\s*<\s*(?:\w+\s*::\s*)*Answer\s*>\s+\w+\s*[;={]")


def check_kdp018(rel: str, clean: str, facts: Facts, add) -> None:
    for m in RE_KDP018_PAYLOAD.finditer(clean):
        close = match_braces(clean, m.end() - 1)
        if close < 0:
            continue
        # Member declarations only: blank out nested bodies (member
        # functions, nested types) so their locals never count.
        body = list(clean[m.end():close])
        depth = 0
        for i, c in enumerate(body):
            if c == "}":
                depth -= 1
            if depth > 0 and c != "\n":
                body[i] = " "
            if c == "{":
                depth += 1
        for d in RE_KDP018_MEMBER.finditer("".join(body)):
            add("KDP018", m.end() + d.start(),
                f"payload `{m.group(1)}` declares `{d.group(0).strip()}`: a "
                "data payload holds its codec stream (std::vector<uint8_t> "
                "from codec::EncodePostings / EncodeAnswers), encoded once "
                "by its sender and decoded once by its receiver, and sizes "
                "itself by the stream's length")


CHECKS = {rule: globals()["check_" + rule.lower()] for rule in ALL_RULES}


def analyze_file(rel: str, text: str, facts: Facts,
                 disabled: set[str],
                 audit: list | None = None) -> tuple[list[Finding], list, int]:
    """Returns (findings incl. malformed-suppression ones, suppressions,
    n_rules_run) for one file."""
    clean = strip_comments_and_strings(text)
    findings: list[Finding] = []

    def add(rule_id: str, offset: int, message: str) -> None:
        findings.append(Finding(TOOL, rule_id, rel,
                                line_of(text, offset), message))

    rules_run = 0
    for rule in ALL_RULES:
        if rule in disabled or not rule_scope_ok(rule, rel):
            continue
        if rule == "KDP012":
            check_kdp012(rel, clean, facts, add, audit)
        else:
            CHECKS[rule](rel, clean, facts, add)
        rules_run += 1

    suppressions, malformed = parse_suppressions(TOOL, rel, text)
    findings.extend(malformed)
    apply_suppressions(findings, suppressions)
    return findings, suppressions, rules_run


# ---------------------------------------------------------------------------
# Tree scan
# ---------------------------------------------------------------------------

SCAN_SUFFIXES = (".h", ".cc")


def collect_files(root: Path, compile_commands: Path) -> dict[str, str]:
    """rel path -> raw text for every file in scope.

    compile_commands.json (when present) contributes its in-repo TUs; the
    tree walk guarantees headers and files not yet wired into the build
    are scanned too.
    """
    rels: set[str] = set()
    for entry in load_compile_commands(compile_commands):
        try:
            p = Path(entry.get("file", "")).resolve()
            rel = p.relative_to(root.resolve()).as_posix()
        except (OSError, ValueError):
            continue
        if rel.startswith(("src/", "tools/", "bench/")):
            rels.add(rel)
    for d in ("src", "bench"):
        base = root / d
        if base.is_dir():
            for p in sorted(base.rglob("*")):
                if p.suffix in SCAN_SUFFIXES and p.is_file():
                    rels.add(p.relative_to(root).as_posix())
    tools_dir = root / "tools"
    if tools_dir.is_dir():
        for p in sorted(tools_dir.iterdir()):  # not lint_fixtures/
            if p.suffix in SCAN_SUFFIXES and p.is_file():
                rels.add(p.relative_to(root).as_posix())
    out: dict[str, str] = {}
    for rel in sorted(rels):
        p = root / rel
        if p.is_file():
            out[rel] = p.read_text(encoding="utf-8")
    return out


def scan_tree(root: Path, compile_commands: Path, backend: str,
              disabled: set[str], audit: list | None = None):
    texts = collect_files(root, compile_commands)
    cleaned = {rel: strip_comments_and_strings(t) for rel, t in texts.items()}
    facts = resolve_facts(backend, root, compile_commands, cleaned)
    findings: list[Finding] = []
    suppressions: list = []
    for rel, text in texts.items():
        f, s, _ = analyze_file(rel, text, facts, disabled, audit)
        findings.extend(f)
        suppressions.extend(s)
    return findings, suppressions, facts, len(texts)


# ---------------------------------------------------------------------------
# Self-test / meta-test
# ---------------------------------------------------------------------------

# fixture -> (path it is analyzed as, rules that must all fire; empty =
# must stay clean).
FIXTURES = {
    "violations.cc.txt": ("src/index/violations.cc",
                          {"KDP001", "KDP002", "KDP004", "KDP005", "KDP006",
                           "KDP007", "KDP008", "KDP009", "KDP010"}),
    "bad_guard.h.txt": ("src/index/bad_guard.h", {"KDP003"}),
    "kdp009_bad.h.txt": ("src/query/reducer.h", {"KDP009"}),
    "kdp009_good.cc.txt": ("src/index/kdp009_good.cc", set()),
    "kdp011_bad.cc.txt": ("src/kdp011_bad.cc", {"KDP011"}),
    "kdp011_good.cc.txt": ("src/kdp011_good.cc", set()),
    "kdp012_bad.cc.txt": ("src/kdp012_bad.cc", {"KDP012"}),
    "kdp012_good.cc.txt": ("src/kdp012_good.cc", set()),
    "kdp013_bad.cc.txt": ("src/kdp013_bad.cc", {"KDP013"}),
    "kdp013_good.cc.txt": ("src/kdp013_good.cc", set()),
    "kdp014_bad.cc.txt": ("src/kdp014_bad.cc", {"KDP014"}),
    "kdp014_good.cc.txt": ("src/kdp014_good.cc", set()),
    "kdp015_bad.cc.txt": ("src/kdp015_bad.cc", {"KDP015"}),
    "kdp015_good.cc.txt": ("src/kdp015_good.cc", set()),
    "kdp016_bad.cc.txt": ("src/kdp016_bad.cc", {"KDP016"}),
    "kdp016_good.cc.txt": ("src/kdp016_good.cc", set()),
    "kdp017_bad.cc.txt": ("src/query/kdp017_bad.cc", {"KDP017"}),
    "kdp017_good.cc.txt": ("src/query/kdp017_good.cc", set()),
    "kdp018_bad.cc.txt": ("src/index/kdp018_bad.cc", {"KDP018"}),
    "kdp018_good.cc.txt": ("src/index/kdp018_good.cc", set()),
}
# Each seeds reasoned KDP-ALLOWs over real violations of the listed rules
# plus one reasonless allow, which must be reported as KDP000.
SUPPRESSION_FIXTURES = {
    "kdp002_allow.cc.txt": ("src/index/kdp002_allow.cc", {"KDP002"}),
    "kdp_allow.cc.txt": ("src/kdp_allow.cc",
                         {"KDP011", "KDP012", "KDP013", "KDP014"}),
}


def check_fixture(root: Path, name: str, rel: str, disabled: set[str]):
    """Analyzes one fixture as if it lived at `rel`; facts come from the
    fixture file alone (fixtures are self-contained)."""
    path = root / "tools" / "lint_fixtures" / name
    text = path.read_text(encoding="utf-8")
    facts = gather_internal_facts({rel: strip_comments_and_strings(text)})
    return analyze_file(rel, text, facts, disabled)


def self_test(root: Path, disabled: set[str], quiet: bool = False,
              scope: set[str] | None = None) -> int:
    """Runs the fixtures with `disabled` rules switched off. Fixtures that
    seed only rules outside `scope` (default: every rule) are skipped, so
    `--self-test --disable ...` tests the remaining rules alone; the
    meta-test keeps the full scope, so a disabled rule's fixture fails."""
    say = (lambda *a, **k: None) if quiet else print
    scope = set(ALL_RULES) if scope is None else scope
    failures = 0
    covered = 0
    for name, (rel, expected) in sorted(FIXTURES.items()):
        if expected and not expected & scope:
            continue
        expected = expected & scope
        covered += 1
        path = root / "tools" / "lint_fixtures" / name
        if not path.is_file():
            say(f"self-test FAILED: fixture missing: {path}", file=sys.stderr)
            failures += 1
            continue
        findings, _, _ = check_fixture(root, name, rel, disabled)
        fired = {f.rule for f in findings if not f.suppressed}
        for f in findings:
            say(f"  (fixture) {f}")
        missing = expected - fired
        if missing:
            say(f"self-test FAILED: {name}: expected {sorted(missing)} "
                f"to fire, got {sorted(fired)}", file=sys.stderr)
            failures += 1
        if not expected and fired:
            say(f"self-test FAILED: {name}: clean fixture fired "
                f"{sorted(fired)} (false positive)", file=sys.stderr)
            failures += 1
        unexpected = fired - expected - {"KDP000"}
        if expected and unexpected:
            say(f"self-test FAILED: {name}: unrelated rules fired: "
                f"{sorted(unexpected)}", file=sys.stderr)
            failures += 1

    # Suppression parsing: every seeded violation in an allow-fixture is
    # suppressed with a reason, and its one malformed KDP-ALLOW is KDP000.
    for name, (rel, seeded) in sorted(SUPPRESSION_FIXTURES.items()):
        if not seeded & scope:
            continue
        findings, suppressions, _ = check_fixture(root, name, rel, disabled)
        rule_findings = [f for f in findings if f.rule != "KDP000"]
        kdp000 = [f for f in findings if f.rule == "KDP000"]
        if not rule_findings:
            say(f"self-test FAILED: {name} seeded no violations",
                file=sys.stderr)
            failures += 1
        for f in rule_findings:
            if not f.suppressed or not f.suppression_reason:
                say(f"self-test FAILED: expected suppressed-with-reason: {f}",
                    file=sys.stderr)
                failures += 1
        if len(kdp000) != 1:
            say(f"self-test FAILED: {name}: expected exactly 1 malformed "
                f"KDP-ALLOW (KDP000), got {len(kdp000)}", file=sys.stderr)
            failures += 1
        if not suppressions:
            say(f"self-test FAILED: no suppressions parsed from {name}",
                file=sys.stderr)
            failures += 1

    # False-positive guard on real, clean tree files.
    for rel in ("src/xml/sid.h", "src/obs/metrics.h"):
        p = root / rel
        if not p.is_file():
            continue
        text = p.read_text(encoding="utf-8")
        facts = gather_internal_facts(
            {rel: strip_comments_and_strings(text)})
        fp, _, _ = analyze_file(rel, text, facts, disabled)
        fp = [f for f in fp if not f.suppressed]
        if fp:
            say(f"self-test FAILED: false positives on {rel}:",
                file=sys.stderr)
            for f in fp:
                say(f"  {f}", file=sys.stderr)
            failures += 1

    if failures:
        return 1
    say(f"self-test OK: {covered} rule fixtures cover "
        f"{len(scope)} rules + suppression parsing")
    return 0


def meta_test(root: Path) -> int:
    """Disabling any single rule must make the self-test fail — proof that
    every fixture is actually guarded by its rule."""
    bad = []
    for rule in ALL_RULES:
        if self_test(root, disabled={rule}, quiet=True) == 0:
            bad.append(rule)
    if self_test(root, disabled=set(), quiet=True) != 0:
        print("meta-test FAILED: baseline self-test does not pass",
              file=sys.stderr)
        return 1
    if bad:
        print(f"meta-test FAILED: self-test still passes with "
              f"{bad} disabled — fixtures are not guarding these rules",
              file=sys.stderr)
        return 1
    print(f"meta-test OK: removing any of {len(ALL_RULES)} rules breaks "
          "the self-test")
    return 0


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path.cwd())
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json (default: "
                             "<root>/build/compile_commands.json)")
    parser.add_argument("--backend",
                        choices=("auto", "libclang", "ast-dump", "internal"),
                        default="auto")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings JSON here")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="KDPxxx",
                        help="disable a rule (repeatable); with --self-test, "
                             "fixtures of disabled rules are skipped")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--meta-test", action="store_true")
    parser.add_argument("--audit-unordered", action="store_true",
                        help="list every range-for over an unordered "
                             "container, sink or not (audit aid)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"error: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    disabled = {r.upper() for r in args.disable}
    unknown = disabled - set(ALL_RULES)
    if unknown:
        print(f"error: unknown rule(s) in --disable: {sorted(unknown)}",
              file=sys.stderr)
        return 2
    compile_commands = args.compile_commands or (
        root / "build" / "compile_commands.json")

    if args.self_test:
        return self_test(root, disabled, scope=set(ALL_RULES) - disabled)
    if args.meta_test:
        return meta_test(root)

    audit: list | None = [] if args.audit_unordered else None
    findings, suppressions, facts, n_files = scan_tree(
        root, compile_commands, args.backend, disabled, audit)

    if audit is not None:
        print("unordered-container range-for audit "
              "(sorted-or-justified is the contract):")
        for rel, line, expr in audit:
            print(f"  {rel}:{line}: for (... : {expr})")

    for f in findings:
        print(f)
    print_suppression_inventory(suppressions)

    if args.json is not None:
        write_findings_json(args.json, findings_json(
            [TOOL], root, findings, suppressions, n_files))
        print(f"wrote {args.json}")

    unsuppressed = [f for f in findings if not f.suppressed]
    if unsuppressed:
        print(f"kadop_analyze: {len(unsuppressed)} unsuppressed finding(s) "
              f"[backend: {facts.backend}]", file=sys.stderr)
        return 1
    print(f"kadop_analyze: clean ({n_files} files, backend "
          f"{facts.backend}, {len(suppressions)} suppression(s), "
          f"compile_commands "
          f"{'found' if load_compile_commands(compile_commands) else 'absent'})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
