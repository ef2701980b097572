#!/usr/bin/env python3
"""Validates BENCH_<name>.json files emitted by the bench binaries.

Hand-rolled schema check (no third-party deps): every emitted file must be
a JSON object with

  bench          non-empty string, matching the BENCH_<name>.json filename
  description    non-empty string
  schema_version the integer 1
  rows           non-empty array of flat objects (numbers / strings)
  metrics        object with "counters", "gauges" and "histograms" maps;
                 each histogram has bounds/counts/count/sum and
                 len(counts) == len(bounds) + 1

The serving harness (bench == "serving") additionally promises:

  - at least 4 rows of kind "qps_step", each with numeric offered_qps,
    p50, p99 and p999 where p50 <= p99 <= p999
  - exactly one "knee" row with a "reason" whose offered_qps is the rate
    of one of the "qps_step" rows (a ladder that never reaches its knee
    fails)
  - at least one "capacity" row with numeric peers and sustainable_qps
  - a views A/B: one "qps_step_views" row per "qps_step" row (same
    ascending offered_qps ladder, numeric view_hits/view_hit_rate with
    view hits somewhere in the ladder), p99 strictly improved at the knee
    step, and exactly one "view_probe" row with answers_match == 1 and
    kDppJoin total posting movement >= 5x the view-hit wire bytes
    (djoin_wire_bytes / view_wire_bytes >= 5)

Every p50/p99/p999 cell is a nearest-rank order statistic of the step's
raw latency samples.

The Fig 3 bench (bench == "fig3_query_dpp") additionally promises, on
every row, join_answers_match == 1 and view_answers_match == 1: the
kDppJoin and kView runs return exactly the kDpp run's answers. Every row
also has dpp_join_ingress_wire_kb < dpp_ingress_wire_kb: with the join at
the holders, the query peer receives less than kDpp's posting lists, as
the largest list never moves. Its metrics snapshot reads
dpp.dir.holders_unnamed == 0: on the bench's unchanged ring every
directory entry names its block's holder, so no read or join task of the
figure waits on a routed lookup.

The codec bench (bench == "codec") additionally promises, on every row,
decoded_postings == postings (every encoded list decodes whole) and
ratio >= CODEC_RATIO_FLOOR, the raw-to-encoded ratio of the committed
quick run on the DBLP mix. The floor only ever rises.

Usage: check_bench_json.py FILE [FILE...]
       check_bench_json.py --self-test
Exits non-zero listing every violation, so CI fails loudly when a bench
stops emitting what the figure scripts consume. --self-test checks that
small synthetic serving, Fig 3 and codec files which break each gate are
rejected.
"""

import json
import os
import sys
import tempfile

# Raw-to-encoded posting ratio of the committed quick BENCH_codec.json
# (DBLP mix, 128 KB corpus; deterministic). Raise it when the codec
# improves; never lower it.
CODEC_RATIO_FLOOR = 5.45


def _err(errors, path, message):
    errors.append(f"{path}: {message}")


def check_metrics(metrics, path, errors):
    if not isinstance(metrics, dict):
        _err(errors, path, "'metrics' must be an object")
        return
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            _err(errors, path, f"'metrics.{section}' must be an object")
    for name, value in metrics.get("counters", {}).items():
        if not isinstance(value, int) or value < 0:
            _err(errors, path,
                 f"counter '{name}' must be a non-negative integer")
    for name, value in metrics.get("gauges", {}).items():
        if not isinstance(value, (int, float)):
            _err(errors, path, f"gauge '{name}' must be a number")
    for name, hist in metrics.get("histograms", {}).items():
        if not isinstance(hist, dict):
            _err(errors, path, f"histogram '{name}' must be an object")
            continue
        bounds = hist.get("bounds")
        counts = hist.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            _err(errors, path,
                 f"histogram '{name}' needs 'bounds' and 'counts' arrays")
            continue
        if len(counts) != len(bounds) + 1:
            _err(errors, path,
                 f"histogram '{name}': len(counts) == len(bounds) + 1 "
                 f"violated ({len(counts)} vs {len(bounds)})")
        if not isinstance(hist.get("count"), int):
            _err(errors, path, f"histogram '{name}' needs integer 'count'")
        if not isinstance(hist.get("sum"), (int, float)):
            _err(errors, path, f"histogram '{name}' needs numeric 'sum'")


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

    bench = data.get("bench")
    if not isinstance(bench, str) or not bench:
        _err(errors, path, "'bench' must be a non-empty string")
    else:
        expected = f"BENCH_{bench}.json"
        if os.path.basename(path) != expected:
            _err(errors, path, f"filename should be {expected}")

    if not isinstance(data.get("description"), str) or not data["description"]:
        _err(errors, path, "'description' must be a non-empty string")

    if data.get("schema_version") != 1:
        _err(errors, path, "'schema_version' must be 1")

    # Optional build provenance line (sanitizers / profiling timers),
    # emitted by BenchReport since the kadop_analyze PR.
    if "buildinfo" in data and (
            not isinstance(data["buildinfo"], str) or not data["buildinfo"]):
        _err(errors, path, "'buildinfo' must be a non-empty string if present")

    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        _err(errors, path, "'rows' must be a non-empty array")
    else:
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not row:
                _err(errors, path, f"rows[{i}] must be a non-empty object")
                continue
            for key, value in row.items():
                if not isinstance(value, (int, float, str)):
                    _err(errors, path,
                         f"rows[{i}].{key} must be a number or string")

    if "metrics" not in data:
        _err(errors, path, "'metrics' snapshot missing")
    else:
        check_metrics(data["metrics"], path, errors)

    if bench == "serving" and isinstance(rows, list):
        check_serving_rows(rows, path, errors)
    if bench == "fig3_query_dpp" and isinstance(rows, list):
        check_fig3_rows(rows, path, errors)
    if bench == "fig3_query_dpp" and isinstance(data.get("metrics"), dict):
        check_fig3_metrics(data["metrics"], path, errors)
    if bench == "codec" and isinstance(rows, list):
        check_codec_rows(rows, path, errors)


def check_codec_rows(rows, path, errors):
    """Every codec row decodes all it encoded, at no worse a ratio than the
    committed floor."""
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        postings = row.get("postings")
        decoded = row.get("decoded_postings")
        if not isinstance(postings, (int, float)) or decoded != postings:
            _err(errors, path,
                 f"rows[{i}].decoded_postings must equal postings "
                 f"(got {decoded!r} vs {postings!r})")
        ratio = row.get("ratio")
        if not isinstance(ratio, (int, float)) or ratio < CODEC_RATIO_FLOOR:
            _err(errors, path,
                 f"rows[{i}].ratio must be >= {CODEC_RATIO_FLOOR} "
                 f"(got {ratio!r})")


def check_fig3_rows(rows, path, errors):
    """Every Fig 3 volume's kDppJoin and kView answers equal kDpp's, and
    kDppJoin's query-peer ingress is below kDpp's."""
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        for key in ("join_answers_match", "view_answers_match"):
            if row.get(key) != 1:
                _err(errors, path,
                     f"rows[{i}].{key} must be 1 (got {row.get(key)!r})")
        join = row.get("dpp_join_ingress_wire_kb")
        dpp = row.get("dpp_ingress_wire_kb")
        if not (isinstance(join, (int, float)) and
                isinstance(dpp, (int, float)) and join < dpp):
            _err(errors, path,
                 f"rows[{i}].dpp_join_ingress_wire_kb must be below "
                 f"dpp_ingress_wire_kb (got {join!r} vs {dpp!r})")


def check_fig3_metrics(metrics, path, errors):
    """Every overflow entry the Fig 3 run's directories served named its
    holder."""
    counters = metrics.get("counters")
    unnamed = counters.get("dpp.dir.holders_unnamed") \
        if isinstance(counters, dict) else None
    if unnamed != 0:
        _err(errors, path,
             f"metrics.counters.dpp.dir.holders_unnamed must be 0 "
             f"(got {unnamed!r})")


def check_serving_rows(rows, path, errors):
    """Schema for the open-loop serving SLO harness."""

    def num(row, key):
        return isinstance(row.get(key), (int, float))

    qps_steps = [r for r in rows if isinstance(r, dict)
                 and r.get("kind") == "qps_step"]
    knees = [r for r in rows if isinstance(r, dict) and r.get("kind") == "knee"]
    capacity = [r for r in rows if isinstance(r, dict)
                and r.get("kind") == "capacity"]

    if len(qps_steps) < 4:
        _err(errors, path,
             f"serving: need >= 4 'qps_step' rows, got {len(qps_steps)}")
    for i, row in enumerate(qps_steps):
        missing = [k for k in ("offered_qps", "p50", "p99", "p999")
                   if not num(row, k)]
        if missing:
            _err(errors, path,
                 f"serving: qps_step[{i}] missing numeric {missing}")
            continue
        if not row["p50"] <= row["p99"] <= row["p999"]:
            _err(errors, path,
                 f"serving: qps_step[{i}] percentiles not monotone "
                 f"(p50={row['p50']} p99={row['p99']} p999={row['p999']})")
    offered = [r["offered_qps"] for r in qps_steps if num(r, "offered_qps")]
    if offered != sorted(offered):
        _err(errors, path, "serving: qps_step offered_qps must be ascending")

    if len(knees) != 1:
        _err(errors, path, f"serving: need exactly one 'knee' row, "
                           f"got {len(knees)}")
    elif not num(knees[0], "offered_qps") or \
            not isinstance(knees[0].get("reason"), str):
        _err(errors, path,
             "serving: knee row needs numeric offered_qps and string reason")
    elif knees[0]["offered_qps"] not in offered:
        _err(errors, path,
             f"serving: knee row names no ladder step "
             f"(offered_qps={knees[0]['offered_qps']}, "
             f"reason={knees[0]['reason']!r}); the ladder must reach "
             f"its knee")

    if not capacity:
        _err(errors, path, "serving: need at least one 'capacity' row")
    for i, row in enumerate(capacity):
        if not num(row, "peers") or not num(row, "sustainable_qps"):
            _err(errors, path,
                 f"serving: capacity[{i}] needs numeric peers and "
                 f"sustainable_qps")

    check_views_ab(rows, qps_steps, knees, path, errors)


def _knee_index(qps_steps, knees):
    """Index of the ladder step the knee row names.

    Falls back to the last step when the knee names none; that case is
    already an error, and the A/B gates still check the fallback step.
    """
    knee_qps = knees[0].get("offered_qps", 0) if len(knees) == 1 else 0
    for i, row in enumerate(qps_steps):
        if isinstance(row.get("offered_qps"), (int, float)) and \
                row["offered_qps"] == knee_qps:
            return i
    return len(qps_steps) - 1


def check_views_ab(rows, qps_steps, knees, path, errors):
    """The materialized-view A/B promised by the serving harness."""

    def num(row, key):
        return isinstance(row.get(key), (int, float))

    view_steps = [r for r in rows if isinstance(r, dict)
                  and r.get("kind") == "qps_step_views"]
    probes = [r for r in rows if isinstance(r, dict)
              and r.get("kind") == "view_probe"]

    if len(view_steps) != len(qps_steps):
        _err(errors, path,
             f"serving: need one 'qps_step_views' row per 'qps_step' row "
             f"({len(view_steps)} vs {len(qps_steps)})")
        return
    for i, (off, on) in enumerate(zip(qps_steps, view_steps)):
        missing = [k for k in ("offered_qps", "p99", "view_hits",
                               "view_hit_rate") if not num(on, k)]
        if missing:
            _err(errors, path,
                 f"serving: qps_step_views[{i}] missing numeric {missing}")
            return
        if num(off, "offered_qps") and \
                on["offered_qps"] != off["offered_qps"]:
            _err(errors, path,
                 f"serving: qps_step_views[{i}] offered_qps "
                 f"{on['offered_qps']} != qps_step's {off['offered_qps']}")
    if sum(r["view_hits"] for r in view_steps) <= 0:
        _err(errors, path,
             "serving: the views ladder never served a query from a view "
             "(sum of view_hits is 0)")

    # p99 must strictly improve at the knee step: rewritten queries free
    # enough capacity to shave the tail where queueing dominates.
    knee_idx = _knee_index(qps_steps, knees)
    if num(qps_steps[knee_idx], "p99") and \
            view_steps[knee_idx]["p99"] >= qps_steps[knee_idx]["p99"]:
        _err(errors, path,
             f"serving: p99 with views ({view_steps[knee_idx]['p99']}) "
             f"does not improve on the viewless p99 "
             f"({qps_steps[knee_idx]['p99']}) at the knee step "
             f"(offered_qps={qps_steps[knee_idx].get('offered_qps')})")

    if len(probes) != 1:
        _err(errors, path,
             f"serving: need exactly one 'view_probe' row, got {len(probes)}")
        return
    probe = probes[0]
    if not num(probe, "djoin_wire_bytes") or \
            not num(probe, "view_wire_bytes") or \
            not num(probe, "view_hit"):
        _err(errors, path,
             "serving: view_probe needs numeric djoin_wire_bytes, "
             "view_wire_bytes and view_hit")
        return
    if probe.get("answers_match") != 1:
        _err(errors, path,
             "serving: view_probe answers_match != 1 — the view served "
             "different answers than the kDppJoin ground truth")
    if probe["view_hit"] != 1:
        _err(errors, path,
             "serving: view_probe did not serve from the view extent")
    if probe["view_wire_bytes"] <= 0 or \
            probe["djoin_wire_bytes"] < 5.0 * probe["view_wire_bytes"]:
        _err(errors, path,
             f"serving: view-hit wire bytes ({probe['view_wire_bytes']}) "
             f"must be >= 5x below the kDppJoin posting movement "
             f"({probe['djoin_wire_bytes']})")


def _synthetic_serving():
    """A small serving file that passes every gate: a five-step ladder
    with its knee at the fourth step."""
    rates = [100, 200, 300, 400, 500]
    p99s = [0.05, 0.06, 0.1, 0.6, 2.0]

    def step(kind, qps, p99, **extra):
        row = {"kind": kind, "offered_qps": qps, "p50": p99 / 2,
               "p99": p99, "p999": p99 * 1.5, "max_holder_gets": 100}
        row.update(extra)
        return row

    rows = [{"kind": "capacity", "peers": 24, "sustainable_qps": 400}]
    rows += [step("qps_step", q, p) for q, p in zip(rates, p99s)]
    rows.append({"kind": "knee", "offered_qps": 400, "reason": "slo_miss"})
    rows.append(step("flash_crowd", 300, 5.0, max_holder_gets=900))
    rows += [step("qps_step_views", q, p * 0.9, view_hits=10,
                  view_hit_rate=0.2) for q, p in zip(rates, p99s)]
    rows.append({"kind": "view_probe", "tenant": "filtered",
                 "djoin_wire_bytes": 50000, "view_wire_bytes": 1000,
                 "view_hit": 1, "answers_match": 1})
    return {"bench": "serving", "description": "synthetic serving file",
            "schema_version": 1, "rows": rows,
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}}}


def _synthetic_fig3():
    """A small Fig 3 file that passes every gate: two volumes."""
    rows = [{"indexed_mb": mb, "dpp_response_s": 0.03,
             "dpp_ingress_wire_kb": 85.0, "dpp_join_ingress_wire_kb": 0.5,
             "join_answers_match": 1, "view_answers_match": 1}
            for mb in (2, 4)]
    counters = {"dpp.dir.holders_named": 6, "dpp.dir.holders_unnamed": 0}
    return {"bench": "fig3_query_dpp", "description": "synthetic Fig 3 file",
            "schema_version": 1, "rows": rows,
            "metrics": {"counters": counters, "gauges": {},
                        "histograms": {}}}


def _synthetic_codec():
    """A one-row codec file that passes every gate."""
    row = {"corpus": "dblp", "postings": 1000, "decoded_postings": 1000,
           "ratio": CODEC_RATIO_FLOOR + 0.5}
    return {"bench": "codec", "description": "synthetic codec file",
            "schema_version": 1, "rows": [row],
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}}}


def _codec_lost_postings(data):
    data["rows"][0]["decoded_postings"] = 999


def _codec_ratio_below_floor(data):
    data["rows"][0]["ratio"] = CODEC_RATIO_FLOOR - 0.01


def _join_mismatch(data):
    data["rows"][1]["join_answers_match"] = 0


def _view_missing(data):
    del data["rows"][0]["view_answers_match"]


def _join_ingress_not_below(data):
    row = data["rows"][1]
    row["dpp_join_ingress_wire_kb"] = row["dpp_ingress_wire_kb"]


def _holders_unnamed(data):
    data["metrics"]["counters"]["dpp.dir.holders_unnamed"] = 3


def _rows_of(data, kind):
    return [r for r in data["rows"] if r.get("kind") == kind]


def _no_knee(data):
    _rows_of(data, "knee")[0].update(offered_qps=0,
                                     reason="none within ladder")


def _views_tie(data):
    _rows_of(data, "qps_step_views")[3]["p99"] = \
        _rows_of(data, "qps_step")[3]["p99"]


def _unpaired_views(data):
    _rows_of(data, "qps_step_views")[2]["offered_qps"] = 301


def self_test():
    """Each broken synthetic file must be rejected for its own reason,
    and the unbroken one accepted."""
    serving = _synthetic_serving
    fig3 = _synthetic_fig3
    codec = _synthetic_codec
    cases = [
        ("valid", serving, None, None),
        ("no knee", serving, _no_knee, "knee row names no ladder step"),
        ("views not strictly better", serving, _views_tie,
         "p99 with views"),
        ("unpaired views rows", serving, _unpaired_views,
         "qps_step_views[2] offered_qps"),
        ("valid fig3", fig3, None, None),
        ("fig3 join answers differ", fig3, _join_mismatch,
         "rows[1].join_answers_match must be 1"),
        ("fig3 view answers unchecked", fig3, _view_missing,
         "rows[0].view_answers_match must be 1"),
        ("fig3 join ingress not below dpp", fig3, _join_ingress_not_below,
         "rows[1].dpp_join_ingress_wire_kb must be below"),
        ("fig3 overflow holders unnamed", fig3, _holders_unnamed,
         "dpp.dir.holders_unnamed must be 0"),
        ("valid codec", codec, None, None),
        ("codec lost postings", codec, _codec_lost_postings,
         "rows[0].decoded_postings must equal postings"),
        ("codec ratio below floor", codec, _codec_ratio_below_floor,
         "rows[0].ratio must be >="),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, make, mutate, expected in cases:
            data = make()
            if mutate:
                mutate(data)
            path = os.path.join(tmp, f"BENCH_{data['bench']}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(data, f)
            errors = []
            check_file(path, errors)
            if expected is None:
                ok = not errors
            else:
                ok = any(expected in e for e in errors)
            print(f"check_bench_json self-test: {name}: "
                  f"{'ok' if ok else 'FAILED'}")
            if not ok:
                failures += 1
                for e in errors or ["(no errors reported)"]:
                    print(f"  {e}")
    return 1 if failures else 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1:] == ["--self-test"]:
        return self_test()
    errors = []
    for path in argv[1:]:
        check_file(path, errors)
    if errors:
        for e in errors:
            print(f"check_bench_json: {e}", file=sys.stderr)
        return 1
    print(f"check_bench_json: {len(argv) - 1} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
