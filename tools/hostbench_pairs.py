#!/usr/bin/env python3
"""Alternating parent/candidate pairs of the host-clock benchmark.

    python3 tools/hostbench_pairs.py --workload W --pairs N [--seed S]
        [--seconds S] [--base REF] [--workdir DIR]
    python3 tools/hostbench_pairs.py --diff A B
    python3 tools/hostbench_pairs.py --selftest

The base side is REF (default HEAD), exported with `git archive` into
a work directory (a new temporary one unless --workdir is given), so
the repository gains no worktree; a --workdir that already holds an
export of the same commit is reused with its build. The candidate side
is the working tree. Each side is built and run by its own
hostbench/run.py; one tiny run per side builds it first and is
discarded. Pair i runs the base
first when i is even and the candidate first when i is odd, so a slow
phase of the host hits both sides alike.

For every end-to-end metric in the candidate's BENCHMARK.json it prints,
per side, the q1/median/q3 over the runs (linear interpolation between
order statistics), the median of the per-pair ratios candidate/base,
the number of pairs the candidate won (by the metric's `better`
direction), whether the candidate median is worse than the base median
by more than the metric's bound, and whether a gain claim holds: the
candidate wins at least 9 of every 10 pairs and its median beats the
base median by more than the base's interquartile range. Every run's
`correct`/`attempted`/`failed` is printed too. Exit status: 0 when
every run passed its output checks, 1 otherwise, 2 on a usage or build
error.

--diff compares two result lines, each the last line of a file holding
`run.py` output (with `--trace 1`, every per-layer metric): for each
metric on both sides it prints A, B, the ratio B/A and the metric's
`better` direction from BENCHMARK.json, largest |log(B/A)| first, and
then the metrics present on one side only. Exit status 0, or 2 when a
file holds no result line.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WIN_SHARE = 0.9


def quantile(values, q):
    """q-quantile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(metric, base, cand):
    """Statistics of one metric over aligned pairs (base[i], cand[i])."""
    lower = metric["better"] == "lower"
    ratios = [c / b for b, c in zip(base, cand) if b != 0]
    wins = sum(1 for b, c in zip(base, cand) if (c < b if lower else c > b))
    bq = [quantile(base, q) for q in (0.25, 0.5, 0.75)]
    cq = [quantile(cand, q) for q in (0.25, 0.5, 0.75)]
    gap = bq[1] - cq[1] if lower else cq[1] - bq[1]
    iqr = bq[2] - bq[0]
    worse = (cq[1] - bq[1]) if lower else (bq[1] - cq[1])
    return {
        "name": metric["name"],
        "base": bq,
        "cand": cq,
        "ratio": quantile(ratios, 0.5),
        "wins": wins,
        "pairs": len(base),
        "regressed": bq[1] != 0 and worse / abs(bq[1]) > metric["bound"],
        "gain": wins >= WIN_SHARE * len(base) and gap > iqr,
    }


def render(stats):
    fmt = "%.4g"
    q = lambda v: "/".join(fmt % x for x in v)
    return ("%-12s base q1/med/q3 %s | cand %s | median ratio %.3f | "
            "wins %d/%d | over bound: %s | gain holds: %s" %
            (stats["name"], q(stats["base"]), q(stats["cand"]),
             stats["ratio"], stats["wins"], stats["pairs"],
             "yes" if stats["regressed"] else "no",
             "yes" if stats["gain"] else "no"))


def log_gap(a, b):
    """|log(b / a)|: 0 for equal values, inf across zero or a sign."""
    if a == b:
        return 0.0
    if a == 0 or b == 0 or (a < 0) != (b < 0):
        return math.inf
    return abs(math.log(b / a))


def diff_lines(a, b, better):
    """Per-metric rows (name, A, B, B/A, better) of two result lines,
    largest |log ratio| first, then the names only A and only B hold."""
    va = {k: v["value"] for k, v in a["metrics"].items()}
    vb = {k: v["value"] for k, v in b["metrics"].items()}
    both = sorted(set(va) & set(vb),
                  key=lambda n: (-log_gap(va[n], vb[n]), n))
    rows = [(n, va[n], vb[n],
             vb[n] / va[n] if va[n] != 0 else
             (1.0 if vb[n] == 0 else math.inf),
             better.get(n, "?")) for n in both]
    return rows, sorted(set(va) - set(vb)), sorted(set(vb) - set(va))


def read_result(path):
    """The result line of a run.py output file: its last nonempty line."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def diff(path_a, path_b):
    a, b = read_result(path_a), read_result(path_b)
    if a is None or b is None:
        print("hostbench_pairs: no result line in %s" %
              (path_a if a is None else path_b), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    rows, only_a, only_b = diff_lines(a, b, better)
    print("%-34s %12s %12s %8s  %s" % ("metric", "A", "B", "B/A",
                                        "better"))
    for name, va, vb, ratio, direction in rows:
        print("%-34s %12.6g %12.6g %8.3f  %s" %
              (name, va, vb, ratio, direction))
    for side, names in (("A", only_a), ("B", only_b)):
        if names:
            print("only in %s: %s" % (side, " ".join(names)))
    return 0


def selftest():
    metric = {"name": "unit_ms", "better": "lower", "bound": 0.25}
    assert quantile([4, 1, 3, 2], 0.5) == 2.5
    assert quantile([1, 2, 3, 4, 5], 0.25) == 2.0
    assert quantile([7], 0.75) == 7
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    cand = [3.5, 3.6, 3.7, 3.8, 3.9, 3.4, 3.3, 3.2, 3.1, 15.0]
    s = summarize(metric, base, cand)
    assert s["wins"] == 9 and s["gain"] and not s["regressed"], s
    assert abs(s["base"][1] - 12.25) < 1e-12, s
    assert abs(s["ratio"] - quantile([c / b for b, c in zip(base, cand)],
                                     0.5)) < 1e-12
    # 8 of 10 wins is not a gain, however large the median gap.
    s = summarize(metric, base, cand[:8] + [20.0, 20.0])
    assert s["wins"] == 8 and not s["gain"], s
    # A median gap inside the base IQR is not a gain.
    s = summarize(metric, base, [b - 0.5 for b in base])
    assert s["wins"] == 10 and not s["gain"], s
    # Higher-is-better flips both the wins and the bound.
    up = {"name": "rate", "better": "higher", "bound": 0.05}
    s = summarize(up, [100.0] * 4, [90.0] * 4)
    assert s["wins"] == 0 and s["regressed"] and not s["gain"], s
    s = summarize(up, [100.0, 101.0, 99.0, 100.0], [130.0] * 4)
    assert s["wins"] == 4 and s["gain"] and not s["regressed"], s
    # --diff: largest |log ratio| first (a halving outranks a 1.5x
    # rise), a move across zero first of all, equal values last, and
    # the metrics of one side listed apart.
    line = lambda **kv: {"metrics": {k: {"value": v} for k, v in kv.items()}}
    rows, only_a, only_b = diff_lines(
        line(unit_ms=10.0, rate=2.0, same=3.0, gone=1.0, zero=0.0),
        line(unit_ms=5.0, rate=3.0, same=3.0, new=4.0, zero=1.0),
        {"unit_ms": "lower", "rate": "higher"})
    assert [r[0] for r in rows] == ["zero", "unit_ms", "rate", "same"], rows
    assert rows[0][3] == math.inf and rows[1][3] == 0.5, rows
    assert rows[2][4] == "higher" and rows[3][3] == 1.0, rows
    assert rows[3][4] == "?", rows
    assert only_a == ["gone"] and only_b == ["new"], (only_a, only_b)
    assert log_gap(0.0, 0.0) == 0.0 and log_gap(-1.0, 1.0) == math.inf
    print("hostbench_pairs selftest: ok")
    return 0


def export(ref, dest):
    """git archive `ref` into dest (no worktree). An export of the same
    commit already in dest is kept, with its benchmark build."""
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", ref + "^{commit}"],
                         stdout=subprocess.PIPE, text=True)
    if rev.returncode != 0:
        return False
    stamp = os.path.join(dest, ".hostbench_pairs_commit")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == rev.stdout.strip():
                return True
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or tar.returncode != 0:
        return False
    with open(stamp, "w") as f:
        f.write(rev.stdout)
    return True


def run_side(root, args, seconds, tiny=False):
    """One hostbench run of the tree at root; the parsed result line."""
    cmd = [sys.executable, os.path.join(root, "hostbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    if tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--workdir")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.diff:
        return diff(*args.diff)
    if not args.workload or not args.pairs or args.pairs < 1:
        ap.error("--workload and --pairs >= 1 are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    workdir = args.workdir or tempfile.mkdtemp(prefix="hostbench_pairs_")
    base_root = os.path.join(workdir, "base")
    if not export(args.base, base_root):
        print("hostbench_pairs: cannot export %s" % args.base,
              file=sys.stderr)
        return 2
    sides = {"base": base_root, "cand": ROOT}
    for name, root in sides.items():
        if run_side(root, args, 0.5, tiny=True) is None:
            print("hostbench_pairs: %s side failed to build or run" % name,
                  file=sys.stderr)
            return 2

    results = {"base": [], "cand": []}
    status = 0
    for i in range(args.pairs):
        order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
        for name in order:
            res = run_side(sides[name], args, args.seconds)
            if res is None:
                print("pair %d %s: no result line" % (i + 1, name))
                return 1
            results[name].append(res)
            status = max(status, 0 if res["correct"] else 1)
            print("pair %d %-4s correct=%s attempted=%d failed=%d %s" %
                  (i + 1, name, str(res["correct"]).lower(),
                   res["attempted"], res["failed"],
                   " ".join("%s=%.4g" % (m["name"],
                                         res["metrics"][m["name"]]["value"])
                            for m in metrics)), flush=True)

    print("== %s seed %d, %d pairs, %g s, base %s" %
          (args.workload, args.seed, args.pairs, args.seconds, args.base))
    for m in metrics:
        vals = {name: [r["metrics"][m["name"]]["value"] for r in rs]
                for name, rs in results.items()}
        print(render(summarize(m, vals["base"], vals["cand"])))
    if not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
