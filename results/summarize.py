#!/usr/bin/env python3
"""Summarizes the figure CSVs into the EXPERIMENTS.md headline numbers,
then `history.jsonl`'s newest `swope-e2e` row per workload against the
row before it.

Run from the repository root after `figures -- all`:

    python3 results/summarize.py
"""
import csv
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def load(fig):
    with open(os.path.join(HERE, fig + ".csv")) as fh:
        return list(csv.DictReader(fh))


def speedups(fig, base):
    rows = load(fig)
    cells = {(r["dataset"], r["param"], r["algo"]): float(r["millis"]) for r in rows}
    vs_base, vs_exact = [], []
    for (ds, p, algo), ms in cells.items():
        if algo != "SWOPE":
            continue
        b = cells.get((ds, p, base))
        e = cells.get((ds, p, "Exact"))
        if b:
            vs_base.append(b / ms)
        if e:
            vs_exact.append(e / ms)
    def stats(xs):
        xs = sorted(xs)
        return f"min {xs[0]:.1f}x  median {xs[len(xs)//2]:.1f}x  max {xs[-1]:.1f}x"
    print(f"{fig}: SWOPE vs {base}: {stats(vs_base)}")
    print(f"{fig}: SWOPE vs Exact: {stats(vs_exact)}")


def accuracy(fig):
    rows = [r for r in load(fig) if r["algo"] == "SWOPE"]
    accs = [float(r["accuracy"]) for r in rows]
    print(f"{fig}: SWOPE accuracy min {min(accs):.4f} mean {sum(accs)/len(accs):.4f}")


def tuning(fig):
    rows = load(fig)
    by_eps = {}
    for r in rows:
        by_eps.setdefault(float(r["param"]), []).append(
            (float(r["millis"]), float(r["accuracy"]))
        )
    print(fig)
    for eps in sorted(by_eps):
        ms = sum(a for a, _ in by_eps[eps]) / len(by_eps[eps])
        acc = sum(b for _, b in by_eps[eps]) / len(by_eps[eps])
        print(f"  eps={eps}: mean {ms:.1f} ms, mean accuracy {acc:.3f}")


def ablation(fig):
    rows = load(fig)
    agg = {}
    for r in rows:
        agg.setdefault((r["algo"], r["param"]), []).append(
            (float(r["millis"]), float(r["accuracy"]))
        )
    print(fig)
    for k in sorted(agg):
        ms = sum(a for a, _ in agg[k]) / len(agg[k])
        acc = sum(b for _, b in agg[k]) / len(agg[k])
        print(f"  {k[0]:<16} param={k[1]:<8} mean {ms:9.2f} ms  acc {acc:.3f}")


def mi_full_n_and_vs_exact():
    """Per MI time figure, for the paper's SWOPE-MI row and the one that
    reads its marginals from the sketch: the cells whose final sample is
    the whole dataset, and the median speed-up over Exact."""
    n_by_ds = {}
    for r in load("table2"):
        n_by_ds[r["dataset"]] = int(r["sample_size"])
    for fig in ["fig5", "fig7"]:
        rows = load(fig)
        exact = {(r["dataset"], r["param"]): float(r["millis"]) for r in rows if r["algo"] == "Exact"}
        for algo in ["SWOPE", "SWOPE-MI (sketch marginals)"]:
            cells = [r for r in rows if r["algo"] == algo]
            if not cells:
                continue
            full = sum(1 for r in cells if int(r["sample_size"]) >= n_by_ds[r["dataset"]])
            ratios = sorted(exact[(r["dataset"], r["param"])] / float(r["millis"]) for r in cells)
            print(
                f"{fig}: {algo}: cells at full N {full}/{len(cells)}, "
                f"vs Exact median {ratios[len(ratios) // 2]:.1f}x ({ratios[0]:.1f}-{ratios[-1]:.1f}x)"
            )


END_TO_END = [
    "qps", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_query", "rss_peak_mb", "setup_s",
]


def history():
    """Per `swope-e2e` workload, the newest row's end-to-end metrics
    against the previous row's (append parent, then change)."""
    by_workload = {}
    with open(os.path.join(HERE, "history.jsonl")) as fh:
        for line in fh:
            row = json.loads(line)
            if row["bench"] == "swope-e2e":
                by_workload.setdefault(row["workload"], []).append(row)
    for workload, rows in by_workload.items():
        if len(rows) < 2:
            continue
        prev, last = rows[-2], rows[-1]
        print(f"{workload}: {last['git_sha'][:20]} vs {prev['git_sha'][:20]}")
        for metric in END_TO_END:
            a, b = prev["fields"].get(metric), last["fields"].get(metric)
            if a and b is not None:
                print(f"  {metric:<18} {a:>12.4f} -> {b:>12.4f}  {100 * (b - a) / a:+6.1f} %")


if __name__ == "__main__":
    speedups("fig1", "EntropyRank")
    speedups("fig3", "EntropyFilter")
    speedups("fig5", "EntropyRank")
    speedups("fig7", "EntropyFilter")
    for f in ["fig2", "fig4", "fig6", "fig8"]:
        accuracy(f)
    for f in ["fig9", "fig10", "fig11", "fig12"]:
        tuning(f)
    for f in ["ext-threads", "ext-oneshot", "ext-m0"]:
        ablation(f)
    mi_full_n_and_vs_exact()
    history()
