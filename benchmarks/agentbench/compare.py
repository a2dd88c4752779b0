"""Compare two sets of agentbench runs: ``compare.py A.json B.json``.

Each file is a result JSON written by ``run.py --out`` (runs accumulate in
it, so a file is a *set* of runs). For every (workload, end-to-end metric)
pair this prints both medians, how much worse B is than A as a share of A,
the bound ``spec.py`` fixes, and each side's run-to-run spread (distance
between the quartiles over the median, when a side has at least two runs).

Verdicts: ``BREACH`` when B is worse than A by more than the bound (or more
probes failed); ``unresolved`` when it is not, but a side's spread is wider
than the bound, so "unchanged" cannot be claimed; ``within bound`` otherwise.
Exits non-zero on any breach.
"""

from __future__ import annotations

import json
import statistics
import sys

import spec


def load_runs(path: str) -> list[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def values_of(runs: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for run in runs:
        section = run["workloads"].get(workload, {}).get("untraced")
        if section is not None and metric in section["end_to_end"]:
            out.append(section["end_to_end"][metric])
    return out


def failed_share_of(runs: list[dict], workload: str) -> float | None:
    shares = [
        section["failed_share"]
        for run in runs
        for section in run["workloads"].get(workload, {}).values()
        if isinstance(section, dict) and "failed_share" in section
    ]
    return max(shares) if shares else None


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None under 2 runs)."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worse_by(metric: spec.Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative =
    better)."""
    return (b - a) / a if metric.better == "lower" else (a - b) / a


def compare(runs_a: list[dict], runs_b: list[dict]) -> tuple[list[str], int]:
    lines = [
        f"{'workload':<16}{'metric':<20}{'A median':>12}{'B median':>12}"
        f"{'B worse by':>12}{'bound':>8}{'spread A':>10}{'spread B':>10}  verdict"
    ]
    breaches = 0
    for workload in spec.workload_names():
        for metric in spec.end_to_end_for(workload):
            a_values = values_of(runs_a, workload, metric.name)
            b_values = values_of(runs_b, workload, metric.name)
            if not a_values or not b_values:
                continue
            a, b = statistics.median(a_values), statistics.median(b_values)
            worse = worse_by(metric, a, b)
            spreads = [spread(a_values), spread(b_values)]
            if worse > metric.bound:
                verdict = "BREACH"
                breaches += 1
            elif any(s is not None and s > metric.bound for s in spreads):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            shown = ["   n<2" if s is None else f"{s:>9.1%}" for s in spreads]
            lines.append(
                f"{workload:<16}{metric.name:<20}{a:>12.4f}{b:>12.4f}"
                f"{worse:>+12.1%}{metric.bound:>8.0%}{shown[0]:>10}{shown[1]:>10}"
                f"  {verdict}"
            )
        share_a = failed_share_of(runs_a, workload)
        share_b = failed_share_of(runs_b, workload)
        if share_a is not None and share_b is not None:
            verdict = "within bound"
            if share_b > share_a:
                verdict = "BREACH"
                breaches += 1
            lines.append(
                f"{workload:<16}{'failed_share':<20}{share_a:>12.4f}{share_b:>12.4f}"
                f"{'':>12}{'any':>8}{'':>20}  {verdict}"
            )
    return lines, breaches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    lines, breaches = compare(load_runs(argv[0]), load_runs(argv[1]))
    print("\n".join(lines))
    print(f"\n{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
