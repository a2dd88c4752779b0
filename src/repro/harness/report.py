"""Regenerate EXPERIMENTS.md from live harness runs.

Usage::

    python -m repro.harness.report [output_path]

Runs every figure/table/ablation at bench-default sizes and writes the
paper-vs-measured record. Deterministic: same seeds, same bytes.
"""

from __future__ import annotations

import sys

from repro.harness import (
    run_branching_experiment,
    run_fig1a,
    run_fig1b,
    run_fig2,
    run_fig3,
    run_memory_ablation,
    run_mqo_ablation,
    run_satisficing_ablation,
    run_steering_ablation,
    run_table1,
)

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure in the paper's evaluation (Sec. 2), the Sec. 6.2
telemetry claim, and the DESIGN.md ablations, regenerated by this
repository. Commands:

```bash
pytest benchmarks/ --benchmark-only -s     # all of the below, with timings
python -m pytest tests/test_experiments_shapes.py  # CI shape assertions
python -m repro.harness.report             # rebuild this file
```

Absolute numbers are not expected to match the paper (its substrate was
GPT-4o-mini/o3 on BIRD and four production DBMSes; ours is a deterministic
agent simulator over a from-scratch engine — see DESIGN.md substitutions).
The qualitative shape — who wins, directions, rough magnitudes, where
curves flatten — is the reproduction target, and each section below states
it explicitly.

Determinism: every number below reproduces bit-for-bit from the stated
seeds (seed=0 unless noted).
"""


def build_sections() -> list[tuple[str, str, str, str]]:
    """(title, paper claim, measured output, reading) per experiment."""
    sections: list[tuple[str, str, str, str]] = []

    fig1a = run_fig1a(seed=0, n_tasks=48)
    sections.append(
        (
            "Figure 1a — Success @ K",
            "Paper: success rises with parallel attempts K; GPT-4o-mini "
            "≈55%→70%, Qwen2.5-Coder ≈55%→63%; gains flatten at large K.",
            fig1a.render(),
            "Both simulated models rise with K and saturate well below 100% "
            "because shared grounding gaps (value-encoding knowledge) cannot "
            "be fixed by parallel one-shot retries — only grounding can. The "
            "stronger profile saturates higher, matching the paper's ordering.",
        )
    )

    fig1b = run_fig1b(seed=0, n_tasks=48, repetitions=2)
    sections.append(
        (
            "Figure 1b — Success vs. turns",
            "Paper: sequential success climbs ≈35%→55% over 7 turns.",
            fig1b.render(),
            "Turn budgets convert into grounding: exploration clears the "
            "encoding gaps that cap parallel retries, but premature "
            "satisfaction with plausible wrong answers caps sequential "
            "success below the parallel voting ceiling.",
        )
    )

    fig2 = run_fig2(seed=0, n_tasks=16, attempts_per_task=50)
    sections.append(
        (
            "Figure 2 — Total vs. unique sub-expressions (50 attempts/task)",
            "Paper: distinct sub-plans of each size are often <10-20% of the "
            "total; scans dedupe hardest.",
            fig2.render(),
            "Massive redundancy across parallel attempts, growing uniqueness "
            "with sub-plan size, scans (TS) most shareable — the opportunity "
            "the MQO cache exploits (see A1).",
        )
    )

    fig3 = run_fig3(seed=0, n_tasks=22, repetitions=2)
    sections.append(
        (
            "Figure 3 — Activities across traces",
            "Paper: exploring tables/columns first, then partial and full "
            "attempts, with overlapping phases.",
            fig3.render(),
            "Centers of mass order as in the paper (tables < columns < "
            "partial < entire) and every activity remains present across "
            "most of the trace.",
        )
    )

    table1 = run_table1(seed=0, n_tasks=22, repetitions=2)
    sections.append(
        (
            "Table 1 — Activity counts, hints vs. no hints",
            "Paper (no hints → hints): tables 3.44→2.95 (−14.2%), columns "
            "3.56→2.57 (−27.7%), partial 4.28→2.71 (−36.6%), entire "
            "1.26→1.05 (−16.6%), all 12.67→10.38 (−18.1%).",
            table1.render(),
            "Hints reduce every activity; partial attempts shrink the most "
            "(the hints pre-answer exactly what partial attempts verify), "
            "full attempts the least — the paper's pattern.",
        )
    )

    branching = run_branching_experiment(seed=0, sessions=8)
    sections.append(
        (
            "Sec. 6.2 — Branches and rollbacks, agents vs. humans",
            "Paper (Neon telemetry): agents created ~20× more branches and "
            "~50× more rollbacks than humans.",
            branching.render(),
            "Fork-per-hypothesis exploration recreates the order-of-magnitude "
            "gap; chunk-level copy-on-write keeps a single-row-write fork "
            "sharing the overwhelming majority of storage.",
        )
    )

    mqo = run_mqo_ablation(seed=0, n_tasks=6, attempts_per_task=50)
    sections.append(
        (
            "Ablation A1 — MQO sharing across redundant attempts",
            "DESIGN claim: sharing across attempts saves most of the engine "
            "work.",
            mqo.render(),
            "Figure 2's redundancy converts into ~an order of magnitude less "
            "work when attempts execute through the fingerprint-keyed "
            "shared-work memo.",
        )
    )

    memory = run_memory_ablation(seed=0, n_tasks=6, repeats=4)
    sections.append(
        (
            "Ablation A2 — Agentic memory / history on repetitive streams",
            "DESIGN claim: repeats and cross-agent re-asks become cheap.",
            memory.render(),
            "Identical probes from different agents answer from session "
            "history without touching tables.",
        )
    )

    satisficing = run_satisficing_ablation(seed=0, scale=20)
    sections.append(
        (
            "Ablation A3 — Satisficing vs. exact execution",
            "DESIGN claim: phase-aware approximation preserves exploration "
            "value at a fraction of the cost.",
            satisficing.render(),
            "Sampled exploration probes stay within a few percent of exact "
            "answers while skipping most row touches.",
        )
    )

    steering = run_steering_ablation(seed=0, n_tasks=10)
    sections.append(
        (
            "Ablation A4 — Steering (why-not feedback)",
            "DESIGN claim: sleeper-agent feedback closes grounding gaps "
            "faster than blind exploration (the in-system analogue of "
            "Table 1).",
            steering.render(),
            "The why-not side-channel names the correct literal encoding "
            "after one failed probe, replacing a separate exploration "
            "round-trip.",
        )
    )
    return sections


def render_report() -> str:
    out = [HEADER]
    for title, paper, measured, reading in build_sections():
        out.append(f"## {title}\n")
        out.append(f"**Paper.** {paper}\n")
        out.append("**Measured.**\n")
        out.append("```")
        out.append(measured)
        out.append("```")
        out.append(f"\n**Reading.** {reading}\n")
    return "\n".join(out)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    report = render_report()
    with open(path, "w") as handle:
        handle.write(report)
    print(f"wrote {path} ({len(report.splitlines())} lines)")


if __name__ == "__main__":
    main()
