"""agentbench: one closed-loop swarm benchmark for the whole serving stack.

    python3 benchmarks/agentbench/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out PATH] [--smoke]

Runs the named workload (default: all four) against the system as a user
gets it — ``SystemConfig()`` defaults, no ``REPRO_*`` variable set — prints
every metric by name with its unit, checks answers, and writes a result
JSON. ``--trace 0`` is the untraced run the end-to-end numbers come from;
``--trace 1`` is the separate traced run (harness spans + layer walk) the
per-layer numbers come from; without ``--trace`` both run and the
throughput difference is reported as tracing overhead.

With one workload and an explicit ``--trace`` the last line of standard
output is the result object the ``BENCHMARK.json`` contract describes. This
benchmark claims no gain; it defines the names later claims use.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
DEFAULT_OUT_DIR = os.path.join(HERE, "_out")
sys.path[:0] = [SRC, HERE]

import spec  # noqa: E402  (needs HERE on the path; imports nothing of the program)

WARMUP_S = 3.0
#: Set-up is repeated at least this often, and on until it has taken a second
#: in total (at most SETUP_REPEATS_MAX times); setup_s is the median.
SETUP_REPEATS_MIN = 5
SETUP_REPEATS_MAX = 15
#: Probes the layer walk replays (at least 200 per workload).
WALK_PROBES = 200
SMOKE = {"warmup_s": 0.3, "seconds": 1.0, "walk_probes": 16}


def repro_env_vars() -> list[str]:
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


def host_facts() -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gil_enabled": bool(gil),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, out_dir: str
) -> dict:
    """One run of one workload; returns its section of the result JSON."""
    # Imported here: these need the program under src/, which main() checks for.
    from layers import layer_walk, run_facts
    from loadgen import closed_loop, percentile
    from tracer import Tracer
    from workloads import WORKLOAD_CLASSES, stream_digest

    warmup_s = SMOKE["warmup_s"] if smoke else WARMUP_S
    workload = WORKLOAD_CLASSES[name](seed, smoke)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_dir)
    system = None
    try:
        # Set-up is data load + system construction + prestart(), repeated;
        # setup_s is the median and the last system built is the one served.
        setup_times: list[float] = []
        while not _enough_setups(setup_times, smoke):
            if system is not None:
                system.close()
            started = time.perf_counter()
            db = workload.build_db()
            system = workload.build_system(
                db, os.path.join(workdir, f"setup{len(setup_times)}")
            )
            setup_times.append(time.perf_counter() - started)

        oracle_db = workload.build_db()
        workload.prepare_oracles(oracle_db)
        streams = workload.streams()
        for stream in streams:
            stream.ensure(int(workload.stream_rate * (warmup_s + seconds)))
        sessions = workload.open_sessions(system)
        tracer = Tracer() if trace else None

        workload.start_background(system, warmup_s + seconds)
        loop = closed_loop(
            workload, sessions, streams, warmup_s, seconds,
            tick=getattr(system, "pump", None), tracer=tracer,
        )
        own_end_to_end, own_layer, problems = workload.finish(system, loop, workdir)
        problems += workload.verify_deferred(oracle_db)
        failed = loop.failed + len(problems)

        latencies = loop.latencies_ms()
        if not latencies:
            raise RuntimeError(f"{name}: no probe completed in the measured phase")
        end_to_end = {
            "probes_per_s": len(latencies) / seconds,
            "probe_p50_ms": statistics.median(latencies),
            "probe_p95_ms": percentile(latencies, 0.95),
            "setup_s": statistics.median(setup_times),
            **own_end_to_end,
        }
        facts = run_facts(system, loop)
        section = {
            "trace": trace,
            "attempted": loop.attempted,
            "failed": failed,
            "failed_share": failed / max(1, loop.attempted),
            "failures": (loop.failures + problems)[:10],
            "invalid": workload.validity({**facts, **own_layer}),
            "samples": len(latencies),
            "setup_repeats": len(setup_times),
            "throughput_slices": loop.throughput_slices(),
            "statuses": loop.statuses,
            "kinds": loop.kinds,
            "stream_digest": stream_digest(streams, 32),
            "end_to_end": end_to_end,
            "workload_layer": own_layer,
            "run_facts": facts,
        }
        if trace:
            walked, walk_times, serve_times = layer_walk(
                workload, system, streams, loop.cursors, tracer, workdir,
                window_size=max(1, round(facts["mean_window_size"])),
                sample=SMOKE["walk_probes"] if smoke else WALK_PROBES,
            )
            measured = {
                **facts,
                **walked,
                "traced_probes_per_s": end_to_end["probes_per_s"],
                "shared_ratio": facts["rows_per_probe"] / walked["serial_rows_per_probe"],
                # The replay runs after the loop and can come out a little
                # slower than the loop's median: a share cannot be negative.
                "gateway_wait_share": max(
                    0.0, 1.0 - walked["window_serve_ms"] / end_to_end["probe_p50_ms"]
                ),
            }
            section["per_layer"] = {m.name: measured[m.name] for m in spec.PER_LAYER}
            section["self_times"] = {"as_served": serve_times, "flat_walk": walk_times}
            section["span_counts"] = tracer.counts()
            section["trace_file"] = os.path.join(out_dir, f"trace-{name}.json")
            tracer.write_chrome(
                section["trace_file"],
                {"workload": name, "seed": seed, "self_times": section["self_times"],
                 "span_counts": section["span_counts"]},
            )
        return section
    finally:
        if system is not None:
            system.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _enough_setups(times: list[float], smoke: bool) -> bool:
    if smoke:
        return len(times) >= 1
    if len(times) < SETUP_REPEATS_MIN:
        return False
    return sum(times) >= 1.0 or len(times) >= SETUP_REPEATS_MAX


# -- reporting -----------------------------------------------------------------


def print_section(name: str, section: dict) -> None:
    mode = "traced" if section["trace"] else "untraced"
    print(f"\n== {name} ({mode}): {section['attempted']} probes attempted,"
          f" {section['failed']} failed, {section['samples']} latency samples ==")
    if section["trace"]:
        units = {m.name: m for m in spec.PER_LAYER}
        for metric_name, value in section["per_layer"].items():
            metric = units[metric_name]
            print(f"  {metric.layer:<15}{metric_name:<28}{value:>14.4f} {metric.unit}")
        for title, table in (
            ("as served (window replay; span minus children)", "as_served"),
            ("flat walk (every statement through each layer's public function)",
             "flat_walk"),
        ):
            print(f"  self time per layer, {title}:")
            for layer, entry in sorted(section["self_times"][table].items()):
                print(f"    {layer:<13}{entry['self_s'] * 1000.0:>12.2f} ms self"
                      f"{entry['total_s'] * 1000.0:>12.2f} ms total"
                      f"{entry['spans']:>8} spans")
    else:
        for metric in spec.end_to_end_for(name):
            value = section["end_to_end"][metric.name]
            print(f"  {'end_to_end':<15}{metric.name:<28}{value:>14.4f} {metric.unit}"
                  f"   ({metric.better} is better, bound {metric.bound:.0%})")
        print(f"  {'end_to_end':<15}{'failed_share':<28}{section['failed_share']:>14.4f}"
              " fraction   (lower is better, any increase fails)")
    layer_units = {m.name: m.unit for m in spec.WORKLOAD_LAYER.get(name, ())}
    for metric_name, value in section["workload_layer"].items():
        print(f"  {'this workload':<15}{metric_name:<28}{value:>14.4f}"
              f" {layer_units[metric_name]}")
    slices = ", ".join(f"{v:.1f}" for v in section["throughput_slices"])
    print(f"  probes/s per slice: {slices}")
    for problem in section["failures"] + section["invalid"]:
        print(f"  !! {problem}")


def contract_line(name: str, section: dict) -> str:
    """The one-line result object of the ``BENCHMARK.json`` contract."""
    if section["trace"]:
        units = {m.name: m.unit for m in spec.PER_LAYER}
        values = section["per_layer"]
    else:
        units = {m.name: m.unit for m in spec.END_TO_END}
        values = section["end_to_end"]
    return json.dumps(
        {
            "correct": section["failed"] == 0 and not section["invalid"],
            "attempted": section["attempted"],
            "failed": section["failed"],
            "metrics": {
                key: {"value": float(values[key]), "unit": units[key]} for key in units
            },
        }
    )


def write_result(path: str, run: dict) -> None:
    """Append ``run`` to the result file's ``runs`` (a file is a set of runs,
    which is what ``compare.py`` needs to see a spread)."""
    document = {"benchmark": "agentbench", "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    document["runs"].append(run)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                        choices=(0, 1), help="0 untraced, 1 traced; default both")
    parser.add_argument("--out", help="result JSON; runs are appended to it")
    parser.add_argument("--smoke", action="store_true",
                        help="about a second per workload on tiny populations")
    args = parser.parse_args(argv)

    set_vars = repro_env_vars()
    if set_vars:
        print(f"agentbench measures SystemConfig() defaults; unset {', '.join(set_vars)}",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"agentbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    names = spec.workload_names()
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE["seconds"] if args.smoke else float(spec.RUN_SECONDS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else DEFAULT_OUT_DIR

    run = {
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "host": host_facts(),
        "config": "SystemConfig() defaults; no REPRO_* variable set;"
                  " REPRO_WAL_FSYNC unset (WAL appends are not fsynced)",
        "workloads": {},
    }
    sections = []
    for name in names:
        entry = run["workloads"].setdefault(name, {})
        for trace in modes:
            section = run_workload(name, args.seed, seconds, trace, args.smoke, out_dir)
            entry["traced" if trace else "untraced"] = section
            sections.append((name, section))
            print_section(name, section)
        if len(modes) == 2:
            plain = entry["untraced"]["end_to_end"]["probes_per_s"]
            traced = entry["traced"]["end_to_end"]["probes_per_s"]
            entry["tracing_overhead"] = 1.0 - traced / plain
            print(f"  tracing overhead: {entry['tracing_overhead']:+.2%} of {plain:.1f}"
                  " probes/s")
    ok = all(s["failed"] == 0 and not s["invalid"] for _, s in sections)
    run["summary"] = {
        "correct": ok,
        "failed_share": {
            name: max(s["failed_share"] for n, s in sections if n == name)
            for name in names
        },
        "claim": None,
    }
    out_path = args.out or os.path.join(out_dir, "result.json")
    write_result(out_path, run)
    print(f"\nwrote {out_path}")
    invalid = [p for _, s in sections for p in s["invalid"]]
    if invalid:
        # An invalid run measured something other than the workload: no result.
        for problem in invalid:
            print(f"invalid run: {problem}", file=sys.stderr)
        return 1
    if len(sections) == 1:
        print(contract_line(*sections[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
