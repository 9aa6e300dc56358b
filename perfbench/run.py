"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload scalar-figs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke              # every workload, tiny, traced
    python3 perfbench/run.py --check-pins 3       # re-fly pinned verdicts, 3 seeds

Workloads (see ``workloads.py`` for what each flies and why):

* ``scalar-figs``   -- figures 4-7 shortened, golden-reference scalar flights;
* ``batch-wide``    -- the fig5 grid at width 48 through the batch core;
* ``service-short`` -- 12 short fig7 flights rented from a 1-worker service;
* ``store-warm``    -- a warm re-run of 1024 cached cells with arrays.

A run sets the workload up several times (each set-up imports the program in
a fresh interpreter, then does the workload's own set-up; the median is
``setup_s``), then repeats timed campaigns until ``--seconds`` have passed.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced campaigns and prints the per-layer metrics of
the span ledger (``ledger.py``) with the measured tracing overhead.

``first_result_s`` is read off the runner's first ``variant-complete`` event
on the ``repro.obs`` event log.  Where none is emitted it is the end of the
first scalar flight (``scalar-figs`` calls ``run_scenario`` directly) or the
end of the campaign (``store-warm``: store hits are returned all at once).

Every campaign is checked: failed variants, verdicts against the pinned
scalar references, and identical results across repeats.  The last line of
standard output is one JSON object; the exit code is non-zero when a check
fails.  Each run writes a record with its context (commit, CPUs, versions,
seed, repeat counts and spreads) and, when traced, its spans under
``perfbench/out/``, the only place a run writes to.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {
    "flights_per_s": "1/s",
    "first_result_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: The program's modules every workload imports.
IMPORTS = ("numpy", "repro.campaign.service", "repro.sim.batch", "repro.store")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase [s] (default: 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, tiny grids, one set-up, traced")
    parser.add_argument("--check-pins", type=int, metavar="SEEDS", default=None,
                        help="fly the scalar reference of every workload over "
                        "SEEDS seeds and confirm the pinned verdicts")
    args = parser.parse_args(argv)
    if not args.smoke and args.check_pins is None and args.workload is None:
        parser.error("--workload is required (or --smoke / --check-pins)")
    return args


def _import_program() -> None:
    """Put the program on the path and import it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {ROOT / 'src'}; run from a checkout")
    # Bytecode caches go under the output directory (worker processes
    # inherit the setting through the environment), so a run leaves the
    # source tree untouched.
    prefix = str(OUT_DIR / "pycache")
    sys.pycache_prefix = prefix
    os.environ["PYTHONPYCACHEPREFIX"] = prefix
    sys.path.insert(0, str(ROOT / "src"))
    for module in IMPORTS:
        importlib.import_module(module)


def _fresh_import_s() -> float:
    """Import time of the program in a fresh interpreter (the import part
    of a set-up, which cannot be repeated inside this process)."""
    code = (f"import time; t = time.perf_counter(); import {', '.join(IMPORTS)}; "
            "print(time.perf_counter() - t)")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    return float(done.stdout.strip())


def _git(*args: str) -> str | None:
    """Output of a read-only git command on the checkout, or ``None`` when
    the checkout is not a git repository (git may not look above it)."""
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", *args], cwd=ROOT, capture_output=True,
            text=True, timeout=20,
            env={**os.environ, "GIT_CONFIG_NOSYSTEM": "1", "HOME": str(ROOT),
                 "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the program's source files: names the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _context(args: argparse.Namespace, workload: str) -> dict[str, Any]:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": 0.0 if args.smoke else args.seconds,
        "trace": int(args.trace or args.smoke),
        "smoke": args.smoke,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": _source_sha256(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class _Deliveries:
    """Event-log stream noting when the runner reports each result."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def write(self, line: str) -> int:
        if '"event": "variant-complete"' in line:
            self.times.append(time.perf_counter())
        return len(line)

    def flush(self) -> None:
        pass


# -- measuring ----------------------------------------------------------------------


def _measure(workload: Any, ledger: Any, setups: int,
             seconds: float) -> tuple[list[float], list[dict[str, Any]]]:
    """Set up ``setups`` times, then run timed campaigns for ``seconds``.

    A traced run (``ledger`` given) traces every set-up and alternates
    untraced and traced campaigns, so both see the same machine state and
    the tracing overhead is measured.

    A workload that runs in this process alone is pinned to one usable CPU
    per campaign (per untraced/traced pair in a traced run), in turn: a
    neighbour on the shared machine can slow one CPU for longer than a run,
    and the fastest-repeat estimates should see every CPU the run may use.
    """
    from ledger import CAMPAIGN_ROOT, SETUP_ROOT
    from repro.obs import EventLog, set_event_log

    setup_times = []
    campaigns: list[dict[str, Any]] = []
    probe = _Deliveries()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for index in range(setups):
            imported = _fresh_import_s()
            start = time.perf_counter()
            if ledger is not None:
                with ledger.installed(), ledger.phase(SETUP_ROOT, -1 - index):
                    workload.setup()
                ledger.harvest(-1 - index)
            else:
                workload.setup()
            setup_times.append(imported + time.perf_counter() - start)
        # Write back what set-up stored, so the disk does not flush it
        # underneath the timed campaigns.
        os.sync()

        previous = set_event_log(EventLog(probe, run_id="perfbench"))
        try:
            began = time.perf_counter()
            repeat = 0
            while True:
                traced = ledger is not None and repeat % 2 == 1
                cpu = cpus[(repeat // (1 if ledger is None else 2)) % len(cpus)]
                if workload.in_process:
                    os.sched_setaffinity(0, {cpu})
                workload.prepare(repeat)
                probe.times = []
                start = time.perf_counter()
                if traced:
                    with ledger.installed(), ledger.phase(CAMPAIGN_ROOT, repeat):
                        raw = workload.run()
                else:
                    raw = workload.run()
                wall = time.perf_counter() - start
                delivered = probe.times
                first_at = (delivered[0] if delivered else workload.first_result_at
                            or start + wall)
                result = workload.check(raw, wall)
                if workload.paced_deliveries and len(delivered) == result.flights:
                    marks = [start, *delivered, start + wall]
                    result.unit_walls = {f"delivery-{index}": end - begin for index, (begin, end)
                                         in enumerate(zip(marks, marks[1:]))}
                # Repeats are compared by digest, so a long run holds no
                # more memory than a short one (peak_rss_mb stays the
                # program's).
                result.content = hashlib.sha256(repr(result.content).encode()).hexdigest()
                del raw
                if traced:
                    ledger.harvest(repeat)
                campaigns.append({
                    "repeat": repeat, "traced": traced, "wall_s": wall,
                    "first_result_s": first_at - start, "result": result,
                    "cpus": [cpu] if workload.in_process else cpus,
                })
                repeat += 1
                if time.perf_counter() - began >= seconds and (ledger is None or repeat >= 2):
                    break
        finally:
            set_event_log(previous)
            os.sched_setaffinity(0, cpus)
    finally:
        workload.close()
    return setup_times, campaigns


def _checks(campaigns: list[dict[str, Any]]) -> dict[str, Any]:
    """Failed variants, verdict mismatches and result consistency."""
    reference = campaigns[0]["result"].content
    problems = []
    for campaign in campaigns:
        result = campaign["result"]
        problems.extend(f"repeat {campaign['repeat']}: {p}" for p in result.problems)
        if result.content != reference:
            problems.append(f"repeat {campaign['repeat']}: results differ from repeat 0")
    attempted = sum(c["result"].flights for c in campaigns)
    failed = sum(c["result"].failed for c in campaigns)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "verdict_mismatches": sum(c["result"].verdict_mismatches for c in campaigns),
        "problems": problems,
    }


def _summary(values: list[float], value: float, statistic: str) -> dict[str, Any]:
    """The reported ``value`` with the repeat count, median, range and
    interquartile range of the per-repeat ``values`` it summarises."""
    entry: dict[str, Any] = {
        "value": value,
        "statistic": statistic,
        "repeats": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry["iqr"] = q3 - q1
    return entry


#: How a run summarises the repeats of a timing.  Neighbours on the shared
#: machine slow it down in stretches of seconds, longer than a repeat: the
#: fastest repeat is the steadiest estimate of what the program costs,
#: while the median moves with the share of the run that was slowed (the
#: record keeps the median and quartiles beside it).
STATISTIC = "fastest repeat"


def _rate(runs: list[dict[str, Any]]) -> float:
    """Flights per second of a campaign assembled from the fastest repeat
    of each independently timed part."""
    units = [c["result"].unit_walls or {"campaign": c["wall_s"]} for c in runs]
    return runs[0]["result"].flights / sum(min(u[key] for u in units) for key in units[0])


def _end_to_end(workload: Any, setup_times: list[float],
                campaigns: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    rates = [c["result"].flights / c["wall_s"] for c in campaigns]
    firsts = [c["first_result_s"] for c in campaigns]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not workload.in_process:
        # The fleet has been reaped by now; add the largest worker.
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "flights_per_s": _summary(rates, _rate(campaigns), STATISTIC),
        "first_result_s": _summary(firsts, min(firsts), STATISTIC),
        "setup_s": _summary(setup_times, statistics.median(setup_times), "median"),
        "peak_rss_mb": _summary([peak_kb / 1024.0], peak_kb / 1024.0, "peak"),
    }
    return {name: {"value": metrics[name]["value"], "unit": unit} | metrics[name]
            for name, unit in END_TO_END_UNITS.items()}


def _per_layer(workload: Any, ledger: Any, campaigns: list[dict[str, Any]], setups: int,
               checks: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    from ledger import CAMPAIGN_ROOT, PER_LAYER, LayerView, span_cost

    untraced = [c for c in campaigns if not c["traced"]]
    traced = [c for c in campaigns if c["traced"]]
    extras: dict[str, float] = {}
    for campaign in traced:
        for key, value in campaign["result"].extras.items():
            extras[key] = extras.get(key, 0.0) + value / len(traced)
    untraced_rate, traced_rate = _rate(untraced), _rate(traced)
    extras["trace.untraced_flights_per_s"] = untraced_rate
    extras["trace.traced_flights_per_s"] = traced_rate
    extras["trace.overhead_ratio"] = untraced_rate / traced_rate - 1.0
    extras["trace.span_cost_s"] = span_cost()
    extras["failed_fraction"] = checks["failed_fraction"]
    extras["verdict_mismatches"] = checks["verdict_mismatches"]
    view = LayerView(ledger, campaigns=[c["repeat"] for c in traced],
                     setups=[-1 - index for index in range(setups)], extras=extras)
    metrics = {name: {"value": float(value(view)), "unit": unit}
               for name, unit, _, value in PER_LAYER}
    breakdown = {
        "campaign_self_s": {name: totals["self_s"] / view.campaigns
                            for name, totals in sorted(view.timed.items())},
        "setup_self_s": {name: totals["self_s"] / view.setups
                         for name, totals in sorted(view.setup.items())},
    }
    # The layers plus the remainder add up to the traced wall time.
    total_self = sum(breakdown["campaign_self_s"].values())
    wall = view.busy_s(CAMPAIGN_ROOT)
    if abs(total_self - wall) > 1e-6 * max(1.0, wall):
        checks["problems"].append(f"ledger self times sum to {total_self} s, not {wall} s")
    return metrics, breakdown


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 workdir: Path) -> dict[str, Any]:
    """Set up, run timed campaigns and check them; returns the run record."""
    from ledger import Ledger
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir, smoke=smoke)
    ledger = Ledger() if trace else None
    setups = 1 if smoke else workload.setups
    setup_times, campaigns = _measure(workload, ledger, setups, seconds)
    checks = _checks(campaigns)
    record: dict[str, Any] = {
        "scenarios": workload.describe(),
        "setup_runs_s": setup_times,
        "campaigns": [
            {key: value for key, value in c.items() if key != "result"}
            | {"flights": c["result"].flights, "unit_walls": c["result"].unit_walls}
            for c in campaigns
        ],
        "checks": checks,
    }
    if ledger is None:
        record["metrics"] = _end_to_end(
            workload, setup_times, [c for c in campaigns if not c["traced"]])
    else:
        record["metrics"], record["ledger"] = _per_layer(
            workload, ledger, campaigns, setups, checks)
        spans = OUT_DIR / f"spans-{name}-seed{seed}-{os.getpid()}.npz"
        ledger.save(spans, workload=name)
        record["spans_file"] = str(spans.relative_to(ROOT))
    record["correct"] = (checks["failed"] == 0 and checks["verdict_mismatches"] == 0
                         and not checks["problems"])
    return record


# -- reporting ----------------------------------------------------------------------


def _report(record: dict[str, Any]) -> None:
    for metric, entry in record["metrics"].items():
        detail = ""
        if "statistic" in entry:
            detail = (f"  ({entry['statistic']} of {entry['repeats']}; "
                      f"repeat median {entry['median']:.6g}")
            if "iqr" in entry:
                detail += f", IQR {entry['iqr']:.6g}"
            detail += ")"
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}{detail}")
    checks = record["checks"]
    if "failed_fraction" not in record["metrics"]:
        print(f"failed_fraction = {checks['failed_fraction']:.6g} ratio "
              f"({checks['failed']} of {checks['attempted']} flights)")
        print(f"verdict_mismatches = {checks['verdict_mismatches']} count")
    for problem in checks["problems"]:
        print(f"problem: {problem}")


def _write_record(record: dict[str, Any]) -> None:
    context = record["context"]
    stem = (f"{'smoke' if context['smoke'] else 'run'}-{context['workload']}-"
            f"seed{context['seed']}-trace{context['trace']}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")


def _manifest_problems() -> list[str]:
    """Differences between ``BENCHMARK.json`` and what this benchmark emits."""
    from ledger import PER_LAYER
    from workloads import WORKLOADS

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    manifest = json.loads(path.read_text())
    expected = {
        "workloads": sorted(WORKLOADS),
        "end_to_end": sorted(END_TO_END_UNITS.items()),
        "per_layer": sorted((name, unit, better) for name, unit, better, _ in PER_LAYER),
    }
    found = {
        "workloads": sorted(entry["name"] for entry in manifest["workloads"]),
        "end_to_end": sorted((entry["name"], entry["unit"]) for entry in manifest["end_to_end"]),
        "per_layer": sorted((entry["name"], entry["unit"], entry["better"])
                            for entry in manifest["per_layer"]),
    }
    return [f"BENCHMARK.json {key} differ from the benchmark's"
            for key in expected if expected[key] != found[key]]


def _check_pins(seeds: int) -> int:
    """Fly the scalar reference for every workload's timing classes over
    ``seeds`` seeds and compare with the pinned verdicts."""
    from repro import run_scenario
    from workloads import WORKLOADS, ScalarFigs

    wrong = flown = 0
    for seed in range(1, seeds + 1):
        for name, cls in WORKLOADS.items():
            workload = cls(seed, OUT_DIR, smoke=True)
            if isinstance(workload, ScalarFigs):
                flights = [(scenario, verdict) for _, scenario, verdict in workload.flights]
            else:
                flights = [(variant.scenario, workload.pinned(variant.axes))
                           for variant in workload.variants]
            for scenario, pinned in flights:
                result = run_scenario(scenario)
                verdict = (bool(result.crashed), result.switch_time is not None)
                ok = verdict == pinned
                wrong += not ok
                flown += 1
                print(f"{'ok  ' if ok else 'FAIL'} seed {seed} {name}: {scenario.name} "
                      f"seed={scenario.seed} verdict={verdict} pinned={pinned}", flush=True)
    print(json.dumps({"correct": wrong == 0, "attempted": flown, "failed": wrong, "metrics": {}}))
    return 0 if wrong == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    if args.check_pins is not None:
        return _check_pins(args.check_pins)
    from workloads import WORKLOADS

    if args.smoke:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    records = []
    try:
        for name in names:
            workdir.mkdir(parents=True, exist_ok=True)
            record = run_workload(
                name, args.seed, 0.0 if args.smoke else args.seconds,
                trace=bool(args.trace) or args.smoke, smoke=args.smoke, workdir=workdir,
            )
            record["context"] = _context(args, name)
            _write_record(record)
            if args.smoke:
                print(f"[{name}]")
            _report(record)
            records.append(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = all(record["correct"] for record in records)
    if args.smoke:
        for problem in _manifest_problems():
            print(f"problem: {problem}")
            correct = False
    metrics = records[0]["metrics"] if len(records) == 1 else {}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["checks"]["attempted"] for record in records),
        "failed": sum(record["checks"]["failed"] for record in records),
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
