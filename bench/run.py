"""Stage-timed reconstruction benchmark for geomeans.

    python3 bench/run.py --workload even_2d --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload's cases (see workloads.py) until
`--seconds` have passed, each case in a fresh Python process that imports
geomeans from the checkout's `src/`. Every case's outputs are checked
against the reference computations in checks.py; a case that crashes or
misses a check counts as failed. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and the metrics, each the
median over the rounds of the run.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
the run alternates an untraced and a traced round and reports the
per-layer metrics of the traced rounds, plus the tracing overhead (traced
minus untraced wall time). `--smoke` runs the same code paths on tiny grids.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

# a run must end within 180 s: cases still running this long after the run
# started are killed (and fail), and no round starts that would not fit
TIME_LIMIT = 170.0
# processes that time the set-up of each case: the case's own and two that
# stop after the set-up, because a stage this short jitters from process
# to process
SETUP_REPEATS = 3
# The host gives the benchmark 2 vCPUs shared with other machines. A BLAS
# or OpenMP pool of 2 threads there contends with the host's other load and
# measures the scheduler, so every case process computes on one thread.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "forward_s": "s", "invert_s": "s",
              "peak_rss_mb": "MiB", "rel_l2": "1"}

# layer self times (named as the spans in spans.py), counters, and trace totals
LAYER_SECONDS = ["spaces.boundary_grid.s", "forward.self_s", "fractional.s",
                 "numerics.filters.s", "numerics.log_kernel_table.s",
                 "inversion.backproject.s", "numerics.laplacian_fd.self_s",
                 "inversion.invert.self_s", "cli.write_means.s", "cli.read_means.s",
                 "cli.write_report.s"]
# the layers that run inside the timed forward and invert calls
PIPELINE_SECONDS = LAYER_SECONDS[1:8]
LAYER_COUNTS = ["spaces.boundary_grid.centres", "forward.profiles", "fractional.calls",
                "fractional.interp_points", "numerics.log_kernel_table.rows",
                "numerics.log_kernel_table.targets", "inversion.backproject.calls",
                "inversion.backproject.points", "inversion.backproject.gathers",
                "inversion.backproject.distinct_rows",
                "numerics.laplacian_fd.stencil_points"]
PER_LAYER = {**{k: "s" for k in LAYER_SECONDS}, **{k: "count" for k in LAYER_COUNTS},
             "cli.means_bytes": "bytes", "trace.wall_s": "s", "trace.overhead_s": "s",
             "trace.forward_s": "s", "trace.invert_s": "s", "trace.unaccounted_s": "s"}


def _spawn(spec: dict, stem: Path, deadline: float) -> tuple[float, str | None]:
    """Run case.py on a spec in a fresh process: its wall time and any error."""
    with open(f"{stem}.spec.json", "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "case.py"), f"{stem}.spec.json"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - start, 0.0))
    except subprocess.TimeoutExpired:
        return perf_counter() - start, "timed out"
    wall = perf_counter() - start
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return wall, f"exit {proc.returncode}: {last}"
    return wall, None


def run_case(case: dict, work: Path, trace: bool, seed: int, deadline: float) -> dict:
    """One case in a fresh process; its wall time, outputs and check misses.

    Untraced, the set-up is timed again in SETUP_REPEATS - 1 processes that
    stop after it, and the case's set-up time is the median over the
    processes.
    """
    stem = work / case["name"]
    spec = {
        "config": f"{stem}.config.json",
        "mode": case["mode"],
        "means": f"{stem}.means.csv",
        "report": f"{stem}.report.csv",
        "result": f"{stem}.result.json",
        "trace": trace,
        "probe_seed": seed if case["probe"] else None,
        "repeat_forward": case["repeat_forward"],
        "bumps": case["config"]["phantom"],
    }
    wall, error = _spawn(spec, stem, deadline)
    if error:
        return {"wall": wall, "misses": [error], "crashed": True}
    with open(spec["result"]) as fh:
        out = json.load(fh)
    # wall time as one CLI call would see it: without the forward repeats
    calls = out["forward_calls"]
    wall -= sum(calls[1:])
    setups = [out["seconds"]["setup"]]
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        _, error = _spawn({**spec, "mode": "setup"}, stem, deadline)
        if error:
            return {"wall": wall, "misses": [f"setup only: {error}"], "crashed": True}
        with open(spec["result"]) as fh:
            setups.append(json.load(fh)["seconds"]["setup"])
    out["setup_s"] = statistics.median(setups)
    out["forward_s"] = out["seconds"]["forward"]
    kind = case["config"]["space"]["kind"]
    out["rel_l2"], misses = checks.check_report(spec["report"], kind, spec["bumps"],
                                                case["bound"])
    misses += checks.check_probes(out.get("probes", []), spec["bumps"])
    if case["mode"] == "files" and not out["bitwise"]:
        misses.append("read_means(write_means(d)) differs from d")
    return {**out, "wall": wall, "misses": misses, "crashed": False}


def run_round(cases: list, work: Path, trace: bool, seed: int, deadline: float) -> list:
    results = []
    for case in cases:
        res = run_case(case, work, trace, seed, deadline)
        if not res["crashed"]:
            stages = " ".join(f"{k} {v:.3f}s" for k, v in res["seconds"].items())
            print(f"[{case['name']}{' traced' if trace else ''}] wall {res['wall']:.3f}s "
                  f"{stages} rel_l2 {res['rel_l2']:.5f}", file=sys.stderr)
        for miss in res["misses"]:
            print(f"[{case['name']}] FAILED: {miss}", file=sys.stderr)
        results.append(res)
    return results


def end_to_end(results: list) -> dict:
    ok = [r for r in results if not r["crashed"]]
    return {
        "wall_s": sum(r["wall"] for r in results),
        "setup_s": sum(r["setup_s"] for r in ok),
        "forward_s": sum(r["forward_s"] for r in ok),
        "invert_s": sum(r["seconds"]["invert"] for r in ok),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in ok), default=0.0),
        "rel_l2": max((r["rel_l2"] for r in ok), default=0.0),
    }


def per_layer(traced: list, untraced: list) -> dict:
    ok = [r for r in traced if not r["crashed"]]
    out = {k: 0.0 for k in LAYER_SECONDS}
    out.update({k: 0 for k in LAYER_COUNTS + ["cli.means_bytes"]})
    for r in ok:
        for k, v in r["self_s"].items():
            out[k] += v
        for k, v in r["counts"].items():
            out[k] += v
    timed = end_to_end(traced)
    out["trace.wall_s"] = timed["wall_s"]
    out["trace.overhead_s"] = timed["wall_s"] - end_to_end(untraced)["wall_s"]
    out["trace.forward_s"] = timed["forward_s"]
    out["trace.invert_s"] = timed["invert_s"]
    out["trace.unaccounted_s"] = (timed["forward_s"] + timed["invert_s"]
                                  - sum(out[k] for k in PIPELINE_SECONDS))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for testing")
    args = parser.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT
    if not (ROOT / "src" / "geomeans" / "__init__.py").is_file():
        print(f"error: no geomeans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cases = workloads.build(args.workload, args.seed, ROOT, smoke=args.smoke)

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for case in cases:
            with open(work / f"{case['name']}.config.json", "w") as fh:
                json.dump(case["config"], fh)
        # untimed warm-up, so that the first timed case finds geomeans, numpy
        # and scipy in the page cache like the others
        _spawn({"config": str(work / f"{cases[0]['name']}.config.json"), "mode": "setup",
                "result": str(work / "warmup.result.json"), "trace": False},
               work / "warmup", deadline)
        rounds = []
        start = perf_counter()
        while True:
            began = perf_counter()
            rounds.append(tuple(run_round(cases, work, traced, args.seed, deadline)
                                for traced in ((False, True) if args.trace else (False,))))
            now = perf_counter()
            if now - start >= args.seconds or now + (now - began) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for pair in rounds for res in pair for r in res]
    if args.trace:
        values = [per_layer(traced, untraced) for untraced, traced in rounds]
        units = PER_LAYER
    else:
        values = [end_to_end(res) for (res,) in rounds]
        units = END_TO_END
    metrics = {k: {"value": statistics.median(v[k] for v in values), "unit": u}
               for k, u in units.items()}
    print(json.dumps({
        "correct": not any(r["misses"] and not r["crashed"] for r in results),
        "attempted": len(results),
        "failed": sum(bool(r["misses"]) for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
