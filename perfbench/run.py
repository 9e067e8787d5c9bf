"""heatbem benchmark: the paper's three workloads through ``heatbem.cli.main``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {uniform_kappa,adaptive_ex2,solve_large}
                             --seed N --seconds S --trace {0,1}

Each pass runs in a fresh process (perfbench/worker.py), one at a time, so a
pass pays for its own imports and its peak RSS is its own.  A new pass starts
only while one more, as long as the median pass so far, would end within
``--seconds``, with at least ``MIN_PASSES`` passes.  With ``--trace 0``,
``SETUPS`` set-up-only processes come first, then the passes; the end-to-end
metrics are medians.  With ``--trace 1`` one untraced pass is followed by the
traced passes, which give the per-layer metrics.  Every pass is gated
against independent references (perfbench/gate.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, samples, every operation) goes to .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0  # the whole run, set-up included, ends well inside 180 s
SETUPS = 7
MIN_PASSES = 2
INTERIOR_POINTS = 16

# Closed-loop workloads: one caller, each command runs to completion.  The two
# studies are fixed paper configurations and ignore the seed; solve_large draws
# its interior points from it.  Why each was chosen: perfbench/README.md.
WORKLOADS = {
    "uniform_kappa": {
        "kind": "uniform",
        "argv": ["study-uniform", "--example", "1", "--levels", "9", "--kappa", "both"],
        "ops": 10,
    },
    "adaptive_ex2": {
        "kind": "adaptive",
        "argv": ["study-adaptive", "--example", "2", "--target-n", "278"],
        "ops": 24,
    },
    "solve_large": {
        "kind": "solve",
        "argv": ["solve", "--level", "11"],
        "level": 11,
        "ops": 1,
    },
}


def _points(workload: dict, seed: int) -> list[tuple[float, float]]:
    if workload["kind"] != "solve":
        return []
    rng = random.Random(seed)
    return [(rng.uniform(0.05, 0.95), rng.uniform(0.02, 1.0)) for _ in range(INTERIOR_POINTS)]


def _cli_argv(workload: dict, points) -> list[str]:
    if not points:
        return list(workload["argv"])
    return workload["argv"] + ["--points", ";".join(f"{x!r},{t!r}" for x, t in points)]


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    """BLAS may use at most nproc threads; its default here is nproc."""
    env = dict(os.environ)
    requested = env.get("OPENBLAS_NUM_THREADS", "")
    threads = int(requested) if requested.isdigit() and int(requested) > 0 else _nproc()
    env["OPENBLAS_NUM_THREADS"] = str(min(threads, _nproc()))
    return env


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Starts worker passes one at a time inside the run's deadline."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, deadline: float):
        spec = WORKLOADS[workload]
        points = _points(spec, seed)
        self.base = {
            "src": str(root / "src"),
            "argv": _cli_argv(spec, points),
            "workload": spec,
            "points": points,
        }
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = _worker_env()
        self.count = 0
        self.pass_seconds: list[float] = []

    def fits(self, start: float, seconds: float) -> bool:
        """Whether one more pass, as long as the median pass so far, ends by ``seconds``."""
        estimate = statistics.median(self.pass_seconds) if self.pass_seconds else 0.0
        return time.monotonic() - start + estimate <= seconds

    def run(self, mode: str) -> dict | None:
        """One pass; None when the worker failed (its stderr is passed on)."""
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            raise TimeoutError("no time left for another pass")
        self.count += 1
        tag = f"{mode}{self.count}"
        spec = dict(
            self.base,
            mode=mode,
            run_id=f"{self.work.name}/{tag}",
            out=str(self.work / tag),
            result=str(self.work / f"{tag}.json"),
            spans=str(self.work / f"{tag}.spans.jsonl"),
        )
        spec_path = self.work / f"{tag}.spec.json"
        spec["t0"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(spec_path)],
                env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"perfbench: {mode} pass exceeded the run deadline\n")
            return None
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.is_file():
            sys.stderr.write(
                f"perfbench: {mode} pass failed (exit {proc.returncode})\n{proc.stderr[-4000:]}"
            )
            return None
        if mode != "setup":
            self.pass_seconds.append(time.monotonic() - spec["t0"])
        result = json.loads(result_path.read_text())
        result["out"] = spec["out"]
        result["spans"] = spec["spans"]
        expected = (self.root / "src" / "heatbem").resolve()
        if Path(result["heatbem_file"]).resolve().parent != expected:
            sys.stderr.write(f"perfbench: imported {result['heatbem_file']}, not {expected}\n")
            return None
        return result


def _same_outputs(a: str, b: str) -> bool:
    names_a = sorted(p.name for p in Path(a).iterdir())
    names_b = sorted(p.name for p in Path(b).iterdir())
    if names_a != names_b:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return not mismatch and not errors


def _exact_counts(layers: dict) -> dict:
    """Layer metrics that are counts; the same code must repeat them exactly."""
    return {k: v for k, v in layers.items() if _layer_unit(k) in ("count", "B")}


def _trace_checks(plain: dict, traced: list[dict]) -> list[dict]:
    """Tracing must not change the program, counts must repeat, self times add up."""
    same = all(_same_outputs(plain["out"], t["out"]) for t in traced)
    counts = [_exact_counts(t["layers"]) for t in traced]
    repeat = all(c == counts[0] for c in counts[1:])
    sums = [t["self_sum_s"] / t["wall_s"] for t in traced]
    sums_ok = all(abs(s - 1.0) <= 0.03 for s in sums)
    return [
        {"op": "trace: outputs byte-identical to the untraced pass", "ok": same, "detail": ""},
        {"op": "trace: exact counts repeat across traced passes", "ok": repeat,
         "detail": "" if repeat else json.dumps(counts)},
        {"op": "trace: self times sum to the traced wall time within 3%", "ok": sums_ok,
         "detail": ", ".join(f"{s:.4f}" for s in sums)},
    ]


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _measure(runner: Runner, seconds: float, start: float):
    setups = []
    for _ in range(SETUPS):
        result = runner.run("setup")
        if result is None:
            return [], 1, None, {}
        setups.append(result["setup_s"])
    passes, failed_passes = [], 0
    while len(passes) < MIN_PASSES or runner.fits(start, seconds):
        result = runner.run("plain")
        if result is None:
            failed_passes += 1
            break
        passes.append(result)
    if not passes:
        return passes, failed_passes, None, {}
    errors = [p["flux_l2_error"] for p in passes]
    metrics = {
        "wall_s": (_median(passes, "wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_median(passes, "peak_rss_mb"), "MB"),
        "flux_l2_error": (None if None in errors else max(errors), "1"),
    }
    samples = {"setup_s": setups, "wall_s": [p["wall_s"] for p in passes],
               "pass_setup_s": [p["setup_s"] for p in passes],
               "user_s": [p["user_s"] for p in passes], "sys_s": [p["sys_s"] for p in passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    return passes, failed_passes, metrics, samples


def _trace(runner: Runner, seconds: float, start: float):
    plain = runner.run("plain")
    if plain is None:
        return [], 1, None, {}
    traced = []
    while len(traced) < MIN_PASSES or runner.fits(start, seconds):
        result = runner.run("traced")
        if result is None:
            return [plain] + traced, 1, None, {}
        traced.append(result)
    metrics = {}
    for name, first in traced[0]["layers"].items():
        unit = _layer_unit(name)
        if unit in ("count", "B"):  # exact counts, checked to repeat below
            metrics[name] = (first, unit)
        else:
            metrics[name] = (statistics.median(t["layers"][name] for t in traced), unit)
    overhead = _median(traced, "wall_s") / plain["wall_s"] - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    samples = {"traced_wall_s": [t["wall_s"] for t in traced], "plain_wall_s": plain["wall_s"]}
    passes = [plain] + traced
    passes[0]["extra_ops"] = _trace_checks(plain, traced)
    return passes, 0, metrics, samples


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd().resolve()
    if not (root / "src" / "heatbem" / "cli.py").is_file():
        sys.stderr.write(
            f"perfbench: no heatbem sources under {root / 'src'}; "
            "run from the root of a heatbem checkout\n"
        )
        return 2

    bench_dir = root / ".bench_build" / "perfbench"
    work = bench_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work, args.workload, args.seed, start + DEADLINE_S)
        step = _trace if args.trace else _measure
        try:
            passes, failed_passes, metrics, samples = step(runner, args.seconds, start)
        except TimeoutError as exc:
            sys.stderr.write(f"perfbench: {exc}\n")
            return 1
        if metrics is None or any(v is None for v, _ in metrics.values()):
            sys.stderr.write("perfbench: no complete measurement; see the errors above\n")
            return 1
        if args.trace:
            spans_out = bench_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            shutil.copyfile(passes[-1]["spans"], spans_out)
        return _report(args, root, runner, passes, failed_passes, metrics, samples, bench_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _report(args, root, runner, passes, failed_passes, metrics, samples, bench_dir) -> int:
    libs = passes[0]["libraries"]
    nproc = _nproc()
    machine = {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        **libs,
        "openblas_num_threads_env": runner.env["OPENBLAS_NUM_THREADS"],
        "worker_processes_at_once": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": WORKLOADS[args.workload]["kind"] == "solve",
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "heatbem"),
    }
    ops = [op for p in passes for op in p["ops"] + p.get("extra_ops", [])]
    threads_ok = all(n <= nproc for n in libs["blas_threads"].values())
    ops.append({"op": "machine: BLAS threads <= nproc", "ok": threads_ok,
                "detail": json.dumps(libs["blas_threads"])})
    attempted = len(ops) + failed_passes
    failed = sum(not op["ok"] for op in ops) + failed_passes
    warnings_seen = sorted({w for p in passes for w in p.get("warnings", [])})

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} failed_passes={failed_passes}")
    print("machine " + json.dumps(machine))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r:>24} {unit}")
    print(f"  {'ops_failed':40s} {failed!r:>24} of {attempted} ops")
    for op in ops:
        if not op["ok"]:
            print(f"  FAILED {op['op']}: {op['detail']}")
    if warnings_seen:
        print("  warnings seen (not failures): " + "; ".join(warnings_seen))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "machine": machine, "samples": samples, "ops": ops,
              "warnings": warnings_seen}
    results = bench_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
