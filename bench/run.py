"""synthdetect benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload train32 --seed 1 --seconds 15 --trace 0

``--workload`` is one of train32, score224, sweep32, variance32, or ``all``
to run the four serially in this process. Set-up generates the inputs from
``--seed`` in a child interpreter; one untimed warm-up round follows; then
rounds of the workload repeat for about ``--seconds`` of round time. The
set-up is repeated between rounds, spread over the measuring window, and
``setup_s`` is the median. Every round checks the program's outputs.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` rounds alternate between untraced
and traced, and the object carries the per-layer metrics plus the tracing
overhead (traced minus untraced end-to-end figures). The lines before it
print every metric by name and unit, the machine and the seed; the same
record, with the spans of a traced run, is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``. The exit code is 0 when
every operation and output check passed, 1 when one failed, 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train32", "score224", "sweep32", "variance32")
MAX_BLAS_THREADS = 2
MIN_ROUNDS = 2  # a traced run needs one untraced and one traced round
SETUP_TIMEOUT_S = 150
MAX_SETUPS = 16
E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "call_latency_s": "s",
             "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """Set-up failed, so there is nothing to measure."""


def pin_blas_threads() -> int:
    """Cap BLAS threads; must run before numpy is first imported."""
    threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, when numpy bundles one."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(pinned_threads: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "blas_threads_pinned": pinned_threads,
            "numpy": np.__version__, "python": platform.python_version(),
            "platform": platform.platform(), "commit": _git_commit()}


class SetupProcess:
    """Set-ups in a fresh interpreter, so that their memory is not ours. The
    first writes the workload's inputs under ``directory / "inputs"``; each
    repeat writes a spare copy that the child removes again."""

    def __init__(self, name: str, directory: Path, seed: int, size: str):
        paths = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])
        directory.mkdir(parents=True)
        self.name = name
        self.log = directory / "setup.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "workloads.py"), name, str(directory),
                 str(seed), size],
                env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True)
        self.timings: list[dict] = []

    def run_one(self) -> dict:
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
        except BrokenPipeError:
            line = ""
        if not line:
            self.close(kill=True)
            raise BenchmarkError(f"set-up of {self.name} failed or timed out:\n"
                                 f"{self.log.read_text().strip()}")
        self.timings.append(json.loads(line))
        return self.timings[-1]

    def close(self, kill: bool = False) -> None:
        """End the child (at once with ``kill``) and wait until it has ended."""
        if kill:
            self.proc.kill()
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_count(first_s: float, sizes) -> int:
    """Set-ups per run: at least ``sizes.setup_repeats``, more (up to
    MAX_SETUPS) while a short set-up falls under ``sizes.setup_min_s`` in all."""
    wanted = math.ceil(sizes.setup_min_s / first_s) if first_s > 0 else MAX_SETUPS
    return min(MAX_SETUPS, max(sizes.setup_repeats, wanted))


def _measure(workload, tracer, setups: SetupProcess, count: int, seconds: float,
             trace: bool) -> tuple[list, list]:
    """Rounds until the next one would take the round time past ``seconds``;
    with ``trace``, every second round is traced. Repeat set-up ``k`` of
    ``count`` runs once ``k / count`` of that time is spent, so a change in
    the host's speed during the run reaches set-ups and rounds alike; set-up
    time does not count towards ``seconds``."""
    plain, traced = [], []
    spent = 0.0
    while True:
        if len(setups.timings) < count and spent >= seconds * len(setups.timings) / count:
            setups.run_one()
            continue
        start = time.perf_counter()
        if trace and len(plain) > len(traced):
            with tracer.recorded():
                traced.append(workload.measure_round())
        else:
            plain.append(workload.measure_round())
        took = time.perf_counter() - start
        spent += took
        if len(plain) + len(traced) >= MIN_ROUNDS and spent + took > seconds:
            break
    while len(setups.timings) < count:
        setups.run_one()
    return plain, traced


def _summarize(rounds: list) -> tuple[float, float]:
    """(items per second, call latency): medians over the successful rounds."""
    ok = [r for r in rounds if r is not None]
    if not ok:
        return 0.0, 0.0
    return (statistics.median(r["items"] / r["items_s"] for r in ok),
            statistics.median(c for r in ok for c in r["calls"]))


def run_workload(name: str, args, sizes) -> dict:
    from tracer import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
    setup_process = None
    try:
        setup_process = SetupProcess(name, work, args.seed, args.size)
        first = setup_process.run_one()
        tracer = Tracer()
        workload = WORKLOADS[name](work / "inputs", args.seed, sizes, tracer)
        workload.warm()
        plain, traced = _measure(workload, tracer, setup_process,
                                 setup_count(first["setup_s"], sizes), args.seconds,
                                 bool(args.trace))
        setups = setup_process.timings
    finally:
        if setup_process is not None:
            setup_process.close()
        shutil.rmtree(work, ignore_errors=True)

    throughput, call_latency = _summarize(plain)
    e2e = {"setup_s": statistics.median(s["setup_s"] for s in setups),
           "throughput_per_s": throughput, "call_latency_s": call_latency,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    result = {"workload": name, "seed": args.seed, "size": args.size,
              "rounds": len(plain), "traced_rounds": len(traced),
              "attempted": workload.attempted, "failed": workload.failed,
              "end_to_end": e2e, "setups": setups, "samples": plain,
              "named": {n: {"value": v, "unit": u}
                        for n, v, u in workload.named(throughput, call_latency)}}
    if args.trace:
        traced_throughput, traced_call = _summarize(traced)
        layers = layer_metrics(tracer.spans, len(traced))
        layers["textures.generate_s"] = statistics.median(s["textures_s"] for s in setups)
        layers["trace.overhead_throughput_per_s"] = traced_throughput - throughput
        layers["trace.overhead_call_latency_s"] = traced_call - call_latency
        result["per_layer"] = {n: {"value": layers[n], "unit": u} for n, u, _ in LAYER_METRICS}
        result["spans"] = [s.as_dict() for s in tracer.spans]
    return result


def _print_result(result: dict) -> None:
    name = result["workload"]
    rows = [(n, v, E2E_UNITS[n]) for n, v in result["end_to_end"].items()]
    rows += [(n, m["value"], m["unit"]) for n, m in result["named"].items()]
    rows.append(("error_rate", result["failed"] / max(result["attempted"], 1), "ratio"))
    rows += [(n, m["value"], m["unit"]) for n, m in result.get("per_layer", {}).items()]
    for metric, value, unit in rows:
        print(f"{name:<11} {metric:<36} {value:>14.6g} {unit}")
    print(f"{name:<11} rounds {result['rounds']} untraced, {result['traced_rounds']} traced; "
          f"{len(result['setups'])} set-ups; "
          f"{result['attempted']} operations, {result['failed']} failed")


def _write_record(result: dict, machine: dict, trace: int) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{trace}.json"
    path.write_text(json.dumps({"machine": machine, **result}, indent=1) + "\n")


def _contract_line(results: list[dict], trace: int) -> dict:
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        if trace:
            chosen = result["per_layer"]
        else:
            chosen = {n: {"value": v, "unit": E2E_UNITS[n]}
                      for n, v in result["end_to_end"].items()}
        metrics.update({prefix + n: m for n, m in chosen.items()})
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    pinned = pin_blas_threads()
    if not (ROOT / "src" / "synthdetect" / "__init__.py").is_file():
        print(f"error: no synthdetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SIZES

    machine = machine_record(pinned)
    print("machine " + json.dumps(machine))
    print(f"seed {args.seed}, size {args.size}, {args.seconds:g} s per workload, "
          f"trace {args.trace}")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args, SIZES[args.size])
            _print_result(result)
            _write_record(result, machine, args.trace)
            results.append(result)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    line = _contract_line(results, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
