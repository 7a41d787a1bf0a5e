"""Benchmark of the twopoint package: seeded workloads in a closed loop.

    python3 bench/run.py --workload NAME[,NAME...|all] --seed N \\
        [--seconds S] [--trace 0|1]

One client runs one operation at a time.  An untraced run draws the
workload's ``inputs_per_run`` inputs from the seed before any timer
starts, then runs the operation on each of them in turn, round after
round, and starts no operation that the last one's time says would end
past ``--seconds`` of timed operations (every input runs at least
once).  Every run of an operation is checked.  CLI workloads run each
command in a child process with ``PYTHONPATH=src``, which imports
``twopoint.cli`` and calls its ``main`` as ``python -m twopoint.cli``
would (``timed_child.py``); library workloads call the public API in
this process.  Several workloads run one after another, each in a fresh
process of this script.

Every time reported is host-normalised (see ``clock.py``): each stage
of an operation is timed against runs of a fixed reference kernel on
the same core, and its time is its total wall time over its repeats,
scaled by ``clock.REF_S`` over the total of the reference times beside
it.  The latency of an operation is the sum of its stages' times.  The
stages of a library operation are its calls into the package; those of
a CLI command are the interpreter's start, the import of
``twopoint.cli`` and the command, the last two sampled inside every
``clock.SAMPLE_S`` seconds.  The process is pinned to one core per
round of inputs, taking the cores in turn, so that a stage and its
kernels share a core.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: median time of fresh interpreters importing
  ``twopoint`` (``twopoint.cli`` for CLI workloads);
* ``latency_s.p50`` and ``latency_s.tail``: median operation latency over
  the run's inputs and the highest percentile with ``TAIL_BEYOND``
  samples beyond it (the median while a run has too few inputs for that);
* ``ops_per_s``: operations per second at those latencies, counting only
  inputs whose every run passed its checks;
* ``peak_rss_mb``: the largest peak RSS of a CLI child (``os.wait4``),
  or this process's own for library workloads;
* ``pass_ratio``: runs of an operation that passed their checks over all
  runs, that is one minus the fail ratio.

``--trace 1`` reports the per-layer metrics: each input, one per
operation, is run once untraced and once with span wrappers around the
public functions of each module (see ``tracing.py``), and one extra
operation is run first with ``tracemalloc`` on for the peak-allocation
metrics.  Span times are wall times, not normalised.

Every metric is printed by name with its unit and sample count; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (per-operation times and
output hashes, spans, versions) is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import tracing
from clock import Laps, scaled
from workloads import WORKLOADS, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

#: fewest traced operations per run, whatever ``--seconds`` says
MIN_OPS = 2
#: fresh interpreters timed for ``setup_s``
SETUP_REPEATS = 5
#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10


#: the cores this process may run on, taken in turn by ``pin``
CPUS = sorted(os.sched_getaffinity(0))


def pin(k: int) -> None:
    """Run this process, and the children it starts, on core ``k`` of
    ``CPUS`` (modulo their number), so that a stage and the reference
    kernels beside it share a core."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def timed_child(module: str, argv: list, out, err) -> tuple:
    """Run ``timed_child.py`` on ``module`` and ``argv`` in a child with
    stdout and stderr to the files ``out`` and ``err``.  Returns its
    timing record, exit code and resource usage (``os.wait4``).

    The child times its ``import`` and ``main`` stages itself; the stage
    ``start`` is the rest of its wall time, timed against the kernel
    runs beside the child.  Kernel time is left out of ``wall_s``."""
    laps = OUT / "tmp" / "laps.json"
    laps.unlink(missing_ok=True)
    lap = Laps()
    proc = subprocess.Popen([sys.executable, str(BENCH / "timed_child.py"),
                             str(laps), module, *argv],
                            stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    _pid, status, usage = os.wait4(proc.pid, 0)
    lap("child")
    try:
        inner = json.loads(laps.read_text())
    except FileNotFoundError:
        inner = {"wall": {}, "ref": {}, "kernel_s": 0.0}
    wall = lap.wall["child"] - inner["kernel_s"]
    timing = {"wall_s": wall,
              "wall": {"start": wall - sum(inner["wall"].values()),
                       **inner["wall"]},
              "ref": {"start": lap.ref["child"], **inner["ref"]}}
    return timing, os.waitstatus_to_exitcode(status), usage


def setup_seconds(module: str) -> list:
    """Host-normalised time of fresh interpreters importing ``module``."""
    times = []
    tmp = OUT / "tmp"
    try:
        for k in range(SETUP_REPEATS):
            pin(k)
            with open(tmp / "stdout", "wb") as out, \
                    open(tmp / "stderr", "wb") as err:
                timing, code, _usage = timed_child(module, [], out, err)
            if code != 0 or "import" not in timing["wall"]:
                raise SystemExit(f"setup failed: importing {module} exited "
                                 f"{code}\n{(tmp / 'stderr').read_text()}")
            times.append(scaled([timing]))
    finally:
        os.sched_setaffinity(0, CPUS)
    return times


def tail(values: list) -> dict:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.
    With too few samples for one at or above the median, the median."""
    v = sorted(values)
    n = len(v)
    if n - TAIL_BEYOND - 1 >= n // 2:
        return {"value": v[n - TAIL_BEYOND - 1],
                "percentile": 100.0 * (n - TAIL_BEYOND) / n,
                "beyond": TAIL_BEYOND, "n": n}
    return {"value": statistics.median(v), "percentile": 50.0,
            "beyond": n // 2, "n": n}


# --- one operation --------------------------------------------------------

def run_cli(argv: list, trace=None) -> dict:
    """One ``twopoint`` command in a child; ``trace`` is None, "time" or
    "alloc".  Peak RSS is the child's own, read with ``os.wait4``.
    Untraced, the command is timed by stages (see :func:`timed_child`);
    traced, only its wall time is kept."""
    tmp = OUT / "tmp"
    with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
        if trace is None:
            rec, code, usage = timed_child("twopoint.cli", argv, out, err)
        else:
            (tmp / "spans.json").unlink(missing_ok=True)
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "traced_cli.py"),
                 str(tmp / "spans.json"), trace, *argv],
                stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            _pid, status, usage = os.wait4(proc.pid, 0)
            rec = {"wall_s": time.perf_counter() - t0}
            code = os.waitstatus_to_exitcode(status)
    stdout = (tmp / "stdout").read_bytes()
    stderr = (tmp / "stderr").read_bytes()
    rec.update({"rss_mb": usage.ru_maxrss / 1024, "exit": code,
                "stdout": stdout, "problems": []})
    if code != 0:
        rec["problems"].append(f"exit {code}")
    if b"Traceback" in stderr:
        rec["problems"].append("traceback: "
                               + stderr.decode(errors="replace")[-400:])
    if trace is None and not rec["problems"] and "main" not in rec["wall"]:
        rec["problems"].append("the command was not timed to its end")
    if trace is not None:
        try:
            rec["spans"] = json.loads((tmp / "spans.json").read_text())
        except FileNotFoundError:
            rec["spans"] = []
            rec["problems"].append("the traced command wrote no spans")
    return rec


def cli_op(w, inp, trace=None) -> dict:
    text, argv = inp
    path = OUT / "tmp" / "input.txt"
    path.write_text(text)
    rec = run_cli([*argv, "--input", str(path)], trace)
    if not rec["problems"]:
        try:
            rec["problems"] = w.check(json.loads(rec["stdout"]))
        except json.JSONDecodeError as exc:
            rec["problems"] = [f"stdout is not JSON: {exc}"]
    rec["digest"] = digest(rec.pop("stdout"))
    return rec


def lib_op(w, inp, trace=None) -> dict:
    rec = {"problems": [], "digest": None}
    recorder = tracing.Recorder(measure_alloc=trace == "alloc")
    hooks = recorder.installed() if trace else contextlib.nullcontext()
    try:
        with hooks:
            lap = Laps()
            try:
                res = w.run(inp, lap)
            finally:
                rec["wall"], rec["ref"] = lap.wall, lap.ref
                rec["wall_s"] = sum(lap.wall.values())
    except Exception:
        rec["problems"].append("traceback: " + traceback.format_exc()[-400:])
        return rec
    if trace:
        rec["spans"] = recorder.spans
    rec["problems"] = w.check(res)
    rec["digest"] = digest(w.canonical(res))
    return rec


def exact_probe(w, inp) -> dict:
    """``twopoint disintegrate`` and ``verify`` on the workload's exact
    measure; a nonzero exit or a traceback counts as a failure."""
    path = OUT / "tmp" / "measure.json"
    text = w.probe_measure(inp)
    path.write_text(text)
    failed = []
    commands = (["disintegrate"], ["verify"])
    for argv in commands:
        rec = run_cli([*argv, "--input", str(path)])
        if not rec["problems"]:
            continue
        # the last line of a traceback, or the checks a report failed
        detail = rec["problems"][-1].splitlines()[-1]
        try:
            checks = json.loads(rec["stdout"])["checks"]
            detail += ": " + ", ".join(k for k, ok in checks.items()
                                       if not ok) + " false"
        except (ValueError, KeyError, TypeError):
            pass
        failed.append({"command": argv[0], "detail": detail,
                       "problems": rec["problems"]})
    return {"atoms": len(json.loads(text)["atoms"]),
            "attempted": len(commands), "failed": failed}


# --- one workload ---------------------------------------------------------

def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    setup = setup_seconds("twopoint.cli" if w.kind == "cli" else "twopoint")
    if w.kind == "cli":
        op = cli_op
    else:
        import twopoint  # noqa: F401  (not timed: setup_s measures it)
        op = lib_op
    result = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "setup_s": setup, "ops": []}
    (traced_ops if trace else repeated_ops)(w, op, seed, seconds, result)
    return result


def repeated_ops(w, op, seed: int, seconds: float, result: dict) -> None:
    """The run's inputs in turn, round after round, until ``seconds`` of
    timed operations are spent; each input's runs go to its ``repeats``."""
    inputs = [w.inputs(seed, i) for i in range(w.inputs_per_run)]
    ops = [{"op": i, "repeats": []} for i in range(len(inputs))]
    result["ops"] = ops
    timed = last = 0.0
    k = 0
    try:
        while not ops[-1]["repeats"] or timed + last <= seconds:
            i = k % len(inputs)
            # each round of the inputs runs on the next core
            pin(k // len(inputs))
            rec = op(w, inputs[i])
            first = ops[i]["repeats"][:1]
            if first and rec["digest"] != first[0]["digest"]:
                rec["problems"].append("output differs from the first repeat")
            ops[i]["repeats"].append(rec)
            last = rec["wall_s"]
            timed += last
            k += 1
    finally:
        os.sched_setaffinity(0, CPUS)


def traced_ops(w, op, seed: int, seconds: float, result: dict) -> None:
    """One untraced and one traced run of each operation's own input,
    after one memory-profiled operation whose times are not used."""
    first = w.inputs(seed, 0)
    result["alloc_op"] = op(w, first, "alloc")
    if w.name == "exact":
        result["exact_probe"] = exact_probe(w, first)
    timed = last = 0.0
    i = 0
    while i < MIN_OPS or timed + last <= seconds:
        inp = w.inputs(seed, i)
        rec = {"op": i}
        kinds = ["plain", "traced"]
        if i % 2:
            kinds.reverse()  # alternate which of the pair runs first
        for kind in kinds:
            rec[kind] = op(w, inp, "time" if kind == "traced" else None)
        for span in rec["traced"]["spans"]:
            span[tracing.OP] = i
        if rec["traced"]["digest"] != rec["plain"]["digest"]:
            rec["traced"]["problems"].append("traced output differs")
        last = rec["plain"]["wall_s"] + rec["traced"]["wall_s"]
        timed += last
        result["ops"].append(rec)
        i += 1


def executions(rec: dict) -> list:
    """Every run of one operation: its repeats, or its plain and traced
    runs."""
    if "repeats" in rec:
        return rec["repeats"]
    return [r for k, r in rec.items() if k != "op"]


def end_to_end(result: dict) -> tuple:
    ops = result["ops"]
    runs = [r for op in ops for r in op["repeats"]]
    lats = [scaled(op["repeats"]) for op in ops]
    ok = [not any(r["problems"] for r in op["repeats"]) for op in ops]
    passed = sum(not r["problems"] for r in runs)
    lat_tail = tail(lats)
    if "rss_mb" in runs[0]:
        rss = max(r["rss_mb"] for r in runs)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "latency_s.p50": statistics.median(lats),
        "latency_s.tail": lat_tail["value"],
        "ops_per_s": sum(ok) / sum(lats),
        "peak_rss_mb": rss,
        "pass_ratio": passed / len(runs),
    }
    repeats = sorted(len(op["repeats"]) for op in ops)
    stages = len(runs[0]["wall"])
    notes = {"setup_s": f"median of {len(result['setup_s'])} interpreters",
             "latency_s.p50": f"n={len(lats)} inputs, {repeats[0]}-"
                              f"{repeats[-1]} repeats of {stages} stages",
             "latency_s.tail": "p{percentile:.1f}, {beyond} of n={n} beyond"
                               .format(**lat_tail),
             "ops_per_s": f"{sum(ok)} ok inputs in {sum(lats):.3f} s",
             "pass_ratio": f"{passed} of {len(runs)} runs passed, fail_ratio="
                           f"{1 - passed / len(runs)}"}
    return metrics, notes


def per_layer(result: dict) -> tuple:
    ops = result["ops"]
    traced = [r["traced"] for r in ops]
    metrics = tracing.layer_metrics(
        [tracing.op_profile(t["spans"]) for t in traced],
        [t["wall_s"] for t in traced],
        tracing.op_profile(result["alloc_op"]["spans"]),
        [r["plain"]["wall_s"] for r in ops])
    probe = result.get("exact_probe", {"attempted": 0, "failed": []})
    metrics["cli.exact_probe.attempted"] = probe["attempted"]
    metrics["cli.exact_probe.failed"] = len(probe["failed"])
    notes = {name: f"median of n={len(traced)}" for name in metrics
             if name.endswith((".self_s", ".calls", ".share"))}
    notes.update({name: "memory-profiled op" for name in metrics
                  if name.endswith(".peak_alloc_mb")})
    notes["tracing.overhead"] = (f"medians of n={len(traced)} traced and "
                                 f"n={len(ops)} untraced")
    if "atoms" in probe:
        notes["cli.exact_probe.attempted"] = f"{probe['atoms']} atoms"
    notes["cli.exact_probe.failed"] = "; ".join(
        f"{f['command']}: {f['detail'][:90]}" for f in probe["failed"])
    return metrics, notes


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count()}


def report(name: str, args, declared: list) -> dict:
    """Run one workload, print its metrics, write its record, and return
    the result line."""
    w = WORKLOADS[name]
    result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    metrics, notes = (per_layer if args.trace else end_to_end)(result)
    ops = result["ops"] + ([{"op": "alloc", "plain": result["alloc_op"]}]
                           if args.trace else [])
    runs = [(r["op"], rec) for r in ops for rec in executions(r)]
    failed = sum(bool(rec["problems"]) for _op, rec in runs)
    result["environment"] = environment()
    result["metrics"] = metrics
    result["notes"] = notes
    out = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, separators=(",", ":"), default=str))

    print(f"== {name}  seed={args.seed}  trace={args.trace}  "
          f"ops={len(result['ops'])}  record={out.relative_to(ROOT)}")
    heads = [executions(r)[0]["digest"] for r in result["ops"][:MIN_OPS]]
    print(f"  outputs of ops 0-{len(heads) - 1}: " + digest(heads)[:16])
    for op_id, rec in [(i, rec) for i, rec in runs if rec["problems"]][:5]:
        print(f"  FAIL op {op_id}: {rec['problems']}")
    for m in declared:
        print(f"  {m['name']:<46} {metrics[m['name']]:>14.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in declared}}


def run_each(names: list, args) -> int:
    """Several workloads, each in a fresh process of this script, so that
    a library workload's ``ru_maxrss`` is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        line = json.loads(last)
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        merged["metrics"].update(
            (f"{name}:{k}", v) for k, v in line["metrics"].items())
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, comma-separated names, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else args.workload.split(","))
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"pick from {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "twopoint").is_dir():
        raise SystemExit(f"no twopoint sources under {ROOT / 'src'}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if len(names) > 1:
        return run_each(names, args)

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    line = report(names[0], args,
                  spec["per_layer" if args.trace else "end_to_end"])
    for leftover in (OUT / "tmp").iterdir():
        leftover.unlink()
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
