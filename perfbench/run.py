"""Whole-process benchmark of the focklab CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {assembly,transform,lattice} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs a closed loop with one client: each generated config is
one fresh ``focklab.cli`` child process (``child.py``), spawned only after
the previous one was reaped.  Whole passes over the workload repeat while
the next one is expected to end within ``--seconds``; a discarded warm-up
(the first config of each subcommand) runs before.  It reports the
end-to-end metrics of BENCHMARK.json.

``--trace 1`` runs the same configs in this process, each once with every
public focklab function wrapped in a span and once without, and reports the
per-layer metrics.  It also hashes the reports of the reference seed and
counts how many differ from ``golden/<workload>.json``.

Every report is checked (``checks.py``).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are a table of the same numbers with their
sample counts, and the machine record.  ``failed`` counts every report that
failed.  ``correct`` is false when a report's output is wrong; a report the
program failed only on a check that asserts more than the paper proves, and
whose numbers pass the benchmark's own checks, has failed but is not wrong.
Working files go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

from checks import check_report
from corpus import REFERENCE_SEED, WORKLOADS, Case, generate, write_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
GOLDEN = HERE / "golden"
HARD_LIMIT_S = 170.0  # past this, children are killed and no more start
TAIL_BEYOND = 10  # reports of one pass that lie above the tail percentile
TRACED_COMPUTE = "traced compute_s"  # the base of the printed shares


# ---------------------------------------------------------------------------
# machine record

def machine_record() -> dict:
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kib = next(int(line.split()[1]) for line in fh
                       if line.startswith("MemTotal:"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": round(mem_kib / 1024),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


# ---------------------------------------------------------------------------
# untraced closed loop of child processes

@dataclass
class Sample:
    case: str
    pass_index: int
    code: int
    wall_s: float
    setup_s: float | None
    compute_s: float | None
    rss_mib: float
    output: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(case: Case, config: Path, run_dir: Path, pass_index: int,
          env: dict, kill_at: float) -> Sample:
    """Run one report as a child; peak RSS comes from wait4 on that child.

    A child still running at monotonic time ``kill_at`` is killed; its
    report then fails.
    """
    stem = run_dir / "out" / f"{pass_index}-{case.name}"
    times = stem.with_suffix(".times")
    times.unlink(missing_ok=True)
    output = stem.with_suffix("." + case.output_format)
    argv = [sys.executable, str(HERE / "child.py"), str(times),
            case.subcommand, "--config", str(config)]
    with open(output, "wb") as out, \
            open(stem.with_suffix(".stderr"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(max(0.0, kill_at - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = compute = None
    if times.exists():
        imported, done = map(float, times.read_text().split())
        setup, compute = imported - start, done - imported
    return Sample(case.name, pass_index, proc.returncode, end - start, setup,
                  compute, usage.ru_maxrss / 1024.0, str(output))


def warmup_cases(cases: list[Case]) -> list[int]:
    """Indices of the first case of each subcommand, in pass order."""
    first = {}
    for i, case in enumerate(cases):
        first.setdefault(case.subcommand, i)
    return sorted(first.values())


def closed_loop(cases, paths, run_dir: Path, seconds: float,
                kill_at: float):
    """Warm up, then run whole passes; returns (samples, loop seconds)."""
    (run_dir / "out").mkdir(parents=True, exist_ok=True)
    env = _child_env()
    for i in warmup_cases(cases):
        spawn(cases[i], paths[i], run_dir, -1, env, kill_at)
    samples = []
    start = time.monotonic()
    pass_index = 0
    while True:
        pass_start = time.monotonic()
        for case, path in zip(cases, paths):
            if time.monotonic() >= kill_at:
                return samples, time.monotonic() - start
            samples.append(spawn(case, path, run_dir, pass_index, env,
                                 kill_at))
        pass_index += 1
        now = time.monotonic()
        if now - start + (now - pass_start) > seconds:
            return samples, now - start


def run_tail(values: list[float], pass_size: int) -> tuple[float, float]:
    """(value, percentile) of the run's reports at the tail percentile.

    The percentile is the highest one with TAIL_BEYOND reports of one pass
    above it, and it is taken over every report of the run.  It depends on
    the pass only, so a program fast enough to fit more passes in a run
    does not move its tail to a higher percentile.  A pass of fewer than
    2 * TAIL_BEYOND reports would put it under the median, so the largest
    value is given instead, labelled as the 100th percentile.
    """
    ordered = sorted(values)
    share = (1.0 - TAIL_BEYOND / pass_size
             if pass_size >= 2 * TAIL_BEYOND else 1.0)
    rank = min(len(ordered), max(1, round(share * len(ordered))))
    return ordered[rank - 1], 100.0 * share


def end_to_end(cases, samples, loop_s):
    by_name = {case.name: case for case in cases}
    failures = []
    for sample in samples:
        text = Path(sample.output).read_text(encoding="utf-8")
        reason, wrong = check_report(by_name[sample.case], sample.code, text)
        if reason is None and sample.compute_s is None:
            reason, wrong = "child recorded no times", True
        if reason is not None:
            stderr = Path(sample.output).with_suffix(".stderr").read_text()
            failures.append((sample.case, sample.pass_index,
                             _with_stderr(reason, stderr), wrong))
    walls = [s.wall_s for s in samples]
    timed = [s for s in samples if s.compute_s is not None]
    if not timed:
        raise SystemExit("no report completed; nothing to measure")
    rss = [s.rss_mib for s in samples]
    passes = max(s.pass_index for s in samples) + 1
    tail, percentile = run_tail(walls, len(cases))
    n, m = len(samples), len(timed)
    rows = [
        ("setup_s", statistics.median(s.setup_s for s in timed), "s", m),
        ("report_p50_s", statistics.median(walls), "s", n),
        ("report_tail_s", tail, "s", n),
        ("compute_p50_s", statistics.median(s.compute_s for s in timed),
         "s", m),
        ("reports_per_s", n / loop_s, "1/s", n),
        ("peak_rss_mb", max(rss), "MiB", n),
        ("rss_p50_mb", statistics.median(rss), "MiB", n),
    ]
    notes = {"report_tail_s": f"p{percentile:.4g} of the {n} reports "
                              f"({passes} passes), {TAIL_BEYOND} of each pass "
                              f"above it",
             "failed_frac": f"{len(failures) / n} (of {n})"}
    return rows, failures, notes


# ---------------------------------------------------------------------------
# in-process runs, traced and untraced

def _with_stderr(reason: str, stderr: str) -> str:
    last = stderr.strip().splitlines()[-1:]
    return f"{reason}: {last[0]}" if last else reason


def run_in_process(cli, case: Case, config: Path):
    """(exit code, report, seconds inside cli.main, stderr) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main([case.subcommand, "--config", str(config)])
        except Exception:
            traceback.print_exc()
            code = 3
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds, err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_hashes(cli, cases, paths) -> dict[str, str]:
    return {case.name: _sha256(run_in_process(cli, case, path)[1])
            for case, path in zip(cases, paths)}


def import_focklab():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import focklab
    import focklab.cli
    return focklab


def traced_run(workload, seed, cases, paths, run_dir: Path):
    from tracing import Tracer, layer_metrics

    focklab = import_focklab()
    cli = focklab.cli
    for i in warmup_cases(cases):
        run_in_process(cli, cases[i], paths[i])
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    failures, texts = [], {}
    for i, (case, path) in enumerate(zip(cases, paths)):
        # alternate which run goes first, so neither always meets warm caches
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                untraced_s += run_in_process(cli, case, path)[2]
                continue
            with tracer.installed(focklab), tracer.report(case.name):
                code, text, seconds, stderr = run_in_process(cli, case, path)
            traced_s += seconds
            texts[case.name] = text
            reason, wrong = check_report(case, code, text)
            if reason is not None:
                failures.append((case.name, 0, _with_stderr(reason, stderr),
                                 wrong))
    tracer.write_spans(run_dir / "spans.jsonl")

    if seed == REFERENCE_SEED:
        hashes = {name: _sha256(text) for name, text in texts.items()}
    else:
        ref_cases = generate(workload, REFERENCE_SEED)
        ref_paths = write_corpus(ref_cases, WORK / f"{workload}-reference")
        hashes = report_hashes(cli, ref_cases, ref_paths)
    golden = json.loads((GOLDEN / f"{workload}.json").read_text())["reports"]
    changed = sum(hashes.get(name) != digest for name, digest in golden.items())
    report_bytes = sum(len(text.encode("utf-8")) for text in texts.values())
    metrics = layer_metrics(tracer, traced_s, untraced_s, report_bytes, changed)

    def share(*names):
        return sum(metrics[name]["value"] for name in names) / traced_s

    notes = {
        TRACED_COMPUTE: traced_s,
        "untraced compute_s": untraced_s,
        "toeplitz.basis_matrix.bytes": "computed as 16 x samples",
        "share of compute, basis_matrix.busy + build_from_density.self":
            share("toeplitz.basis_matrix.busy_s",
                  "toeplitz.build_from_density.self_s"),
        "share of compute, lattice_partition.self + "
        "build_from_point_masses.self + eval_log.busy":
            share("lattice.lattice_partition.self_s",
                  "toeplitz.build_from_point_masses.self_s",
                  "fock.eval_log.busy_s"),
    }
    return metrics, failures, notes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    kill_at = time.monotonic() + HARD_LIMIT_S

    if not (SRC / "focklab" / "cli.py").is_file():
        print(f"focklab sources not found under {SRC}", file=sys.stderr)
        return 2
    machine = machine_record()
    run_dir = WORK / f"{args.workload}-{args.seed}"
    cases = generate(args.workload, args.seed)
    paths = write_corpus(cases, run_dir / "configs")

    if args.trace:
        metrics, failures, notes = traced_run(args.workload, args.seed,
                                              cases, paths, run_dir)
        attempted = len(cases)
        rows = [(name, m["value"], m["unit"], attempted)
                for name, m in metrics.items()]
    else:
        samples, loop_s = closed_loop(cases, paths, run_dir, args.seconds,
                                      kill_at)
        rows, failures, notes = end_to_end(cases, samples, loop_s)
        attempted = len(samples)
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows}
        with open(run_dir / "samples.json", "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in samples], fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine))
    compute = notes.get(TRACED_COMPUTE)
    for name, value, unit, count in rows:
        share = (f"{value / compute:7.1%} of compute"
                 if compute and unit == "s" else "")
        print(f"  {name:44s} {value:14.6g} {unit:6s} n={count:<4d} {share}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, pass_index, reason, wrong in failures:
        kind = "WRONG " if wrong else "FAILED"
        print(f"  {kind} {name} (pass {pass_index}): {reason}")
    correct = not any(wrong for *_, wrong in failures)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
