#!/usr/bin/env python3
"""finegames benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory. One process, one client, closed loop: each op
starts when the previous one has finished and been checked. OpenBLAS
(and OpenMP/MKL) are capped at one thread here and in every launched
subprocess.

--trace 0 measures the end-to-end metrics: set-up time from fresh CLI
launches made one at a time, then `--seconds` of timed ops (and more
until MIN_OPS of them passed their check). Op and
launch times are scaled to a reference machine speed (see
calibration.py and measure_setup); the raw figures are printed beside
them.
--trace 1 measures the per-layer metrics: `-X importtime` launches,
then `--seconds` of ops in alternating untraced and traced blocks, then
the workload's CLI equivalent run in-process under the tracer. Every
time is scaled to the reference speed as in --trace 0. Spans are
written to .perfbench_work/ at the end.

Every op is checked against the oracles in oracles.py. Lines of the
form "name value unit" come first; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spantrace import LAYERS, SpanTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
WORKLOADS = ("reproduce", "state-sweep", "lattice-sparse", "lattice-dense")
SETUP_LAUNCHES = 9
IMPORT_LAUNCHES = 5
GAUGE_LAUNCH = ["-c", "import numpy"]
LAUNCH_REFERENCE_S = 0.15
WARMUP_OPS = 2
MIN_OPS = 100  # so that at least 10 good ops lie beyond the nearest-rank p90
THROUGHPUT_WINDOWS = 10
PAYOFF_CUBES = 3  # grid_ne_search computes one payoff per player at each point
TRACE_BLOCK_S = 1.0
CLI_TRACE_RUNS = 3
LAUNCH_TIMEOUT_S = 60

# Imported by main() once the BLAS thread cap is in the environment,
# because numpy reads it when first imported.
calibration = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def launch(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one fresh interpreter to completion; return (seconds, result)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=LAUNCH_TIMEOUT_S,
    )
    return time.perf_counter() - start, done


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile (whole percent) of an ascending list."""
    rank = -(-pct * len(sorted_values) // 100)  # ceil without float rounding
    return sorted_values[max(rank, 1) - 1]


def throughput(times: list[float]) -> float:
    """Ops per second: the median over THROUGHPUT_WINDOWS runs of
    consecutive ops of their count over their summed time, so that one
    slow stretch of the host does not move it."""
    size = max(len(times) // THROUGHPUT_WINDOWS, 1)
    windows = [times[i : i + size] for i in range(0, len(times) - size + 1, size)]
    return statistics.median(len(w) / sum(w) for w in windows)


class NoSamples(Exception):
    """No op passed its check, so there is nothing to time."""


class OpLoop:
    """Closed loop: runs, times and checks one op at a time."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reported = False
        self.raw: list[float] = []  # unscaled times of good ops
        self.gauges: list[float] = []  # mean gauge around each good op
        self.last_factor = 1.0  # scale to reference speed of the last op

    def one(self) -> float | None:
        """Run and check one op; return its time at reference speed, or
        None if it failed."""
        self.attempted += 1
        inp = self.wl.make_input()
        try:
            before = calibration.gauge()
            start = time.perf_counter()
            out = self.wl.run(inp)
            elapsed = time.perf_counter() - start
            after = calibration.gauge()
            ok = self.wl.check(inp, out)
        except Exception:  # an op that raises counts as failed, the run goes on
            if not self.reported:
                traceback.print_exc()
                self.reported = True
            ok = False
        if not ok:
            self.failed += 1
            return None
        self.raw.append(elapsed)
        self.gauges.append((before + after) / 2.0)
        self.last_factor = calibration.factor(before, after)
        return elapsed * self.last_factor

    def warm_up(self):
        for _ in range(WARMUP_OPS):
            self.one()
        self.raw.clear()
        self.gauges.clear()

    def run_for(self, seconds: float, min_ops: int = 0) -> list[float]:
        """Run ops for `seconds`, and on until `min_ops` of them were
        good; return the good ones' scaled times."""
        times = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or (len(times) < min_ops and not self.failed):
            scaled = self.one()
            if scaled is not None:
                times.append(scaled)
        return times


def gauged_launches(argv: list[str], count: int):
    """Launch `argv` `count` times, one at a time; yield (factor,
    seconds, result) for each.

    Launch time drifts with the host's process-start and import speed,
    which the in-process gauge does not follow. So each launch sits
    between two launches of a gauge interpreter that only imports numpy
    (no package code), and `factor` is LAUNCH_REFERENCE_S over their
    mean: times of the launch multiplied by it are those at the speed
    where that import takes LAUNCH_REFERENCE_S.
    """
    before = launch(GAUGE_LAUNCH)[0]
    for _ in range(count):
        seconds, done = launch(argv)
        after = launch(GAUGE_LAUNCH)[0]
        yield LAUNCH_REFERENCE_S / ((before + after) / 2.0), seconds, done
        before = after


def measure_setup(wl) -> tuple[float, float, bool]:
    """Median time of fresh CLI launches, at reference speed and raw,
    and whether every launch exited 0 with a correct report."""
    out_path = WORK / "cli_out.txt"
    out_path.unlink(missing_ok=True)
    args = ["-m", "finegames.cli", *wl.cli_args(WORK), "--out", str(out_path)]
    scaled, raw, ok = [], [], True
    for factor, seconds, done in gauged_launches(args, SETUP_LAUNCHES):
        raw.append(seconds)
        scaled.append(seconds * factor)
        if done.returncode != 0 or not out_path.is_file():
            sys.stderr.write(done.stderr)
            ok = False
        else:
            ok = ok and wl.check_cli(out_path.read_text(encoding="utf-8"))
        out_path.unlink(missing_ok=True)
    return statistics.median(scaled), statistics.median(raw), ok


def _tracked(name: str) -> bool:
    return name in ("numpy", "finegames") or name.startswith("finegames.")


def import_times() -> dict[str, float]:
    """Per-module import times (ms): medians over IMPORT_LAUNCHES
    `-X importtime` launches, each scaled as by gauged_launches."""
    runs = [
        {name: ms * factor for name, ms in parse_importtime(done).items()}
        for factor, _, done in gauged_launches(
            ["-X", "importtime", "-c", "import finegames.cli"], IMPORT_LAUNCHES
        )
    ]
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def parse_importtime(done: subprocess.CompletedProcess) -> dict[str, float]:
    """Per-module import times (ms) of one `-X importtime` launch.

    Each tracked module (numpy, the package and its modules) is charged
    its cumulative time minus that of the tracked modules it imported,
    so numpy and every finegames module are counted once.
    """
    if done.returncode != 0:
        raise RuntimeError("importtime launch failed:\n" + done.stderr)
    # Lines come after those of the modules they imported, which are
    # indented one level deeper: rebuild the tree from the indentation.
    roots = []  # (indent, name, cumulative us, children)
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, field = line.split("|", 2)
        indent = len(field) - len(field.lstrip())
        children = []
        while roots and roots[-1][0] > indent:
            children.append(roots.pop())
        roots.append((indent, field.strip(), int(cum_us), children))

    def nearest_tracked(node):
        for child in node[3]:
            yield from [child] if _tracked(child[1]) else nearest_tracked(child)

    own_us = {}
    pending = list(roots)
    while pending:
        node = pending.pop()
        pending.extend(node[3])
        if _tracked(node[1]):
            own_us[node[1]] = node[2] - sum(d[2] for d in nearest_tracked(node))
    metrics = {
        "import.total_ms": sum(r[2] for r in roots) / 1e3,
        "import.numpy_ms": own_us.get("numpy", 0) / 1e3,
        "import.finegames_ms": own_us.get("finegames", 0) / 1e3,
    }
    for module in ("errors",) + LAYERS:
        metrics[f"import.finegames.{module}_ms"] = own_us.get(f"finegames.{module}", 0) / 1e3
    return metrics


def context(np) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(wl, seconds: float) -> tuple[dict, dict, OpLoop, bool]:
    setup_s, setup_raw_s, setup_ok = measure_setup(wl)
    loop = OpLoop(wl)
    loop.warm_up()
    in_order = loop.run_for(seconds, MIN_OPS)
    ops = sorted(in_order)
    if not ops:
        raise NoSamples("no op passed its check")
    n = len(ops)
    raw = sorted(loop.raw)
    metrics = {
        "ops_per_s": (n, throughput(in_order), "1/s"),
        "op_p50_ms": (n, statistics.median(ops) * 1e3, "ms"),
        "op_p90_ms": (n, percentile(ops, 90) * 1e3, "ms"),
        "setup_s": (SETUP_LAUNCHES, setup_s, "s"),
        "peak_rss_mb": (1, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    unscaled = {
        "raw.op_p50_ms": (n, statistics.median(raw) * 1e3, "ms"),
        "raw.op_p90_ms": (n, percentile(raw, 90) * 1e3, "ms"),
        "raw.setup_s": (SETUP_LAUNCHES, setup_raw_s, "s"),
        "gauge_ms": (n, statistics.median(loop.gauges) * 1e3, "ms"),
    }
    return metrics, unscaled, loop, setup_ok


class EinsumCounter:
    """Stands in for numpy in the equilibrium module during traced ops
    and counts the elements of every array its einsum calls return, so
    that the lattice points the search evaluates are counted from the
    arrays it builds rather than from its arguments."""

    def __init__(self, numpy):
        self.numpy = numpy
        self.elements = 0

    def __getattr__(self, name):
        return getattr(self.numpy, name)

    def einsum(self, *args, **kwargs):
        out = self.numpy.einsum(*args, **kwargs)
        self.elements += self.numpy.size(out)
        return out


@contextlib.contextmanager
def tracing(tracer: SpanTracer, fg, einsum: EinsumCounter):
    tracer.install()
    fg.equilibrium.np = einsum
    try:
        yield
    finally:
        fg.equilibrium.np = einsum.numpy
        tracer.uninstall()


def per_layer(wl, seconds: float, fg, seed: int, scenario_ids) -> tuple[dict, dict, OpLoop, bool]:
    """Per-op layer figures from traced ops. Times are scaled by the
    factor of the gauges around each op (the CLI runs: around each run),
    so that runs made at different host speeds can be compared."""
    metrics = {k: (IMPORT_LAUNCHES, v, "ms") for k, v in import_times().items()}
    tracer = SpanTracer()
    einsum = EinsumCounter(fg.equilibrium.np)
    op = {}  # counters of the op (or CLI run) being traced
    totals: dict[str, float] = {}  # summed over good traced ops, times scaled

    def on_grid(_args, _kwargs, result, _ns):
        op["hits"] += len(result)

    def on_render(_args, _kwargs, result, _ns):
        op["bytes"] += len(result.encode("utf-8"))

    def on_scenario(args, kwargs, _result, ns):
        sid = args[0] if args else kwargs["scenario_id"]
        op["scenario_ns"][sid] = op["scenario_ns"].get(sid, 0) + ns

    tracer.after("equilibrium.grid_ne_search", on_grid)
    tracer.after("serialize.render_json", on_render)
    tracer.after("serialize.render_markdown", on_render)
    tracer.after("scenarios.run_scenario", on_scenario)

    def start_op():
        tracer.reset()
        einsum.elements = 0
        op.clear()
        op.update(hits=0, bytes=0, scenario_ns={})

    def add(name: str, value: float):
        totals[name] = totals.get(name, 0.0) + value

    def add_layers(layers, factor: float):
        for layer in layers:
            add(f"{layer}.calls", tracer.layer_calls[layer])
            add(f"{layer}.self_ms", tracer.layer_self_ns[layer] * factor / 1e6)

    loop = OpLoop(wl)
    loop.warm_up()
    plain, traced = [], []
    end = time.perf_counter() + seconds
    block = 0
    while time.perf_counter() < end:
        block_end = min(time.perf_counter() + TRACE_BLOCK_S, end)
        if block % 2 == 0:
            plain.extend(loop.run_for(block_end - time.perf_counter()))
        else:
            with tracing(tracer, fg, einsum):
                while time.perf_counter() < block_end:
                    start_op()
                    scaled = loop.one()
                    if scaled is None:
                        continue
                    traced.append(scaled)
                    factor = loop.last_factor
                    add_layers([layer for layer in LAYERS if layer != "cli"], factor)
                    for sid in scenario_ids:
                        add(f"scenarios.{sid}_ms", op["scenario_ns"].get(sid, 0) * factor / 1e6)
                    add("games.payoff_factorizable_calls", tracer.fn_calls.get("games.payoff_factorizable", 0))
                    add("equilibrium.lattice_points", einsum.elements / PAYOFF_CUBES)
                    add("equilibrium.lattice_hits", op["hits"])
                    add("equilibrium.verify_calls", tracer.fn_calls.get("equilibrium.verify_ne_factorizable", 0))
                    add("serialize.bytes_out", op["bytes"])
        block += 1
    n = len(traced)
    if not n or not plain:
        raise NoSamples("no traced or no untraced op passed its check; raise --seconds")
    per_op = {name: total / n for name, total in totals.items()}

    # The ops never call the cli layer: its figures come from in-process
    # runs of the workload's CLI equivalent, per run.
    cli_ok = True
    out_path = WORK / "cli_inproc.txt"
    argv = wl.cli_args(WORK) + ["--out", str(out_path)]
    totals.clear()
    with tracing(tracer, fg, einsum):
        for _ in range(CLI_TRACE_RUNS):
            start_op()
            before = calibration.gauge()
            cli_ok = fg.cli.main(argv) == 0 and cli_ok
            add_layers(["cli"], calibration.factor(before, calibration.gauge()))
    cli_ok = cli_ok and wl.check_cli(out_path.read_text(encoding="utf-8"))
    tracer.write(WORK / f"spans-{wl.name}-seed{seed}.json")
    per_op.update({name: total / CLI_TRACE_RUNS for name, total in totals.items()})

    units = {"calls": "count", "self_ms": "ms"}
    for layer in LAYERS:
        for kind, unit in units.items():
            metrics[f"{layer}.{kind}"] = (n, per_op[f"{layer}.{kind}"], unit)
    for sid in scenario_ids:
        metrics[f"scenarios.{sid}_ms"] = (n, per_op[f"scenarios.{sid}_ms"], "ms")
    metrics["scenarios.byte_drift"] = (n, getattr(wl, "drift", 0) / loop.attempted, "count")
    metrics["fine.no_joint"] = (n, getattr(wl, "no_joint", 0) / loop.attempted, "count")
    for name in (
        "games.payoff_factorizable_calls",
        "equilibrium.lattice_points",
        "equilibrium.lattice_hits",
        "equilibrium.verify_calls",
    ):
        metrics[name] = (n, per_op[name], "count")
    points = per_op["equilibrium.lattice_points"]
    metrics["equilibrium.hit_ratio"] = (n, per_op["equilibrium.lattice_hits"] / points if points else 0.0, "ratio")
    metrics["serialize.bytes_out"] = (n, per_op["serialize.bytes_out"], "bytes")
    metrics["trace.overhead_ratio"] = (n, statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics, {}, loop, cli_ok


def main(argv=None) -> int:
    global calibration
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "finegames" / "__init__.py").is_file():
        print(f"error: no finegames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fg = importlib.import_module("finegames")
    importlib.import_module("finegames.cli")
    if Path(fg.__file__).resolve().parent != SRC / "finegames":
        print(f"error: finegames imported from {fg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import calibration
    import workloads

    WORK.mkdir(exist_ok=True)
    expected = json.loads((HERE / "seed_reports.json").read_text(encoding="utf-8"))
    schema = json.loads((SRC / "finegames" / "schemas" / "report.schema.json").read_text(encoding="utf-8"))
    wl = workloads.build(args.workload, fg, args.seed, expected, schema)

    try:
        if args.trace:
            metrics, unscaled, loop, extra_ok = per_layer(wl, args.seconds, fg, args.seed, list(expected))
        else:
            metrics, unscaled, loop, extra_ok = end_to_end(wl, args.seconds)
    except NoSamples as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    ctx = context(np)
    print("context " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, (n, value, unit) in {**metrics, **unscaled}.items():
        print(f"{name} {value!r} {unit} n={n}")
    print(f"fail_ratio {loop.failed / loop.attempted!r} ratio n={loop.attempted}")
    result = {
        "correct": loop.failed == 0 and extra_ok,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (_, value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
