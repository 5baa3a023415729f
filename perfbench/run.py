"""turanl2 benchmark: one workload per process, single thread.

    python3 perfbench/run.py --workload near-construction --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` first runs the workload untraced for half of ``--seconds``,
then replays the same ops with span wrappers installed and reports the
per-layer metrics, including the tracing overhead between the two halves.
``--workload all`` runs every workload in a fresh child process.

Times in the end-to-end metrics are calibrated against a reference kernel
(see calibration.py); the raw times are printed beside them.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
a run writes goes under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if __name__ == "__main__":
    sys.pycache_prefix = str(OUT / "pycache")  # keep bytecode out of the source tree

import calibration  # noqa: E402

WORKLOAD_NAMES = ("near-construction", "small-random", "exact-search", "formula-oracle")
SETUP_SAMPLES = 5
CALIBRATE_EVERY_S = 0.25  # op time between two kernel timings
TAIL_LADDER = (Fraction(75), Fraction(90), Fraction(95), Fraction(99), Fraction(999, 10))
MIN_BEYOND = 10


# -- statistics -------------------------------------------------------------


def samples_beyond(count: int, pct: Fraction) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``count``."""
    return count - math.ceil(pct * count / 100)


def tail_percentile(count: int, cap: Fraction) -> Fraction | None:
    """The highest ladder percentile, at most ``cap``, with at least
    MIN_BEYOND samples beyond it; None when even p75 has too few.

    The cap is fixed per workload, so that a faster commit, which runs more
    ops, reports the same percentile as its parent."""
    best = None
    for pct in TAIL_LADDER:
        if pct <= cap and samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def nearest_rank(sorted_values: list[float], pct: Fraction) -> float:
    return sorted_values[max(math.ceil(pct * len(sorted_values) / 100), 1) - 1]


# -- environment ------------------------------------------------------------


def use_checkout_source() -> None:
    """Import ``turanl2`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import turanl2

    if Path(turanl2.__file__).resolve().parent != SRC / "turanl2":
        sys.exit(f"error: turanl2 was imported from {turanl2.__file__}, not {SRC}")


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def timed_setup(name: str, seed: int):
    """Import ``turanl2`` and build the workload's inputs.

    Returns the workload and the set-up time, raw and calibrated."""
    before = calibration.kernel_seconds()
    t0 = time.perf_counter()
    use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT)
    workload.setup()
    raw = time.perf_counter() - t0
    return workload, raw, raw * calibration.factor(before, calibration.kernel_seconds())


def setup_seconds(name: str, seed: int, first: tuple[float, float]) -> list[tuple]:
    """(raw, calibrated) set-up times in fresh interpreters: ``first`` (this
    process) plus SETUP_SAMPLES - 1 child processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(tuple(float(x) for x in done.stdout.split()[-2:]))
    return samples


# -- measurement ------------------------------------------------------------


class Measurement:
    def __init__(self, window: int):
        self.window = window
        self.raw: list[float] = []  # op seconds as measured
        self.scaled: list[float] = []  # op seconds calibrated
        self.ok: list[bool] = []
        self.factors: list[float] = []
        self.problems: list[str] = []
        self.digest_items: list = []

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def digest(self) -> str:
        blob = json.dumps(self.digest_items, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def window_rates(self, times: list[float]) -> list[float]:
        """Ops that passed, per second, in each whole window."""
        w = self.window
        return [sum(self.ok[k:k + w]) / sum(times[k:k + w])
                for k in range(0, len(times) - w + 1, w)]


def measure(workload, seconds: float | None = None, count: int | None = None,
            tracer=None, check: bool = True) -> Measurement:
    """Run ops 0, 1, 2, ... in whole windows of ``workload.window`` ops until
    ``seconds`` of raw op time have passed, or run exactly ``count`` ops.
    Only the op is timed; input preparation, checks and kernel timings run
    outside the timed span."""
    m = Measurement(workload.window)
    gc.collect()
    kernel_before = calibration.kernel_seconds()
    segment: list[float] = []  # raw op times since the last kernel timing
    elapsed = 0.0
    i = 0
    while True:
        inp = workload.input(i)
        out, problems = None, []
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = workload.op(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        m.raw.append(t1 - t0)
        segment.append(t1 - t0)
        elapsed += t1 - t0
        if out is not None and check:
            problems = workload.check(inp, out)
        m.ok.append(not problems)
        if problems and len(m.problems) < 5:
            m.problems.append(f"op {i}: {'; '.join(problems)}")
        if i < workload.digest_ops:
            m.digest_items.append(None if out is None else workload.digest(inp, out))
        i += 1
        done = (i >= count) if count is not None else (
            i % workload.window == 0 and elapsed >= seconds)
        if done or sum(segment) >= CALIBRATE_EVERY_S:
            kernel_after = calibration.kernel_seconds()
            f = calibration.factor(kernel_before, kernel_after)
            m.scaled.extend(d * f for d in segment)
            m.factors.append(f)
            kernel_before, segment = kernel_after, []
        if done:
            return m


def run_checks(workload) -> list[str]:
    once = getattr(workload, "run_checks", None)
    return once() if once is not None else []


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency(times: list[float], cap: Fraction):
    """(p50 ms, tail percentile or None, tail ms or None)."""
    ordered = sorted(times)
    pct = tail_percentile(len(ordered), cap)
    tail = None if pct is None else nearest_rank(ordered, pct) * 1000
    return statistics.median(ordered) * 1000, pct, tail


def end_to_end(args) -> tuple[dict, list[str], dict]:
    workload, raw_setup, scaled_setup = timed_setup(args.workload, args.seed)
    problems = run_checks(workload)
    m = measure(workload, seconds=args.seconds)
    problems += m.problems
    setups = setup_seconds(args.workload, args.seed, (raw_setup, scaled_setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cap = Fraction(workload.tail_cap)
    p50, pct, tail = latency(m.scaled, cap)
    raw_p50, _, raw_tail = latency(m.raw, cap)
    rates, raw_rates = m.window_rates(m.scaled), m.window_rates(m.raw)
    ok = m.attempted - m.failed
    metrics = {
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
        "ops_per_s": metric(statistics.median(rates), "1/s"),
        "op_p50_ms": metric(p50, "ms"),
    }
    if tail is not None:
        metrics["op_tail_ms"] = metric(tail, "ms")
    else:
        problems.append(f"only {m.attempted} ops: too few for a tail percentile")
    metrics["ok_ratio"] = metric(ok / m.attempted, "ratio")
    metrics["peak_rss_mb"] = metric(rss_mb, "MB")
    raw = {"setup_s": statistics.median(r for r, _ in setups),
           "ops_per_s": statistics.median(raw_rates), "op_p50_ms": raw_p50,
           "op_tail_ms": raw_tail}
    lines = [
        f"setup_s      {metrics['setup_s']['value']:.4f} s   (raw {raw['setup_s']:.4f}) "
        f"median of {SETUP_SAMPLES} fresh-interpreter set-ups",
        f"ops_per_s    {metrics['ops_per_s']['value']:.4f} 1/s   (raw {raw['ops_per_s']:.4f}) "
        f"median over {len(rates)} windows of {workload.window} ops; "
        f"{ok} ok ops in {sum(m.raw):.3f} s of raw op time",
        f"op_p50_ms    {p50:.4f} ms   (raw {raw_p50:.4f})",
    ]
    if tail is not None:
        lines.append(f"op_tail_ms   {tail:.4f} ms   (raw {raw_tail:.4f}) p{float(pct):g} of "
                     f"{m.attempted} samples, {samples_beyond(m.attempted, pct)} beyond")
    lines += [
        f"ok_ratio     {ok / m.attempted:.4f}   {m.attempted} attempted, {m.failed} failed",
        f"peak_rss_mb  {rss_mb:.2f} MB",
        f"calibration  time factor median {statistics.median(m.factors):.4f}, "
        f"range {min(m.factors):.4f}-{max(m.factors):.4f} over {len(m.factors)} segments",
        f"digest       {m.digest()}   outputs of the first {workload.digest_ops} ops",
    ]
    lines += [f"problem: {p}" for p in problems]
    details = {"attempted": m.attempted, "failed": m.failed, "digest": m.digest(),
               "correct": not problems, "raw": raw,
               "tail_percentile": None if pct is None else float(pct),
               "window_rates": rates, "raw_window_rates": raw_rates,
               "time_factors": m.factors}
    return metrics, lines, details


# -- traced run ---------------------------------------------------------------

SPANS = (
    ("turanl2.hypergraph:ThreeGraph.codegrees", "hypergraph.codegrees"),
    ("turanl2.hypergraph:ThreeGraph.with_changes", "hypergraph.with_changes"),
    ("turanl2.hypergraph:l2_norm", "hypergraph.l2_norm"),
    ("turanl2.hypergraph:canonical_form", "hypergraph.canonical_form"),
    ("turanl2.hypergraph:completes_k43", "hypergraph.completes_k43"),
    ("turanl2.census:census_k43", "census.census_k43"),
    ("turanl2.constructions:build_c", "constructions.build_c"),
    ("turanl2.constructions:c_l2_closed", "constructions.c_l2_closed"),
    ("turanl2.classification:classify_edges", "classification.classify_edges"),
    ("turanl2.classification:construction_edges", "classification.construction_edges"),
    ("turanl2.classification:check_phase_one_hypotheses", "classification.checklist"),
    ("turanl2.classification:check_phase_two_hypotheses", "classification.checklist"),
    ("turanl2.colored:locally_symmetrize", "colored.locally_symmetrize"),
    ("turanl2.colored:check_symmetrized_facts", "colored.check_symmetrized_facts"),
    ("turanl2.improvement:generate_phase_instance", "improvement.generate_phase_instance"),
    ("turanl2.improvement:verify_toggle_increase", "improvement.verify_toggle_increase"),
    ("turanl2.improvement:apply_toggle", "improvement.apply_toggle"),
    ("turanl2.inequality:certify_simplex_inequality", "inequality.certify_simplex_inequality"),
)
COUNTS = (("turanl2.colored:Partition3.part_of", "colored.Partition3.part_of"),)

CALLS = ("hypergraph.codegrees", "hypergraph.canonical_form", "hypergraph.completes_k43",
         "constructions.build_c", "classification.classify_edges",
         "classification.construction_edges", "improvement.verify_toggle_increase",
         "improvement.apply_toggle")
SELF = ("hypergraph.codegrees", "hypergraph.with_changes", "hypergraph.l2_norm",
        "hypergraph.canonical_form", "hypergraph.completes_k43", "census.census_k43",
        "constructions.build_c", "constructions.c_l2_closed",
        "classification.classify_edges", "classification.construction_edges",
        "classification.checklist", "colored.locally_symmetrize",
        "colored.check_symmetrized_facts", "improvement.generate_phase_instance",
        "improvement.verify_toggle_increase", "improvement.apply_toggle",
        "inequality.certify_simplex_inequality")


class Observed:
    """Counters read from the arguments and results of traced calls."""

    def __init__(self):
        self.nodes = 0
        self.partitions_seen: set = set()
        self.partition_reuses = 0
        self.full_checklists = 0
        self.boxes = [0, 0, 0]

    def census(self, args, report):
        self.nodes += report.nodes_explored

    def construction_edges(self, args, result):
        parts = args[0].parts
        self.partition_reuses += parts in self.partitions_seen
        self.partitions_seen.add(parts)

    def verdict(self, args, verdict):
        self.full_checklists += verdict.checklist.all_pass

    def certificate(self, args, cert):
        self.boxes[0] += cert.boxes_certified_interval
        self.boxes[1] += cert.boxes_certified_center
        self.boxes[2] += cert.boxes_skipped_outside


def install_tracer(tracer, observed: Observed) -> None:
    hooks = {"census.census_k43": observed.census,
             "classification.construction_edges": observed.construction_edges,
             "improvement.verify_toggle_increase": observed.verdict,
             "inequality.certify_simplex_inequality": observed.certificate}
    for target, name in SPANS:
        tracer.install(target, name, observe=hooks.get(name))
    for target, name in COUNTS:
        tracer.install(target, name, count_only=True)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(args) -> tuple[dict, list[str], dict]:
    from tracing import Tracer

    workload, _, _ = timed_setup(args.workload, args.seed)
    problems = run_checks(workload)
    plain = measure(workload, seconds=args.seconds / 2)
    problems += plain.problems
    tracer, observed = Tracer(packages=("turanl2", "workloads")), Observed()
    install_tracer(tracer, observed)
    try:
        traced = measure(workload, count=plain.attempted, tracer=tracer, check=False)
    finally:
        tracer.uninstall()
    if traced.digest() != plain.digest():
        problems.append("traced outputs differ from untraced outputs")
    problems += traced.problems
    n6_s = 0.0
    if args.workload == "exact-search":
        from turanl2 import census_k43

        t0 = time.perf_counter()
        census_k43(6, "canonical")
        n6_s = time.perf_counter() - t0

    st = tracer.self_times()
    traced_wall = sum(traced.raw)
    share = sum(total for _, total in st.values()) / traced_wall
    if share > 1 + 1e-9:
        problems.append(f"self times sum to {share:.4f} of op wall time")
    calls = {name: st.get(name, (0, 0.0))[0] for name in CALLS}
    metrics = {}
    for name in SELF:
        metrics[f"{name}.self_s"] = metric(st.get(name, (0, 0.0))[1], "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
    metrics["colored.Partition3.part_of.calls"] = metric(
        tracer.counts["colored.Partition3.part_of"], "count")
    metrics["census.nodes_explored"] = metric(observed.nodes, "count")
    metrics["census.canonical_per_node"] = metric(
        ratio(calls["hypergraph.canonical_form"], observed.nodes), "ratio")
    metrics["census.k43_n6_s"] = metric(n6_s, "s")
    metrics["classification.partition_reuse_ratio"] = metric(
        ratio(observed.partition_reuses, calls["classification.construction_edges"]), "ratio")
    metrics["improvement.full_checklist_ratio"] = metric(
        ratio(observed.full_checklists, calls["improvement.verify_toggle_increase"]), "ratio")
    for key, value in zip(("interval", "center", "skipped"), observed.boxes):
        metrics[f"inequality.boxes_{key}"] = metric(value, "count")
    plain_s, traced_s = sum(plain.scaled), sum(traced.scaled)
    metrics["trace.ops"] = metric(traced.attempted, "count")
    metrics["trace.op_wall_s"] = metric(traced_wall, "s")
    metrics["trace.self_share"] = metric(share, "ratio")
    metrics["trace.untraced_ops_per_s"] = metric(plain.attempted / plain_s, "1/s")
    metrics["trace.traced_ops_per_s"] = metric(traced.attempted / traced_s, "1/s")
    metrics["trace.overhead_ratio"] = metric(traced_s / plain_s, "ratio")

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    lines = [f"{name:<46} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"spans        {len(tracer.span_start)} written to "
                 f"{spans_path.relative_to(ROOT)}")
    lines += [f"problem: {p}" for p in problems]
    details = {"attempted": plain.attempted, "failed": plain.failed, "digest": plain.digest(),
               "correct": not problems}
    return metrics, lines, details


# -- entry points -------------------------------------------------------------


def run_one(args) -> int:
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace} | machine()
    print(" ".join(f"{k}={v}" for k, v in header.items()))
    metrics, lines, details = (per_layer if args.trace else end_to_end)(args)
    for line in lines:
        print(line)
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(header | details | {"metrics": metrics}, indent=2) + "\n")
    print(json.dumps({"correct": details["correct"], "attempted": details["attempted"],
                      "failed": details["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, so that construction caches,
    census state and peak RSS belong to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "turanl2" / "__init__.py").is_file():
        sys.exit(f"error: no turanl2 sources under {SRC}")
    if args.setup_probe:
        _, raw, scaled = timed_setup(args.workload, args.seed)
        print(raw, scaled)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
