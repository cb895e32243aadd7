"""One benchmark process: set up a workload, warm it up, time its ops, check them.

Started by ``run.py`` with one BLAS/OpenMP thread and ``src`` on the path.
It prints ``ready`` once set-up and the untimed warm-up are done, and, unless
``--setup-only`` is given, then runs whole rounds of ops until ``--seconds``
have passed and prints one JSON line of results.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

import checks
from tracing import SETUP_OP, WARMUP_OP, Tracer, load, merge, save, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CAMPAIGN = ROOT / "src" / "rissim" / "data" / "tables_4_5_6.scenario"
INPUTS_PER_SEED = 1000  # more than any run attempts, so no input repeats within a run
LINK_POINTS = 100
IMPORT_SAMPLES = 3


def _import_rissim():
    import rissim

    where = Path(rissim.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"rissim imported from {where}, not from {ROOT / 'src'}")
    return rissim


class Reproduce:
    """`rissim reproduce` end to end, one child process per op."""

    round_size = 1

    def __init__(self, seed: int, work: Path, tracer: Tracer | None):
        self.seed, self.work, self.tracer = seed, work, tracer
        self.traces: list[dict] = []

    def setup(self) -> None:
        self.bundle = yaml.safe_load(CAMPAIGN.read_text())
        rng = random.Random(self.seed)
        self.seeds = [rng.randrange(1 << 31) for _ in range(INPUTS_PER_SEED)]

    def _run(self, op_seed: int, out: Path, traced_op: int | None = None) -> int:
        cli = ["reproduce", "--seed", str(op_seed), "--out", str(out)]
        if traced_op is None:
            cmd = [sys.executable, "-m", "rissim.cli", *cli]
        else:
            spans = self.work / f"spans{traced_op}.npz"
            cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans), str(traced_op), "--", *cli]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr, end="")
        return done.returncode

    def _collect(self, traced_op: int) -> None:
        spans = self.work / f"spans{traced_op}.npz"
        if spans.exists():
            self.traces.append(load(spans))
            spans.unlink()

    def warmup(self) -> None:
        out = self.work / "warmup"
        self._run(self.seed, out, WARMUP_OP if self.tracer else None)
        self._collect(WARMUP_OP)
        self.reference = checks.csv_digests(out)

    def op(self, i: int) -> int:
        return self._run(self.seeds[i % INPUTS_PER_SEED], self.work / f"op{i}",
                         i if self.tracer else None)

    def check(self, i: int, returncode: int) -> list[tuple[str, str]]:
        out = self.work / f"op{i}"
        failures = checks.check_reproduce(out, returncode, self.bundle, self.reference)
        shutil.rmtree(out, ignore_errors=True)
        self._collect(i)
        return failures

    def trace_parts(self) -> list[dict]:
        return self.traces

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcess:
    """A workload whose ops run in the worker process itself."""

    def __init__(self, seed: int, work: Path, tracer: Tracer | None):
        self.seed, self.work, self.tracer = seed, work, tracer

    def trace_parts(self) -> list[dict]:
        return [self.tracer.columns()]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PatternSteer(InProcess):
    """`rissim pattern --plane both` in-process, one seeded steer angle per op."""

    round_size = 1

    def setup(self) -> None:
        _import_rissim()
        import rissim.cli

        self.cli = rissim.cli
        rng = random.Random(self.seed)
        self.warmup_angle = round(rng.uniform(-60.0, 60.0), 3)
        self.angles = [round(rng.uniform(-60.0, 60.0), 3) for _ in range(INPUTS_PER_SEED)]

    def _run(self, angle: float, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["pattern", "--steer-deg", str(angle), "--plane", "both",
                                  "--out", str(out)])

    def warmup(self) -> None:
        self._run(self.warmup_angle, self.work / "warmup")

    def op(self, i: int) -> int:
        return self._run(self.angles[i % INPUTS_PER_SEED], self.work / f"op{i}")

    def check(self, i: int, returncode: int) -> list[tuple[str, str]]:
        out = self.work / f"op{i}"
        if returncode != 0:
            failures = [("exit", f"rissim pattern exited with {returncode}")]
        else:
            failures = checks.check_pattern(out, self.angles[i % INPUTS_PER_SEED])
        shutil.rmtree(out, ignore_errors=True)
        return failures


def link_points(seed: int) -> list[dict]:
    """Seeded link points, each written once with the panel and once without.

    Tx anywhere from 0.5 to 5 m (both sides of the 2.2 m Fraunhofer
    distance) and up to 60 degrees off the normal; Rx in the panel's near
    field; no obstacle, or one on either side.
    """
    rng = random.Random(seed)
    points = []
    for k in range(LINK_POINTS):
        tx = {"range_m": rng.uniform(0.5, 5.0), "polar_deg": rng.uniform(0.0, 60.0),
              "azimuth_deg": rng.uniform(0.0, 360.0)}
        rx = {"range_m": rng.uniform(0.03, 0.5), "polar_deg": rng.uniform(0.0, 60.0),
              "azimuth_deg": rng.uniform(0.0, 360.0)}
        side = rng.choice((None, "tx_side", "rx_side"))
        power = rng.uniform(-10.0, 30.0)
        attenuation = rng.uniform(1.0, 25.0)
        for ris in (True, False):
            point = {"name": f"point{k}_{'panel' if ris else 'direct'}", "transmit_power_dbm": power,
                     "ris_present": ris, "tx_pose": tx, "rx_pose": rx}
            if side is not None:
                point["obstacle"] = {"attenuation_db": attenuation, "position": side}
            points.append(point)
    return points


class LinkSweep(InProcess):
    """Link-budget study: seeded points through evaluate_scenario, campaign
    operating points through required_transmit_power.

    Op i evaluates seeded point i mod 100 with and without the panel, then searches
    the minimum power of one (panel scenario, rate) pair of the packaged
    campaign and of every rate of one direct-link campaign scenario. The
    searches use the campaign, whose points do not depend on the seed: the
    rounding fault of required_transmit_power fails on a seed-dependent
    share of random points, and a share that moves with the seed cannot be
    compared between runs. A round visits every pair, so each op carries the
    same work and the failed share is the same in every run.
    """

    def setup(self) -> None:
        _import_rissim()
        from rissim.errors import InfeasibleTargetError
        from rissim.link import evaluate_scenario, required_transmit_power
        from rissim.scenario_io import load_scenario_bundle

        self.evaluate, self.required_power = evaluate_scenario, required_transmit_power
        self.infeasible = InfeasibleTargetError
        raw = yaml.safe_load(CAMPAIGN.read_text())
        points = link_points(self.seed)
        generated = {key: raw[key] for key in ("geometry", "bits", "mode", "mcs", "defaults")}
        generated["description"] = f"seeded link points (seed {self.seed})"
        generated["scenarios"] = points
        path = self.work / "link_points.scenario"
        path.write_text(yaml.safe_dump(generated, sort_keys=False))
        self.raw = raw
        self.points = [{**raw["defaults"], **p} for p in points]
        self.bundle = load_scenario_bundle(path)
        self.campaign = load_scenario_bundle(CAMPAIGN)
        rates = [row.rate_mbps for row in self.campaign.mcs.rows]
        scenarios = self.campaign.scenarios
        self.panel_pairs = [(s, r) for s in scenarios if s.ris_present for r in rates]
        self.direct = [s for s in scenarios if not s.ris_present]
        self.rates = rates
        self.round_size = math.lcm(len(self.panel_pairs), len(self.direct))

    def warmup(self) -> None:
        for i in range(self.round_size):
            self.op(i)

    def _search(self, scenario, rate: float):
        try:
            return scenario, rate, self.required_power(scenario, self.campaign.geometry,
                                                       self.campaign.bits, rate)
        except self.infeasible:
            return scenario, rate, None

    def op(self, i: int):
        k = i % LINK_POINTS
        b = self.bundle
        links = [self.evaluate(b.scenarios[2 * k + j], b.geometry, b.bits) for j in (0, 1)]
        searches = [self._search(*self.panel_pairs[i % len(self.panel_pairs)])]
        direct = self.direct[i % len(self.direct)]
        searches += [self._search(direct, rate) for rate in self.rates]
        return links, searches

    def _rate_at(self, scenario):
        def rate_at(power_dbm: float) -> float:
            moved = dataclasses.replace(scenario, transmit_power_dbm=power_dbm)
            return self.evaluate(moved, self.campaign.geometry, self.campaign.bits).rate_mbps
        return rate_at

    def check(self, i: int, outcome) -> list[tuple[str, str]]:
        links, searches = outcome
        k = i % LINK_POINTS
        failures = []
        for j, res in enumerate(links):
            failures += checks.check_link(self.points[2 * k + j], self.raw["geometry"], self.raw["mcs"],
                                          res.received_power_dbm, res.snr_db, res.rate_mbps)
        for scenario, rate, power in searches:
            failures += checks.check_required_power(scenario.name, rate, power, self._rate_at(scenario))
        return failures


WORKLOADS = {"reproduce": Reproduce, "pattern_steer": PatternSteer, "link_sweep": LinkSweep}


def import_ms() -> float:
    """Median wall time of `import rissim.cli` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import rissim.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        samples.append(float(done.stdout) * 1e3)
    return statistics.median(samples)


def run_ops(workload, seconds: float, tracer: Tracer | None) -> dict:
    """Whole rounds of ops until the time is up; op times exclude the checks."""
    op_s, failures, failed = [], [], 0
    start = time.perf_counter()
    while not op_s or time.perf_counter() - start < seconds:
        for _ in range(workload.round_size):
            i = len(op_s)
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            outcome = workload.op(i)
            op_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.op = None
            found = workload.check(i, outcome)
            failed += bool(found)
            failures += found
    for message in sorted({message for _, message in failures}):
        print(f"failed check: {message}", file=sys.stderr)
    return {
        "correct": all(kind == checks.UNDERSHOOT for kind, _ in failures),
        "attempted": len(op_s),
        "failed": failed,
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            _import_rissim()
            tracer.install()
            tracer.op = SETUP_OP
        workload = WORKLOADS[args.workload](args.seed, work, tracer)
        workload.setup()
        if tracer:
            tracer.op = WARMUP_OP
        workload.warmup()
        if tracer:
            tracer.op = None
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = run_ops(workload, args.seconds, tracer)
        if tracer:
            trace = merge(workload.trace_parts())
            save(trace, OUT_DIR / f"trace-{args.workload}.npz")
            result["per_layer"], result["absent"] = summarize(trace, result["attempted"], import_ms())
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
