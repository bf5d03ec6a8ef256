#!/usr/bin/env python3
"""discert benchmark: drives the shipped CLI in-process on fixed workloads.

    python3 perfbench/run.py --workload sweep-coarse --seed 1 --seconds 15 --trace 0

Run it from the repository root.  One process, one command at a time
(closed loop); sweeps use at most two pool workers.  A run repeats its
workload's pass until ``--seconds`` have elapsed (at least one pass),
checks every command's output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Time metrics are scaled by a fixed reference kernel timed next to the
commands, which removes the host's changing speed (see Reference).
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced passes and reports per-layer
numbers from the traced ones (see perfbench/README.md).
"""

import os

# Pin the run environment before numpy loads: one BLAS thread per process
# (the pool already uses both cores) and no worker count from the
# environment, since every extract passes --threads explicitly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DISCERT_THREADS", None)

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURE = os.path.join(BENCH_DIR, "fixtures", "chsh_delta0.05.json")

MODULES = (
    "discert.matqm",
    "discert.bellops",
    "discert.sdpcore",
    "discert.envelope",
    "discert.extract",
    "discert.security",
    "discert.simproto",
    "discert.disctl",
)
SETUP_REPEATS = 15
TARGET_EPS_C = 0.01
ETA_Q = 2.0 * math.sqrt(2.0)
THRESHOLD_TRIALS = 200000  # fast path, about 0.5 us per trial

# Reference kernel (see Reference): a slice before a command once REF_EVERY_S
# have passed since the last one, and REF_BURST slices right before and after
# every long command (SCALED_ALONE) and at the end of a pass.  REF_NOMINAL_S
# is a slice's CPU time on the reference machine (Xeon, 2 vCPUs) at the
# faster of its two speed levels, so scaled times read as seconds there.
REF_EVERY_S = 0.2
REF_BURST = 3
SCALED_ALONE = ("extract", "attack")
REF_NOMINAL_S = 0.012
_ref_rng = np.random.default_rng(0)
_ref_m = _ref_rng.standard_normal((64, 4, 4))
REF_MATS = _ref_m + np.swapaxes(_ref_m, 1, 2)

# Each sweep workload is one extract command per pass; see README for why
# these sizes.  The protocol workload adds one small extract per pass so
# that every workload reports every metric.
SWEEPS = {
    "sweep-coarse": {"bell": "chsh", "delta": 0.05, "knots": 9, "threads": 1},
    "sweep-fine": {"bell": "chsh", "delta": 0.02, "knots": 5, "threads": 2},
    "sweep-custom": {"bell": "tilted.json", "delta": 0.05, "knots": 5, "threads": 1},
}
PROTOCOL_EXTRACT = {"bell": "chsh", "delta": 0.1, "knots": 2, "threads": 1}
WORKLOADS = tuple(SWEEPS) + ("protocol",)

TILTED = {"name": "tilted", "gamma": [[1, 1], [1, -1]], "cA": [0.2, 0], "cB": [0, 0]}
N_VALUES = (1000, 10000, 100000, 1000000)
OMEGA_SHARP = (2.70, 2.75, 2.80)  # P1..P3 thresholds
P_SHARP = (0.83, 0.84, 0.85)  # P4/P5 thresholds


@dataclasses.dataclass
class Command:
    """One CLI invocation plus what the benchmark needs to check its output."""

    kind: str  # extract | security | simulate | attack | threshold
    argv: list
    out: str  # output path prefix
    key: tuple | None = None  # (protocol, n, threshold) for reports and honest sims
    trials: int = 0  # per-round trials of a slow-path simulation
    honest: bool = False


def extract_cmd(spec):
    argv = ["extract", "--bell", spec["bell"], "--delta", repr(spec["delta"]),
            "--knots", str(spec["knots"]), "--threads", str(spec["threads"]), "--out", "curve"]
    return Command("extract", argv, "curve")


def _threshold_flag(protocol):
    return "--omega-sharp" if protocol <= 3 else "--p-sharp"


def _thresholds(protocol):
    return OMEGA_SHARP if protocol <= 3 else P_SHARP


def security_cmd(protocol, n, eps, thr):
    out = f"rep-p{protocol}-n{n}-e{eps}-t{thr}"
    argv = ["security", "--protocol", str(protocol), "--n", str(n), _threshold_flag(protocol), repr(thr),
            "--epsilon", repr(eps), "--target-eps-c", repr(TARGET_EPS_C), "--curve", "fixture.json",
            "--out", out]
    return Command("security", argv, out, key=(protocol, n, thr))


def honest_cmd(protocol, n, thr, seed):
    """Fast-path simulation of the CLI's default honest device (mu = 0)."""
    out = f"hon-p{protocol}-n{n}-t{thr}"
    argv = ["simulate", "--protocol", str(protocol), "--n", str(n), _threshold_flag(protocol), repr(thr),
            "--target-eps-c", repr(TARGET_EPS_C), "--trials", "1000", "--seed", str(seed), "--out", out]
    return Command("simulate", argv, out, key=(protocol, n, thr), honest=True)


def attack_cmd(protocol, trials, seed):
    """Per-round-path simulation of the abort attack from a scenario file."""
    out = f"atk-p{protocol}"
    argv = ["simulate", "--scenario", f"attack-p{protocol}.json", "--trials", str(trials),
            "--seed", str(seed), "--out", out]
    return Command("attack", argv, out, trials=trials)


def threshold_cmd(seed):
    """Honest P2 device whose expected score equals the threshold, n = 1000.

    This is the configuration eps_complete is defined for; its abort rate is
    the end-to-end metric honest_abort_rate (README, "Known defect").
    """
    thr = 2.75
    argv = ["simulate", "--protocol", "2", "--n", "1000", "--omega-sharp", repr(thr),
            "--mu", repr(1.0 - thr / ETA_Q), "--target-eps-c", repr(TARGET_EPS_C),
            "--trials", str(THRESHOLD_TRIALS), "--seed", str(seed), "--out", "thr"]
    return Command("threshold", argv, "thr")


def plan_pass(workload, rng):
    """The commands of one pass, in the order the seed gives."""
    if workload in SWEEPS:
        probe = [security_cmd(p, n, 0.0 if p == 1 else 0.1, t)
                 for p in range(1, 6) for n in N_VALUES for t in _thresholds(p)]
        probe += [honest_cmd(4, 100000, P_SHARP[0], rng.randrange(2**31)),
                  attack_cmd(2, 160, rng.randrange(2**31)), attack_cmd(4, 160, rng.randrange(2**31)),
                  threshold_cmd(rng.randrange(2**31))]
        rng.shuffle(probe)
        return [extract_cmd(SWEEPS[workload])] + probe
    cmds = []
    for p in range(1, 6):
        for n in N_VALUES:
            for eps in ((0.0,) if p == 1 else (0.05, 0.1)):
                for t in _thresholds(p):
                    cmds.append(security_cmd(p, n, eps, t))
    cmds += [honest_cmd(p, n, _thresholds(p)[1], rng.randrange(2**31))
             for p in range(1, 6) for n in (100000, 1000000)]
    cmds += [attack_cmd(2, 100, rng.randrange(2**31)), attack_cmd(4, 100, rng.randrange(2**31))]
    cmds += [threshold_cmd(rng.randrange(2**31)), extract_cmd(PROTOCOL_EXTRACT)]
    rng.shuffle(cmds)
    # honest simulations are checked against reports of the same pass
    return [c for c in cmds if c.kind == "security"] + [c for c in cmds if c.kind != "security"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def setup(work):
    """Fresh import of the package plus the workload's input files."""
    for name in [m for m in sys.modules if m == "discert" or m.startswith("discert.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in MODULES}
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    with open(FIXTURE, "rb") as fh:
        data = fh.read()
    with open(FIXTURE + ".sha256", encoding="utf-8") as fh:
        expected = fh.read().split()[0]
    if _sha256(data) != expected:
        raise SystemExit(f"error: fixture {FIXTURE} does not match its recorded sha256")
    with open(os.path.join(work, "fixture.json"), "wb") as fh:
        fh.write(data)
    _write_json(os.path.join(work, "tilted.json"), TILTED)
    for protocol, threshold in ((2, {"omega_sharp": 2.75}), (4, {"p_win_sharp": 0.84})):
        _write_json(os.path.join(work, f"attack-p{protocol}.json"), {
            "protocol": f"P{protocol}", "n": 1000, "kappa": 0.05, "epsilon": 0.1, **threshold,
            "source": {"kind": "abort_attack", "t_good": 500}, "device": {"kind": "optimal_chsh"},
            "seed": 0, "trials": 1,
        })
    return modules


def line(omega, lo, hi):
    """The line from (lo, 1/2) to (hi, 1); bardyn_locc for CHSH's (2, 2*sqrt(2))."""
    return 0.5 * (1.0 + (omega - lo) / (hi - lo))


def _reference_work():
    """Fixed work owned by the benchmark: half interpreter loop, half small numpy batches."""
    s = 0.0
    for i in range(12000):
        s += math.exp(-1e-3 * i) * (i % 7)
    a = REF_MATS
    for _ in range(100):
        w = np.linalg.eigvalsh(a)
        a = REF_MATS + 1e-3 * (a @ REF_MATS)
        s += float(np.sum(w[:, -1]))
    return s


class Reference:
    """Host speed, from a fixed kernel timed between the commands it scales.

    The shared host switches between two speeds about 1.6x apart, within
    seconds, in CPU time as well as wall time, and the switch moves every
    command alike.  Timing a fixed kernel next to the commands and dividing
    by it removes that common factor: a time t becomes
    t * REF_NOMINAL_S / (median slice time), i.e. seconds on the reference
    machine at its faster speed.  Slices are timed in CPU time, even for
    the wall-time curve_s: a slice's wall time also counts the moments the
    host deschedules the process, which a 10 ms slice catches unevenly.
    The kernel calls nothing in the package, so a change to the program
    cannot move it.
    """

    def __init__(self):
        self.cpu = []  # CPU seconds of each slice
        self.last = -math.inf

    def sample(self, slices=1):
        for _ in range(slices):
            start = cpu_seconds()
            _reference_work()
            self.cpu.append(cpu_seconds() - start)
            self.last = time.perf_counter()

    def sample_due(self):
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def scale(self, first=0):
        """Factor that turns seconds into reference seconds, from slices ``first`` on."""
        return REF_NOMINAL_S / statistics.median(self.cpu[first:])


class Runner:
    """Executes commands, checks outputs and keeps the run's tallies."""

    def __init__(self, modules, work):
        self.modules = modules
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.curve_bytes = {}  # extract spec -> bytes of the first curve
        # every timed command of the run, scaled by the reference slices next
        # to it, and the same unscaled
        self.curve_s = {"scaled": [], "raw": []}
        self.report_ms = {"scaled": [], "raw": []}
        self.slow = {"trials": 0, "scaled": 0.0, "raw": 0.0}  # per-round simulate: trials and CPU seconds
        self.abort_rates = []  # honest device at the threshold, one per pass
        self.ref_cpu_ms = []  # median slice time of each pass
        self.xi = None

    def _fail(self, cmd, why):
        self.failed += 1
        print(f"check failed: {' '.join(cmd.argv)}: {why}", file=sys.stderr)

    def _read(self, path):
        with open(os.path.join(self.work, path), "rb") as fh:
            return fh.read()

    def bytes_of(self, cmd):
        names = [cmd.out + s for s in (".json", ".csv", ".summary.json", ".manifest.json")]
        return sum(os.path.getsize(os.path.join(self.work, p)) for p in names
                   if os.path.exists(os.path.join(self.work, p)))

    def run_pass(self, cmds, main):
        """Run one pass; returns (command wall time, bytes written)."""
        reports = {}
        honest = []
        security = []  # (slices taken before the command, CPU seconds)
        ref = Reference()
        wall = 0.0
        written = 0
        for cmd in cmds:
            if cmd.kind in SCALED_ALONE:
                # the host's speed can switch within seconds, so a long
                # command gets slices of its own on either side
                first = len(ref.cpu)
                ref.sample(REF_BURST)
            else:
                ref.sample_due()
            slot = len(ref.cpu)
            self.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            start, cpu_start = time.perf_counter(), cpu_seconds()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(cmd.argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = None
                err.write(traceback.format_exc())
            wall_s, cpu_s = time.perf_counter() - start, cpu_seconds() - cpu_start
            wall += wall_s
            if code != 0:
                self._fail(cmd, f"exit code {code}: {err.getvalue().strip()}")
                continue
            written += self.bytes_of(cmd)
            if cmd.kind in SCALED_ALONE:
                ref.sample(REF_BURST)
                k = ref.scale(first)
                if cmd.kind == "extract":
                    self.curve_s["scaled"].append(wall_s * k)
                    self.curve_s["raw"].append(wall_s)
                else:
                    self.slow["trials"] += cmd.trials
                    self.slow["scaled"] += cpu_s * k
                    self.slow["raw"] += cpu_s
            try:
                self.check(cmd, reports, honest)
            except (OSError, ValueError, KeyError) as exc:
                self._fail(cmd, f"unreadable output: {exc!r}")
            else:
                if cmd.kind == "security":
                    security.append((slot, cpu_s))
        for cmd, low in honest:
            if cmd.key not in reports:
                self._fail(cmd, "no security report for the same configuration in this pass")
            elif low > reports[cmd.key]:
                self._fail(cmd, f"Wilson lower end {low} exceeds eps_complete {reports[cmd.key]}")
        ref.sample(REF_BURST)
        # a security command is scaled by the two slices before it and the two after
        for slot, cpu_s in security:
            near = ref.cpu[max(slot - 2, 0):slot + 2]
            self.report_ms["scaled"].append(cpu_s * REF_NOMINAL_S / statistics.median(near) * 1e3)
            self.report_ms["raw"].append(cpu_s * 1e3)
        self.ref_cpu_ms.append(statistics.median(ref.cpu) * 1e3)
        return wall, written

    def check(self, cmd, reports, honest):
        """Check one command's output."""
        if cmd.kind == "extract":
            self.check_curve(cmd)
        elif cmd.kind == "security":
            doc = json.loads(self._read(cmd.out + ".json"))
            if not 0.0 <= doc["eps_sound"] <= 1.0:
                self._fail(cmd, f"eps_sound {doc['eps_sound']} outside [0, 1]")
            if not doc["eps_complete"] <= TARGET_EPS_C:
                self._fail(cmd, f"eps_complete {doc['eps_complete']} above target {TARGET_EPS_C}")
            reports[cmd.key] = doc["eps_complete"]
        else:
            doc = json.loads(self._read(cmd.out + ".summary.json"))
            if not 0.0 <= doc["wilson_low"] <= doc["abort_rate"] <= doc["wilson_high"] <= 1.0:
                self._fail(cmd, "abort rate outside its Wilson interval or [0, 1]")
            if cmd.honest:
                honest.append((cmd, doc["wilson_low"]))
            elif cmd.kind == "threshold":
                self.abort_rates.append(doc["abort_rate"])

    def check_curve(self, cmd):
        data = self._read("curve.json")
        spec = " ".join(cmd.argv)
        first = self.curve_bytes.setdefault(spec, data)
        if data != first:
            self._fail(cmd, "curve bytes differ from the first run of this command")
        doc = json.loads(data)
        extract = self.modules["discert.extract"]
        chsh = self.modules["discert.bellops"].chsh()
        # the shape checks (convex, non-decreasing, inside [1/2, 1]) do not use
        # the functional; chsh is attached so non-CHSH curves reparse without
        # recomputing their quantum range
        curve = extract.ExtractabilityCurve.from_json(data.decode("utf-8"), functional=chsh)
        omegas = [float(w) for w in curve.omegas]
        values = [float(v) for v in curve.values]
        if doc["functional"] == "chsh":
            for w, v in zip(omegas, values):
                if v > line(w, 2.0, ETA_Q) + 1e-6:
                    self._fail(cmd, f"Xi({w}) = {v} exceeds bardyn_locc + 1e-6")
        # knots run from the local to the quantum maximum
        gap = max(line(w, omegas[0], omegas[-1]) - v for w, v in zip(omegas, values))
        self.xi = (statistics.fmean(values), gap)


def cpu_seconds():
    """CPU time of this process plus its waited-for children.

    Set-up, security and simulate commands are single-threaded, so their
    CPU time is their latency on an idle machine.  On the shared 2-vCPU
    host their wall time doubles for whole runs when the host takes CPU
    away (seen right after 2-worker sweeps), while CPU time does not.
    Children are included so that work moved into a subprocess still
    counts.  curve_s stays wall time: the sweeps run in parallel.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb():
    """Peak resident set of this process and of its largest waited-for child, in MB.

    A forked pool worker's peak includes the pages it shares with the
    parent, so the two are not added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0  # ru_maxrss is in KiB on Linux


def environment(load1):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "loadavg_1m": load1}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "discert", "disctl.py")):
        print(f"error: discert sources not found under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(FIXTURE):
        print(f"error: fixture {FIXTURE} is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    load1 = os.getloadavg()[0]

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    cwd = os.getcwd()
    try:
        # each set-up is scaled by the slices on either side of it
        setup_times, scaled = [], []
        ref = Reference()
        ref.sample()
        for _ in range(SETUP_REPEATS):
            start = cpu_seconds()
            modules = setup(work)
            setup_times.append(cpu_seconds() - start)
            ref.sample()
            scaled.append(setup_times[-1] * REF_NOMINAL_S * 2.0 / (ref.cpu[-2] + ref.cpu[-1]))
        os.chdir(work)
        result = measure(args, modules, work, statistics.median(scaled))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    runner, metrics, passes = result
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    own, child = peak_rss_mb()
    info = {"workload": args.workload, "seed": args.seed, "passes": passes, "env": environment(load1),
            "curve_sha256": sorted({_sha256(b) for b in runner.curve_bytes.values()}),
            "unscaled": {"setup_s": statistics.median(setup_times), "curve_s": statistics.median(runner.curve_s["raw"]),
                         "report_ms_p50": statistics.median(runner.report_ms["raw"]),
                         "sim_trials_per_s": runner.slow["trials"] / runner.slow["raw"],
                         "ref_cpu_ms": statistics.median(runner.ref_cpu_ms)},
            "peak_rss_mb": {"self": own, "largest_child": child}}
    print(json.dumps(info))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def measure(args, modules, work, setup_s):
    rng = random.Random(args.seed)
    runner = Runner(modules, work)
    cli = modules["discert.disctl"].main
    workers = SWEEPS.get(args.workload, PROTOCOL_EXTRACT)["threads"]
    start = time.monotonic()
    passes = 0
    if not args.trace:
        while passes == 0 or time.monotonic() - start < args.seconds:
            runner.run_pass(plan_pass(args.workload, rng), cli)
            passes += 1
        ms = runner.report_ms["scaled"]
        metrics = {
            "setup_s": setup_s,
            "curve_s": statistics.median(runner.curve_s["scaled"]),
            "report_ms_p50": statistics.median(ms),
            "report_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[-1],
            "sim_trials_per_s": runner.slow["trials"] / runner.slow["scaled"],
            "honest_abort_rate": statistics.median(runner.abort_rates),
            "xi_mean": runner.xi[0],
            "xi_gap_max": runner.xi[1],
            "peak_rss_mb": max(peak_rss_mb()),
            "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        }
        return runner, metrics, passes

    from tracing import Tracer

    tracer = Tracer(os.path.join(work, "spool"))
    runner.run_pass(plan_pass(args.workload, rng), cli)  # warm-up, so the overhead ratio compares warm passes
    plain, traced, layers, counts = [], [], [], []
    while passes < 4 or time.monotonic() - start < args.seconds:
        cmds = plan_pass(args.workload, rng)
        if passes % 4 in (0, 3):  # ABBA order, so drift during the run cancels
            plain.append(runner.run_pass(cmds, cli)[0])
        else:
            tracer.reset()
            with tracer.installed(modules):
                wall, written = runner.run_pass(cmds, tracer.wrap("disctl", cli))
            tracer.merge_workers()
            traced.append(wall)
            layer = tracer.layer_metrics(workers)
            layer["disctl.bytes_written"] = written
            layers.append(layer)
            counts.append(tuple(layer[k] for k in ("sdpcore.calls", "sdpcore.rows", "sdpcore.newton_iters")))
        passes += 1
    if len(set(counts)) != 1:
        runner.failed += 1
        print(f"check failed: sdpcore counts differ between traced passes: {counts}", file=sys.stderr)
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return runner, metrics, passes


if __name__ == "__main__":
    sys.exit(main())
