"""Command line front end wiring the pipeline end to end.

Subcommands
-----------
extract    sweep a Bell functional into a certified extractability curve
           (the only subcommand that sweeps; the others read its curve files)
security   evaluate soundness/completeness for one protocol configuration
simulate   Monte Carlo abort-rate estimate for a source/device scenario
figures    figure-ready CSV bundles (g-eps, eps-vs-n, xi-vs-analytic)
rerun      re-execute a previous run from its manifest

Exit codes: 0 ok, 2 usage or missing input, 3 numerical infeasibility,
4 output I/O failure.

Every run writes a manifest recording the command, the full resolved
parameter set, input/output digests, per-stage provenance and wall time.
Output files embed the run's identity hash (computed over command,
parameters, tool version and input digests only, so a rerun reproduces
the same hash and the same output bytes).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bellops import chsh, load_functional
from .envelope import PiecewiseLinear, build_g_epsilon
from .extract import ExtractabilityCurve, GridSpec, analytic_curve, bardyn_locc, kaniewski_lo, xi_lower_bound
from .security import ProtocolConfig, kappa_for_target, soundness
from .simproto import (
    DeviceModel,
    SourceModel,
    estimate_abort_rate,
    load_scenario,
    run_protocol,
    transcript_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_RT2 = math.sqrt(2.0)


class CliError(Exception):
    """Error with an associated process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_text(path: str) -> tuple[str, str]:
    """UTF-8 text of a file and the sha256 of its bytes, from one read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise CliError(EXIT_USAGE, f"cannot read input file {path!r}: {err}") from err
    try:
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except UnicodeDecodeError as err:
        raise CliError(EXIT_USAGE, f"input file {path!r} is not UTF-8 text: {err}") from err


class Run:
    """Accumulates manifest fields while a subcommand executes."""

    def __init__(self, command: str, params: dict, argv: list[str]):
        self.command = command
        self.params = params
        self.argv = list(argv)
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.stages: list[dict] = []
        self.resolved: dict = {}
        self._t0 = time.monotonic()

    def add_input(self, path: str) -> str:
        """Record the file's digest and return the text that was hashed."""
        text, self.inputs[path] = _read_text(path)
        return text

    def stage(self, name: str, **detail) -> None:
        self.stages.append({"stage": name, **detail})

    def identity_hash(self) -> str:
        ident = {
            "command": self.command,
            "version": __version__,
            "params": self.params,
            "inputs": self.inputs,
        }
        return _sha256_text(json.dumps(ident, sort_keys=True, separators=(",", ":")))

    def write_output(self, path: str, text: str) -> None:
        parent = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(parent, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise CliError(EXIT_IO, f"cannot write output file {path!r}: {err}") from err
        self.outputs[path] = _sha256_text(text)

    def finish(self, manifest_path: str) -> None:
        manifest = {
            "command": self.command,
            "version": __version__,
            "argv": self.argv,
            "params": self.params,
            "resolved": self.resolved,
            "inputs": self.inputs,
            "identity_hash": self.identity_hash(),
            "outputs": self.outputs,
            "stages": self.stages,
            "wall_time_s": time.monotonic() - self._t0,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        parent = os.path.dirname(os.path.abspath(manifest_path))
        try:
            os.makedirs(parent, exist_ok=True)
            with open(manifest_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise CliError(EXIT_IO, f"cannot write manifest {manifest_path!r}: {err}") from err


def _params_from(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _resolve_threads(value: int | None) -> int | None:
    if value is not None:
        if value < 1:
            raise CliError(EXIT_USAGE, "--threads must be >= 1")
        return value
    env = os.environ.get("DISCERT_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as err:
            raise CliError(EXIT_USAGE, f"DISCERT_THREADS must be an integer, got {env!r}") from err
        if n < 1:
            raise CliError(EXIT_USAGE, "DISCERT_THREADS must be >= 1")
        return n
    return None


def _load_bell(spec: str, run: Run):
    # parse the very text whose digest the manifest records
    text = None if spec.lower() == "chsh" else run.add_input(spec)
    try:
        return load_functional(spec, text)
    except (ValueError, TypeError, KeyError) as err:
        raise CliError(EXIT_USAGE, f"bad functional spec {spec!r}: {err}") from err


def _load_curve(path: str, functional, run: Run) -> ExtractabilityCurve:
    text = run.add_input(path)
    try:
        passed = None if functional.name == "chsh" else functional
        return ExtractabilityCurve.from_json(text, functional=passed)
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        raise CliError(EXIT_USAGE, f"bad curve file {path!r}: {err}") from err


def _protocol_name(number: int) -> str:
    if number not in (1, 2, 3, 4, 5):
        raise CliError(EXIT_USAGE, "--protocol must be 1..5")
    return f"P{number}"


def _default_epsilon(protocol: str, value: float | None) -> float:
    if value is not None:
        return value
    return 0.0 if protocol == "P1" else 0.1


def _config(**fields) -> ProtocolConfig:
    """The one place a command builds a ProtocolConfig; bad fields exit 2."""
    try:
        return ProtocolConfig(**fields)
    except (ValueError, TypeError) as err:
        raise CliError(EXIT_USAGE, f"bad protocol configuration: {err}") from err


def _build_config(args, protocol: str, curve, functional, kappa: float) -> ProtocolConfig:
    return _config(
        protocol=protocol,
        n=args.n,
        kappa=kappa,
        curve=curve,
        functional=functional,
        omega_sharp=args.omega_sharp,
        p_win_sharp=args.p_sharp,
        epsilon=_default_epsilon(protocol, args.epsilon),
    )


def _target_eps_c(value: float | None) -> float:
    """--target-eps-c or its default; an error probability lies in (0, 1)."""
    target = 0.01 if value is None else value
    if not 0.0 < target < 1.0:
        raise CliError(EXIT_USAGE, "--target-eps-c must lie in (0, 1)")
    return target


def _kappa_for(probe: ProtocolConfig, target: float) -> float:
    try:
        return kappa_for_target(probe, target)
    except ValueError as err:
        raise CliError(EXIT_NUMERIC, f"cannot resolve kappa for completeness target {target}: {err}") from err


def _solve_kappa(args, protocol: str, functional, run: Run) -> float:
    """Resolve --kappa / --target-eps-c into a concrete kappa value."""
    if args.kappa is not None:
        if args.target_eps_c is not None:
            raise CliError(EXIT_USAGE, "--kappa and --target-eps-c are mutually exclusive")
        return args.kappa
    target = _target_eps_c(args.target_eps_c)
    kap = _kappa_for(_build_config(args, protocol, None, functional, kappa=1e-3), target)
    run.resolved["kappa"] = kap
    run.stage("kappa-solve", target_eps_c=target, kappa=kap)
    return kap


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args, argv) -> int:
    params = _params_from(args)
    params.pop("threads")  # the worker count changes no output byte: keep it out of the identity hash
    run = Run("extract", params, argv)
    threads = _resolve_threads(args.threads)
    run.resolved["threads"] = threads
    f = _load_bell(args.bell, run)

    delta = args.delta
    if delta > math.pi / 4:
        _warn(f"delta {delta:g} exceeds pi/4; clamped to {math.pi / 4:.6g}")
        delta = math.pi / 4
    try:
        g = GridSpec(delta=delta, mode=args.mode, knots=args.knots)
    except ValueError as err:
        raise CliError(EXIT_USAGE, f"bad grid: {err}") from err
    penalty = g.penalty(f)
    run.resolved.update({"delta": delta, "penalty": penalty, "knot_count": args.knots})
    if penalty >= f.eta_q_max - f.eta_l_max:
        _warn(
            f"penalty {penalty:.4g} exceeds quantum range "
            f"{f.eta_q_max - f.eta_l_max:.4g}: trivial curve (all 0.5)"
        )

    try:
        curve = xi_lower_bound(f, g, workers=threads)
    except ValueError as err:
        raise CliError(EXIT_NUMERIC, f"sweep failed: {err}") from err
    run.stage(
        "sweep",
        knots=len(curve.omegas),
        cells=len(g.angle_values()) ** 2,
        delta=delta,
        mode=args.mode,
        penalty=penalty,
    )

    mhash = run.identity_hash()
    doc = json.loads(curve.to_json())
    doc["manifest"] = mhash
    run.write_output(args.out + ".json", json.dumps(doc, indent=2) + "\n")
    run.write_output(args.out + ".csv", curve.to_csv(comment=f"manifest: {mhash}"))
    run.finish(args.out + ".manifest.json")
    print(
        f"wrote {args.out}.json / .csv: {len(curve.omegas)} knots, "
        f"delta={delta:g}, mode={args.mode}, penalty={penalty:.4g}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# security


def cmd_security(args, argv) -> int:
    run = Run("security", _params_from(args), argv)
    f = _load_bell(args.bell, run)
    protocol = _protocol_name(args.protocol)
    curve = _load_curve(args.curve, f, run)
    kappa = _solve_kappa(args, protocol, f, run)
    cfg = _build_config(args, protocol, curve, f, kappa)

    report = soundness(cfg)
    run.stage(
        "soundness",
        eps_sound=report.eps_sound,
        delta_star=report.delta_star,
        a_term=report.a_term,
        b_term=report.b_term,
    )
    run.stage("completeness", eps_complete=report.eps_complete)

    mhash = run.identity_hash()
    doc = json.loads(report.to_json())
    doc["manifest"] = mhash
    run.write_output(args.out + ".json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    run.finish(args.out + ".manifest.json")
    print(
        f"{protocol} n={cfg.n} kappa={cfg.kappa:.6g}: "
        f"eps_sound={report.eps_sound:.6g} eps_complete={report.eps_complete:.6g} "
        f"(delta*={report.delta_star:.4g})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _scenario_from_args(args, run: Run):
    if args.scenario is not None:
        text = run.add_input(args.scenario)
        try:
            sc = load_scenario(text)
        except (ValueError, TypeError, KeyError) as err:
            raise CliError(EXIT_USAGE, f"bad scenario file {args.scenario!r}: {err}") from err
        seed = sc.seed if args.seed is None else args.seed
        trials = sc.trials if args.trials is None else args.trials
        return sc.config, sc.source, sc.device, seed, trials

    for flag, name in ((args.protocol, "--protocol"), (args.n, "--n")):
        if flag is None:
            raise CliError(EXIT_USAGE, f"{name} is required without --scenario")
    f = _load_bell(args.bell, run)
    protocol = _protocol_name(args.protocol)
    kappa = _solve_kappa(args, protocol, f, run)
    cfg = _build_config(args, protocol, None, f, kappa)
    try:
        src = SourceModel.honest_isotropic(args.mu)
    except ValueError as err:
        raise CliError(EXIT_USAGE, f"bad --mu: {err}") from err
    dev = DeviceModel.optimal_chsh()
    seed = 2026 if args.seed is None else args.seed
    trials = 1000 if args.trials is None else args.trials
    return cfg, src, dev, seed, trials


def cmd_simulate(args, argv) -> int:
    run = Run("simulate", _params_from(args), argv)
    cfg, src, dev, seed, trials = _scenario_from_args(args, run)
    if trials < 1:
        raise CliError(EXIT_USAGE, "--trials must be >= 1")
    if seed < 0:
        raise CliError(EXIT_USAGE, "--seed must be >= 0")
    run.resolved.update({"seed": seed, "trials": trials, "kappa": cfg.kappa})

    rate, (lo, hi) = estimate_abort_rate(cfg, src, dev, trials=trials, seed=seed)
    run.stage("monte-carlo", trials=trials, abort_rate=rate)

    mhash = run.identity_hash()
    summary = {
        "protocol": cfg.protocol,
        "n": cfg.n,
        "kappa": cfg.kappa,
        "omega_sharp": cfg.omega_sharp,
        "p_win_sharp": cfg.p_win_sharp,
        "source": src.kind,
        "device": dev.kind,
        "seed": seed,
        "trials": trials,
        "abort_rate": rate,
        "wilson_low": lo,
        "wilson_high": hi,
        "manifest": mhash,
    }
    run.write_output(args.out + ".summary.json", json.dumps(summary, indent=2) + "\n")
    if args.transcript:
        rec = run_protocol(cfg, src, dev, seed=seed, trial=0)
        run.stage("transcript", trial=0, aborted=rec.aborted)
        text = f"# manifest: {mhash}\n" + transcript_csv(rec)
        run.write_output(args.out + ".transcript.csv", text)
    run.finish(args.out + ".manifest.json")
    print(f"abort rate {rate:.6g} (95% CI {lo:.6g}..{hi:.6g}) over {trials} trials")
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures


def _csv_table(header: list[str], columns: list[np.ndarray], comment: str) -> str:
    lines = [f"# {comment}", ",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _figure_base_curve(args, run: Run):
    """Fidelity curve the security figures are built on: file or analytic."""
    if args.curve is not None:
        f = _load_bell(args.bell, run)
        return _load_curve(args.curve, f, run), f
    return analytic_curve("bardyn_locc"), chsh()


def _fig_g_eps(args, run: Run, mhash_of) -> list[str]:
    base, _ = _figure_base_curve(args, run)
    eps_values = _parse_float_list(args.eps, "--eps")
    if not all(0.0 <= e < math.inf for e in eps_values):
        raise CliError(EXIT_USAGE, "--eps values must be finite and nonnegative")
    # a bare PiecewiseLinear: G_eps sampled over the curve's own knot span
    pl = PiecewiseLinear(base.omegas, base.values)
    curves = [build_g_epsilon(pl, e) for e in eps_values]
    xs = np.unique(np.concatenate([c.xs for c in curves]))
    header = ["omega"] + [f"g_eps_{e:g}" for e in eps_values]
    cols = [xs] + [np.asarray(c(xs), dtype=float) for c in curves]
    path = os.path.join(args.out_dir, "g_eps.csv")
    run.write_output(path, _csv_table(header, cols, f"manifest: {mhash_of()}"))
    run.stage("g-eps", eps=list(eps_values), rows=int(xs.size))
    return [path]


def _fig_eps_vs_n(args, run: Run, mhash_of) -> list[str]:
    base, f = _figure_base_curve(args, run)
    protocol = _protocol_name(args.protocol)
    if protocol not in ("P2", "P3"):
        raise CliError(EXIT_USAGE, "eps-vs-n figures are defined for protocols 2 and 3")
    if not 0.0 < args.n_min <= args.n_max < math.inf:
        raise CliError(EXIT_USAGE, "--n-min and --n-max need 0 < n-min <= n-max")
    if args.n_points < 1:
        raise CliError(EXIT_USAGE, "--n-points must be >= 1")
    target = _target_eps_c(args.target_eps_c)
    n_values = np.unique(
        np.logspace(math.log10(args.n_min), math.log10(args.n_max), args.n_points).astype(int)
    )
    n_values = n_values[n_values >= 2]
    if n_values.size == 0:
        raise CliError(EXIT_USAGE, "--n-min and --n-max leave no round count n >= 2")

    def eps_sound(n: int, omega_sharp: float, epsilon: float) -> float:
        probe = _config(
            protocol=protocol,
            n=int(n),
            kappa=1e-3,
            curve=base,
            functional=f,
            omega_sharp=omega_sharp,
            epsilon=epsilon,
        )
        return soundness(dataclasses.replace(probe, kappa=_kappa_for(probe, target))).eps_sound

    w_max = 2.0 * _RT2
    omegas = (2.7, 2.75, 2.8, w_max)
    eps_values = (0.0, 0.05, 0.1, 0.15)
    tables = (
        ("eps_vs_n_fixed_eps.csv", [f"omega_{w:g}" for w in omegas], [(w, args.epsilon) for w in omegas]),
        ("eps_vs_n_fixed_omega.csv", [f"eps_{e:g}" for e in eps_values], [(w_max, e) for e in eps_values]),
    )
    paths = []
    for name, labels, points in tables:
        cols = [n_values.astype(float)]
        cols += [np.array([eps_sound(n, w, e) for n in n_values]) for w, e in points]
        path = os.path.join(args.out_dir, name)
        run.write_output(path, _csv_table(["n"] + labels, cols, f"manifest: {mhash_of()}"))
        paths.append(path)
    run.stage(
        "eps-vs-n",
        protocol=protocol,
        n_count=int(n_values.size),
        target_eps_c=target,
        omegas=list(omegas),
        eps=list(eps_values),
    )
    return paths


def _fig_xi_vs_analytic(args, run: Run, mhash_of) -> list[str]:
    if args.curve is None:
        raise CliError(EXIT_USAGE, "xi-vs-analytic needs --curve with CHSH curve files from `extract`")
    paths = args.curve.split(",")
    curves = [_load_curve(path, chsh(), run) for path in paths]
    # every curve is read at the first curve's knots
    omegas = curves[0].omegas
    try:
        bardyn = np.array([bardyn_locc(w) for w in omegas])
        kaniewski = np.array([kaniewski_lo(w) for w in omegas])
    except ValueError as err:
        raise CliError(EXIT_USAGE, f"bad curve file {paths[0]!r}: {err}") from err
    cols = [c.evaluate(omegas) for c in curves]
    header = ["omega"] + [f"xi_delta_{c.delta:g}" for c in curves] + ["bardyn", "kaniewski"]
    path = os.path.join(args.out_dir, "xi_vs_analytic.csv")
    run.write_output(
        path, _csv_table(header, [omegas] + cols + [bardyn, kaniewski], f"manifest: {mhash_of()}")
    )
    run.stage("xi-vs-analytic", deltas=[c.delta for c in curves], knots=int(omegas.size))
    return [path]


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise CliError(EXIT_USAGE, f"{flag} expects comma-separated floats, got {text!r}") from err
    if not values:
        raise CliError(EXIT_USAGE, f"{flag} needs at least one value")
    return values


# each bundle's builder and the flags it reads; only those enter its identity hash
_FIGURES = {
    "g-eps": (_fig_g_eps, ("curve", "bell", "eps")),
    "eps-vs-n": (
        _fig_eps_vs_n,
        ("curve", "bell", "protocol", "epsilon", "target_eps_c", "n_min", "n_max", "n_points"),
    ),
    "xi-vs-analytic": (_fig_xi_vs_analytic, ("curve",)),
}


def cmd_figures(args, argv) -> int:
    build, flags = _FIGURES[args.which]
    run = Run("figures", {k: getattr(args, k) for k in ("which", "out_dir") + flags}, argv)
    paths = build(args, run, run.identity_hash)
    run.finish(os.path.join(args.out_dir, f"{args.which}.manifest.json"))
    print(f"wrote {len(paths)} file(s) to {args.out_dir}: " + ", ".join(os.path.basename(p) for p in paths))
    return EXIT_OK


# ---------------------------------------------------------------------------
# rerun


def cmd_rerun(args, argv) -> int:
    text, _ = _read_text(args.manifest)
    try:
        manifest = json.loads(text)
        replay = manifest["argv"]
    except (ValueError, KeyError) as err:
        raise CliError(EXIT_USAGE, f"bad manifest {args.manifest!r}: {err}") from err
    if not isinstance(replay, list) or not all(isinstance(s, str) for s in replay):
        raise CliError(EXIT_USAGE, "manifest argv must be a list of strings")
    if replay and replay[0] == "rerun":
        raise CliError(EXIT_USAGE, "refusing to replay a rerun manifest")
    print(f"replaying: {' '.join(replay)}")
    return main(replay)


# ---------------------------------------------------------------------------
# parser


def _add_common_security_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protocol", type=int, default=None, help="protocol number 1..5")
    p.add_argument("--n", type=int, default=None, help="number of rounds")
    p.add_argument("--omega-sharp", type=float, default=None, help="Bell-value threshold (parallel)")
    p.add_argument("--p-sharp", dest="p_sharp", type=float, default=None, help="win-rate threshold (sequential)")
    p.add_argument("--kappa", type=float, default=None, help="confidence margin")
    p.add_argument(
        "--target-eps-c",
        type=float,
        default=None,
        help="solve kappa for this completeness target (default 0.01 when --kappa absent)",
    )
    p.add_argument("--epsilon", type=float, default=None, help="fidelity slack (default 0, or 0.1 for P2..P5)")
    p.add_argument("--bell", default="chsh", help="builtin name or functional JSON path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discert",
        description="Certified singlet-extractability bounds and protocol security calculators.",
    )
    parser.add_argument("--version", action="version", version=f"discert {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("extract", help="sweep a Bell functional into a certified curve")
    p.add_argument("--bell", default="chsh", help="builtin name or functional JSON path")
    p.add_argument("--delta", type=float, default=0.01, help="angle grid spacing in radians")
    p.add_argument("--mode", choices=("paper", "tight"), default="paper")
    p.add_argument("--knots", type=int, default=65, help="number of score knots")
    p.add_argument("--threads", type=int, default=None, help="worker processes (default: DISCERT_THREADS or auto)")
    p.add_argument("--out", default="curve", help="output path prefix")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("security", help="soundness/completeness report for one configuration")
    _add_common_security_flags(p)
    p.add_argument("--curve", required=True, help="extractability curve JSON from `extract`")
    p.add_argument("--out", default="report", help="output path prefix")
    p.set_defaults(func=cmd_security)

    p = sub.add_parser("simulate", help="Monte Carlo abort-rate estimate")
    _add_common_security_flags(p)
    p.add_argument("--scenario", default=None, help="scenario JSON file (overrides inline flags)")
    p.add_argument("--mu", type=float, default=0.0, help="isotropic noise of the honest source")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (default 1000)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 2026)")
    p.add_argument("--transcript", action="store_true", help="also write the first trial's transcript CSV")
    p.add_argument("--out", default="sim", help="output path prefix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figures", help="figure-ready CSV bundles")
    p.add_argument("--which", required=True, choices=tuple(_FIGURES))
    p.add_argument("--out-dir", default="figures", help="output directory")
    p.add_argument(
        "--curve", default=None, help="curve JSON from `extract` (default: analytic); xi-vs-analytic: A.json,B.json"
    )
    p.add_argument("--bell", default="chsh", help="builtin name or functional JSON path")
    p.add_argument("--eps", default="0,0.05,0.1,0.15", help="epsilon list for g-eps")
    p.add_argument("--protocol", type=int, default=2, help="protocol for eps-vs-n (2 or 3)")
    p.add_argument("--epsilon", type=float, default=0.1, help="fixed epsilon for eps-vs-n")
    p.add_argument("--target-eps-c", type=float, default=None, help="completeness target (default 0.01)")
    p.add_argument("--n-min", type=float, default=1e3)
    p.add_argument("--n-max", type=float, default=1e7)
    p.add_argument("--n-points", type=int, default=25)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("manifest", help="manifest JSON written by a previous run")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, argv)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
