"""Package surface: exports resolve, and the names perfbench patches exist."""

import importlib
import pathlib
import pkgutil
import sys

import pytest

import discert

MODULES = sorted(
    f"discert.{m.name}" for m in pkgutil.iter_modules(discert.__path__) if m.name != "__main__"
)
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["discert", *MODULES])
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", [])
    missing = [n for n in exports if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _wrapped_names():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    return [(m, attr) for m, attr, _name, _fields in tracing.WRAPPED]


def test_benchmark_patch_targets_exist():
    targets = _wrapped_names() + [("discert.extract", "ProcessPoolExecutor")]
    missing = [(m, a) for m, a in targets if not hasattr(importlib.import_module(m), a)]
    assert not missing, f"names the benchmark patches are gone: {missing}"


def test_penalty_curves_built_through_envelope_module(monkeypatch):
    # soundness must reach build_g_epsilon through the envelope module, the
    # name the benchmark wraps, or the envelope.g_eps layer reads zero; it
    # builds each G_eps once per call (both bound modes share the curve term)
    from discert import envelope
    from discert.extract import analytic_curve
    from discert.security import ProtocolConfig, soundness

    calls = []
    original = envelope.build_g_epsilon

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(envelope, "build_g_epsilon", counting)
    for protocol in ("P2", "P3", "P4", "P5"):
        threshold = {"omega_sharp": 2.8} if protocol in ("P2", "P3") else {"p_win_sharp": 0.84}
        calls.clear()
        cfg = ProtocolConfig(
            protocol=protocol, n=1000, kappa=0.05, curve=analytic_curve("bardyn_locc"), epsilon=0.1, **threshold
        )
        soundness(cfg)
        assert len(calls) == 1, protocol


def test_slow_path_trials_through_simproto_module(monkeypatch):
    # the per-round path must call run_protocol through the simproto module,
    # the name the benchmark wraps, once per trial, or the simproto.trial
    # layer and slow_us_per_trial read zero
    from discert import simproto
    from discert.security import ProtocolConfig

    calls = []
    original = simproto.run_protocol

    def counting(*args, **kwargs):
        calls.append(kwargs.get("trial"))
        return original(*args, **kwargs)

    monkeypatch.setattr(simproto, "run_protocol", counting)
    cfg = ProtocolConfig(protocol="P2", n=50, kappa=0.05, omega_sharp=2.6, epsilon=0.1)
    src = simproto.SourceModel.abort_attack(7)
    simproto.estimate_abort_rate(cfg, src, simproto.DeviceModel.optimal_chsh(), trials=5, seed=1)
    assert calls == [0, 1, 2, 3, 4]


def test_version_single_source():
    from discert import disctl

    assert not hasattr(disctl, "VERSION")
    assert disctl.__version__ is discert.__version__
