"""Per-layer spans for the traced benchmark run.

Spans are recorded from the benchmark's side: each traced layer is a
function that some caller in the package looks up by name, and the tracer
replaces that name with a timing wrapper for the duration of a traced
pass.  The wrapped names are the ones the callers really use, e.g.
``discert.extract.solve_fab_batch`` (extract imported it by name), not the
defining module's attribute.

Spans nest through a stack, so a layer's self time is its duration minus
the time covered by its direct child spans in the same process.  Pool
workers are forked after the wrappers are installed and inherit them; a
worker cannot share the parent's memory and at-exit hooks do not run in
pool workers, so each worker appends one JSON line per call to its own
spool file, which the parent merges after every command.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np


def _sdp_fields(args, kwargs, out) -> dict:
    status = np.asarray(out["status"])
    solved = status != 2
    gap = np.asarray(out["gap_bound"])[solved]
    slack = np.asarray(out["psd_slack"])[solved]
    return {
        "rows": int(status.size),
        "iters": int(np.sum(out["iterations"])),
        "optimal": int(np.sum(status == 0)),
        "maxiter": int(np.sum(status == 1)),
        "solved": int(np.sum(solved)),
        "gap_max": float(np.max(gap)) if gap.size else None,
        "slack_min": float(np.min(slack)) if slack.size else None,
    }


def _knot_fields(args, kwargs, out) -> dict:
    return {"knots": int(len(out.omegas))}


def _estimate_fields(args, kwargs, out) -> dict:
    return {"trials": int(kwargs["trials"] if "trials" in kwargs else args[3])}


def _round_fields(args, kwargs, out) -> dict:
    return {"rounds": int(args[0].n)}


# (module, attribute the caller looks up, span name, extra fields per call)
WRAPPED = (
    ("discert.disctl", "xi_lower_bound", "extract", _knot_fields),
    ("discert.extract", "solve_fab_batch", "sdpcore", _sdp_fields),
    ("discert.extract", "lower_convex_hull", "envelope.hull", None),
    ("discert.envelope", "upper_concave_hull", "envelope.hull", None),
    ("discert.envelope", "build_g_epsilon", "envelope.g_eps", None),
    ("discert.disctl", "load_functional", "bellops.load_functional", None),
    ("discert.bellops", "load_functional", "bellops.load_functional", None),
    ("discert.bellops", "eig_sym", "matqm.eig_sym", None),
    ("discert.matqm", "eig_sym", "matqm.eig_sym", None),
    ("discert.disctl", "soundness", "security.soundness", None),
    ("discert.disctl", "kappa_for_target", "security.kappa", None),
    ("discert.disctl", "estimate_abort_rate", "simproto.estimate", _estimate_fields),
    ("discert.simproto", "run_protocol", "simproto.trial", _round_fields),
)


class Tracer:
    """Collects spans for one traced pass; ``reset`` starts the next."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.parent_pid = os.getpid()
        os.makedirs(spool_dir, exist_ok=True)
        self.reset()

    def reset(self) -> None:
        self.records: dict[str, list[dict]] = {}
        self.pool_map_s = 0.0
        self._stack: list[list] = []

    def wrap(self, name: str, fn, fields=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.parent_pid:
                start = time.monotonic()
                out = fn(*args, **kwargs)
                rec = {"name": name, "start": start, "end": time.monotonic(), "pid": os.getpid()}
                if fields is not None:
                    rec.update(fields(args, kwargs, out))
                path = os.path.join(tracer.spool_dir, f"worker-{os.getpid()}.jsonl")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
                return out
            frame = [0.0, 0]  # child time, child calls
            tracer._stack.append(frame)
            start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += end - start
                    tracer._stack[-1][1] += 1
            rec = {
                "name": name,
                "start": start,
                "end": end,
                "pid": tracer.parent_pid,
                "self": end - start - frame[0],
                "children": frame[1],
            }
            if fields is not None:
                rec.update(fields(args, kwargs, out))
            tracer.records.setdefault(name, []).append(rec)
            return out

        return traced

    def merge_workers(self) -> None:
        """Fold the spool files of finished pool workers into this pass."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "worker-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    rec["self"] = rec["end"] - rec["start"]
                    rec["children"] = 0
                    self.records.setdefault(rec["name"], []).append(rec)
            os.remove(path)

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Patch every wrapped name (and the sweep's pool class), then restore."""
        saved = []
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                start = time.monotonic()
                try:
                    return iter(list(super().map(fn, *iterables, **kwargs)))
                finally:
                    tracer.pool_map_s += time.monotonic() - start

        patches = [(modules[m], attr, self.wrap(name, getattr(modules[m], attr), fields))
                   for m, attr, name, fields in WRAPPED]
        patches.append((modules["discert.extract"], "ProcessPoolExecutor", TracedPool))
        try:
            for mod, attr, new in patches:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, new)
            yield
        finally:
            for mod, attr, old in reversed(saved):
                setattr(mod, attr, old)

    def layer_metrics(self, workers: int) -> dict[str, float]:
        """Per-layer numbers of the pass traced since the last ``reset``."""
        r = self.records

        def spans(name):
            return r.get(name, [])

        def total(name):
            return float(sum(s["end"] - s["start"] for s in spans(name)))

        sdp = spans("sdpcore")
        rows = sum(s["rows"] for s in sdp)
        iters = sum(s["iters"] for s in sdp)
        solved = sum(s["solved"] for s in sdp)
        gaps = [s["gap_max"] for s in sdp if s["gap_max"] is not None]
        slacks = [s["slack_min"] for s in sdp if s["slack_min"] is not None]
        busy = total("sdpcore")
        worker_busy = float(sum(s["end"] - s["start"] for s in sdp if s["pid"] != self.parent_pid))
        knots = sum(s["knots"] for s in spans("extract"))

        est = spans("simproto.estimate")
        slow = [s for s in est if s["children"] > 0]
        fast = [s for s in est if s["children"] == 0]
        trials_slow = len(spans("simproto.trial"))
        trials_fast = sum(s["trials"] for s in fast)
        slow_s = float(sum(s["end"] - s["start"] for s in slow))
        fast_s = float(sum(s["end"] - s["start"] for s in fast))

        return {
            "sdpcore.calls": len(sdp),
            "sdpcore.rows_per_call_p50": float(statistics.median(s["rows"] for s in sdp)) if sdp else 0.0,
            "sdpcore.rows": rows,
            "sdpcore.newton_iters": iters,
            "sdpcore.iters_per_row": iters / rows if rows else 0.0,
            "sdpcore.busy_s": busy,
            "sdpcore.us_per_row_iter": busy * 1e6 / iters if iters else 0.0,
            "sdpcore.optimal_ratio": sum(s["optimal"] for s in sdp) / solved if solved else 0.0,
            "sdpcore.maxiter_rows": sum(s["maxiter"] for s in sdp),
            "sdpcore.gap_bound_max": max(gaps) if gaps else 0.0,
            "sdpcore.psd_slack_min": min(slacks) if slacks else 0.0,
            "extract.sweep_s": total("extract"),
            "extract.self_s": float(sum(s["self"] for s in spans("extract"))),
            "extract.knots": knots,
            "extract.solve_calls_per_knot": len(sdp) / knots if knots else 0.0,
            "extract.pool_busy_ratio": (
                worker_busy / (workers * self.pool_map_s) if self.pool_map_s > 0.0 else 0.0
            ),
            "bellops.load_functional_calls": len(spans("bellops.load_functional")),
            "bellops.load_functional_s": total("bellops.load_functional"),
            "matqm.eig_sym_calls": len(spans("matqm.eig_sym")),
            "matqm.eig_sym_s": total("matqm.eig_sym"),
            "envelope.g_eps_calls": len(spans("envelope.g_eps")),
            "envelope.g_eps_s": total("envelope.g_eps"),
            "envelope.hull_calls": len(spans("envelope.hull")),
            "envelope.hull_s": total("envelope.hull"),
            "security.soundness_calls": len(spans("security.soundness")),
            "security.soundness_self_s": float(sum(s["self"] for s in spans("security.soundness"))),
            "security.kappa_calls": len(spans("security.kappa")),
            "security.kappa_s": total("security.kappa"),
            "simproto.trials_slow": trials_slow,
            "simproto.slow_us_per_trial": slow_s * 1e6 / trials_slow if trials_slow else 0.0,
            "simproto.rounds_slow": sum(s["rounds"] for s in spans("simproto.trial")),
            "simproto.trials_fast": trials_fast,
            "simproto.fast_us_per_trial": fast_s * 1e6 / trials_fast if trials_fast else 0.0,
            "disctl.self_s": float(sum(s["self"] for s in spans("disctl"))),
        }

