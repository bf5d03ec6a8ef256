import hashlib
import json
import math

import numpy as np
import pytest

from discert.disctl import main

RT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def curve_paths(workdir):
    """One shared coarse sweep through the real CLI."""
    out = workdir / "curve"
    rc = main(
        [
            "extract",
            "--delta",
            "0.15",
            "--mode",
            "tight",
            "--knots",
            "9",
            "--threads",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return {
        "json": out.with_suffix(".json"),
        "csv": out.with_suffix(".csv"),
        "manifest": str(out) + ".manifest.json",
    }


class TestParsing:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "discert" in capsys.readouterr().out

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["security", "--protocol", "2", "--n", "100"])
        assert exc.value.code == 2


class TestExtract:
    def test_outputs_and_manifest(self, curve_paths):
        doc = json.loads(curve_paths["json"].read_text())
        manifest = json.loads(open(curve_paths["manifest"]).read())
        assert len(doc["knots"]) == 9
        values = [k["value"] for k in doc["knots"]]
        assert all(0.5 - 1e-12 <= v <= 1.0 + 1e-12 for v in values)
        assert values[-1] > 0.5  # nontrivial at this spacing in tight mode
        # identity hash is embedded in both outputs and the manifest
        assert doc["manifest"] == manifest["identity_hash"]
        first = curve_paths["csv"].read_text().splitlines()[0]
        assert first == f"# manifest: {manifest['identity_hash']}"
        for key in ("delta", "mode", "knots", "out", "bell"):
            assert key in manifest["params"]
        # the worker count is recorded but does not enter the identity hash
        assert "threads" not in manifest["params"]
        assert manifest["resolved"]["threads"] == 1
        assert manifest["command"] == "extract"
        assert manifest["wall_time_s"] >= 0.0
        # outputs map path -> digest of the written text
        digest = manifest["outputs"][str(curve_paths["json"])]
        assert digest == hashlib.sha256(curve_paths["json"].read_bytes()).hexdigest()

    def test_outputs_identical_across_worker_counts(self, workdir):
        out = workdir / "threads_curve"
        outputs = []
        for threads in ("1", "2"):
            argv = ["extract", "--delta", "0.3", "--knots", "3", "--threads", threads, "--out", str(out)]
            assert main(argv) == 0
            outputs.append((out.with_suffix(".json").read_bytes(), out.with_suffix(".csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_rerun_reproduces_bitwise(self, workdir, curve_paths):
        before_json = curve_paths["json"].read_bytes()
        before_csv = curve_paths["csv"].read_bytes()
        curve_paths["json"].unlink()
        assert main(["rerun", curve_paths["manifest"]]) == 0
        assert curve_paths["json"].read_bytes() == before_json
        assert curve_paths["csv"].read_bytes() == before_csv

    def test_rerun_refuses_rerun_manifest(self, workdir):
        p = workdir / "loop.manifest.json"
        p.write_text(json.dumps({"argv": ["rerun", "x.json"]}))
        assert main(["rerun", str(p)]) == 2
        p.write_text(json.dumps({"argv": "not-a-list"}))
        assert main(["rerun", str(p)]) == 2
        assert main(["rerun", str(workdir / "missing.json")]) == 2

    def test_bad_inputs(self, workdir):
        assert main(["extract", "--delta", "-1", "--out", str(workdir / "x")]) == 2
        assert main(["extract", "--knots", "1", "--out", str(workdir / "x")]) == 2
        assert (
            main(["extract", "--bell", str(workdir / "nope.json"), "--out", str(workdir / "x")])
            == 2
        )

    def test_functional_file_read_once(self, workdir, monkeypatch):
        # the manifest digest must describe the very bytes that were parsed
        import builtins

        path = workdir / "tilted_in.json"
        path.write_text(json.dumps({"gamma": [[1, 1], [1, -1]], "cA": [0.2, 0], "cB": [0, 0]}))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(args)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        out = workdir / "tilted_once"
        argv = ["extract", "--bell", str(path), "--delta", "0.3", "--knots", "2", "--threads", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert len(opened) == 1
        manifest = json.loads((workdir / "tilted_once.manifest.json").read_text())
        assert manifest["inputs"][str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert json.loads(out.with_suffix(".json").read_text())["functional"] == "tilted_in"

    @pytest.mark.parametrize(
        "doc",
        [
            '{"gamma": 5, "cA": [0, 0], "cB": [0, 0]}',
            '{"gamma": [[1, 1], [1, -1]], "cA": [0, 0], "cB": [0, 0], "bounds": 3}',
            '{"gamma": [[1, 1], [1, -1]], "cA": [0, 0], "cB": [0, 0], "bounds": {}}',
            "[1, 2]",
            "5",
        ],
    )
    def test_malformed_functional_file(self, workdir, capsys, doc):
        path = workdir / "malformed_functional.json"
        path.write_text(doc)
        assert main(["extract", "--bell", str(path), "--out", str(workdir / "x")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "bad functional spec" in err[0]

    def test_oversized_delta_clamps_to_trivial_curve(self, workdir, capsys):
        out = workdir / "triv"
        rc = main(["extract", "--delta", "1.0", "--knots", "5", "--threads", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 0
        assert "clamped" in err
        assert "trivial curve" in err
        doc = json.loads(out.with_suffix(".json").read_text())
        assert all(k["value"] == 0.5 for k in doc["knots"])


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--delta", "nan"],
        ["simulate", "--protocol", "2", "--n", "100", "--omega-sharp", "2.7", "--kappa", "0.1", "--mu", "1.5"],
        ["simulate", "--protocol", "2", "--n", "100", "--omega-sharp", "2.7", "--kappa", "0.1", "--seed", "-1"],
        ["simulate", "--protocol", "2", "--n", "100", "--omega-sharp", "2.7", "--kappa", "inf"],
        ["figures", "--which", "g-eps", "--eps", "-0.1"],
        ["figures", "--which", "eps-vs-n", "--n-min", "0"],
        ["figures", "--which", "eps-vs-n", "--epsilon", "-0.1", "--n-points", "2"],
        ["simulate", "--protocol", "2", "--n", "100", "--omega-sharp", "2.7", "--kappa", "0.1", "--epsilon", "inf"],
        ["figures", "--which", "eps-vs-n", "--epsilon", "inf", "--n-points", "2"],
        ["figures", "--which", "eps-vs-n", "--n-min", "1", "--n-max", "1"],
    ],
)
def test_bad_values_exit_2(workdir, capsys, argv):
    flag = "--out-dir" if argv[0] == "figures" else "--out"
    assert main(argv + [flag, str(workdir / "bad_value")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


class TestSecurity:
    def test_explicit_kappa(self, workdir, curve_paths):
        out = workdir / "rep1"
        rc = main(
            [
                "security",
                "--curve",
                str(curve_paths["json"]),
                "--protocol",
                "2",
                "--n",
                "100000",
                "--omega-sharp",
                "2.82",
                "--kappa",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["protocol"] == "P2"
        assert 0.0 < doc["eps_sound"] < 1.0
        assert doc["eps_sound"] == max(doc["a_term"], doc["b_term"])
        assert doc["manifest"]

    def test_target_eps_c_path(self, workdir, curve_paths):
        out = workdir / "rep2"
        rc = main(
            [
                "security",
                "--curve",
                str(curve_paths["json"]),
                "--protocol",
                "2",
                "--n",
                "100000",
                "--omega-sharp",
                "2.82",
                "--target-eps-c",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["eps_complete"] <= 0.01
        manifest = json.loads((workdir / "rep2.manifest.json").read_text())
        # (8 sqrt(99999 ln(100) / 2) + 2.82) / 1e5
        assert manifest["resolved"]["kappa"] == pytest.approx(0.0384162, abs=1e-7)

    def test_sequential_protocol(self, workdir, curve_paths):
        out = workdir / "rep4"
        rc = main(
            [
                "security",
                "--curve",
                str(curve_paths["json"]),
                "--protocol",
                "4",
                "--n",
                "50000",
                "--p-sharp",
                "0.85",
                "--kappa",
                "0.005",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["protocol"] == "P4"
        assert 0.0 < doc["eps_sound"] < 1.0

    def test_usage_errors(self, workdir, curve_paths):
        common = ["--protocol", "2", "--n", "1000", "--omega-sharp", "2.8"]
        missing = ["security", "--curve", str(workdir / "ghost.json")] + common + ["--out", str(workdir / "x")]
        assert main(missing) == 2
        both = (
            ["security", "--curve", str(curve_paths["json"])]
            + common
            + ["--kappa", "0.01", "--target-eps-c", "0.01", "--out", str(workdir / "x")]
        )
        assert main(both) == 2
        bad_cfg = ["security", "--curve", str(curve_paths["json"]), "--protocol", "2", "--n", "1000", "--p-sharp", "0.8", "--out", str(workdir / "x")]
        assert main(bad_cfg) == 2
        nan_eps = ["security", "--curve", str(curve_paths["json"]), "--epsilon", "nan"] + common
        assert main(nan_eps + ["--out", str(workdir / "x")]) == 2
        inf_kappa = ["security", "--curve", str(curve_paths["json"]), "--kappa", "inf"] + common
        assert main(inf_kappa + ["--out", str(workdir / "x")]) == 2
        inf_eps = ["security", "--curve", str(curve_paths["json"]), "--epsilon", "inf"] + common
        assert main(inf_eps + ["--out", str(workdir / "x")]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            "[1, 2]",
            '{"functional": "chsh", "knots": 5}',
            '{"functional": "chsh", "knots": [1, 2]}',
            '{"functional": "chsh", "knots": [{"omega": 2.0, "value": 0.5}, {"omega": 2.8, "value": null}]}',
            '{"functional": "chsh", "knots": [{"omega": 2.0, "value": 0.5}, {"omega": 2.8, "value": 1.0}], "meta": 3}',
        ],
    )
    def test_malformed_curve_file(self, workdir, capsys, doc):
        path = workdir / "malformed_curve.json"
        path.write_text(doc)
        args = ["security", "--curve", str(path), "--protocol", "2", "--n", "1000", "--omega-sharp", "2.8"]
        assert main(args + ["--out", str(workdir / "x")]) == 2
        assert "bad curve file" in capsys.readouterr().err

    def test_unreachable_target_is_numeric_error(self, workdir, curve_paths):
        # a target in (0, 1) that no kappa meets: zero tolerated losses
        args = (
            ["security", "--curve", str(curve_paths["json"])]
            + ["--protocol", "4", "--n", "1000", "--p-sharp", "1.0"]
            + ["--target-eps-c", "0.01", "--out", str(workdir / "x")]
        )
        assert main(args) == 3

    @pytest.mark.parametrize("target", ["1.5", "0", "nan"])
    def test_out_of_range_target_is_usage_error(self, workdir, curve_paths, capsys, target):
        inline = ["--n", "1000", "--omega-sharp", "2.8", "--out", str(workdir / "x")]
        runs = [
            ["security", "--curve", str(curve_paths["json"])] + inline,
            ["simulate", "--trials", "5"] + inline,
            ["figures", "--which", "eps-vs-n", "--n-points", "2", "--out-dir", str(workdir / "figs_t")],
        ]
        for argv in runs:
            assert main(argv + ["--protocol", "2", "--target-eps-c", target]) == 2, argv[0]
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "--target-eps-c" in err[0]


class TestSimulate:
    def test_inline_run_deterministic(self, workdir):
        flags = [
            "simulate",
            "--protocol",
            "2",
            "--n",
            "500",
            "--omega-sharp",
            "2.5",
            "--kappa",
            "0.05",
            "--mu",
            "0.1",
            "--trials",
            "60",
            "--seed",
            "7",
        ]
        out_a = workdir / "sim_a"
        out_b = workdir / "sim_b"
        assert main(flags + ["--out", str(out_a)]) == 0
        assert main(flags + ["--out", str(out_b)]) == 0
        da = json.loads((workdir / "sim_a.summary.json").read_text())
        db = json.loads((workdir / "sim_b.summary.json").read_text())
        assert da["abort_rate"] == db["abort_rate"]
        assert da["wilson_low"] <= da["abort_rate"] <= da["wilson_high"]
        assert da["protocol"] == "P2"
        assert da["trials"] == 60

    def test_transcript_output(self, workdir):
        out = workdir / "sim_t"
        rc = main(
            [
                "simulate",
                "--protocol",
                "4",
                "--n",
                "30",
                "--p-sharp",
                "0.85",
                "--kappa",
                "0.05",
                "--trials",
                "5",
                "--seed",
                "3",
                "--transcript",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (workdir / "sim_t.transcript.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "round,x,y,a,b,w"
        assert len(lines) == 32

    def test_scenario_file(self, workdir):
        doc = {
            "protocol": "P2",
            "n": 400,
            "kappa": 0.06,
            "omega_sharp": 2.6,
            "epsilon": 0.1,
            "source": {"kind": "honest_isotropic", "mu": 0.05},
            "device": {"kind": "optimal_chsh"},
            "seed": 11,
            "trials": 40,
        }
        sc = workdir / "scen.json"
        sc.write_text(json.dumps(doc))
        out = workdir / "sim_s"
        assert main(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
        summary = json.loads((workdir / "sim_s.summary.json").read_text())
        assert summary["trials"] == 40
        assert summary["seed"] == 11
        manifest = json.loads((workdir / "sim_s.manifest.json").read_text())
        assert str(sc) in manifest["inputs"]

    def test_scenario_errors(self, workdir, capsys):
        bad = workdir / "bad_scen.json"
        bad.write_text(json.dumps({"protocol": "P2"}))
        assert main(["simulate", "--scenario", str(bad), "--out", str(workdir / "x")]) == 2
        assert main(["simulate", "--out", str(workdir / "x")]) == 2  # inline needs protocol/n
        capsys.readouterr()
        base = {
            "protocol": "P2",
            "n": 100,
            "kappa": 0.05,
            "omega_sharp": 2.6,
            "source": {"kind": "honest_isotropic"},
            "device": {"kind": "optimal_chsh"},
        }
        fixed = {"kind": "fixed_angles", "bob": [0.8, -0.8]}
        docs = [
            [base],
            dict(base, source=5),
            dict(base, device="optimal_chsh"),
            dict(base, omega_sharp="abc"),
            dict(base, n=[100]),
            dict(base, device=dict(fixed, alice=5)),
            dict(base, device=dict(fixed, alice=[0.0])),
            dict(base, functional=str(workdir / "missing_functional.json")),
            dict(base, n=100.7),
            dict(base, source={"kind": "abort_attack", "t_good": 2.9}),
            dict(base, seed=-1),
            dict(base, trials=3.5),
            json.dumps(base).replace('"kappa": 0.05', '"kappa": 1e999'),
            dict(base, epsilon=math.inf),
        ]
        for doc in docs:
            bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            assert main(["simulate", "--scenario", str(bad), "--out", str(workdir / "x")]) == 2, doc
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "bad scenario file" in err[0], doc


class TestFigures:
    def test_g_eps(self, workdir, curve_paths):
        out = workdir / "figs_g"
        rc = main(
            [
                "figures",
                "--which",
                "g-eps",
                "--curve",
                str(curve_paths["json"]),
                "--eps",
                "0,0.05,0.1,0.15",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        data = np.loadtxt(out / "g_eps.csv", delimiter=",", skiprows=2)
        header = (out / "g_eps.csv").read_text().splitlines()[1].split(",")
        assert header == ["omega", "g_eps_0", "g_eps_0.05", "g_eps_0.1", "g_eps_0.15"]
        for j in range(1, 5):
            assert np.all(np.diff(data[:, j]) <= 1e-12)
        # larger slack never increases the penalty
        for j in range(1, 4):
            assert np.all(data[:, j] >= data[:, j + 1] - 1e-12)

    def test_g_eps_analytic_default_zero_edge(self, workdir):
        # without --curve the analytic reference is used; only that curve
        # reaches 1 at the quantum maximum, so G_eps vanishes there exactly
        out = workdir / "figs_g_ana"
        rc = main(
            [
                "figures",
                "--which",
                "g-eps",
                "--eps",
                "0,0.05,0.1,0.15",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        data = np.loadtxt(out / "g_eps.csv", delimiter=",", skiprows=2)
        assert data[-1, 0] == pytest.approx(2.0 * RT2)
        assert np.all(data[-1, 2:] == 0.0)

    def test_eps_vs_n(self, workdir, curve_paths):
        out = workdir / "figs_n"
        rc = main(
            [
                "figures",
                "--which",
                "eps-vs-n",
                "--curve",
                str(curve_paths["json"]),
                "--n-min",
                "1e3",
                "--n-max",
                "1e5",
                "--n-points",
                "4",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        for name in ("eps_vs_n_fixed_eps.csv", "eps_vs_n_fixed_omega.csv"):
            data = np.loadtxt(out / name, delimiter=",", skiprows=2)
            assert np.all(np.diff(data[:, 0]) > 0)
            for j in range(1, data.shape[1]):
                assert np.all(np.diff(data[:, j]) <= 1e-12)

    @pytest.mark.parametrize(
        "which, ignored, read",
        [
            ("g-eps", ["--protocol", "3", "--n-min", "10", "--epsilon", "0.05"], ["--eps", "0,0.1"]),
            ("eps-vs-n", ["--eps", "0.3"], ["--n-points", "3"]),
            ("xi-vs-analytic", ["--eps", "0.3", "--bell", "chsh", "--n-points", "3"], None),
        ],
    )
    def test_manifest_hash_covers_read_flags_only(self, workdir, xi_curves, which, ignored, read):
        out = workdir / f"figs_hash_{which}"
        base = ["figures", "--which", which, "--out-dir", str(out)]
        if which == "xi-vs-analytic":
            # the read flag is the curve list: the last --curve wins
            base += ["--curve", ",".join(str(c) for c in xi_curves)]
            read = ["--curve", str(xi_curves[0])]
        if which == "eps-vs-n":
            base += ["--n-min", "1e3", "--n-max", "1e4", "--n-points", "2"]

        def identity(extra):
            assert main(base + extra) == 0
            return json.loads((out / f"{which}.manifest.json").read_text())["identity_hash"]

        plain = identity([])
        assert identity(ignored) == plain
        assert identity(read) != plain

    def test_eps_vs_n_rejects_sequential(self, workdir, curve_paths):
        rc = main(
            [
                "figures",
                "--which",
                "eps-vs-n",
                "--curve",
                str(curve_paths["json"]),
                "--protocol",
                "4",
                "--out-dir",
                str(workdir / "figs_bad"),
            ]
        )
        assert rc == 2

    @pytest.fixture(scope="class")
    def xi_curves(self, workdir, curve_02, curve_01):
        """The shared delta-0.2 and delta-0.1 sweeps as curve files."""
        paths = []
        for name, curve in (("xi_02.json", curve_02), ("xi_01.json", curve_01)):
            path = workdir / name
            path.write_text(curve.to_json())
            paths.append(path)
        return paths

    def _xi_figure(self, out, curves):
        argv = ["figures", "--which", "xi-vs-analytic", "--out-dir", str(out)]
        if curves:
            argv += ["--curve", ",".join(str(c) for c in curves)]
        return main(argv)

    def test_xi_vs_analytic(self, workdir, xi_curves):
        out = workdir / "figs_x"
        assert self._xi_figure(out, xi_curves) == 0
        path = out / "xi_vs_analytic.csv"
        header = path.read_text().splitlines()[1].split(",")
        assert header == ["omega", "xi_delta_0.2", "xi_delta_0.1", "bardyn", "kaniewski"]
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        # certified curves never exceed the exact bound, and the finer
        # grid dominates the coarser one
        assert np.all(data[:, 1] <= data[:, 3] + 1e-9)
        assert np.all(data[:, 2] <= data[:, 3] + 1e-9)
        assert np.all(data[:, 2] >= data[:, 1] - 1e-9)
        assert np.all(data[:, 4] <= data[:, 3] + 1e-12)

    def test_xi_vs_analytic_manifest_replays(self, workdir, xi_curves):
        out = workdir / "figs_xr"
        assert self._xi_figure(out, xi_curves) == 0
        manifest = json.loads((out / "xi-vs-analytic.manifest.json").read_text())
        for c in xi_curves:
            assert manifest["inputs"][str(c)] == hashlib.sha256(c.read_bytes()).hexdigest()
        path = out / "xi_vs_analytic.csv"
        before = path.read_bytes()
        path.unlink()
        assert main(["rerun", str(out / "xi-vs-analytic.manifest.json")]) == 0
        assert path.read_bytes() == before

    def test_bad_curve_list(self, workdir, xi_curves, capsys):
        non_chsh = workdir / "xi_tilted.json"
        non_chsh.write_text(xi_curves[0].read_text().replace('"chsh"', '"tilted"'))
        off_range = workdir / "xi_off_range.json"
        knots = [{"omega": 1.5, "value": 0.5}, {"omega": 2.5, "value": 0.6}]
        off_range.write_text(json.dumps({"functional": "chsh", "knots": knots}))
        cases = [
            [],
            [xi_curves[0], workdir / "xi_missing.json"],
            [non_chsh],
            [off_range, xi_curves[1]],
        ]
        capsys.readouterr()
        for curves in cases:
            assert self._xi_figure(workdir / "figs_e", curves) == 2, curves
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), curves
