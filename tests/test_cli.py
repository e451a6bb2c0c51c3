"""Command line entry point: flags, config files, exit codes, outputs."""

import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bqcf
from bqcf import experiments, ops1d
from bqcf.blend import _blend_2d_sharp, build_blend_1d
from bqcf.cli import _assemble_config, _build_parser, main
from bqcf.config import ConfigError
from bqcf.experiments import unstable_toy_model
from bqcf.lattice1d import Chain1D
from bqcf.lattice2d import TriLattice2D
from bqcf.ops1d import Op1D
from bqcf.ops2d import assemble_ltilde
from bqcf.potentials import PairModel1D
from bqcf.spectral import assemble, coercivity, gram_D

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_verify_suite_prints_residual(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(["verify", "--draws", "5", "--n1d", "8", "--n2d", "4",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "max residual" in captured
    assert "overall: PASS" in captured
    for name in ("rows.csv", "fit.json", "summary.txt", "plot.gp"):
        assert (out / name).exists()


def test_verify_rows_hold_the_maximum_of_their_own_size(tmp_path):
    def residuals(n1d):
        out = tmp_path / n1d.replace(",", "_")
        assert main(["verify", "--suite", "identities-1d", "--n1d", n1d,
                     "--out", str(out)]) == 0
        lines = (out / "rows.csv").read_text().splitlines()[1:]
        fit = json.loads((out / "fit.json").read_text())
        return {int(ln.split(",")[1]): ln.split(",")[3] for ln in lines}, fit

    both, fit = residuals("8,64")
    alone, _ = residuals("64")
    assert both[64] == alone[64]
    # N = 8 has the larger residual here, so a running maximum would show
    assert float(both[8]) > float(both[64])
    assert fit["max_residual"] == max(float(v) for v in both.values())


def test_verify_rows_follow_the_configured_sizes(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--draws", "2", "--n1d", "8,16", "--n2d", "4",
                 "--out", str(out)]) == 0
    lines = (out / "rows.csv").read_text().splitlines()[1:]
    assert [tuple(ln.split(",")[:2]) for ln in lines] == [
        ("identities-1d", "8"), ("identities-1d", "16"), ("identities-2d", "4")]


@pytest.mark.parametrize("argv, column", [
    (["verify", "--draws", "2", "--n1d", "8", "--n2d", "4"], "max_residual"),
    (["sharp1d", "--n", "64", "--k", "6"], "rayleigh"),
    (["poincare", "--n", "8"], "normalized"),
    (["trace", "--r0", "1e-2", "--npoly", "1"], "ratio"),
    (["stability", "--n", "16"], "gamma")])
def test_plot_draws_the_result_column(tmp_path, argv, column):
    out = tmp_path / argv[0]
    assert main(argv + ["--out", str(out)]) == 0
    header = (out / "rows.csv").read_text().splitlines()[0].split(",")
    # gnuplot is not needed: the script names the column by its index
    plot = (out / "plot.gp").read_text()
    assert f"using 0:{header.index(column) + 1} " in plot


def test_sweep1d_writes_fit(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep1d", "--eps", "1/16,1/32", "--kmax", "16",
                 "--out", str(out)])
    assert code == 0
    fit = (out / "fit.json").read_text()
    assert '"slope"' in fit and '"pairs"' in fit
    header = (out / "rows.csv").read_text().splitlines()[0]
    assert header.startswith("eps,K")
    # rows.csv holds the pencil solves at K*-1 and K*; fit.json the scan
    data = json.loads(fit)
    assert len((out / "rows.csv").read_text().splitlines()) == 1 + 2 * len(data["pairs"])
    assert [p["K"] for p in data["scan"] if p["eps"] == 1 / 16] == list(range(6, 16))
    assert set(data["scan"][0]) == {"eps", "K", "negative", "min_pivot", "fallback"}


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("experiment = verify\ndraws = 2\nn1d = 8\nn2d = 4\n")
    out = tmp_path / "o"
    code = main(["verify", "--config", str(cfg), "--draws", "3",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "rows.csv").read_text()
    assert "identities-1d,8,3," in rows


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("phiF 1.0\n")
    code = main(["sweep1d", "--config", str(cfg)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_unstable_1d_model_exits_2(tmp_path, capsys):
    # c0 < 0: the homogeneous chain is unstable before any blending
    code = main(["sweep1d", "--phi2F", "-0.3", "--eps", "1/128",
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "config error: model is not stable" in capsys.readouterr().err


def test_indefinite_auxiliary_operator_exits_2(tmp_path, capsys):
    # eta far past the long-wave stability edge kappa0/2
    code = main(["sweep2d", "--kappa0", "1.0", "--eta", "3.0", "--n", "12",
                 "--ra", "2", "--kmax", "8", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "config error: auxiliary operator not positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sharp1d", "--k", "3", "--n", "64"], "blending window too narrow"),
    (["poincare", "--rb-frac", "0.9", "--n", "8"], "Rb = 7 exceeds N/2 = 4"),
    (["trace", "--r0", "2"], "need 0 < r0 < r1 <= 1"),
    (["sweep1d", "--phiF", "-1", "--eps", "1/16"],
     "nearest-neighbor stiffness phi''(F) must be positive"),
    (["poincare", "--n", "8", "--ra-frac", "0.1", "--rb-frac", "0.15"],
     "the blending annulus is empty at N = 8: Ra = 1, Rb = 1")])
def test_value_out_of_the_library_range_exits_2(tmp_path, capsys, argv, message):
    # the library raises ModelRangeError, which run() reports as a config error
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["stability", "--space", "1d", "--ra", "5", "--n", "16"],
    ["verify", "--suite", "identities-1d", "--n2d", "4", "--n1d", "8", "--draws", "2"]])
def test_key_unread_under_the_other_values_exits_2(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert "does not read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["stability", "--method", "magic"],
                                  ["stability", "--kind", "foo"],
                                  ["stability", "--space", "2d", "--kind", "qcl"],
                                  ["sweep1d", "--profile", "foo"],
                                  ["sharp1d", "--profile", "foo"]])
def test_unknown_enumerated_value_exits_2(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    key, value = argv[-2][2:], argv[-1]
    assert f"config error: unknown {key} {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep1d", "--kmax", "foo"],
    ["sweep1d", "--tol", "abc"],
    ["stability", "--n", "8,16"],
    ["sweep2d", "--case", "4"],
    ["trace", "--psi", "foo"],
    ["sweep2d", "--case", "2", "--alpha", "x"],
    ["stability", "--seed", "abc"],
    ["sweep1d", "--eps", "1/16", "--kmax", "8", "--seed", "1.5"],
    ["sharp1d", "--n", "64", "--k", "6.5"],
    ["sweep1d", "--eps", "0.3"],
    ["sweep2d", "--case", "2", "--n", "8", "--kmax", "4", "--ra", "5"]])
def test_malformed_value_exits_2(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_auto_method_is_gone(tmp_path, capsys):
    # no size rule picks a path: a value solve is iterative unless asked for dense
    assert main(["stability", "--method", "auto", "--out", str(tmp_path / "o")]) == 2
    assert "config error: unknown method 'auto'" in capsys.readouterr().err


def test_stability_writes_its_solver_diagnostics(tmp_path):
    def row(*argv):
        out = tmp_path / "_".join(argv)
        assert main(["stability", "--n", "16", *argv, "--out", str(out)]) == 0
        with open(out / "rows.csv", newline="", encoding="utf-8") as fh:
            (only,) = csv.DictReader(fh)
        return only

    iterative = row()
    assert iterative["method"] == "iterative" and int(iterative["dim"]) == 32
    assert int(iterative["factorizations"]) >= 1 and int(iterative["nnz"]) > 0
    assert float(iterative["shift"]) < float(iterative["gamma"])
    dense = row("--method", "dense")
    assert (dense["factorizations"], dense["shift"], dense["nnz"]) == ("0", "nan", "0")


def test_help_shows_each_default_and_choices(capsys):
    def help_text(name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    text = help_text("stability")
    assert "--space SPACE one of 1d, 2d; default 1d" in text
    assert "--method METHOD one of iterative, dense; default iterative" in text
    assert "--phi2F PHI2F float; default -0.24" in text
    assert "--n N int; the default depends on the other keys" in text
    assert "--kappa0 KAPPA0 float; default 1.0; read only with space 2d" in text
    text = help_text("sweep1d")
    assert "--eps EPS float list; default 0.0078125,0.00390625," in text
    assert "--seed SEED int; default 7" in text


@pytest.mark.parametrize("space, kinds, n", [("1d", ops1d._KINDS, "16"),
                                             ("2d", experiments._KINDS_2D, "6")])
def test_stability_runs_every_kind(tmp_path, space, kinds, n):
    # a blended kind gets its blend, an unblended one none; the 2D kinds are
    # the stability experiment's own, the auxiliary form ltilde among them
    assert set(kinds) <= set(experiments.EXPERIMENTS["stability"]["kind"])
    for kind in kinds:
        assert main(["stability", "--space", space, "--kind", kind, "--n", n,
                     "--out", str(tmp_path / kind)]) == 0


def test_stability_solves_ltilde_through_its_form(tmp_path):
    out = tmp_path / "ltilde"
    assert main(["stability", "--space", "2d", "--kind", "ltilde", "--out", str(out)]) == 0
    gamma = json.loads((out / "fit.json").read_text())["gamma"]
    # the defaults: N = 8, Ra = K = N // 4, the toy model at kappa0 1, eta 0.3
    lat = TriLattice2D(8)
    form = assemble_ltilde(lat, unstable_toy_model(1.0, 0.3), _blend_2d_sharp(lat, 2, 4))
    assert gamma == coercivity(form, gram_D(lat)).gamma


def test_readme_cli_examples_resolve():
    # every bqcf line of README's command line block parses and resolves to
    # a checked config, so that a renamed key cannot leave the docs stale
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    examples = [line.split("#", 1)[0].split() for line in block.splitlines()
                if line.startswith("bqcf ")]
    assert examples
    parser = _build_parser()
    for argv in examples:
        cfg = _assemble_config(parser.parse_args(argv[1:]))
        experiments._resolve(cfg["experiment"], cfg)


def test_readme_library_example_runs():
    # README's single python block runs as written, with src on the path
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(bqcf.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", blocks[0].split("```", 1)[0]],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr


def test_out_is_a_path_not_a_config_value(tmp_path, monkeypatch):
    # "2024" would read as an int through the config value grammar
    monkeypatch.chdir(tmp_path)
    assert main(["poincare", "--n", "8", "--out", "2024"]) == 0
    assert (tmp_path / "2024" / "summary.txt").exists()
    with pytest.raises(ConfigError, match="out 7 is not a path"):
        experiments.run({"experiment": "poincare", "n": [8], "out": 7})


def test_stability_profile_flag(tmp_path):
    out = tmp_path / "stab"
    assert main(["stability", "--profile", "cosine", "--n", "16", "--k", "8",
                 "--out", str(out)]) == 0
    gamma = json.loads((out / "fit.json").read_text())["gamma"]
    chain = Chain1D(16)
    for profile, same in (("cosine", True), ("poly7", False)):
        op = Op1D(kind="bqcf", chain=chain, model=PairModel1D(1.0, -0.24),
                  blend=build_blend_1d(chain, 8, profile=profile))
        assert (coercivity(assemble(op), gram_D(chain)).gamma == gamma) is same


def test_bad_flag_raises_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sweep1d", "--no-such-flag", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep1d", "--threads", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2


def test_console_script_smoke(tmp_path):
    # the installed launcher if there is one, else python -m bqcf; either
    # way the child imports bqcf from where this process did
    exe = shutil.which("bqcf")
    cmd = [exe] if exe else [sys.executable, "-m", "bqcf"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(bqcf.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    out = tmp_path / "trace"
    proc = subprocess.run(
        cmd + ["trace", "--r0", "1e-2", "--npoly", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
    assert (out / "summary.txt").exists()

    # the exit code of main() reaches the caller, not a blanket 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("phiF 1.0\n")
    proc = subprocess.run(
        cmd + ["sweep1d", "--config", str(cfg)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["bqcf"] == "bqcf.cli:main"
    module, attr = scripts["bqcf"].split(":")
    assert getattr(importlib.import_module(module), attr) is main
