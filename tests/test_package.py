import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sativ


def test_public_api():
    # a stale entry fails here: every exported name must resolve on the package
    assert sorted(sativ.__all__) == [
        "BasisSpec",
        "DesignDiagnostics",
        "EffectCurve",
        "EstimateResult",
        "ExperimentData",
        "GroupData",
        "IORTestResult",
        "MCReport",
        "MCRow",
        "MeanCoefficients",
        "MomentMatrices",
        "SaturationDesign",
        "SimConfig",
        "SingularReplication",
        "SingularSystemError",
        "UnidentifiedEffectError",
        "ValidationError",
        "basis_by_name",
        "block_inverse",
        "effect_curve",
        "estimate_all",
        "estimate_chat",
        "ingest_csv",
        "ior_test",
        "linear_basis",
        "naive_iv",
        "oracle_subpopulation_means",
        "pseudo_inverse",
        "q_exact",
        "q_extended",
        "q_linear_closed_form",
        "quadratic_basis",
        "rsiv_estimate",
        "rsiv_pure_control",
        "run_mc",
        "sample_saturations",
        "simulate_experiment",
        "validate_design",
    ]
    for name in sativ.__all__:
        assert getattr(sativ, name) is not None, name


def test_traced_names_are_the_io_functions():
    # perfbench wraps the functions under these names; each must be the one in sativ.io
    from sativ import cli, estimator, io

    assert estimator.ingest_csv is io.ingest_csv
    assert sativ.ingest_csv is io.ingest_csv
    assert cli.write_data_csv is io.write_data_csv


def test_names_resolve_to_their_home_objects():
    # each name is looked up in the module that defines it, on first access
    for name in sativ.__all__:
        obj = getattr(sativ, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_dir_lists_every_exported_name():
    assert set(sativ.__all__) <= set(dir(sativ))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sativ, "no_such_name")


def test_star_import():
    namespace = {}
    exec("from sativ import *", namespace)
    for name in sativ.__all__:
        assert namespace[name] is getattr(sativ, name), name


# Runs one case in a fresh interpreter and prints the modules it loaded, and
# for ``run_mc`` those loaded while a serial study ran.
_LOADED = """\
import json, runpy, sys
kind, argv = json.loads(sys.argv[1])
start = set(sys.modules)
during = set()
if kind == "import":
    import sativ
elif kind == "cli":
    sys.argv = ["sativ", *argv]
    try:
        runpy.run_module("sativ.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise
else:
    from sativ import cli, montecarlo
    cfg = cli.simconfig_from_config(cli.load_config(argv[0]))
    before = set(sys.modules)
    montecarlo.run_mc(cfg, 2, jobs=1, oracle_draws=10**5)
    during = set(sys.modules) - before
print(json.dumps([sorted(set(sys.modules) - start), sorted(during)]))
"""

_SUBMODULES = tuple(
    f"sativ.{p.stem}" for p in Path(sativ.__file__).parent.glob("*.py") if p.stem != "__init__"
)
# what reading a data CSV and fitting it must not load
_NOT_FOR_READERS = (
    "sativ.dgp", "sativ.streams", "sativ.montecarlo",
    "numpy.random", "numpy.ma", "concurrent.futures",
)
_IMPORT_CASES = {
    "import sativ": ("import", [], _SUBMODULES),
    "estimate": (
        "cli", ["estimate", "--config", "{config}", "--data", "{data}", "--target", "joint",
                "--out", "{out}"],
        _NOT_FOR_READERS,
    ),
    "effects": (
        "cli", ["effects", "--config", "{config}", "--data", "{data}", "--out", "{out}"],
        _NOT_FOR_READERS,
    ),
    "ior-test": ("cli", ["ior-test", "--data", "{data}", "--out", "{out}"], _NOT_FOR_READERS),
    "validate-design": (
        "cli", ["validate-design", "--config", "{config}", "--out", "{out}"], _NOT_FOR_READERS,
    ),
    "simulate": (
        "cli", ["simulate", "--config", "{config}", "--out", "{out}"],
        ("sativ.estimator", "numpy.ma"),
    ),
    "montecarlo": (
        "cli", ["montecarlo", "--config", "{config}", "--jobs", "1", "--out", "{out}"],
        ("numpy.ma", "concurrent.futures"),
    ),
    "run_mc serial": ("run_mc", ["{config}"], ("numpy.ma", "concurrent.futures")),
}


@pytest.fixture(scope="module")
def import_inputs(tmp_path_factory):
    from sativ.cli import main

    root = tmp_path_factory.mktemp("imports")
    cfg = {
        "design": {"saturations": [0.0, 0.25, 0.5, 0.75, 1.0], "counts": [6, 6, 6, 6, 6]},
        "sim": {"G": 30, "n": 20, "means": [0.5, 0.2, -0.7, 0.8], "seed": 11},
        "mc": {"reps": 2, "oracle_draws": 100000},
    }
    (root / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(root / "cfg.json"), "--out", str(root / "data.csv")]) == 0
    return root


@pytest.mark.parametrize("case", _IMPORT_CASES)
def test_each_command_loads_only_what_it_runs(case, import_inputs):
    kind, argv, forbidden = _IMPORT_CASES[case]
    paths = {"config": import_inputs / "cfg.json", "data": import_inputs / "data.csv",
             "out": import_inputs / f"{case}.out"}
    argv = [a.format(**paths) for a in argv]
    src = str(Path(sativ.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _LOADED, json.dumps([kind, argv])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    loaded, during = json.loads(out.stdout.splitlines()[-1])
    assert "sativ" in loaded
    assert not [m for m in loaded if any(m == f or m.startswith(f + ".") for f in forbidden)]
    assert during == []  # a serial study imports nothing once its module is in
