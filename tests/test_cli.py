import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sativ
from sativ import effects, estimator
from sativ.cli import design_from_config, load_config, main, simconfig_from_config
from sativ.design import SaturationDesign
from sativ.dgp import ExperimentData, GroupData, SimConfig, simulate_experiment
from sativ.io import ingest_csv, write_data_csv, write_latent_csv
from sativ.model import linear_basis
from sativ.montecarlo import report_to_json, run_mc
from test_instrument_reference import WITH_ZERO, corner_sample


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "design": {"saturations": [0.0, 0.25, 0.5, 0.75, 1.0], "counts": [6, 6, 6, 6, 6]},
        "basis": "linear",
        "sim": {
            "G": 30,
            "n": 20,
            "means": [0.5, 0.2, -0.7, 0.8],
            "kappa": [0, 0, 1.2, 1.5],
            "sigma": [0.3, 0.3, 0.2, 0.4],
            "seed": 11,
        },
        "mc": {"reps": 3, "jobs": 1, "oracle_draws": 100000},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestRoundTrip:
    def test_simulate_ingest_identity(self, tmp_path):
        cfg = SimConfig(
            G=12, n=15,
            design=SaturationDesign.from_counts((0.0, 0.5, 1.0), (4, 4, 4)),
            means=(0.5, 0.2, -0.7, 0.8), sigma=(0.3, 0.3, 0.2, 0.4),
            kappa=(0.0, 0.0, 1.2, 1.5), seed=3,
        )
        data = simulate_experiment(cfg)
        path = tmp_path / "data.csv"
        write_data_csv(data, path)
        back = ingest_csv(path)
        assert back.n_groups == data.n_groups
        for a, b in zip(data.groups, back.groups):
            assert a.group_id == b.group_id
            assert a.saturation == b.saturation
            assert np.array_equal(a.z, b.z)
            assert np.array_equal(a.d, b.d)
            assert np.array_equal(a.y, b.y)  # bit-exact via repr round trip


def _reference_data_csv(data, path):
    """Row-at-a-time writer of the data schema: the byte reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("group_id,saturation,z,d,y\n")
        for g in data.groups:
            sat = repr(float(g.saturation))
            for i in range(g.n):
                fh.write(f"{g.group_id},{sat},{int(g.z[i])},{int(g.d[i])},{float(g.y[i])!r}\n")


def _reference_latent_csv(data, path):
    """Row-at-a-time writer of the latent schema: the byte reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("group_id,complier,alpha,beta,gamma,delta\n")
        for g in data.groups:
            for i in range(g.n):
                a, b, c, d = (float(v) for v in g.coefs[i])
                fh.write(f"{g.group_id},{int(g.complier[i])},{a!r},{b!r},{c!r},{d!r}\n")


class TestWriters:
    @pytest.mark.parametrize(
        "write, reference",
        [(write_data_csv, _reference_data_csv), (write_latent_csv, _reference_latent_csv)],
    )
    def test_bytes_match_row_reference(self, tmp_path, write, reference):
        cfg = SimConfig(
            G=25, n=13,
            design=SaturationDesign.from_counts((0.0, 0.25, 0.5, 0.75, 1.0), (5,) * 5),
            means=(0.5, 0.2, -0.7, 0.8), sigma=(0.3, 0.3, 0.2, 0.4),
            kappa=(0.0, 0.0, 1.2, 1.5), seed=17,
        )
        data = simulate_experiment(cfg)
        # a hand-made group with other dtypes: bool flags, float z/d, float32 y
        g = data.groups[0]
        g.complier = g.complier.astype(bool)
        g.z, g.d, g.y = g.z.astype(float), g.d.astype(float), g.y.astype(np.float32)
        write(data, tmp_path / "fast.csv")
        reference(data, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @staticmethod
    def edge_data() -> ExperimentData:
        """Mixed group sizes, every (z, d) cell, signed zero, the smallest
        subnormal, a float written in exponent form and group ids above 2**31."""
        special = [-0.0, 5e-324, 1e16, 0.1, -2.5e-300, 1.0]
        groups = []
        for gid, n, sat in ((0, 2, 0.0), (2**31 + 7, 7, 0.25), (5, 3, 1.0), (2**40, 11, 0.5)):
            z = (np.full(n, sat == 1.0) if sat in (0.0, 1.0) else np.arange(n) % 2).astype(np.int8)
            d = (z * (np.arange(n) % 3 == 1)).astype(np.int8)
            y = np.resize(special, n) * (1 if gid % 2 else -1)
            complier = (np.arange(n) % 2 == 0).astype(np.int8)
            coefs = np.resize(special[::-1], (n, 4))
            groups.append(GroupData(gid, sat, z, d, y, complier=complier, coefs=coefs))
        return ExperimentData(groups)

    @pytest.mark.parametrize(
        "write, reference",
        [(write_data_csv, _reference_data_csv), (write_latent_csv, _reference_latent_csv)],
    )
    def test_edge_values_match_row_reference(self, tmp_path, write, reference):
        data = self.edge_data()
        write(data, tmp_path / "fast.csv")
        reference(data, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        text = (tmp_path / "fast.csv").read_text()
        for token in ("-0.0", "5e-324", "1e+16", str(2**31 + 7), str(2**40)):
            assert token in text

    def test_edge_values_round_trip(self, tmp_path):
        data = self.edge_data()
        write_data_csv(data, tmp_path / "data.csv")
        back = ingest_csv(tmp_path / "data.csv")
        for a, b in zip(data.groups, back.groups):
            assert a.group_id == b.group_id
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(np.signbit(a.y), np.signbit(b.y))


class TestSubcommands:
    def test_simulate_estimate_flow(self, config_path, tmp_path, capsys):
        data_path = str(tmp_path / "data.csv")
        assert main(["simulate", "--config", config_path, "--out", data_path]) == 0
        out_path = str(tmp_path / "est.json")
        code = main([
            "estimate", "--config", config_path, "--data", data_path,
            "--target", "joint", "--out", out_path,
        ])
        assert code == 0
        payload = json.loads(open(out_path).read())
        assert payload["target"] == "joint"
        assert len(payload["coefficients"]) == 4
        assert len(payload["vcov"]) == 4
        diag = payload["diagnostics"]
        assert "n_pseudo_inverted" in diag
        assert diag["pure_control"] == "gmm"
        assert diag["n_instrument_keys"] > 0
        assert diag["n_chat_fallback"] >= 0

    def test_estimate_drop_policy(self, config_path, tmp_path):
        data_path = str(tmp_path / "data.csv")
        main(["simulate", "--config", config_path, "--out", data_path])
        out = str(tmp_path / "est.json")
        code = main([
            "estimate", "--config", config_path, "--data", data_path,
            "--target", "population", "--pure-control", "drop", "--out", out,
        ])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["G_used"] == 24  # the six pure-control groups are dropped

    def test_montecarlo_estimators_from_config(self, tmp_path):
        cfg = {
            "design": {"saturations": [0.25, 0.75], "counts": [10, 10]},
            "sim": {"G": 20, "n": 12, "means": [0.5, 0.2, -0.7, 0.8],
                    "sigma": [0.1, 0.1, 0.1, 0.1], "seed": 2,
                    "complier_shares": [0.25, 0.5]},
            "mc": {"reps": 2, "estimators": ["naive"], "oracle_draws": 100000},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = str(tmp_path / "mc.json")
        assert main(["montecarlo", "--config", str(path), "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert [r["name"] for r in payload["rows"]] == [
            "naive_alpha", "naive_beta", "naive_gamma", "naive_delta",
        ]

    def test_montecarlo_meta_sidecar(self, tmp_path):
        # tests/test_montecarlo.py's singular-replication study
        cfg = {
            "design": {"saturations": [0.25, 0.75], "probs": [0.5, 0.5]},
            "sim": {"G": 6, "n": 6, "means": [0.5, 0.2, -0.7, 0.8],
                    "sigma": [0.1, 0.1, 0.1, 0.1], "seed": 90,
                    "complier_shares": [1 / 3]},
            "mc": {"reps": 40, "estimators": ["rs_iv"], "oracle_draws": 100000},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        report = run_mc(simconfig_from_config(cfg), reps=40, estimators=("rs_iv",),
                        oracle_draws=10**5)
        assert report.singular
        texts = []
        for jobs in ("1", "2"):
            out = str(tmp_path / f"mc{jobs}.json")
            assert main(["montecarlo", "--config", str(path), "--out", out, "--jobs", jobs]) == 0
            texts.append(open(out).read())
            meta = json.loads(open(out + ".meta.json").read())
            assert set(meta) == {"runtime_seconds", "singular"}
            assert meta["runtime_seconds"] > 0.0
            # strict JSON: a non-finite condition number is written as null
            assert meta["singular"] == [
                {"rep": s.rep, "message": s.message,
                 "condition_number": s.condition_number if np.isfinite(s.condition_number) else None}
                for s in report.singular
            ]
        assert texts[0] == texts[1]
        assert texts[0] == report_to_json(report) + "\n"

    def test_latent_output(self, config_path, tmp_path):
        data_path = str(tmp_path / "data.csv")
        latent_path = str(tmp_path / "latent.csv")
        main(["simulate", "--config", config_path, "--out", data_path, "--latent", latent_path])
        header = open(latent_path).readline().strip()
        assert header == "group_id,complier,alpha,beta,gamma,delta"

    def test_effects_csv(self, config_path, tmp_path):
        data_path = str(tmp_path / "data.csv")
        main(["simulate", "--config", config_path, "--out", data_path])
        out = str(tmp_path / "curves.csv")
        assert main(["effects", "--config", config_path, "--data", data_path, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "kind,dbar,estimate,se,ci_low,ci_high"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert "DE_treated" in kinds
        assert "potential_outcome_line:treated_complier" in kinds

    @pytest.mark.parametrize("policy", ["drop", "gmm"])
    def test_effects_pure_control_config(self, config_path, tmp_path, policy):
        cfg = json.loads(open(config_path).read())
        cfg["estimation"] = {"pure_control": policy}
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        data_path = str(tmp_path / "data.csv")
        main(["simulate", "--config", config_path, "--out", data_path])
        out = str(tmp_path / "curves.csv")
        assert main(["effects", "--config", config_path, "--data", data_path, "--out", out]) == 0
        res = estimator.estimate_all(
            ingest_csv(data_path), linear_basis(), design_from_config(load_config(config_path)),
            pure_control=policy, include_naive=False,
        )
        curve = effects.effect_curve(
            res[estimator.TARGET_JOINT], effects.KIND_DE_TREATED,
            effects.default_grid(), basis=linear_basis(),
        )
        expect = [
            ",".join([curve.kind] + [repr(float(v)) for v in vals])
            for vals in zip(curve.grid, curve.point, curve.se, curve.ci_low, curve.ci_high)
        ]
        lines = open(out).read().splitlines()
        assert [ln for ln in lines if ln.startswith("DE_treated,")] == expect
        meta = json.loads(open(out + ".meta.json").read())
        assert set(meta["diagnostics"]) == set(res)
        for target, r in res.items():
            assert meta["diagnostics"][target] == {
                "pure_control": r.diagnostics.pure_control,
                "n_chat_fallback": r.diagnostics.n_chat_fallback,
                "n_instrument_keys": r.diagnostics.n_instrument_keys,
                "n_pseudo_inverted": r.diagnostics.n_pseudo_inverted,
                "n_groups_identifying": r.diagnostics.n_groups_identifying,
            }
        assert meta["diagnostics"]["joint"]["pure_control"] == policy

    def test_montecarlo_flags_override_config(self, config_path, tmp_path):
        out = str(tmp_path / "mc.json")
        assert main(["montecarlo", "--config", config_path, "--out", out,
                     "--reps", "2", "--jobs", "1"]) == 0
        assert json.loads(open(out).read())["reps"] == 2

    def test_effects_smallest_grid_and_delta(self, config_path, tmp_path):
        data_path = str(tmp_path / "data.csv")
        main(["simulate", "--config", config_path, "--out", data_path])
        out = str(tmp_path / "curves.csv")
        assert main(["effects", "--config", config_path, "--data", data_path, "--out", out,
                     "--grid-points", "2", "--delta", "0.5"]) == 0
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        # DE and the two potential-outcome lines at dbar 0 and 1, the four
        # indirect effects at dbar 0 only (0 + 0.5 <= 1 < 1 + 0.5)
        assert len(rows) == 3 * 2 + 4 * 1
        assert {r[0] for r in rows} >= {"IE0_population", "IE0_treated", "IE1_treated",
                                        "IE0_never_taker"}

    def test_montecarlo_report(self, config_path, tmp_path):
        out = str(tmp_path / "mc.json")
        assert main(["montecarlo", "--config", config_path, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert len(payload["rows"]) == 12
        assert payload["reps"] == 3
        assert payload["config"]["G"] == 30

    def test_ior_test_output(self, config_path, tmp_path):
        data_path = str(tmp_path / "data.csv")
        main(["simulate", "--config", config_path, "--out", data_path])
        out = str(tmp_path / "ior.json")
        assert main(["ior-test", "--data", data_path, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["df"] == len(payload["bins"]) - 1

    def test_validate_design_output(self, config_path, tmp_path):
        out = str(tmp_path / "design.json")
        assert main(["validate-design", "--config", config_path, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["interior_count"] == 3
        assert payload["singular"] is False


class TestErrorPaths:
    def test_bad_data_row_named(self, config_path, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "group_id,saturation,z,d,y\n0,0.5,1,0,0.1\n0,0.5,0,1,0.2\n1,0.5,1,1,0.1\n1,0.5,0,0,0.0\n",
            encoding="utf-8",
        )
        code = main([
            "estimate", "--config", config_path, "--data", str(bad), "--target", "joint",
        ])
        assert code == 1
        assert "row 3" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"design": {"saturations": [0.5], "probs": [1.0], "extra": 1}}))
        code = main(["validate-design", "--config", str(path)])
        assert code == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, repeat, key",
        [('"G": 235,', '"G": 10,', "G"), ('"basis": "linear",', '"basis": "quadratic",', "basis"),
         ('"jobs": 4', '"jobs": 1,', "jobs")],
        ids=["sim", "top-level", "mc"],
    )
    def test_repeated_config_key_refused(self, tmp_path, capsys, line, repeat, key):
        # json.load keeps a repeated key's last value and drops the first
        text = (Path(__file__).parents[1] / "configs" / "sec6.json").read_text(encoding="utf-8")
        assert text.count(line) == 1
        path = tmp_path / "cfg.json"
        path.write_text(text.replace(line, f"{repeat}\n{line}"), encoding="utf-8")
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config repeats the key {key!r}\n"
        assert not out.exists()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, config_path, capsys):
        assert main(["validate-design", "--config", config_path, "--bogus"]) == 1

    def test_zero_weight_saturation_exit_code(self, config_path, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["simulate", "--config", config_path, "--out", str(data)]) == 0
        cfg = json.loads(open(config_path).read())
        cfg["design"]["counts"] = [0, 6, 6, 6, 6]  # the simulated data has pure-control groups
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(cfg), encoding="utf-8")
        capsys.readouterr()
        assert main(["estimate", "--config", str(zero), "--data", str(data), "--target", "joint"]) == 1
        assert "saturation 0.0 has weight 0 in the design" in capsys.readouterr().err

    def test_singular_system_exit_code(self, config_path, tmp_path):
        # no taker anywhere: the complier-psi system is exactly singular
        rows = ["group_id,saturation,z,d,y"]
        for gid in range(4):
            for _ in range(5):
                rows.append(f"{gid},0.25,1,0,0.1")
                rows.append(f"{gid},0.25,0,0,0.2")
        data = tmp_path / "singular.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "estimate", "--config", config_path, "--data", str(data),
            "--target", "complier-psi",
        ])
        assert code == 2

    @pytest.mark.parametrize("take_up", [0, 1])
    def test_ior_test_degenerate_take_up_exit_code(self, tmp_path, capsys, take_up):
        # take-up among the offered is 0 (or 1) everywhere: the dummies'
        # covariance is singular
        rows = ["group_id,saturation,z,d,y"]
        for gid in range(12):
            s = (0.25, 0.5, 0.75)[gid % 3]
            for i in range(8):
                z = int(i < 8 * s)
                rows.append(f"{gid},{s},{z},{take_up * z},{0.1 * i}")
        data = tmp_path / "degenerate.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["ior-test", "--data", str(data)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.parametrize("command", ["estimate", "effects", "ior-test"])
    def test_field_over_csv_limit_named(self, config_path, tmp_path, capsys, command):
        bad = tmp_path / "long.csv"
        bad.write_text(
            "group_id,saturation,z,d,y\n0,0.5,1,0,0.1\n0,0.5,0,0," + "1" * 200_000 + "\n",
            encoding="utf-8",
        )
        argv = {
            "estimate": ["estimate", "--config", config_path, "--target", "joint"],
            "effects": ["effects", "--config", config_path, "--out", str(tmp_path / "c.csv")],
            "ior-test": ["ior-test"],
        }[command]
        assert main([*argv, "--data", str(bad)]) == 1
        assert capsys.readouterr().err == "error: row 3: field larger than field limit (131072)\n"

    def test_montecarlo_rejects_non_linear_basis(self, config_path, capsys):
        cfg = json.loads(open(config_path).read())
        cfg["basis"] = "quadratic"
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["montecarlo", "--config", config_path]) == 1
        assert "linear basis" in capsys.readouterr().err

    def test_estimation_targets_key_rejected(self, config_path, tmp_path, capsys):
        cfg = json.loads(open(config_path).read())
        cfg["estimation"] = {"targets": ["joint"]}
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        data_path = str(tmp_path / "data.csv")
        assert main(["simulate", "--config", config_path, "--out", data_path]) == 0
        code = main([
            "estimate", "--config", config_path, "--data", data_path, "--target", "joint",
        ])
        assert code == 1
        assert "unknown keys in estimation: targets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--reps", "0"], ["--reps", "-2"], ["--jobs", "0"], ["--jobs", "-3"]]
    )
    def test_montecarlo_rejects_flag_below_one(self, config_path, tmp_path, capsys, flags):
        out = tmp_path / "mc.json"
        assert main(["montecarlo", "--config", config_path, "--out", str(out), *flags]) == 1
        assert f"{flags[0]} must be an integer of at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("reps", 0), ("reps", -1), ("reps", 2.5), ("jobs", 0), ("jobs", -3),
                       ("jobs", True), ("jobs", "2"), ("oracle_draws", 150000.9),
                       ("oracle_draws", "1e6")]
    )
    def test_montecarlo_rejects_config_count(self, config_path, tmp_path, capsys, key, value):
        cfg = json.loads(open(config_path).read())
        cfg["mc"][key] = value
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "mc.json"
        assert main(["montecarlo", "--config", config_path, "--out", str(out)]) == 1
        assert f"mc.{key} must be an integer of at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_montecarlo_rejects_empty_estimators(self, config_path, tmp_path, capsys):
        cfg = json.loads(open(config_path).read())
        cfg["mc"]["estimators"] = []
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "mc.json"
        assert main(["montecarlo", "--config", config_path, "--reps", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: need at least one estimator: 'rs_iv' or 'naive'\n"
        assert not out.exists()

    def test_montecarlo_needs_a_replication_count(self, config_path, capsys):
        cfg = json.loads(open(config_path).read())
        del cfg["mc"]["reps"]
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["montecarlo", "--config", config_path]) == 1
        assert "replication count required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("G", 235.7), ("G", True), ("G", 1), ("n", 20.5), ("n", "20")]
    )
    def test_sim_size_must_be_integer(self, config_path, tmp_path, capsys, key, value):
        cfg = json.loads(open(config_path).read())
        cfg["sim"][key] = value
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: sim.{key} must be an integer of at least 2, got {value!r}" in err
        assert not out.exists()

    def test_integral_float_counts_accepted(self, config_path, tmp_path):
        # JSON writes 1e5 and 30.0 as floats; they read as the integers
        runs = []
        for as_float in (False, True):
            cfg = json.loads(open(config_path).read())
            if as_float:
                cfg["sim"]["G"] = float(cfg["sim"]["G"])
                cfg["mc"]["oracle_draws"] = 1e5
            path = tmp_path / f"cfg-{as_float}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            data, report = tmp_path / f"data-{as_float}.csv", tmp_path / f"mc-{as_float}.json"
            assert main(["simulate", "--config", str(path), "--out", str(data)]) == 0
            assert main(["montecarlo", "--config", str(path), "--out", str(report)]) == 0
            runs.append((data.read_bytes(), report.read_text()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "block, key, value, message",
        [
            ("sim", "means", 5, "sim.means must be a list of finite numbers, got 5"),
            ("sim", "means", [0.5, 0.2, float("inf"), 0.8],
             "sim.means must be a list of finite numbers, got [0.5, 0.2, inf, 0.8]"),
            ("design", "saturations", 5,
             "design.saturations must be a list of finite numbers, got 5"),
            ("design", "saturations", [], "design needs at least one saturation"),
            ("design", "counts", [6.5, 6, 6, 6, 6],
             "design count must be an integer of at least 0, got 6.5"),
            ("design", "counts", [True, 6, 6, 6, 6],
             "design.counts must be a list of finite numbers, got [True, 6, 6, 6, 6]"),
            ("design", "counts", "6", "design.counts must be a list of finite numbers, got '6'"),
            ("sim", "kappa", [0, 0, "a", 0],
             "sim.kappa must be a list of finite numbers, got [0, 0, 'a', 0]"),
            ("sim", "sigma", [0.3, True, 0.2, 0.4],
             "sim.sigma must be a list of finite numbers, got [0.3, True, 0.2, 0.4]"),
            ("sim", "complier_shares", [0.1, float("nan")],
             "sim.complier_shares must be a list of finite numbers, got [0.1, nan]"),
            ("sim", "share_probs", "0.5",
             "sim.share_probs must be a list of finite numbers, got '0.5'"),
            ("sim", "seed", "x", "sim.seed must be an integer of at least 0, got 'x'"),
            ("sim", "seed", -1, "sim.seed must be an integer of at least 0, got -1"),
            ("sim", "seed", 1.5, "sim.seed must be an integer of at least 0, got 1.5"),
            ("sim", "seed", [1, "a"], "sim.seed entry must be an integer of at least 0, got 'a'"),
        ],
        ids=["means-int", "means-inf", "saturations-int", "saturations-empty",
             "counts-fraction", "counts-bool", "counts-str", "kappa-str", "sigma-bool",
             "shares-nan", "share-probs-str", "seed-str", "seed-negative", "seed-fraction",
             "seed-list-str"],
    )
    def test_config_value_refused(self, config_path, tmp_path, capsys, block, key, value,
                                  message):
        cfg = json.loads(Path(config_path).read_text())
        cfg[block][key] = value
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_design_probs_refused(self, config_path, tmp_path, capsys):
        cfg = json.loads(Path(config_path).read_text())
        del cfg["design"]["counts"]
        cfg["design"]["probs"] = [0.2, 0.2, "0.2", 0.2, 0.2]
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["validate-design", "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert "error: design.probs must be a list of finite numbers, got [0.2, 0.2, '0.2'" in err

    def test_list_seed_accepted(self, config_path, tmp_path):
        # a seed may be a list of integers, numpy's SeedSequence entropy
        cfg = json.loads(Path(config_path).read_text())
        outputs = []
        for seed in ([11, 3], [11, 3.0]):
            cfg["sim"]["seed"] = seed
            with open(config_path, "w") as fh:
                json.dump(cfg, fh)
            out = tmp_path / "data.csv"
            assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cfg: [cfg], "config must be a JSON object"),
            (lambda cfg: {**cfg, "sim": [1, 2]}, "sim must be a JSON object"),
            (lambda cfg: {**cfg, "design": 5}, "design must be a JSON object"),
            (lambda cfg: {**cfg, "basis": ["linear"]}, "basis must be a string, got ['linear']"),
            (lambda cfg: {**cfg, "estimation": "gmm"}, "estimation must be a JSON object"),
            (lambda cfg: {**cfg, "mc": {**cfg["mc"], "estimators": "naive"}},
             "mc.estimators must be a list, got 'naive'"),
        ],
        ids=["config-list", "sim-list", "design-int", "basis-list", "estimation-str",
             "estimators-str"],
    )
    def test_malformed_config_type(self, config_path, tmp_path, capsys, edit, message):
        cfg = edit(json.loads(open(config_path).read()))
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "mc.json"
        assert main(["montecarlo", "--config", config_path, "--out", str(out)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["estimate", "--target", "joint"],
                    ["estimate", "--target", "joint", "--pure-control", "drop"],
                    ["effects"], ["montecarlo"]],
        ids=["estimate", "estimate-flag", "effects", "montecarlo"],
    )
    def test_pure_control_checked_for_every_command(self, config_path, tmp_path, capsys,
                                                    command):
        cfg = json.loads(open(config_path).read())
        data_path = str(tmp_path / "data.csv")
        assert main(["simulate", "--config", config_path, "--out", data_path]) == 0
        cfg["estimation"] = {"pure_control": "bogus"}
        cfg["mc"]["estimators"] = ["naive"]  # so no estimator would read the policy
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "out"
        args = [command[0], "--config", config_path, "--out", str(out), *command[1:]]
        if command[0] != "montecarlo":
            args += ["--data", data_path]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "estimation.pure_control must be 'gmm' or 'drop', got 'bogus'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid-points", "0"],
            ["--grid-points", "1"],
            ["--grid-points", "-4"],
            ["--delta", "0"],
            ["--delta", "-0.1"],
            ["--delta", "1"],
            ["--delta", "1.5"],
            ["--delta", "nan"],
            ["--delta", "inf"],
        ],
    )
    def test_effects_rejects_bad_grid_or_delta(self, config_path, tmp_path, capsys, flags):
        # the flags are checked before the data file is read
        out = tmp_path / "curves.csv"
        code = main(["effects", "--config", config_path, "--data", str(tmp_path / "absent.csv"),
                     "--out", str(out), *flags])
        assert code == 1
        assert f"{flags[0]} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        assert main(["validate-design", "--config", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize(
        "case", ["missing data", "data directory", "config directory", "non-UTF-8 data",
                 "missing output directory"],
    )
    def test_file_error_exits_1(self, config_path, tmp_path, capsys, case):
        # a file that cannot be opened, read, decoded or written ends in an
        # error line and exit 1, not a traceback
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"group_id,saturation,z,d,y\n0,0.5,1,0,0.1\xff\n")
        estimate = ["estimate", "--config", config_path, "--target", "joint", "--data"]
        argv = {
            "missing data": [*estimate, str(tmp_path / "missing.csv")],
            "data directory": ["ior-test", "--data", str(tmp_path)],
            "config directory": ["validate-design", "--config", str(tmp_path)],
            "non-UTF-8 data": [*estimate, str(bad)],
            "missing output directory": [
                "simulate", "--config", config_path, "--out", str(tmp_path / "absent" / "d.csv"),
            ],
        }[case]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_data_row_named(self, config_path, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"group_id,saturation,z,d,y\n0,0.5,1,0,0.1\n0,0.5,0,0,0.1\xff\n")
        assert main(["ior-test", "--data", str(bad)]) == 1
        assert capsys.readouterr().err == "error: row 3: not UTF-8 text\n"

    def test_non_utf8_config_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"design": {"saturations": [0.5\xff]}}')
        assert main(["validate-design", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config {path} is not UTF-8 text\n"


# every import of scipy, or of a scipy submodule, fails once sys.modules["scipy"] is None
_NO_SCIPY = """\
import json, sys
sys.modules["scipy"] = None
from sativ.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


class TestWithoutScipy:
    def test_every_command_runs_without_scipy(self, config_path, tmp_path):
        data = str(tmp_path / "data.csv")
        cfg = ["--config", config_path]
        commands = [
            ["simulate", *cfg, "--out", data],
            ["estimate", *cfg, "--data", data, "--target", "joint"],
            ["effects", *cfg, "--data", data, "--out", str(tmp_path / "curves.csv")],
            ["ior-test", "--data", data],
            ["validate-design", *cfg],
            ["montecarlo", *cfg, "--jobs", "1", "--out", str(tmp_path / "mc.json")],
        ]
        src = str(Path(sativ.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY, json.dumps(commands)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == [0] * len(commands)


class TestIdentifyingGroups:
    def test_note_when_instruments_span_too_few_groups(self, tmp_path, capsys):
        # a corner sample whose offered never-takers sit in two groups: the
        # two-coefficient never-taker fit leaves every group score at zero
        data_path = tmp_path / "data.csv"
        write_data_csv(corner_sample(24, 10, 0, WITH_ZERO), data_path)
        cfg = {"design": {"saturations": list(WITH_ZERO.saturations),
                          "probs": list(WITH_ZERO.weights)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        base = ["--config", str(cfg_path), "--data", str(data_path)]
        out = tmp_path / "est.json"
        assert main(["estimate", *base, "--target", "never-taker", "--pure-control", "drop",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["diagnostics"]["n_groups_identifying"] == 2
        assert "note: never_taker: the instruments are nonzero in 2 groups" in capsys.readouterr().err
        assert main(["estimate", *base, "--target", "joint", "--pure-control", "drop"]) == 0
        assert "note:" not in capsys.readouterr().err
