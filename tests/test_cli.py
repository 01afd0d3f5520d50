import json

import numpy as np
import pytest

from sativ import effects, estimator
from sativ.cli import (
    design_from_config,
    load_config,
    main,
    simconfig_from_config,
    write_data_csv,
    write_latent_csv,
)
from sativ.design import SaturationDesign
from sativ.dgp import SimConfig, simulate_experiment
from sativ.estimator import ingest_csv
from sativ.model import linear_basis
from sativ.montecarlo import report_to_json, run_mc


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
            }
        assert meta["diagnostics"]["joint"]["pure_control"] == policy

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

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, config_path, capsys):
        assert main(["validate-design", "--config", config_path, "--bogus"]) == 1

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

    def test_missing_config_file(self, capsys):
        assert main(["validate-design", "--config", "/nonexistent.json"]) == 1
