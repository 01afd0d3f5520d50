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
