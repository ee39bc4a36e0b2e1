"""Config validation, experiment runs, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncym
from ncym import cli, config as cfg, yangmills as ym
from ncym import ConfigInvalid, matrix_case_triple
from test_yangmills import NON_SKEW_START

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def torus_ym_config(**overrides):
    payload = {
        "theta": {"n": 2, "entries": [0.0, 0.3, -0.3, 0.0]},
        "q": 1,
        "connection": {"random": {"seed": 7, "radius": 1, "amplitude": 0.2}},
        "seed": 3,
        "samples": 20,
    }
    payload.update(overrides)
    return {"kind": "torus_ym", "payload": payload}


def strip_clock(text):
    doc = json.loads(text)
    doc.pop("wall_clock_seconds", None)
    return json.dumps(doc, sort_keys=True)


def test_validate_well_formed():
    assert cfg.validate(json.dumps(torus_ym_config())) == []


def test_validate_nonzero_diagonal():
    conf = torus_ym_config(theta={"n": 2, "entries": [0.1, 0.3, -0.3, 0.0]})
    diags = cfg.validate(json.dumps(conf))
    assert len(diags) == 1
    assert diags[0].severity == "error"
    assert diags[0].path == "/payload/theta"


def test_nonfinite_theta_rejected(tmp_path, capsys):
    conf = torus_ym_config(theta={"n": 2, "entries": [0.0, math.inf, -math.inf, 0.0]})
    diags = cfg.validate(json.dumps(conf))
    assert [d.path for d in diags] == ["/payload/theta/entries/1", "/payload/theta/entries/2"]
    path = write(tmp_path, "inf.json", conf)
    out = tmp_path / "rep.json"
    assert cli.main(["run", path, "--output", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()


def test_validate_missing_seed_on_random():
    conf = torus_ym_config(connection={"random": {"radius": 1}})
    diags = cfg.validate(json.dumps(conf))
    assert len(diags) == 1
    assert diags[0].path == "/payload/connection/random/seed"


def test_validate_not_json_and_bad_kind():
    assert cfg.validate("{not json")[0].severity == "error"
    diags = cfg.validate(json.dumps({"kind": "nope", "payload": {}}))
    assert diags and diags[0].path == "/kind"


def test_validate_negative_tolerance():
    # the compatibility tolerance is yangmills.COMPAT_TOL: a payload bound is an unknown field
    conf = torus_ym_config(tolerances={"compat": -1.0})
    diags = cfg.validate(json.dumps(conf))
    assert [(d.path, d.message) for d in diags] == [("/payload/tolerances", "unknown field")]


def test_run_torus_ym_report():
    report = cli.run(cfg.ExperimentConfig("torus_ym", torus_ym_config()["payload"]))
    assert report["checks"]["compatible"] is True
    assert report["results"]["ym"] >= 0.0
    assert report["kind"] == "torus_ym"
    assert "library_version" in report and "conventions" in report


def test_run_flat_connection_reports_zero():
    payload = torus_ym_config()["payload"]
    zero_matrix = {"q": 1, "entries": [[]]}
    payload["connection"] = {"A": [zero_matrix, zero_matrix]}
    report = cli.run(cfg.ExperimentConfig("torus_ym", payload))
    assert report["results"]["ym"] == 0.0


def test_index_sums_beyond_int64_exit_1(tmp_path, capsys):
    """A1 A2 would carry the multi-index (2**63, 1), which int64 cannot hold."""

    def potential(r):
        return {"q": 1, "entries": [[{"r": r, "re": 0.5, "im": 0.0}]]}

    conf = torus_ym_config(connection={"A": [potential([2**62, 1]), potential([2**62, 0])]})
    code, err = run_and_capture(tmp_path, capsys, conf)
    assert code == 1
    assert err[0].startswith("error: multi-index entries up to 4611686018427387904 and ")


def test_index_past_int64_is_one_diagnostic(tmp_path, capsys):
    """An index entry int64 cannot hold is a config error at the term's r, for validate and run alike."""
    term = {"r": [2**63, 0], "re": 0.5, "im": 0.0}
    conf = torus_ym_config(connection={"A": [{"q": 1, "entries": [[term]]}, {"q": 1, "entries": [[]]}]})
    message = "error: /payload/connection/A/0/entries/0/0/r: multi-index entry 9223372036854775808 in magnitude exceeds 9223372036854775807"
    assert cli.main(["validate", write(tmp_path, "conf.json", conf)]) == 1
    assert capsys.readouterr().out.splitlines() == [message]
    code, err = run_and_capture(tmp_path, capsys, conf)
    assert code == 1
    assert err == [message]


def test_run_constants():
    report = cli.run(cfg.ExperimentConfig("constants", {"n": 2}))
    assert report["results"]["dixmier"] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
    report = cli.run(
        cfg.ExperimentConfig(
            "constants",
            {"n": 2, "gamma": {"k": 2.0, "l": 2.0, "m": 1, "n": 1, "tr_d1": 1.0, "tr_d2": 1.0}},
        )
    )
    assert report["results"]["alpha"] == 0.5


def test_run_finite_forms_case():
    payload = {"case": {"p": 2, "q": 2, "mu": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}}
    report = cli.run(cfg.ExperimentConfig("finite_forms", payload))
    assert report["results"]["case"] == "Case2"
    assert report["results"]["dim_omega2"] == 0


def test_run_finite_forms_from_file(tmp_path):
    triple = matrix_case_triple(1, 1, [[1.0]])
    tpath = write(tmp_path, "triple.json", triple.to_payload())
    report = cli.run(cfg.ExperimentConfig("finite_forms", {"triple": {"path": tpath}}))
    assert report["results"]["dim_omega2"] == 2


def test_run_finite_product():
    t1 = matrix_case_triple(1, 1, [[1.0]]).to_payload()
    payload = {"t1": {"payload": t1}, "t2": {"trivial": True}, "seed": 5, "samples": 20}
    report = cli.run(cfg.ExperimentConfig("finite_product", payload))
    assert all(report["checks"].values())
    assert report["results"]["unitary_equivalence_defect"] < 1e-12


#: an odd triple: algebra span{1, diag(1, 0)} on C^2, D = sigma1, no grading
ODD_TRIPLE = {
    "dim_h": 2,
    "algebra_basis": [[[1, 0], [0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0], [0, 0]]],
    "D": [[0, 0], [1, 0], [1, 0], [0, 0]],
}


@pytest.mark.parametrize("t2", [{"trivial": True}], ids=["default"])
def test_finite_product_odd_first_factor(tmp_path, capsys, t2):
    """The CLI doubles an odd t1, so the product has a grading on its first factor."""
    conf = {"kind": "finite_product", "payload": {"t1": {"payload": ODD_TRIPLE}, "t2": t2}}
    out = tmp_path / "rep.json"
    assert cli.main(["run", write(tmp_path, "conf.json", conf), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    # the doubled t1 is even, so the swap-unitary defect is reported
    assert "unitary_equivalence_defect" in json.loads(out.read_text())["results"]


def test_run_torus_minimize():
    payload = {
        "theta": {"n": 2, "entries": [0.0, 0.3, -0.3, 0.0]},
        "q": 1,
        "connection": {"random": {"seed": 3, "radius": 1, "amplitude": 0.05, "terms": 2}},
        "max_iters": 2000,
        "grad_tol": 1e-6,
    }
    report = cli.run(cfg.ExperimentConfig("torus_minimize", payload))
    assert report["checks"]["converged"] is True
    assert report["checks"]["monotone_trace"] is True
    res = report["results"]
    assert res["terminal_ym"] <= res["initial_ym"]
    assert res["stop_reason"] == "converged"
    assert len(res["gradient_norms"]) == len(res["trace"]) == res["iterations"] + 1
    assert len(res["steps"]) == res["iterations"]
    assert res["terminal_gradient_norm"] == res["gradient_norms"][-1] <= 1e-6


def test_torus_minimize_reports_a_non_skew_start(tmp_path):
    """The non-skew start of ``test_non_skew_start_descends_as_with_direct_curvatures``
    converges with a monotone trace, but ``compatible_start`` is false, so the
    run exits 2; the reported deviation is that of the start."""
    conf = json.loads(NON_SKEW_START)
    out = tmp_path / "rep.json"
    assert cli.main(["run", write(tmp_path, "start.json", conf), "--output", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["checks"] == {"compatible_start": False, "converged": True, "monotone_trace": True}
    start = cli._connection(cfg.parse(NON_SKEW_START).spec.module)
    assert report["results"]["compatibility_deviation"] == ym.compatibility_deviation(start) > 0.1


@pytest.mark.parametrize("name", ["torus_minimize.json", "torus_minimize_projected.json"])
def test_sample_descents_start_compatible(name):
    """``random_connection`` makes skew potentials, so the start's deviation is exactly 0."""
    report = cli.run(cfg.parse((CONFIGS / name).read_text()))
    assert report["checks"]["compatible_start"] is True
    assert report["results"]["compatibility_deviation"] == 0.0


@pytest.mark.parametrize(
    "options, reason", [({"max_iters": 1}, "max_iters"), ({"grad_tol": 1e-300}, "no_decrease")]
)
def test_run_torus_minimize_unconverged(options, reason):
    spec = cfg.ExperimentConfig("torus_minimize", torus_minimize_config(**options)["payload"])
    report = cli.run(spec)
    res = report["results"]
    assert res["stop_reason"] == reason
    assert report["checks"]["converged"] is False
    assert len(res["steps"]) == res["iterations"] == len(res["trace"]) - 1
    assert len(res["gradient_norms"]) == len(res["trace"])
    assert res["terminal_gradient_norm"] == res["gradient_norms"][-1]
    final, _ = ym.minimize(cli._connection(spec.spec.module), **options)
    assert res["terminal_gradient_norm"] == pytest.approx(ym.gradient_norm(final), rel=1e-12)
    assert res["terminal_gradient_norm"] > spec.spec.grad_tol


def test_validate_finite_product_seed_optional():
    # the seed is accepted and unused, so a config without it validates and runs
    conf = {
        "kind": "finite_product",
        "payload": {"t1": {"trivial": True}, "t2": {"trivial": True}},
    }
    assert cfg.validate(json.dumps(conf)) == []
    spec = cfg.parse(json.dumps(conf))
    assert spec.spec.seed == 0
    assert all(cli.run(spec)["checks"].values())


def torus_product_config():
    payload = {
        "theta": {"n": 2, "entries": [0.0, 0.3, -0.3, 0.0]},
        "q1": 1,
        "connection1": {"random": {"seed": 1, "radius": 1, "amplitude": 0.3}},
        "phi": {"n": 2, "entries": [0.0, -0.2, 0.2, 0.0]},
        "q2": 1,
        "connection2": {"random": {"seed": 2, "radius": 1, "amplitude": 0.3}},
        "seed": 4,
        "samples": 5,
        "tol": 1e-6,
    }
    return {"kind": "torus_product", "payload": payload}


def test_run_torus_product():
    report = cli.run(cfg.ExperimentConfig("torus_product", torus_product_config()["payload"]))
    assert report["checks"]["subadditive"] is True
    assert report["checks"]["splitting_implication"] is True
    assert abs(report["results"]["defect"]) < 1e-9 * (1 + report["results"]["ym_product"])
    # the numbers behind the splitting verdicts; q1 = q2 = 1
    split = report["results"]["splitting"]
    n1, n2 = split["gradient_norm_1"], split["gradient_norm_2"]
    assert split["gradient_norm_product"] == math.sqrt(n1 * n1 + n2 * n2)
    assert not split["necessary"] and not split["product_critical"]


def test_main_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.json", torus_ym_config())
    out = str(tmp_path / "rep.json")
    assert cli.main(["run", good, "--output", out]) == 0
    capsys.readouterr()

    # input error: malformed config
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["run", str(bad)]) == 1
    assert cli.main(["validate", str(bad)]) == 1
    capsys.readouterr()

    # verdict failure: non-skew explicit potential fails the compatibility check
    u1_payload = [{"r": [1, 0], "re": 1.0, "im": 0.0}]
    conf = torus_ym_config()
    conf["payload"]["connection"] = {
        "A": [{"q": 1, "entries": [u1_payload]}, {"q": 1, "entries": [[]]}]
    }
    failing = write(tmp_path, "fail.json", conf)
    assert cli.main(["run", failing, "--output", str(tmp_path / "rep2.json")]) == 2
    capsys.readouterr()

    # validate on a well-formed config prints nothing and returns 0
    assert cli.main(["validate", good]) == 0


def test_main_constants(capsys):
    assert cli.main(["constants", "--n", "3"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["results"]["dixmier"] == pytest.approx(1.0 / (3.0 * math.pi ** 2), abs=1e-15)


def test_report_determinism(tmp_path):
    conf = torus_ym_config()
    path = write(tmp_path, "det.json", conf)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli.main(["run", path, "--output", out1]) == 0
    assert cli.main(["run", path, "--output", out2]) == 0
    t1 = strip_clock((tmp_path / "r1.json").read_text())
    t2 = strip_clock((tmp_path / "r2.json").read_text())
    assert t1 == t2


def test_finite_report_same_at_one_and_two_blas_threads(tmp_path):
    """A finite_forms report is the same at one and two BLAS threads: it holds only
    dimensions, the case and the check. (3,3) case 2 (dim_h 6) is one of the
    configs whose dense quotient projector, no longer reported, differed in
    its last bits between the two counts."""
    mu = [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 0.3], [0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]
    path = write(tmp_path, "c33.json", {"kind": "finite_forms", "payload": {"case": {"p": 3, "q": 3, "mu": mu}}})
    src = str(Path(cli.__file__).resolve().parent.parent)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report{threads}.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        cmd = [sys.executable, "-m", "ncym.cli", "run", path, "--output", str(out)]
        assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
        reports.append(strip_clock(out.read_text()))
    assert reports[0] == reports[1]
    results = json.loads(reports[0])["results"]
    assert results == {"case": "Case2", "dim_junk": 18, "dim_omega1": 18, "dim_omega2": 0, "dim_pi_omega2": 18}


def test_torus_ym_ignores_seed_and_samples():
    # the compatibility verdict and value are exact: nothing is sampled
    reports = []
    for seed, samples in ((3, 20), (11, 7)):
        payload = torus_ym_config(seed=seed, samples=samples)["payload"]
        reports.append(cli.run(cfg.ExperimentConfig("torus_ym", payload)))
    assert reports[0]["results"] == reports[1]["results"]
    assert reports[0]["checks"] == reports[1]["checks"] == {"compatible": True}


def test_corner_module_torus_ym_compatible(tmp_path):
    # p = diag(1, 0); the non-skew U1 sits on the (1 - p) block, outside the module
    u1 = [{"r": [1, 0], "re": 1.0, "im": 0.0}]
    conf = torus_ym_config(
        q=2,
        connection={"A": [{"q": 2, "entries": [[], [], [], u1]}, {"q": 2, "entries": [[], [], [], []]}]},
        proj={"q": 2, "entries": [[{"r": [0, 0], "re": 1.0, "im": 0.0}], [], [], []]},
    )
    out = tmp_path / "rep.json"
    assert cli.main(["run", write(tmp_path, "corner.json", conf), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"] == {"compatible": True}
    assert report["results"]["compatibility_deviation"] == 0.0
    assert report["results"]["projection_idempotency_defect"] == 0.0


def torus_minimize_config(**overrides):
    payload = {
        "theta": {"n": 2, "entries": [0.0, 0.3, -0.3, 0.0]},
        "q": 1,
        "connection": {"random": {"seed": 3, "radius": 1, "amplitude": 0.05, "terms": 2}},
    }
    payload.update(overrides)
    return {"kind": "torus_minimize", "payload": payload}


def finite_product_config(**overrides):
    payload = {
        "t1": {"case": {"p": 1, "q": 1, "mu": [[1.0, 0.0]]}},
        "t2": {"trivial": True},
        "seed": 5,
    }
    payload.update(overrides)
    return {"kind": "finite_product", "payload": payload}


def explicit_potential(record):
    """A torus_ym connection whose first potential has the single term ``record``."""
    return {"A": [{"q": 1, "entries": [[record]]}, {"q": 1, "entries": [[]]}]}


def run_and_capture(tmp_path, capsys, conf, *extra):
    """Exit code and stderr lines of ``ncym run`` on conf; asserts no report was written."""
    out = tmp_path / "rep.json"
    code = cli.main(["run", write(tmp_path, "conf.json", conf), "--output", str(out), *extra])
    assert not out.exists()
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "conf, path",
    [
        (
            torus_ym_config(connection={"random": {"seed": 7, "amplitude": math.inf}}),
            "/payload/connection/random/amplitude",
        ),
        (
            {
                "kind": "constants",
                "payload": {
                    "n": 2,
                    "gamma": {"k": 2, "l": 2, "m": 1, "n": 1, "tr_d1": math.nan, "tr_d2": 1},
                },
            },
            "/payload/gamma/tr_d1",
        ),
        # no payload field bounds compatibility, so a non-finite bound is refused unread
        (torus_ym_config(tolerances={"compat": math.inf}), "/payload/tolerances"),
        # an integer past the float range: float() of it would overflow
        (
            torus_ym_config(connection={"random": {"seed": 7, "amplitude": 10**400}}),
            "/payload/connection/random/amplitude",
        ),
        (torus_minimize_config(grad_tol=math.nan), "/payload/grad_tol"),
        (
            torus_ym_config(
                connection=explicit_potential({"r": [1, 0], "re": 0.5, "im": -math.inf})
            ),
            "/payload/connection/A/0/entries/0/0/im",
        ),
        (
            {
                "kind": "finite_forms",
                "payload": {"case": {"p": 1, "q": 1, "mu": [[math.nan, 0.0]]}},
            },
            "/payload/case/mu/0/0",
        ),
    ],
    ids=["amplitude", "gamma", "tolerance", "huge-int", "grad_tol", "element", "mu"],
)
def test_nonfinite_numbers_rejected(tmp_path, capsys, conf, path):
    assert [d.path for d in cfg.validate(json.dumps(conf))] == [path]
    code, err = run_and_capture(tmp_path, capsys, conf)
    assert code == 1
    message = "unknown field" if path == "/payload/tolerances" else "must be a finite number"
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {message}")


@pytest.mark.parametrize(
    "conf, extra, path",
    [
        (
            torus_ym_config(connection={"random": {"seed": 7, "terms": 0}}),
            [],
            "/payload/connection/random/terms",
        ),
        (
            torus_ym_config(connection={"random": {"seed": 7, "terms": -2}}),
            [],
            "/payload/connection/random/terms",
        ),
        (torus_minimize_config(precondition="no"), [], "/payload/precondition"),
        # the line search is exact: the backtracking fields are gone, not ignored
        (torus_minimize_config(shrink=1.0), [], "/payload/shrink"),
        (torus_minimize_config(armijo=1e-4), [], "/payload/armijo"),
        (torus_minimize_config(initial_step=1.0), [], "/payload/initial_step"),
        (finite_product_config(auto_double="yes"), [], "/payload/auto_double"),
        (finite_product_config(t2={"trivial": False}), [], "/payload/t2/trivial"),
        (finite_product_config(t2={"trivial": 1}), [], "/payload/t2/trivial"),
        (
            {"kind": "finite_forms", "payload": {"case": {"p": 1, "q": 1, "mu": [[True, False]]}}},
            [],
            "/payload/case/mu/0/0",
        ),
        (
            {
                "kind": "torus_product",
                "payload": {
                    "theta": {"n": 2, "entries": [0.0, 0.3, -0.3, 0.0]},
                    "q1": 1,
                    "connection1": {"random": {"seed": 1}},
                    "phi": {"n": 2, "entries": [0.0, -0.2, 0.2, 0.0]},
                    "q2": 1,
                    "connection2": {"random": {"seed": 2}},
                    "samples": 0,
                },
            },
            [],
            "/payload/samples",
        ),
        (torus_minimize_config(max_iter=1), [], "/payload/max_iter"),
        # the compatibility tolerance is yangmills.COMPAT_TOL, not a payload field
        (torus_ym_config(tolerances={"compat": 1e-10, "rel": 1e-3}), [], "/payload/tolerances"),
        (dict(torus_ym_config(), outputpath="rep.json"), [], "/outputpath"),
        (
            torus_ym_config(connection=explicit_potential({"r": [1, 0], "re": "x", "im": 0.0})),
            [],
            "/payload/connection/A/0/entries/0/0/re",
        ),
        (
            torus_ym_config(connection=explicit_potential({"r": [1, 0], "re": None, "im": 0.0})),
            [],
            "/payload/connection/A/0/entries/0/0/re",
        ),
    ],
    ids=[
        "terms-0",
        "terms-negative",
        "precondition-string",
        "shrink-1",
        "armijo-removed",
        "initial_step-removed",
        "auto_double-string",
        "trivial-false",
        "trivial-int",
        "mu-booleans",
        "product-samples-0",
        "unknown-payload-key",
        "unknown-tolerance-key",
        "unknown-top-level-key",
        "element-re-string",
        "element-re-null",
    ],
)
def test_misread_fields_rejected(tmp_path, capsys, conf, extra, path):
    code, err = run_and_capture(tmp_path, capsys, conf, *extra)
    assert code == 1
    assert err and all(line.startswith("error: /") for line in err)
    assert err[0].startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "conf", [torus_product_config(), torus_minimize_config()], ids=["torus_product", "torus_minimize"]
)
def test_seed_option_unknown(tmp_path, capsys, conf):
    # no kind reads a payload seed, so there is no --seed override
    code, err = run_and_capture(tmp_path, capsys, conf, "--seed", "11")
    assert code == 1
    assert err == ["error: unrecognized arguments: --seed 11"]


@pytest.mark.parametrize("name", ["armijo", "shrink", "initial_step", "precondition"])
def test_removed_line_search_fields_are_unknown(name):
    diags = cfg.validate(json.dumps(torus_minimize_config(**{name: 0.5})))
    assert [(d.path, d.message) for d in diags] == [(f"/payload/{name}", "unknown field")]


TRIPLE_1 = matrix_case_triple(1, 1, [[1.0]]).to_payload()


@pytest.mark.parametrize(
    "triple, path",
    [
        ({"foo": 1}, "/dim_h"),
        ({"dim_h": 1, "algebra_basis": [[["x", 0]]], "D": [[0, 0]]}, "/algebra_basis/0/0/0"),
        ({"dim_h": 2, "algebra_basis": [[[1, 0]] * 4], "D": [[0, 0]]}, "/D"),
        ({"dim_h": 1, "algebra_basis": [[[1, 0]]], "D": [[0, 0]], "gamma": [[1, None]]}, "/gamma/0/1"),
        (dict(TRIPLE_1, Gamma=TRIPLE_1["gamma"]), "/Gamma"),
    ],
    ids=["missing-dim_h", "string-entry", "short-D", "bad-gamma", "unknown-key"],
)
def test_triple_payload_fields_rejected(tmp_path, capsys, triple, path):
    """An inline triple payload is read at parse time, a triple file at run time, by one reader."""
    inline = {"kind": "finite_forms", "payload": {"triple": {"payload": triple}}}
    inline_path = f"/payload/triple/payload{path}"
    assert cfg.validate(json.dumps(inline))[0].path == inline_path
    assert cli.main(["validate", write(tmp_path, "inline.json", inline)]) == 1
    assert capsys.readouterr().out.startswith(f"error: {inline_path}: ")
    code, err = run_and_capture(tmp_path, capsys, inline)
    assert code == 1 and err[0].startswith(f"error: {inline_path}: ")

    tpath = write(tmp_path, "triple.json", triple)
    from_file = {"kind": "finite_forms", "payload": {"triple": {"path": tpath}}}
    assert cfg.validate(json.dumps(from_file)) == []
    code, err = run_and_capture(tmp_path, capsys, from_file)
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: invalid config: {tpath}:{path}: ")


def test_triple_payload_gamma_optional():
    odd = {k: v for k, v in TRIPLE_1.items() if k != "gamma"}
    for triple in (odd, dict(odd, gamma=None)):
        spec = cfg.ExperimentConfig("finite_forms", {"triple": {"payload": triple}}).spec
        assert spec.triple.payload.gamma is None
        report = cli.run(cfg.ExperimentConfig("finite_forms", {"triple": {"payload": triple}}))
        assert report["results"]["dim_omega2"] == 2
    with pytest.raises(ConfigInvalid):
        cfg.read_triple([TRIPLE_1], "triple.json")


def test_validate_collects_every_diagnostic():
    conf = torus_minimize_config(
        connection={"random": {"seed": -1, "terms": 0}}, precondition="no", max_iter=1
    )
    paths = sorted(d.path for d in cfg.validate(json.dumps(conf)))
    assert paths == [
        "/payload/connection/random/seed",
        "/payload/connection/random/terms",
        "/payload/max_iter",
        "/payload/precondition",
    ]


def test_unknown_log_level_is_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NCYM_LOG", "verbose")
    code, err = run_and_capture(tmp_path, capsys, torus_ym_config())
    assert code == 1
    assert len(err) == 1 and "NCYM_LOG" in err[0]


# field: the first non-finite field in the report's key order, named by a report that is not written
@pytest.mark.parametrize(
    "conf, message, field",
    [
        # coefficients of 1e200 overflow the curvature: the report would carry NaN
        (
            torus_ym_config(connection={"random": {"seed": 7, "amplitude": 1e200}}),
            "error: report not written",
            "results.gradient_norm",
        ),
        # 1e300 overflows inside the star products: no numpy warning may reach stderr
        (
            torus_ym_config(connection={"random": {"seed": 1, "amplitude": 1e300}}),
            "error: report not written",
            "results.gradient_norm",
        ),
        (
            {
                "kind": "torus_product",
                "payload": {
                    **torus_product_config()["payload"],
                    "connection1": {"random": {"seed": 1, "amplitude": 1e300}},
                },
            },
            "error: report not written",
            "results.defect",
        ),
        (
            {
                "kind": "constants",
                "payload": {
                    "n": 2,
                    "gamma": {"k": 1e3, "l": 2, "m": 1, "n": 1, "tr_d1": 1, "tr_d2": 1},
                },
            },
            "error: OverflowError",
            None,
        ),
        # a finite start whose line-search quartic overflows
        (
            torus_minimize_config(
                connection={"random": {"seed": 3, "radius": 1, "amplitude": 1e60, "terms": 2}}
            ),
            "error: line-search quartic not finite at iteration 0",
            None,
        ),
    ],
    ids=["nan-report", "warnings-ym", "warnings-product", "overflow", "quartic-overflow"],
)
def test_nonfinite_results_exit_1(tmp_path, capsys, recwarn, conf, message, field):
    assert cfg.validate(json.dumps(conf)) == []
    code, err = run_and_capture(tmp_path, capsys, conf)
    assert code == 1
    assert len(err) == 1 and err[0].startswith(message)
    assert [str(w.message) for w in recwarn] == []
    if field is not None:
        assert err[0].startswith(f"{message}: {field} is nan: Out of range float values")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_sample_configs(path):
    text = path.read_text()
    assert cfg.validate(text) == []
    report = cli.run(cfg.parse(text))
    assert report["checks"] and all(v is True for v in report["checks"].values())


def test_public_names_are_the_readme_surface():
    """``ncym.__all__`` is the name list of the README's "Library surface"
    block: a label before a colon, then names, wrapped lines continuing it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library surface", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    listed = [name for line in block.splitlines() for name in re.findall(r"\w+", line.split(":", 1)[-1])]
    assert sorted(ncym.__all__) == sorted(listed)
