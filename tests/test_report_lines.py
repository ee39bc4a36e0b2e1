"""The compare mode of ``tools/report_lines.py``: exact fields, result floats within a bound."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ncym import cli, config as cfg

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("finite_forms_case3.json", "finite_product.json", "torus_minimize.json", "torus_product.json")
BOUND = 1e-13

spec = importlib.util.spec_from_file_location("_tools_report_lines", ROOT / "tools" / "report_lines.py")
report_lines = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = report_lines
spec.loader.exec_module(report_lines)


@pytest.fixture(scope="module")
def reports():
    """(label, report) for some sample configs, as ``report_lines.py`` prints them."""
    out = []
    for name in CONFIGS:
        report = cli.run(cfg.parse((ROOT / "configs" / name).read_text()))
        report.pop("wall_clock_seconds")
        out.append((f"configs/{name}", report))
    return out


def lines(reports):
    return [f"{label}\t{json.dumps(report, sort_keys=True, allow_nan=False)}" for label, report in reports]


def edited(reports, label, edit):
    """A deep copy of ``reports`` with ``edit`` applied to the results of the report at ``label``."""
    out = copy.deepcopy(reports)
    edit(dict(out)[f"configs/{label}"]["results"])
    return out


def test_equal_outputs_pass(reports):
    messages, worst = report_lines.compare(lines(reports), lines(reports), BOUND)
    assert messages == []
    assert worst[("torus_minimize", "trace[]")] == ("trace[0]", 0.0)
    assert worst[("torus_product", "xi_re")] == ("sqrt(ym_product)", 0.0)
    assert all(ratio == 0.0 for _, ratio in worst.values())


@pytest.mark.parametrize(
    "label,edit,field",
    [
        ("torus_minimize.json", lambda res: res.update(stop_reason="max_iters"), "results.stop_reason"),
        ("torus_minimize.json", lambda res: res.update(iterations=res["iterations"] + 1), "results.iterations"),
        ("torus_minimize.json", lambda res: res["trace"].pop(), "results.trace: length"),
        ("finite_forms_case3.json", lambda res: res.update(dim_junk=res["dim_junk"] - 1), "results.dim_junk"),
        ("finite_forms_case3.json", lambda res: res.update(case="Case2"), "results.case"),
        ("finite_product.json", lambda res: res["hypothesis_dims"].update(rhs=0), "results.hypothesis_dims.rhs"),
    ],
)
def test_exact_result_changes_fail(reports, label, edit, field):
    messages, _ = report_lines.compare(lines(reports), lines(edited(reports, label, edit)), BOUND)
    assert len(messages) == 1 and field in messages[0]


def test_flipped_check_fails(reports):
    flipped = copy.deepcopy(reports)
    checks = dict(flipped)["configs/torus_product.json"]["checks"]
    checks["subadditive"] = not checks["subadditive"]
    messages, _ = report_lines.compare(lines(reports), lines(flipped), BOUND)
    assert len(messages) == 1 and "checks.subadditive" in messages[0]


def test_input_and_error_lines_must_be_equal(reports):
    old = lines(reports)
    changed = copy.deepcopy(reports)
    changed[0][1]["tolerances"]["rank_tol"] *= 1 + 1e-15
    new = lines(changed)
    new[-1] = new[-1].split("\t")[0] + "\terror ComputeError: boom"
    messages, _ = report_lines.compare(old, new, BOUND)
    assert len(messages) == 2
    assert "tolerances.rank_tol" in messages[0] and "boom" in messages[1]
    assert report_lines.compare(old, old[:-1], BOUND)[0] == ["4 lines != 3 lines"]


#: (config, field, its index in a list or None, the scale it is judged against)
FLOAT_FIELDS = [
    ("torus_product.json", "ym1", None, lambda res: res["ym_product"]),
    ("torus_product.json", "xi_re", None, lambda res: res["ym_product"] ** 0.5),
    ("torus_minimize.json", "trace", 3, lambda res: res["trace"][0]),
    ("torus_minimize.json", "terminal_gradient_norm", None, lambda res: res["gradient_norms"][0]),
    ("torus_minimize.json", "steps", 1, lambda res: res["steps"][1]),
]


@pytest.mark.parametrize("label,field,index,scale", FLOAT_FIELDS)
@pytest.mark.parametrize("shift,fails", [(1e-10, True), (1e-15, False)])
def test_float_judged_against_its_scale(reports, label, field, index, scale, shift, fails):
    """A result float moved by 1e-10 of its scale fails at the bound 1e-13; 1e-15 of it passes."""

    def move(res):
        holder, key = (res, field) if index is None else (res[field], index)
        holder[key] += shift * scale(res)

    messages, worst = report_lines.compare(lines(reports), lines(edited(reports, label, move)), BOUND)
    assert bool(messages) == fails
    kind = label.removesuffix(".json")
    ratio = worst[(kind, field if index is None else f"{field}[]")][1]
    assert 0.5 * shift <= ratio <= 2 * shift


def test_compare_command(reports, tmp_path, capsys):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("\n".join(lines(reports)) + "\n")
    new.write_text("\n".join(lines(edited(reports, "torus_product.json", lambda res: res.update(ym1=0.0)))) + "\n")
    assert report_lines.main(["--compare", str(old), str(old), "--bound", "1e-13"]) == 0
    assert report_lines.main(["--compare", str(old), str(new), "--bound", "1e-13"]) == 1
    out = capsys.readouterr().out
    assert "torus_product\tym1\tym_product\t" in out and "FAIL configs/torus_product.json: results.ym1" in out
    with pytest.raises(SystemExit):
        report_lines.main(["--compare", str(old), str(new)])
