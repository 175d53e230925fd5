import json
import re
import warnings

import numpy as np
import pytest

import supersigma.suites as suites
from supersigma.cli import main
from supersigma.config import CONFIG_ENV_VAR, SuiteConfig
from supersigma.report import CheckReport, SuiteReport, parse_report, render_report
from supersigma.suites import run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_exit_zero_and_schema(capsys):
    code, out = run_cli(capsys, "verify", "berezin")
    assert code == 0
    report = parse_report(out)
    assert report.all_passed
    assert report.seed == 42
    assert report.conventions["c5"] == -0.5
    assert all(c.tolerance >= 0 for c in report.checks)


def test_verify_deterministic_byte_identical(capsys):
    _, out1 = run_cli(capsys, "verify", "toy", "--seed", "7")
    _, out2 = run_cli(capsys, "verify", "toy", "--seed", "7")
    assert out1 == out2


def test_seed_changes_report(capsys):
    _, out1 = run_cli(capsys, "verify", "toy", "--seed", "7")
    _, out2 = run_cli(capsys, "verify", "toy", "--seed", "8")
    assert out1 != out2


def test_suite_same_checks_standalone_and_under_all():
    config = SuiteConfig()
    alone = {c.name: c.residual for c in run_suite(config, "berezin")}
    combined = {c.name: c.residual for c in run_suite(config, "all")
                if c.name.startswith("berezin")}
    assert alone == combined


def test_zero_tolerance_config_fails(capsys, tmp_path):
    config = SuiteConfig()
    config.tolerances = {k: 0.0 for k in config.tolerances}
    path = tmp_path / "strict.json"
    config.save(str(path))
    code, out = run_cli(capsys, "verify", "toy", "--config", str(path))
    assert code == 1
    report = parse_report(out)
    assert not report.all_passed


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_config_env_var(capsys, tmp_path, monkeypatch):
    config = SuiteConfig(seed=99)
    path = tmp_path / "cfg.json"
    config.save(str(path))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    code, out = run_cli(capsys, "verify", "berezin")
    assert code == 0
    assert parse_report(out).seed == 99


def test_calibrate_writes_conventions(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    SuiteConfig().save(str(path))
    code, out = run_cli(capsys, "calibrate", "--config", str(path))
    assert code == 0
    assert json.loads(out)["conventions"]["c5"] == -0.5
    reloaded = SuiteConfig.load(str(path))
    assert reloaded.conventions.c5 == -0.5
    # Idempotent: a second run leaves the file semantically unchanged.
    before = path.read_text()
    run_cli(capsys, "calibrate", "--config", str(path))
    assert path.read_text() == before


def test_flow_subcommand(capsys):
    code, out = run_cli(capsys, "flow", "--steps", "3000", "--dt", "0.001")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"]
    assert doc["steps_taken"] <= 3000
    assert abs(doc["final_energy"] - 8.0 * np.pi ** 2) < 1e-6


def test_decompose_subcommand(capsys, tmp_path):
    n = 32
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    X, Y = np.meshgrid(x, x, indexing="ij")
    fixture = {
        "kind": "metric",
        "shape": [n, n],
        "tensor": {
            "11": (2.0 + np.cos(2 * X + Y)).tolist(),
            "12": np.sin(X - Y).tolist(),
            "22": (2.0 - np.cos(2 * X + Y)).tolist(),
        },
    }
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture))
    code, out = run_cli(capsys, "decompose", "--fixture", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_norms"]["reassembly"] < 1e-8
    assert doc["residual_norms"]["trace"] < 1e-8
    assert doc["tolerance"] == SuiteConfig().tolerance("decompose")
    assert doc["passed"] is True


def test_decompose_exit_one_when_residual_exceeds_tolerance(capsys, tmp_path):
    # cos(7 x) in g11 alone lies outside the band |m| <= 16 // 4 = 4, so it
    # goes entirely to the residual D, which is then not trace-free.
    n = 16
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    X, _ = np.meshgrid(x, x, indexing="ij")
    zero = np.zeros((n, n)).tolist()
    fixture = {
        "kind": "metric",
        "shape": [n, n],
        "tensor": {"11": np.cos(7 * X).tolist(), "12": zero, "22": zero},
    }
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture))
    code, out = run_cli(capsys, "decompose", "--fixture", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["residual_norms"]["trace"] > doc["tolerance"]


def test_json_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "berezin", "--json", str(out_path))
    assert code == 0
    assert out_path.read_text() == out


def test_report_schema_roundtrip():
    report = SuiteReport(seed=1, config_hash="abc", conventions={"c5": -0.5},
                         checks=[CheckReport("x", 1e-12, 1e-8),
                                 CheckReport("y", 2.0, 1e-8)])
    assert parse_report(render_report(report)).to_dict() == report.to_dict()


def test_check_report_pass_iff_within_tolerance():
    assert CheckReport("a", 1e-9, 1e-8).passed
    assert not CheckReport("b", 1e-7, 1e-8).passed
    assert CheckReport("c", 0.0, 0.0).passed


def test_runtime_not_serialized():
    # Nor are the per-fixture residuals: the report keeps only their maximum.
    rep = CheckReport("a", 0.0, 1.0, fixture_residuals=np.array([0.0, 0.0]))
    rep.runtime_ms = 123.4
    assert set(rep.to_dict()) == {"name", "residual", "tolerance", "passed", "provenance"}
    text = json.dumps(rep.to_dict())
    assert "runtime" not in text and "fixture" not in text


def write_config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return str(path)


def assert_json_error(out, error_type, fragment):
    error = json.loads(out)["error"]
    assert error["type"] == error_type
    assert fragment in error["message"]


@pytest.mark.parametrize("command, n_gen, bound", [
    (["verify", "susy2d"], 4, "n_gen >= 5 and n_gen <= 63"),
    (["calibrate"], 4, "n_gen >= 5 and n_gen <= 63"),
    (["verify", "toy"], 4, "n_gen >= 6 and n_gen <= 63"),
    (["verify", "currents"], 5, "n_gen >= 6 and n_gen <= 61"),
    (["verify", "all"], 5, "the toy suite needs n_gen >= 6"),
    (["verify", "grassmann"], 64, "n_gen >= 3 and n_gen <= 63"),
    (["verify", "berezin"], 2, "n_gen >= 3 and n_gen <= 63"),
    (["verify", "berezin"], 64, "n_gen >= 3 and n_gen <= 63"),
    (["verify", "reduction"], 1, "n_gen >= 2 and n_gen <= 63"),
    (["verify", "reduction"], 64, "n_gen >= 2 and n_gen <= 63"),
    (["verify", "toy"], 5, "n_gen >= 6 and n_gen <= 63"),
    (["verify", "toy"], 64, "n_gen >= 6 and n_gen <= 63"),
    (["verify", "susy2d"], 64, "n_gen >= 5 and n_gen <= 63"),
    (["calibrate"], 64, "n_gen >= 5 and n_gen <= 63"),
    (["verify", "currents"], 62, "n_gen >= 6 and n_gen <= 61"),
    (["verify", "decompose"], 3, "n_gen >= 4 and n_gen <= 63"),
    (["verify", "decompose"], 64, "n_gen >= 4 and n_gen <= 63"),
    (["verify", "flow"], 64, "n_gen >= 1 and n_gen <= 63"),
], ids=["susy2d-4", "calibrate-4", "toy-4", "currents-5", "all-5", "grassmann-64",
        "berezin-2", "berezin-64", "reduction-1", "reduction-64", "toy-5", "toy-64",
        "susy2d-64", "calibrate-64", "currents-62", "decompose-3", "decompose-64", "flow-64"])
def test_generator_count_without_room_for_the_fields_is_json_error(capsys, tmp_path, monkeypatch,
                                                                    command, n_gen, bound):
    # The suite names the range it needs, and refuses before it draws.
    def no_draws(*args):
        raise AssertionError("a suite drew fixtures")

    monkeypatch.setattr(suites, "suite_rng", no_draws)
    path = write_config(tmp_path, json.dumps({"n_gen": n_gen}))
    code, out = run_cli(capsys, *command, "--config", path)
    assert code == 1
    assert_json_error(out, "ValueError", bound)
    assert_json_error(out, "ValueError", f"got n_gen={n_gen}")


def test_calibration_error_is_json_error(capsys, tmp_path):
    path = write_config(tmp_path, '{"tolerances": {"calibration": 0.0}}')
    before = open(path).read()
    code, out = run_cli(capsys, "calibrate", "--config", path)
    assert code == 1
    assert_json_error(out, "CalibrationError", "no sign assignment")
    assert open(path).read() == before


def test_calibration_tolerance_is_gated_by_the_susy2d_rows(capsys, tmp_path):
    # The suite reports the solved coefficients instead of raising: at a zero
    # calibration tolerance the residual row fails and every other row passes.
    path = write_config(tmp_path, '{"tolerances": {"calibration": 0.0}}')
    code, out = run_cli(capsys, "verify", "susy2d", "--config", path)
    assert code == 1
    failed = [c.name for c in parse_report(out).checks if not c.passed]
    assert failed == ["susy2d-calibration-residual"]


def test_unknown_config_key_is_json_error(capsys, tmp_path):
    path = write_config(tmp_path, '{"sede": 1}')
    code, out = run_cli(capsys, "verify", "berezin", "--config", path)
    assert code == 1
    assert_json_error(out, "ValueError", "sede")


@pytest.mark.parametrize("command", [
    ["verify", "berezin"], ["calibrate"], ["flow", "--steps", "1", "--dt", "0.001"],
    ["decompose", "--fixture", "unused.json"]])
def test_non_json_config_is_json_error_in_every_subcommand(capsys, tmp_path, command):
    path = write_config(tmp_path, "tolerances: none")
    code, out = run_cli(capsys, *command, "--config", path)
    assert code == 1
    assert_json_error(out, "JSONDecodeError", "Expecting value")


def test_usage_error_keeps_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--steps", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["tolerances", "fixture_counts"])
def test_config_rejects_unknown_family(key):
    with pytest.raises(ValueError, match=r"susy2dd.*'susy2d'"):
        SuiteConfig.from_dict({key: {"susy2dd": 1.0}})
    with pytest.raises(ValueError, match="susy2dd"):
        SuiteConfig(**{key: {"susy2dd": 1.0}})


def test_config_rejects_unknown_key_with_value_error():
    with pytest.raises(ValueError, match=r"\['sede'\].*'seed'"):
        SuiteConfig.from_dict({"sede": 1})
    with pytest.raises(ValueError, match="c7"):
        SuiteConfig.from_dict({"conventions": {"c7": 1.0}})
    with pytest.raises(ValueError, match="'c6' was removed"):
        SuiteConfig.from_dict({"conventions": {"c6": 0.1}})


def test_flow_cli_starts_from_the_suite_initial_data(capsys, tmp_path, monkeypatch):
    config = SuiteConfig(seed=5, flow_steps=3)
    path = tmp_path / "cfg.json"
    config.save(str(path))
    _, out = run_cli(capsys, "flow", "--steps", "3", "--dt", "0.001",
                     "--config", str(path))
    initial = []
    flow = suites.harmonic_flow

    def recording(*args, **kwargs):
        result = flow(*args, **kwargs)
        initial.append(result.energies[0])
        return result

    monkeypatch.setattr(suites, "harmonic_flow", recording)
    run_suite(config, "flow")
    assert json.loads(out)["initial_energy"] == initial[0]


def test_diverging_flow_is_json_error(capsys):
    code, out = run_cli(capsys, "flow", "--steps", "2000", "--dt", "0.05")
    assert code == 1
    assert_json_error(out, "FlowDivergenceError", "reduce dt")


@pytest.mark.parametrize("steps, dt, fragment", [
    ("100", "nan", "dt must be finite and positive, got nan"),
    ("100", "inf", "dt must be finite and positive, got inf"),
    ("100", "-inf", "dt must be finite and positive, got -inf"),
    ("100", "0", "dt must be finite and positive, got 0.0"),
    ("100", "-0.001", "dt must be finite and positive, got -0.001"),
    ("-3", "0.001", "steps must be at least 0, got -3"),
], ids=["dt-nan", "dt-inf", "dt-minus-inf", "dt-zero", "dt-negative", "steps-negative"])
def test_flow_parameter_out_of_range_is_json_error(capsys, steps, dt, fragment):
    # Without the check, a NaN or infinite dt ran every step and printed
    # "final_energy": NaN, which is not JSON; dt = 0 ran steps that did nothing.
    code, out = run_cli(capsys, "flow", f"--steps={steps}", f"--dt={dt}")
    assert code == 1
    assert_json_error(out, "ValueError", fragment)


@pytest.mark.parametrize("dt, fragment", [
    ("-1e-3", "got -0.001"), ("-inf", "got -inf"), ("-nan", "got nan"), ("-0.001", "got -0.001"),
])
def test_flow_value_after_a_space_reaches_the_range_check(capsys, dt, fragment):
    # argparse takes "-1e-3" or "-inf" for an option; after a space as after
    # "=", the value must reach the JSON range error, not argparse's exit 2.
    for argv in (["--dt", dt, "--steps", "100"], ["--steps", "100", f"--dt={dt}"]):
        code, out = run_cli(capsys, "flow", *argv)
        assert code == 1
        assert_json_error(out, "ValueError", f"dt must be finite and positive, {fragment}")


def test_option_without_a_value_is_still_a_usage_error(capsys):
    # Only a token that reads as a number is joined to the option before it.
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--steps", "1", "--dt", "--seed", "3"])
    assert exc.value.code == 2


def test_missing_fixture_is_json_error(capsys, tmp_path):
    code, out = run_cli(capsys, "decompose", "--fixture", str(tmp_path / "none.json"))
    assert code == 1
    assert_json_error(out, "FileNotFoundError", "none.json")


@pytest.mark.parametrize("fixture, missing", [
    ({"shape": [8, 8]}, "['kind']"),
    ({"kind": "metric"}, "['shape']"),
    ({"kind": "metric", "shape": [8, 8]}, "['tensor']"),
    ({"kind": "metric", "shape": [8, 8], "tensor": {"11": 0.0, "22": 0.0}},
     "['tensor']['12']"),
    ({"kind": "gravitino", "shape": [8, 8]}, "['components']"),
    ({"kind": "gravitino", "shape": [8, 8], "components": {"chi1": [0.0, 0.0]}},
     "['components']['chi2']"),
    ([8, 8], "['shape']"),
], ids=["kind", "shape", "tensor", "tensor-12", "components", "components-chi2",
        "not-an-object"])
def test_decompose_fixture_missing_key_is_json_error(capsys, tmp_path, fixture, missing):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture))
    code, out = run_cli(capsys, "decompose", "--fixture", str(path))
    assert code == 1
    assert_json_error(out, "ValueError", f"no key {missing}")


@pytest.mark.parametrize("key, value", [
    ("chi1", [0.0]), ("chi2", [0.0, 0.0, 0.0]), ("chi2", 0.0), ("chi1", {"0": 0.0, "1": 0.0}),
], ids=["chi1-short", "chi2-long", "chi2-number", "chi1-object"])
def test_decompose_fixture_spinor_not_two_entries_is_json_error(capsys, tmp_path, key, value):
    components = {"chi1": [0.0, 0.0], "chi2": [0.0, 0.0], key: value}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({"kind": "gravitino", "shape": [8, 8], "components": components}))
    code, out = run_cli(capsys, "decompose", "--fixture", str(path))
    assert code == 1
    assert_json_error(out, "ValueError",
                      f"['components']['{key}'] must be a list of two spinor components")


def _metric_fixture(n, **tensor):
    zero = np.zeros((n, n)).tolist()
    return {"kind": "metric", "shape": [n, n], "tensor": {"11": zero, "12": zero, "22": zero,
                                                          **tensor}}


@pytest.mark.parametrize("entry, values, shape", [
    ("11", np.ones(8).tolist(), "[8]"),
    ("12", np.ones((2, 8, 8)).tolist(), "[2, 8, 8]"),
    ("22", np.ones((8, 4)).tolist(), "[8, 4]"),
    ("11", 1.0, "[]"),
], ids=["row", "stacked", "wrong-width", "scalar"])
def test_decompose_fixture_entry_of_wrong_shape_is_json_error(capsys, tmp_path, entry,
                                                              values, shape):
    # A row or scalar used to be broadcast to the whole grid (and pass); a
    # stacked entry would read as a batch of fixtures.
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_metric_fixture(8, **{entry: values})))
    code, out = run_cli(capsys, "decompose", "--fixture", str(path))
    assert code == 1
    assert_json_error(out, "ValueError", f"entry ['tensor']['{entry}'] has shape {shape}, "
                                         f"but the fixture's shape is [8, 8]")


def test_decompose_gravitino_component_of_wrong_shape_is_json_error(capsys, tmp_path):
    good = np.zeros((8, 8)).tolist()
    components = {"chi1": [good, good], "chi2": [good, np.zeros(8).tolist()]}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({"kind": "gravitino", "shape": [8, 8], "components": components}))
    code, out = run_cli(capsys, "decompose", "--fixture", str(path))
    assert code == 1
    assert_json_error(out, "ValueError", "entry ['components']['chi2'][1] has shape [8]")


@pytest.mark.parametrize("values", [[[0.0] * 8] * 7 + [[0.0] * 3], {"a": 1.0}, "x"],
                         ids=["ragged", "object", "string"])
def test_decompose_fixture_entry_not_numeric_is_json_error(capsys, tmp_path, values):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_metric_fixture(8, **{"12": values})))
    code, out = run_cli(capsys, "decompose", "--fixture", str(path))
    assert code == 1
    assert_json_error(out, "ValueError", "entry ['tensor']['12'] is not a numeric array")


@pytest.mark.parametrize("entries, fragment", [
    ({"shape": 16}, "shape must be a list, got 16"),
    ({"shape": None}, "shape must be a list, got None"),
    ({"shape": [16.7, 16]}, "shape[0] must be an integer, got 16.7"),
    ({"shape": [16, True]}, "shape[1] must be an integer, got True"),
    ({"periods": None}, "periods must be a list, got None"),
    ({"periods": 5}, "periods must be a list, got 5"),
    ({"periods": [-6, 6]}, "periods[0] must be finite and positive, got -6"),
    ({"periods": [float("inf"), 1]}, "periods[0] must be finite and positive, got inf"),
    ({"periods": [0.0, 1]}, "periods[0] must be finite and positive, got 0.0"),
    ({"periods": [float("nan"), 1]}, "periods[0] must be finite and positive, got nan"),
], ids=["shape-int", "shape-null", "shape-float", "shape-bool", "periods-null", "periods-int",
        "periods-negative", "periods-inf", "periods-zero", "periods-nan"])
def test_decompose_fixture_grid_out_of_range_is_json_error(capsys, tmp_path, entries, fragment):
    # These used to end in a traceback, pass on a truncated shape or a
    # period that is no length, or fail the SVD with warnings on stderr.
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({**_metric_fixture(16), **entries}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["decompose", "--fixture", str(path)])
    out, err = capsys.readouterr()
    assert (code, err, caught) == (1, "", [])
    assert_json_error(out, "ValueError", fragment)


@pytest.mark.parametrize("config, fragment", [
    ({"tolerances": {"calibration": "x"}}, "tolerance 'calibration' must be a number"),
    ({"tolerances": {"toy": True}}, "tolerance 'toy' must be a number"),
    ({"tolerances": {"toy": None}}, "tolerance 'toy' must be a number"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": "42"}, "seed must be an integer"),
    ({"n_gen": 6.0}, "n_gen must be an integer"),
    ({"fixture_counts": {"toy": 2.5}}, "fixture count 'toy' must be an integer"),
    ({"fixture_counts": {"toy": False}}, "fixture count 'toy' must be an integer"),
    ({"flow_steps": "x"}, "flow_steps must be an integer"),
    ({"flow_dt": "0.1"}, "flow_dt must be a number"),
    ({"toy_points": 64.5}, "toy_points must be an integer"),
    ({"grid_shape": [16, 16.0]}, "grid_shape[1] must be an integer"),
    ({"reduction_grid_shape": [True, 64]}, "reduction_grid_shape[0] must be an integer"),
    ({"grid_shape": 16}, "grid_shape must be a list"),
    ({"periods": [6.0, "6.0"]}, "periods[1] must be a number"),
    ({"conventions": {"c1": "1"}}, "convention 'c1' must be a number"),
    ({"conventions": {"s2": False}}, "convention 's2' must be a number"),
    ({"conventions": 1.0}, "conventions must be an object"),
    ({"tolerances": [1e-8]}, "tolerances must be an object"),
], ids=["tolerance-str", "tolerance-bool", "tolerance-null", "seed-float", "seed-str",
        "n_gen-float", "fixture-count-float", "fixture-count-bool", "flow_steps-str",
        "flow_dt-str", "toy_points-float", "grid_shape-float", "reduction_grid_shape-bool",
        "grid_shape-int", "periods-str", "convention-str", "convention-bool",
        "conventions-float", "tolerances-list"])
def test_config_value_of_wrong_type_is_json_error(capsys, tmp_path, config, fragment):
    path = write_config(tmp_path, json.dumps(config))
    code, out = run_cli(capsys, "verify", "berezin", "--config", path)
    assert code == 1
    assert_json_error(out, "ValueError", fragment)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        SuiteConfig.from_dict(config)


@pytest.mark.parametrize("config, fragment", [
    ({"toy_points": 0}, "toy_points must be at least 1, got 0"),
    ({"toy_points": -1}, "toy_points must be at least 1, got -1"),
    ({"grid_shape": [0, 16]}, "grid_shape[0] must be at least 1, got 0"),
    ({"grid_shape": [16, -3]}, "grid_shape[1] must be at least 1, got -3"),
    ({"reduction_grid_shape": [64, 0]}, "reduction_grid_shape[1] must be at least 1, got 0"),
    ({"periods": [0.0, 6.0]}, "periods[0] must be finite and positive, got 0.0"),
    ({"periods": [6.0, -1.0]}, "periods[1] must be finite and positive, got -1.0"),
    ({"periods": [float("nan"), 6.0]}, "periods[0] must be finite and positive, got nan"),
    ({"periods": [6.0, float("inf")]}, "periods[1] must be finite and positive, got inf"),
    # A count of 0 would pass every row of its suite having checked nothing.
    ({"fixture_counts": {"decompose": 0}}, "fixture count 'decompose' must be at least 1, got 0"),
    ({"fixture_counts": {"decompose": -3}},
     "fixture count 'decompose' must be at least 1, got -3"),
    # A NaN step would put a NaN residual into the flow rows.
    ({"flow_dt": float("nan")}, "flow_dt must be finite and positive, got nan"),
    ({"flow_dt": float("inf")}, "flow_dt must be finite and positive, got inf"),
    ({"flow_dt": 0.0}, "flow_dt must be finite and positive, got 0.0"),
    ({"flow_dt": -1e-3}, "flow_dt must be finite and positive, got -0.001"),
    ({"flow_steps": -3}, "flow_steps must be at least 0, got -3"),
], ids=["toy_points-zero", "toy_points-negative", "grid_shape-zero", "grid_shape-negative",
        "reduction_grid_shape-zero", "periods-zero", "periods-negative", "periods-nan",
        "periods-inf", "fixture-count-zero", "fixture-count-negative", "flow_dt-nan",
        "flow_dt-inf", "flow_dt-zero", "flow_dt-negative", "flow_steps-negative"])
def test_config_value_out_of_range_is_json_error(capsys, tmp_path, config, fragment):
    path = write_config(tmp_path, json.dumps(config))
    code, out = run_cli(capsys, "verify", "all", "--config", path)
    assert code == 1
    assert_json_error(out, "ValueError", fragment)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        SuiteConfig.from_dict(config)


def test_valid_config_values_are_not_coerced():
    # An integer tolerance stays an integer, so the config hash is unchanged.
    config = SuiteConfig.from_dict({"seed": 3, "tolerances": {"toy": 1},
                                    "fixture_counts": {"toy": 7}})
    assert json.dumps(config.to_dict()["tolerances"]) == '{"toy": 1}'
    # Likewise integer periods, flow_dt and convention values.
    given = {"periods": [6, 6], "flow_dt": 1, "conventions": {"c1": 1}}
    stored = SuiteConfig.from_dict(given).to_dict()
    assert json.dumps([stored["periods"], stored["flow_dt"], stored["conventions"]["c1"]]) \
        == "[[6, 6], 1, 1]"


def test_config_setting_one_convention_keeps_the_calibrated_others(capsys, tmp_path):
    # The conventions not named take the calibrated defaults, c5 = -1/2
    # among them, so the susy2d rows still pass.
    path = write_config(tmp_path, json.dumps({"conventions": {"c1": 1.0}}))
    code, out = run_cli(capsys, "verify", "susy2d", "--config", path)
    assert code == 0
    assert parse_report(out).conventions["c5"] == -0.5


def test_config_type_error_under_verify_reduction_is_json_error(capsys, tmp_path):
    path = write_config(tmp_path, json.dumps({"conventions": {"c1": "1"}}))
    code, out = run_cli(capsys, "verify", "reduction", "--config", path)
    assert code == 1
    assert_json_error(out, "ValueError", "convention 'c1' must be a number")
