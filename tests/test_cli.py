"""End-to-end CLI checks through real subprocesses, and in-process runs of
``cli.main`` for the many input-error cases.

The CLI promises deterministic, timestamp-free output, RFC 4180 CSV with
CRLF line endings, and a documented exit-code scheme: 0 ok, 1 input error,
2 assumption violation, 3 numerical-quality failure.
"""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from levystop import cli

BROWNIAN_SPEC = {
    "model": {"family": "brownian", "m": 0.0, "sigma": 1.0},
    "r": 1.0, "alpha": 1.0, "c": 1.0, "v": 1.0,
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "levystop.cli", *args],
                          capture_output=True, text=True)


def main_exit_code(*args):
    """Exit code of an in-process run; argparse errors raise SystemExit."""
    try:
        return cli.main(list(args))
    except SystemExit as exc:
        return exc.code


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def spec_path(tmp_path):
    return write_spec(tmp_path, BROWNIAN_SPEC)


def test_threshold_json_contract(spec_path):
    proc = run_cli("threshold", "--spec", spec_path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert list(doc.keys()) == ["b_c", "regime", "psi1", "phi_r", "roots",
                                "slope_ratio"]
    assert doc["b_c"] == pytest.approx(1.0 - 1.0 / math.sqrt(2.0),
                                       rel=1e-14)
    assert doc["regime"] == "G-continuous"
    assert doc["phi_r"] == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert doc["roots"] is None


def test_inspect_reports_exponent_and_assumptions(spec_path):
    proc = run_cli("inspect", "--spec", spec_path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["family"] == "brownian"
    assert doc["psi1"] == pytest.approx(0.5)
    assert doc["phi_r"] == pytest.approx(math.sqrt(2.0))
    assert doc["roots"] is None
    assert doc["assumptions"]["finite_mean"] is True
    assert doc["assumptions"]["discounting"] is True
    assert doc["assumptions"]["class_d"] is True


def test_value_csv_uses_crlf_and_zeroes_the_stop_region(tmp_path,
                                                        spec_path):
    out = tmp_path / "value.csv"
    proc = run_cli("value", "--spec", spec_path, "--grid", "0.1:0.6:6",
                   "--out", str(out))
    assert proc.returncode == 0
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 7  # header + 6 rows, nothing else
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    assert rows[0] == ["v", "w"]
    b_c = 1.0 - 1.0 / math.sqrt(2.0)
    for v_text, w_text in rows[1:]:
        v, w = float(v_text), float(w_text)
        if v <= b_c:
            assert w == 0.0
        else:
            assert w > 0.0


def test_scale_fn_matches_hyperbolic_closed_form(tmp_path, spec_path):
    out = tmp_path / "scale.csv"
    proc = run_cli("scale-fn", "--spec", spec_path, "--q", "1.0",
                   "--grid", "0:1:5", "--out", str(out))
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["x", "W", "Wprime", "Z"]
    first = [float(cell) for cell in rows[1]]
    assert first == [0.0, 0.0, 2.0, 1.0]  # W(0)=0, W'(0)=2/sigma^2, Z(0)=1
    last = [float(cell) for cell in rows[-1]]
    s2 = math.sqrt(2.0)
    assert last[1] == pytest.approx(s2 * math.sinh(s2), rel=1e-6)
    assert last[2] == pytest.approx(2.0 * math.cosh(s2), rel=1e-6)
    assert last[3] == pytest.approx(math.cosh(s2), rel=1e-6)


def test_small_sigma_spectneg_specs_are_served(tmp_path):
    # Phi(r) near 2e3 and 6e5: the exponent's quadratic term only takes
    # over far from the origin.
    for name, model, r in (
            ("a", {"family": "spectneg_kou", "m": 0.0, "sigma": 1e-3,
                   "a": 1.0, "eta2": 2.0}, 1.0),
            ("b", {"family": "spectneg_kou", "m": -0.3, "sigma": 1e-3,
                   "a": 1.5, "eta2": 3.0}, 2.0)):
        path = write_spec(tmp_path, dict(BROWNIAN_SPEC, model=model, r=r),
                          f"{name}.json")
        proc = run_cli("threshold", "--spec", path)
        assert proc.returncode == 0, proc.stderr
        b_c = json.loads(proc.stdout)["b_c"]
        proc = run_cli("value", "--spec", path, "--grid",
                       f"{0.5 * b_c!r}:{4.0 * b_c!r}:8")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
        for v_text, w_text in rows:
            v, w = float(v_text), float(w_text)
            assert math.isfinite(w)
            assert (w == 0.0) if v <= b_c else (w > 0.0)


def test_unbracketable_root_exits_3_naming_the_pole(tmp_path):
    # The root beyond eta1 = 1e9 lies within a few ulps of the pole.  The
    # two-sided family reports it and fails; the up-jump family needs only
    # its negative root and is served.
    model = {"family": "kou", "m": -0.2, "sigma": 0.3, "a": 0.5, "p": 0.4,
             "eta1": 1e9, "eta2": 3.0}
    path = write_spec(tmp_path, dict(BROWNIAN_SPEC, model=model))
    proc = run_cli("threshold", "--spec", path)
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr
    assert "pole 1000000000.0" in proc.stderr
    model = {"family": "expjd", "m": -0.2, "sigma": 0.3, "a": 0.5,
             "eta1": 1e9}
    path = write_spec(tmp_path, dict(BROWNIAN_SPEC, model=model), "up.json")
    proc = run_cli("threshold", "--spec", path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    lam = -doc["roots"][0]  # B_c = b_upper lam / (lam + 1), r = c = alpha = 1
    assert doc["b_c"] == pytest.approx((1.0 - doc["psi1"]) * lam / (lam + 1.0),
                                       rel=1e-14)
    proc = run_cli("value", "--spec", path, "--grid", "0.5:4:8")
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_scipy(spec_path):
    # numpy is the only runtime dependency.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from levystop.cli import main\n"
        f"assert main(['threshold', '--spec', {spec_path!r}]) == 0\n"
        f"assert main(['value', '--spec', {spec_path!r}, "
        "'--grid', '0.1:2:5']) == 0\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# One spec per family; r = 0.5 exceeds psi(1) for each.
FAMILY_MODELS = [
    {"family": "brownian", "m": 0.05, "sigma": 0.3},
    {"family": "kou", "m": 0.0, "sigma": 0.2, "a": 1.0, "p": 0.4,
     "eta1": 10.0, "eta2": 5.0},
    {"family": "expjd", "m": -0.1, "sigma": 0.25, "a": 0.5, "eta1": 4.0},
    {"family": "neg_poisson", "a": 0.7},
    {"family": "spectneg_kou", "m": 0.1, "sigma": 0.3, "a": 1.0,
     "eta2": 3.0},
]


# `levystop threshold` output for FAMILY_MODELS at r = 0.5, alpha = c = v = 1.
# Only the families with upward jumps list roots: four for the two-sided
# family, the one negative root for the one-sided one.
THRESHOLD_OUTPUT = {
    "brownian": (0.645861873485089, "G-continuous", 0.095,
                 2.823756961276789, None, 0.7973603376359123),
    "kou": (0.802873712801824, "G-continuous", -0.03555555555555555, None,
            [-9.804257607144729, -2.2087663868450105, 4.680522509878301,
             12.332501484111438], 0.7495708936946489),
    "expjd": (0.6255359517580679, "G-continuous", 0.09791666666666665, None,
              [-3.5018387071794437], 0.777868541046302),
    "neg_poisson": (0.9999999999999998, "G-discontinuous",
                    -0.44248439117999033, None, None, 0.5305127646453646),
    "spectneg_kou": (0.7420103376619582, "G-continuous", -0.10499999999999998,
                     3.87612430256879, None, 0.6132316840181473),
}


def test_threshold_stdout_is_pinned_for_every_family(tmp_path):
    keys = ["b_c", "regime", "psi1", "phi_r", "roots", "slope_ratio"]
    for model in FAMILY_MODELS:
        path = write_spec(tmp_path, {"model": model, "r": 0.5, "alpha": 1.0,
                                     "c": 1.0, "v": 1.0})
        want = dict(zip(keys, THRESHOLD_OUTPUT[model["family"]]))
        first, again = (run_cli("threshold", "--spec", path)
                        for _ in range(2))
        assert first.returncode == 0, first.stderr
        assert first.stdout == json.dumps(want, indent=2) + "\n"
        assert again.stdout == first.stdout


def test_threshold_and_inspect_run_without_numpy(tmp_path):
    # Both solve scalar roots only; numpy is loaded where arrays are.
    paths = [write_spec(tmp_path, {"model": model, "r": 0.5, "alpha": 1.0,
                                   "c": 1.0, "v": 1.0},
                        name=f"{model['family']}.json")
             for model in FAMILY_MODELS]
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from levystop.cli import main\n"
        f"for path in {paths!r}:\n"
        "    for cmd in ('threshold', 'inspect'):\n"
        "        assert main([cmd, '--spec', path]) == 0, (cmd, path)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_value_loads_neither_mc_nor_scale(spec_path):
    script = (
        "import sys\n"
        "from levystop.cli import main\n"
        f"assert main(['value', '--spec', {spec_path!r}, "
        "'--grid', '0.1:2:5']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'levystop.mc' not in sys.modules\n"
        "assert 'levystop.scale' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_sweep_reruns_are_byte_identical(tmp_path, spec_path):
    args = ("sweep", "--spec", spec_path, "--grid", "0.2:0.4:3",
            "--paths", "2000", "--horizon", "6", "--seed", "7")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out_a)).returncode == 0
    assert run_cli(*args, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = list(csv.reader(io.StringIO(out_a.read_text())))
    assert rows[0] == ["b", "mean", "std_error", "n_paths",
                       "truncated_fraction", "argmax", "flat"]
    assert len(rows) == 4
    assert sum(int(row[5]) for row in rows[1:]) == 1  # exactly one argmax


def test_counter_sweep_serves_a_b_that_underflows_against_v(tmp_path):
    # b / v underflows to 0, so the level is -inf: never passed, not a crash.
    doc = {"model": {"family": "neg_poisson", "a": 1.0}, "r": 0.5,
           "alpha": 1.0, "c": 1.0, "v": 3.2}
    proc = run_cli("sweep", "--spec", write_spec(tmp_path, doc), "--grid",
                   "5e-324:1:3", "--paths", "100")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert len(rows) == 4
    assert rows[1][4] == "1"  # every path misses the -inf level


def test_counter_simulate_serves_a_b_that_underflows_against_v(tmp_path):
    # b / v underflows to 0, but log(b) - log(v) is a level no path reaches.
    doc = {"model": {"family": "neg_poisson", "a": 1.0}, "r": 0.5,
           "alpha": 1.0, "c": 1.0, "v": 3.2}
    proc = run_cli("simulate", "--spec", write_spec(tmp_path, doc), "--b",
                   "5e-324", "--paths", "100")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["direct"]["truncated_fraction"] == 1.0
    assert doc["stopped"]["truncated_fraction"] == 1.0


def test_threshold_feeds_simulate_round_trip(tmp_path, spec_path):
    proc = run_cli("threshold", "--spec", spec_path)
    b_c = json.loads(proc.stdout)["b_c"]
    proc = run_cli("simulate", "--spec", spec_path, "--b", repr(b_c),
                   "--paths", "4000", "--horizon", "12", "--seed", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["reconciled"] is True
    se = doc["direct"]["std_error"]
    assert abs(doc["direct"]["mean"] - doc["analytic_w"]) < 5.0 * se + 0.01
    assert doc["direct"]["n_paths"] == 4000


def test_violated_discounting_exits_2(tmp_path):
    doc = dict(BROWNIAN_SPEC, r=0.4)  # psi(1) = 0.5 > r
    proc = run_cli("threshold", "--spec", write_spec(tmp_path, doc))
    assert proc.returncode == 2
    assert "assumption violation" in proc.stderr
    assert "psi(1) = 0.5" in proc.stderr


def test_input_errors_exit_1(tmp_path, spec_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli("threshold", "--spec", str(broken)).returncode == 1
    missing = str(tmp_path / "nope.json")
    assert run_cli("threshold", "--spec", missing).returncode == 1
    bad_family = write_spec(
        tmp_path, dict(BROWNIAN_SPEC, model={"family": "cauchy"}),
        "fam.json")
    proc = run_cli("threshold", "--spec", bad_family)
    assert proc.returncode == 1
    assert "unknown family" in proc.stderr
    proc = run_cli("value", "--spec", spec_path, "--grid", "1:0.5:4")
    assert proc.returncode == 1
    proc = run_cli("value", "--spec", spec_path, "--grid", "-1:2:4")
    assert proc.returncode == 1
    proc = run_cli("simulate", "--spec", spec_path, "--paths", "50")
    assert proc.returncode == 1  # --b is required
    assert run_cli("nonsense", "--spec", spec_path).returncode == 1

    # Non-finite numbers, integers beyond the float range, booleans and
    # strings are input errors naming the field or the flag, in the spec
    # document and on the command line alike.
    brownian = BROWNIAN_SPEC["model"]
    kou = {"family": "kou", "m": -0.2, "sigma": 0.3, "a": 0.5, "p": 0.4,
           "eta1": 3.0, "eta2": 2.0}
    for field, doc in (
            ("m", dict(BROWNIAN_SPEC, model=dict(brownian, m=math.nan))),
            ("sigma", dict(BROWNIAN_SPEC, model=dict(brownian,
                                                     sigma=math.inf))),
            ("eta2", dict(BROWNIAN_SPEC, model=dict(kou, eta2=math.inf))),
            ("m", dict(BROWNIAN_SPEC, model=dict(kou, m=-math.inf))),
            ("a", dict(BROWNIAN_SPEC, model=dict(kou, a=math.inf))),
            ("r", dict(BROWNIAN_SPEC, r=math.nan)),
            ("v", dict(BROWNIAN_SPEC, v=10**400)),
            ("sigma", dict(BROWNIAN_SPEC, model=dict(brownian, sigma=True))),
            ("r", dict(BROWNIAN_SPEC, r="1.5")),
            ("c", dict(BROWNIAN_SPEC, c=" 2 "))):
        path = write_spec(tmp_path, doc, "nonfinite.json")
        assert main_exit_code("threshold", "--spec", path) == 1
        assert repr(field) in capsys.readouterr().err
    for flag, args in (
            ("--horizon", ("simulate", "--b", "0.3", "--horizon", "nan")),
            ("--horizon", ("simulate", "--b", "0.3", "--horizon", "inf")),
            ("--b", ("simulate", "--b", "nan")),
            ("--q", ("scale-fn", "--q", "nan", "--grid", "0:1:3")),
            ("--q", ("scale-fn", "--q", "inf", "--grid", "0:1:3")),
            # No --dt option: the samplers are exact, with no time grid.
            ("--dt", ("sweep", "--dt", "0.01", "--grid", "0.1:0.5:3")),
            ("grid", ("value", "--grid", "1:inf:3"))):
        assert main_exit_code(*args, "--spec", spec_path) == 1
        assert flag in capsys.readouterr().err


def test_memory_error_exits_1(spec_path, monkeypatch, capsys):
    # Stands in for an allocation beyond the host, such as
    # `value --grid 0.1:2:1000000000000000`; nothing is allocated for real.
    for exc in (MemoryError("Unable to allocate 7.28 PiB"), MemoryError()):
        def fail(args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "cmd_value", fail)
        assert main_exit_code("value", "--spec", spec_path,
                              "--grid", "0.1:2:5") == 1
        err = capsys.readouterr().err
        assert err == f"input error: out of memory. {exc}".rstrip() + "\n"


def test_value_at_the_float_range_edges(tmp_path, capsys):
    # Past the top of the float range alpha v / (r - psi(1)), and with it
    # w, overflows: exit 3 naming that v, not a silent NaN.
    path = write_spec(tmp_path, dict(BROWNIAN_SPEC, r=0.6, v=3.2))
    assert main_exit_code("value", "--spec", path,
                          "--grid", "1e300:1.7e308:2") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: alpha v / (r - psi(1)) overflows at "
                   "v = 1.7e+308\n")
    # Subnormal v lies deep in the stopping region: w = 0 with no overflow
    # in v / b, and w at the top of the hold region stays finite.  Warnings
    # are errors here, so a RuntimeWarning would fail the run.
    for model in FAMILY_MODELS:
        path = write_spec(tmp_path, dict(BROWNIAN_SPEC, model=model, r=0.5),
                          model["family"] + ".json")
        assert main_exit_code("value", "--spec", path,
                              "--grid", "1e-320:1e-310:3") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [w for _, w in rows[1:]] == ["0", "0", "0"], model["family"]
        assert main_exit_code("value", "--spec", path,
                              "--grid", "1e250:1e300:3") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(math.isfinite(float(w)) and float(w) > 0
                   for _, w in rows[1:]), model["family"]
        # alpha v overflows here, alpha v / (r - psi(1)) does not
        path = write_spec(tmp_path, dict(BROWNIAN_SPEC, model=model, r=5.0,
                                         alpha=3.0), model["family"] + ".json")
        assert main_exit_code("value", "--spec", path,
                              "--grid", "1e307:1e308:2") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(math.isfinite(float(w)) and float(w) > 0
                   for _, w in rows[1:]), model["family"]


def test_stdout_and_file_output_agree(tmp_path, spec_path):
    to_stdout = run_cli("threshold", "--spec", spec_path)
    out = tmp_path / "t.json"
    run_cli("threshold", "--spec", spec_path, "--out", str(out))
    assert to_stdout.stdout == out.read_text()
