import json
import os
import subprocess
import sys
import time

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = json.load(open(os.path.join(PKG_ROOT, "docs", "schema.json")))
SCHEMA_TYPES = {"int": int, "str": str, "bool": bool, "list": list, "object": dict, "null": type(None)}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sigcurve.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=PKG_ROOT,
        timeout=300,
    )


def test_signature_ellipse_text():
    r = run_cli("signature", "--curve", "x^2+x*y+y^2-1", "--group", "SE2")
    assert r.returncode == 0
    assert (
        r.stdout.strip()
        == "S = 2916*k1^6 + 972*k1^4*k2^2 + 108*k1^2*k2^4 + 4*k2^6"
        " - 13608*k1^5 + 1944*k1^3*k2^2 + 2187*k1^4"
    )


def test_signature_point_constant():
    r = run_cli("signature", "--curve", "x^2+y^2-1", "--group", "SE2")
    assert r.returncode == 0
    assert r.stdout.strip() == "point signature: 1"


def test_degree_json_schema():
    r = run_cli(
        "--format",
        "json",
        "degree",
        "--curve",
        "x^2*y+y^2+y+64/121",
        "--group",
        "A2",
        "--n",
        "2",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    check_schema(payload)
    assert payload["deg_S_predicted"] == 24


def check_schema(payload):
    """The payload has its command's required keys, no undeclared key, and
    the declared type for every key (docs/schema.json)."""
    spec = SCHEMA["commands"][payload["command"]]
    assert payload["schema_version"] == SCHEMA["version"]
    assert all(k in payload for k in spec["required"])
    if "one_of" in spec:
        assert [all(k in payload for k in keys) for keys in spec["one_of"]].count(True) == 1
    assert set(payload) <= set(spec["required"]) | set(spec["types"])
    for key, declared in spec["types"].items():
        if key in payload:
            value = payload[key]
            kinds = declared.split("|")
            assert any(
                isinstance(value, SCHEMA_TYPES[k]) and (k == "bool") == isinstance(value, bool)
                for k in kinds
            ), (key, value, declared)
            if key == "certificate" and value is not None:
                cert = SCHEMA["definitions"]["certificate"]
                assert set(value) == set(cert["required"])
                assert value["kind"] == "bezout-count"
                assert value["curve"] == "irreducible-asserted"


@pytest.mark.parametrize(
    "args",
    [
        ["theta", "--curve", "x^2+y^2-1", "--index", "2"],
        ["theta", "--curve", "y-x^2", "--index", "4"],
        ["invariants", "--curve", "x^2+x*y+y^2-1", "--group", "SE2"],
        ["signature", "--curve", "x^2+x*y+y^2-1", "--group", "SE2"],
        ["signature", "--curve", "x^2+y^2-1", "--group", "SE2"],
        ["degree", "--curve", "x^3+y^3+1", "--group", "A2"],
        ["degree", "--curve", "y^2-x^3", "--group", "PGL3"],
        ["symmetry", "--curve", "y^2-x^3", "--group", "SE2"],
        ["equiv", "--curve", "x^2+x*y+y^2-1", "--curve2", "x^2+y^2-1", "--group", "SE2"],
        ["samples", "--curve", "x^2+y^2-1", "--group", "SE2", "--count", "3"],
        ["fermat", "--d", "3", "--group", "A2", "--what", "signature"],
        ["fermat", "--d", "3", "--group", "A2", "--what", "symmetry"],
        ["fermat", "--d", "3", "--group", "A2", "--what", "degree"],
    ],
    ids=lambda args: "-".join(a for a in args if not a.startswith("-"))[:40],
)
def test_json_payload_matches_schema(args):
    r = run_cli("--format", "json", *args)
    assert r.returncode == 0, r.stderr
    check_schema(json.loads(r.stdout))


def test_theta_command():
    r = run_cli("theta", "--curve", "x^2+y^2-1", "--index", "2")
    assert r.returncode == 0
    assert "d_i = 3" in r.stdout and "tau_i = 2" in r.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_theta_vanishing_on_curve(fmt):
    """T_4..T_8 vanish identically on a parabola: no degree, no traceback."""
    r = run_cli("--format", fmt, "theta", "--curve", "y-x^2", "--index", "4")
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    if fmt == "json":
        assert json.loads(r.stdout)["deg_T"] is None
    else:
        assert r.stdout.splitlines() == ["T_4 = 0", "d_i = 8, tau_i = 4"]


def test_invariants_command():
    r = run_cli("invariants", "--curve", "x^2+x*y+y^2-1", "--group", "SE2")
    assert r.returncode == 0
    # K1 numerator 36(x^2+xy+y^2)^2 and denominator (5x^2+8xy+5y^2)^3, expanded
    assert "36*x^4" in r.stdout and "125*x^6" in r.stdout and "1712*x^3*y^3" in r.stdout


def test_symmetry_command():
    r = run_cli("symmetry", "--curve", "y^2-x^3", "--group", "SE2")
    assert r.returncode == 0
    assert r.stdout.strip() == "symmetry order: 1"


def test_symmetry_fermat_cubic_pgl3():
    """6 d^2 = 54 from the certified signature of degree 4."""
    t0 = time.time()
    r = run_cli("--format", "json", "symmetry", "--curve", "x^3+y^3+1", "--group", "PGL3")
    assert time.time() - t0 < 30
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["n"] == 54 and payload["signature_degree"] == 4


def test_equiv_command():
    r = run_cli(
        "equiv",
        "--curve",
        "x^2+x*y+y^2-1",
        "--curve2",
        "x^2+y^2-1",
        "--group",
        "SE2",
    )
    assert r.returncode == 0
    assert "False" in r.stdout and "constant-vs-curve" in r.stdout


def test_samples_csv():
    r = run_cli(
        "samples", "--curve", "x^2+y^2-1", "--group", "SE2", "--count", "5", "--seed", "1"
    )
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "x,y,k1,k2"
    assert len(lines) == 6
    for row in lines[1:]:
        vals = [float(v) for v in row.split(",")]
        assert abs(vals[0] ** 2 + vals[1] ** 2 - 1) < 1e-9
        assert abs(vals[2] - 1) < 1e-9  # unit circle curvature constant


def test_samples_curve_without_real_points():
    r = run_cli(
        "samples", "--curve", "x^2+2*y^2+1", "--group", "SE2", "--count", "25", "--seed", "1"
    )
    assert r.returncode == 0
    assert r.stdout.strip() == "x,y,k1,k2"


def test_fermat_symmetry_command():
    r = run_cli("fermat", "--d", "4", "--group", "A2", "--what", "symmetry")
    assert r.returncode == 0
    assert "n = 32" in r.stdout


def test_fermat_signature_json():
    r = run_cli(
        "--format", "json", "fermat", "--d", "3", "--group", "A2", "--what", "signature"
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["degree"] == 2
    assert payload["verified"] is True
    assert payload["verification"] == "bezout-count"
    assert payload["certificate"]["fibers"] > payload["certificate"]["deg_N"]


def test_exit_code_parse_error():
    r = run_cli("signature", "--curve", "x^2 + $", "--group", "SE2")
    assert r.returncode == 4
    assert "parse error" in r.stderr
    assert r.stdout == ""


def test_exit_code_exceptional():
    r = run_cli("signature", "--curve", "x+y-1", "--group", "SE2")
    assert r.returncode == 2
    assert "exceptional" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["degree", "--curve", "(x^2+y^2-1)^2", "--group", "SE2"],
        ["signature", "--curve", "(x^2+y^2-1)^2*(x^2+2*y^2-1)", "--group", "SE2"],
        ["invariants", "--curve", "(y-1)^2*(x^3+y^3+1)", "--group", "A2"],
        ["degree", "--curve", "(x-y)^2", "--group", "A2"],
    ],
)
def test_exit_code_not_squarefree(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip().splitlines() == [r.stderr.strip()]
    assert "not squarefree" in r.stderr


def test_squarefree_check_reads_both_partials():
    # gcd(F, F_x) = y - 1 but y - 1 does not divide F_y: the curve is reduced
    r = run_cli("theta", "--curve", "(y-1)*(x^2+y^2-1)", "--index", "1")
    assert r.returncode == 0
    assert r.stdout.startswith("T_1 = ")


def test_out_file(tmp_path):
    out = tmp_path / "sig.txt"
    r = run_cli(
        "--out", str(out), "signature", "--curve", "x^2+x*y+y^2-1", "--group", "SE2"
    )
    assert r.returncode == 0
    assert r.stdout == ""
    assert out.read_text().startswith("S = 2916*k1^6")


@pytest.mark.parametrize(
    "args, env",
    [
        (["degree", "--curve", "x^3+y^3+1", "--group", "A2", "--trials", "0"], None),
        (["degree", "--curve", "x^3+y^3+1", "--group", "A2", "--n", "0"], None),
        (["degree", "--curve", "x^3+y^3+1", "--group", "A2", "--seed", "-5"], None),
        (["samples", "--curve", "x^2+y^2-1", "--group", "SE2", "--count", "0"], None),
        (["fermat", "--d", "0", "--group", "A2"], None),
        (["fermat", "--d", "3", "--group", "SE2"], None),
        (["invariants", "--curve", "3", "--group", "SE2"], None),
        (["signature", "--curve", "(x^2+y^2-1)*(x^2+2*y^2-1)", "--group", "SE2"], None),
        (["signature", "--curve", "(x^2+y^2-1)^2*(x^2+2*y^2-1)", "--group", "SE2"], None),
    ],
)
def test_invalid_run_parameters_rejected(args, env):
    r = run_cli(*args, env_extra=env)
    assert r.returncode != 0
    assert "Traceback" not in r.stderr
    assert r.stderr.strip()


@pytest.mark.parametrize(
    "args",
    [
        ["--format", "json", "degree", "--curve", "-x^3-y^3+1", "--group", "A2"],
        ["equiv", "--curve", "-x^2-y^2+1", "--curve2", "-2*x^2-2*y^2+2", "--group", "SE2"],
    ],
)
def test_curve_texts_may_begin_with_a_minus(args):
    # argparse would read -x^3... as an option; the answer is that of the
    # --curve=TEXT spelling
    r, joined = run_cli(*args), []
    for arg in args:
        if joined and joined[-1] in ("--curve", "--curve2"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    j = run_cli(*joined)
    assert r.returncode == j.returncode == 0, r.stderr
    assert (r.stdout, r.stderr) == (j.stdout, j.stderr)


def test_missing_curve_text_is_still_an_argument_error():
    r = run_cli("degree", "--curve", "--group", "SE2")
    assert r.returncode == 2
    assert "argument --curve: expected one argument" in r.stderr


def test_closed_output_pipe_exits_quietly():
    # the reader closes the pipe before the command writes (as `| head`
    # may): exit 1 with nothing on stderr, no BrokenPipeError traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "sigcurve.cli", "theta", "--curve", "x^2+y^2-1", "--index", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=PKG_ROOT,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert err == b""
