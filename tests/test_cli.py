import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplicial_gap import cli, matrix_core, reduced_sdp, sdp_numeric, subtour_lp
from simplicial_gap.certificates import CertificateY
from simplicial_gap.cli import main
from simplicial_gap.serialize import csv_cell, fmt_float, json_canonical

CERT_HEADER = (
    "g,n,dense_checked,passed,residual_row_assign,residual_col_assign,"
    "residual_gangster,residual_total_sum,min_entry,min_eig_closed_form,"
    "anstreicher_passed,min_shifted_eigenvalue,spectrum_min"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_csv(capsys):
    code, out, _ = run(capsys, ["certify", "--g", "2", "--n", "16,8", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CERT_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:4] == ["2", "8", "true", "true"]  # sorted by n
    assert lines[2].split(",")[1] == "16"
    # float cells carry the full 17 significant digits
    for i, cell in enumerate(lines[1].split(",")):
        if i in (0, 1) or cell in ("true", "false"):
            continue
        assert fmt_float(float(cell)) == cell


def test_certify_json_round_trip(capsys):
    code, out, _ = run(capsys, ["certify", "--g", "2", "--n", "8"])
    assert code == 0
    payload = json.loads(out)
    assert json_canonical(payload) == out
    assert len(payload) == 1
    entry = payload[0]
    assert entry["povh_rendl"]["passed"] is True
    assert entry["anstreicher"]["passed"] is True
    assert float(entry["spectrum_min"]) >= -1e-12


def test_certify_dense_densifies_and_factors_once(capsys, monkeypatch):
    calls = {"densify": 0, "sym_eigs": 0, "eigh": 0, "kron": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        CertificateY, "densify", counted("densify", CertificateY.densify)
    )
    # every package namespace that binds sym_eigs or kron, as a tracer
    # would patch it
    for key in ("sym_eigs", "kron"):
        original = getattr(matrix_core, key)
        wrapped = counted(key, original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "simplicial_gap":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapped)
    for attr in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, attr, counted("eigh", getattr(np.linalg, attr)))
    code, out, _ = run(capsys, ["certify", "--g", "4", "--n", "16,32", "--dense"])
    assert code == 0
    assert len(json.loads(out)) == 2
    # densify reads Y off its n x n group pattern, the one kron call per
    # certificate; nothing builds an n^2-side product
    assert calls == {"densify": 2, "sym_eigs": 2, "eigh": 2, "kron": 2}


def test_certify_dense_flag_past_cap(capsys):
    code, _, err = run(capsys, ["certify", "--g", "2", "--n", "64", "--dense"])
    assert code == 2
    assert "error:" in err


def test_certify_checks_every_n_before_densifying(capsys, monkeypatch):
    calls = []
    real = CertificateY.densify

    def recording(self):
        calls.append(self.n)
        return real(self)

    monkeypatch.setattr(CertificateY, "densify", recording)
    code, out, err = run(capsys, ["certify", "--g", "2", "--n", "44,45", "--dense"])
    assert code == 2
    assert "error:" in err
    assert out == ""
    assert calls == []


def test_certify_strict_psd_tolerance_exits_one(capsys):
    # the closed-form minimum eigenvalue is a tiny negative rounding residue
    code, out, _ = run(capsys, ["certify", "--g", "2", "--n", "8", "--tol-psd", "1e-30"])
    assert code == 1
    assert json.loads(out)[0]["povh_rendl"]["passed"] is False


def test_certify_env_cap_disables_dense(capsys, monkeypatch):
    monkeypatch.setenv("SIMPLICIAL_GAP_MAX_DENSE", "16")
    code, out, _ = run(capsys, ["certify", "--g", "2", "--n", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["povh_rendl"]["dense_checked"] is False


def test_malformed_env_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SIMPLICIAL_GAP_MAX_DENSE", "many")
    code, _, err = run(capsys, ["certify", "--g", "2", "--n", "8"])
    assert code == 2
    assert "error:" in err


def test_gap_csv_and_json_agree(capsys):
    code, csv_out, _ = run(capsys, ["gap", "--z", "1", "--n", "8,16", "--format", "csv"])
    assert code == 0
    lines = csv_out.strip().split("\n")
    assert lines[0] == "z,g,n,tsp,kron_term,diag_term,sdp_upper,gap_lower,asymptote"
    code, json_out, _ = run(capsys, ["gap", "--z", "1", "--n", "8,16"])
    assert code == 0
    payload = json.loads(json_out)
    assert json_canonical(payload) == json_out
    for row_text, item in zip(lines[1:], payload):
        row = row_text.split(",")
        assert row[2] == str(item["n"])
        assert row[7] == item["gap_lower"]
        assert row[8] == item["asymptote"]


def test_gap_rejects_bad_n(capsys):
    # n <= g is refused by the layout check too, never by an IndexError
    for n in ("7", "0", "-4"):
        code, _, err = run(capsys, ["gap", "--z", "1", "--n", n])
        assert code == 2
        assert "error:" in err


def test_baseline_even_and_odd_groups(capsys):
    code, out, _ = run(capsys, ["baseline", "--g", "2", "--per-group", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["tsp_analytic"] == "2"
    assert report["tsp_dp"] == "2"
    code, out, _ = run(capsys, ["baseline", "--g", "3", "--per-group", "2"])
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_baseline_csv_shape(capsys):
    code, out, _ = run(capsys, ["baseline", "--g", "2", "--per-group", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("g,per_group,n_total,")
    assert lines[1].split(",")[-1] == "true"


def test_baseline_usage_errors(capsys):
    assert run(capsys, ["baseline", "--g", "1", "--per-group", "4"])[0] == 2
    assert run(capsys, ["baseline", "--g", "4", "--per-group", "1"])[0] == 2
    assert run(capsys, ["baseline", "--g", "2", "--per-group", "31"])[0] == 2


def test_solve_tiny_default_is_conclusive(capsys):
    code, out, _ = run(capsys, ["solve-tiny"])
    assert code == 0
    report = json.loads(out)
    assert report["non_monotonic"] is True
    assert float(report["difference"]) >= 0.3


def test_solve_tiny_refuses_a_certificate_that_fails_its_check(capsys):
    # n = 2902 is the first even n whose g = 2 certificate, assemble(n, 2),
    # misses the total-sum check by roundoff: its bound proves nothing and
    # the report cannot be conclusive
    code, out, _ = run(capsys, ["solve-tiny", "--large-n", "2902"])
    assert code == 1
    report = json.loads(out)
    assert report["conclusive"] is False
    assert report["non_monotonic"] is False


@pytest.mark.parametrize("n", [2546, 2902])
def test_certify_and_solve_tiny_judge_one_certificate(n, capsys):
    # both commands build the g = 2 certificate at n through assemble,
    # so its total-sum verdict, pass at 2546 and fail at 2902, is shared
    certify_code = run(capsys, ["certify", "--g", "2", "--n", str(n)])[0]
    tiny_code = run(capsys, ["solve-tiny", "--large-n", str(n)])[0]
    assert certify_code == tiny_code


def test_solve_tiny_three_vertex_converges_immediately(capsys):
    # the 3-vertex objective is pinned to 2 by the affine constraints: one
    # Newton step already proves a bound above the certificate's, and a
    # handful of steps reach the tolerances
    code, out, _ = run(capsys, ["solve-tiny", "--max-iters", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["conclusive"] is True and report["non_monotonic"] is True
    code, out, _ = run(capsys, ["solve-tiny", "--max-iters", "10"])
    assert code == 0
    assert json.loads(out)["tiny_converged"] is True


def test_solve_tiny_starved_run_reports_unconverged(capsys):
    code, out, _ = run(capsys, ["solve-tiny", "--per-group", "2", "--max-iters", "1"])
    report = json.loads(out)
    assert report["converged"] is False
    assert report["status"] == "iteration-limit"
    assert code == 0  # the check is on the certificate and the proven bound


def test_solve_tiny_five_vertex_within_bound(capsys):
    code, out, _ = run(capsys, ["solve-tiny", "--per-group", "2", "--max-iters", "20000"])
    assert code == 0
    report = json.loads(out)
    assert report["within_bound"] is True
    assert report["certificate_bound"] == "2.5"
    assert 1.999 <= float(report["lower_bound"]) <= 2.0
    assert report["upper_bound"] == "2"


def test_solve_tiny_refuses_a_certificate_that_fails_its_check_per_group_2(
    capsys, monkeypatch
):
    real = cli.verify_povh_rendl

    def failing(y, view):
        return dataclasses.replace(real(y, view), passed=False)

    monkeypatch.setattr(cli, "verify_povh_rendl", failing)
    code, out, _ = run(capsys, ["solve-tiny", "--per-group", "2", "--max-iters", "5"])
    assert code == 1
    report = json.loads(out)
    assert report["within_bound"] is False
    assert float(report["lower_bound"]) <= float(report["certificate_bound"])


@pytest.mark.parametrize("per_group", ["1", "2"])
def test_solve_tiny_csv_renders_the_json_record(per_group, capsys):
    argv = ["solve-tiny", "--per-group", per_group, "--max-iters", "5"]
    code, json_out, _ = run(capsys, argv)
    csv_code, csv_out, _ = run(capsys, [*argv, "--format", "csv"])
    assert csv_code == code
    header, row, end = csv_out.split("\n")
    assert end == ""
    record = json.loads(json_out)
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells == {key: csv_cell(value) for key, value in record.items()}


def test_solve_tiny_encoding_obeys_the_dense_cap(capsys, monkeypatch):
    # the 7-vertex encoding builds 36 x 36 matrices
    monkeypatch.setenv("SIMPLICIAL_GAP_MAX_DENSE", "16")
    code, out, err = run(capsys, ["solve-tiny", "--per-group", "3"])
    assert code == 2
    assert "error:" in err and "36" in err
    assert out == ""


def test_solve_tiny_usage_errors(capsys):
    assert run(capsys, ["solve-tiny", "--per-group", "4"])[0] == 2
    assert run(capsys, ["solve-tiny", "--large-n", "7"])[0] == 2


@pytest.mark.parametrize("per_group", ["2", "3"])
def test_solve_tiny_refuses_large_n_past_per_group_1(per_group, capsys):
    # per-group >= 2 quotes the certificate of its own layout, so --large-n
    # would be ignored there: it is refused instead
    argv = ["solve-tiny", "--per-group", per_group, "--large-n", "8"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--large-n" in err
    # at per-group 1 the flag keeps its meaning, 16 when it is left out
    short = ["solve-tiny", "--max-iters", "1"]
    assert run(capsys, [*short, "--large-n", "16"]) == run(capsys, short)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-tiny", "--per-group", "4"],
        ["solve-tiny", "--per-group", "0"],
        ["solve-tiny", "--large-n", "7"],
        ["solve-tiny", "--per-group", "2", "--large-n", "5"],
        ["solve-tiny", "--per-group", "2", "--large-n", "8"],
        ["baseline", "--g", "1", "--per-group", "3"],
        ["baseline", "--g", "20", "--per-group", "4"],
        ["gap", "--z", "0", "--n", "8"],
        ["gap", "--z", "2", "--n", "10"],
        ["solve-tiny", "--max-iters", "0"],
        ["solve-tiny", "--per-group", "2", "--max-iters", "0"],
    ],
    ids=" ".join,
)
def test_library_checks_refuse_before_any_work(argv, capsys, monkeypatch):
    # the library's own checks, or the parser's for a flag whose type it
    # checks, give the usage errors, ahead of any solve, reduction or LP
    # round
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for module, name in [
        (sdp_numeric, "solve"),
        (cli, "solve"),
        (sdp_numeric, "build_reduction"),
        (subtour_lp, "simplex_solve"),
        (reduced_sdp, "build_reduction"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    if "--max-iters" in argv:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code, (out, err) = exc.value.code, capsys.readouterr()
        assert "error: argument --max-iters: " in err
    else:
        code, out, err = run(capsys, argv)
        assert err.startswith("error: ")
    assert code == 2 and out == ""


def test_identities_csv(capsys):
    code, out, _ = run(capsys, ["identities", "--g", "2", "--n", "8,16", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("g,n,")
    assert len(lines) == 3


def test_identities_impossible_tolerance_exits_one(capsys):
    code, _, _ = run(capsys, ["identities", "--g", "2", "--n", "8", "--tol-eq", "1e-20"])
    assert code == 1


def test_identities_usage_errors(capsys):
    assert run(capsys, ["identities", "--g", "3", "--n", "12"])[0] == 2
    assert run(capsys, ["identities", "--g", "2", "--n", "7"])[0] == 2


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, ["gap", "--z", "1", "--n", "8", "--format", "csv", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("z,g,n,")
    assert text.endswith("\n")


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-dir", "a-dir"])
def test_unwritable_out_is_usage_error(target, tmp_path, capsys):
    out_path = tmp_path / target
    code, out, err = run(capsys, ["gap", "--z", "1", "--n", "8", "--out", str(out_path)])
    assert code == 2
    assert err.startswith("error: ") and out == ""
    assert list(tmp_path.iterdir()) == []


def test_bad_n_list_is_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--g", "2", "--n", "8,x,16"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["certify", "--g", "2", "--n", ","])


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--g", "2", "--n", "8", "--tol-psd", "nan"],
        ["certify", "--g", "2", "--n", "8", "--tol-eq", "-1"],
        ["identities", "--g", "2", "--n", "8", "--tol-eq", "-1"],
        ["certify", "--g", "2", "--n", "8", "--tol-eq", "inf"],
        ["certify", "--g", "2", "--n", "8", "--tol-psd", "-inf"],
        ["identities", "--g", "2", "--n", "8", "--tol-eq", "inf"],
        ["identities", "--g", "2", "--n", "8", "--tol-eq", "tight"],
    ],
    ids=" ".join,
)
def test_tolerance_must_be_finite_and_nonnegative(argv, capsys):
    # a negative or NaN tolerance would fail every certificate and an
    # infinite one pass anything: each is a usage error, not a verdict
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --tol-" in captured.err and captured.out == ""


def test_zero_and_exponent_tolerances_parse():
    argv = ["certify", "--g", "2", "--n", "8", "--tol-eq", "0", "--tol-psd", "1e-30"]
    args = cli.build_parser().parse_args(argv)
    assert (args.tol_eq, args.tol_psd) == (0.0, 1e-30)


def test_unknown_command_is_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


REPO = Path(__file__).resolve().parents[1]
SCRIPT = "simplicial-gap"

# what an installer's console-script wrapper does: load the entry point,
# name the program after the script, exit with main()'s return value
WRAPPER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "main = EntryPoint({name!r}, {value!r}, 'console_scripts').load()\n"
    "sys.argv[0] = {name!r}\n"
    "sys.exit(main())\n"
)


def declared_entry_point() -> str:
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][SCRIPT]


def run_entry_point(*args: str) -> subprocess.CompletedProcess:
    """Run the declared entry point from the source tree in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    code = WRAPPER.format(name=SCRIPT, value=declared_entry_point())
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_installed_script_help_runs():
    assert declared_entry_point() == "simplicial_gap.cli:main"
    proc = run_entry_point("--help")
    assert proc.returncode == 0
    assert "certify" in proc.stdout


@pytest.mark.skipif(
    shutil.which(SCRIPT) is None,
    reason=f"no '{SCRIPT}' script on PATH: the package is not installed",
)
def test_path_script_help_matches_entry_point():
    proc = subprocess.run(
        [shutil.which(SCRIPT), "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout == run_entry_point("--help").stdout
