"""CLI contract: exit codes, JSON determinism, file round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qhal import make_separable_lattice, random_sequence, tf_shift
from qhal.cli import main, parse_lattice_spec, render_json
from qhal.io import load_text, loads_lattice, loads_operator, loads_sequence, loads_signal
from qhal.io import dumps_operator, save_text
from qhal.operators import random_operator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- JSON rendering ----------------------------------------------------------


def test_render_json_fixed_layout():
    doc = {"a": 1, "b": [True, None, 0.5], "c": "x"}
    assert render_json(doc) == '{"a":1,"b":[true,null,0.5],"c":"x"}'


def test_render_json_floats_survive_parsing():
    rng = np.random.default_rng(150)
    values = list(rng.standard_normal(20))
    parsed = json.loads(render_json(values))
    assert parsed == values


def test_parse_lattice_spec_forms():
    assert parse_lattice_spec("3,3", 9) == make_separable_lattice(3, 3, 9)
    lat = parse_lattice_spec("gens=1,1", 4)
    assert lat.size == 4


# -- riesz -------------------------------------------------------------------


def test_riesz_gaussian_generator_passes(capsys):
    code, out, _ = run(
        capsys, "riesz", "--L", "9", "--lattice", "3,3", "--op", "rank1:gauss,gauss"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["qhal_report"] == 1
    assert doc["A"] > 0
    assert doc["zero_cosets"] == []
    assert len(doc["gram_eigenvalues"]) == 9


def test_riesz_identity_on_full_lattice_is_degenerate(capsys):
    code, out, _ = run(
        capsys, "riesz", "--L", "9", "--lattice", "1,1", "--op", "identity"
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["zero_cosets"]


def test_riesz_rejects_bad_lattice(capsys):
    code, _, err = run(
        capsys, "riesz", "--L", "9", "--lattice", "4,3", "--op", "identity"
    )
    assert code == 1
    assert "divide" in err or "divisor" in err or "error" in err


def test_riesz_json_is_deterministic(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _, _ = run(
            capsys,
            "riesz", "--L", "9", "--lattice", "3,3",
            "--op", "randomrank:2", "--seed", "7", "--json", str(path),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_riesz_tolerance_flag_and_env(capsys, monkeypatch):
    base = ("riesz", "--L", "9", "--lattice", "3,3", "--op", "rank1:gauss,gauss")
    # an absurdly large relative threshold marks the symbol minimum as zero
    code, _, _ = run(capsys, *base, "--tol", "0.99")
    assert code == 2
    monkeypatch.setenv("QHAL_TOL", "0.99")
    code, _, _ = run(capsys, *base)
    assert code == 2
    # explicit flag beats the environment
    code, _, _ = run(capsys, *base, "--tol", "1e-10")
    assert code == 0
    monkeypatch.setenv("QHAL_TOL", "not-a-number")
    code, _, _ = run(capsys, *base)
    assert code == 1
    # a NaN, infinite or negative threshold would switch the zero test off
    delta = ("riesz", "--L", "9", "--lattice", "3,3", "--op", "rank1:delta,delta")
    for bad in ("nan", "-1", "inf"):
        code, out, err = run(capsys, *delta, f"--tol={bad}")
        assert code == 1 and out == "" and "zero_tol" in err, bad
        monkeypatch.setenv("QHAL_TOL", bad)
        code, out, err = run(capsys, *delta)
        assert code == 1 and out == "" and "zero_tol" in err, bad


# -- approx and recover ------------------------------------------------------


def test_approx_gabor_target_has_tiny_residual(capsys, tmp_path):
    mask_path = tmp_path / "mask.txt"
    code, out, _ = run(
        capsys,
        "approx", "--L", "9", "--lattice", "3,3",
        "--op", "rank1:gauss,gauss", "--target", "gabor:rand,gauss",
        "--out", str(mask_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_hs"] < 1e-10
    assert doc["orthogonality_defect"] < 1e-9
    assert doc["mask_agreement"] < 1e-9
    mask = loads_sequence(load_text(mask_path))
    assert mask.lattice == make_separable_lattice(3, 3, 9)


def test_approx_recovers_the_stored_mask(capsys, tmp_path):
    mask_path = tmp_path / "mask.txt"
    code, _, _ = run(
        capsys,
        "approx", "--L", "9", "--lattice", "3,3",
        "--op", "rank1:gauss,gauss", "--target", "gabor:rand,gauss",
        "--seed", "3", "--out", str(mask_path),
    )
    assert code == 0
    # the target builder draws its mask from the documented seed stream
    lat = make_separable_lattice(3, 3, 9)
    want = random_sequence(lat, np.random.default_rng([4, 23]))
    got = loads_sequence(load_text(mask_path))
    assert np.max(np.abs(got.values - want.values)) < 1e-10


def test_approx_degenerate_generator_exits_two(capsys):
    code, _, err = run(
        capsys,
        "approx", "--L", "9", "--lattice", "1,1",
        "--op", "identity", "--target", "random",
    )
    assert code == 2
    assert "error" in err


def test_recover_round_trip(capsys, tmp_path):
    mask_path = tmp_path / "mask.txt"
    code, out, _ = run(
        capsys,
        "recover", "--L", "9", "--lattice", "3,3",
        "--op", "rank1:gauss,gauss", "--target", "gabor:rand,gauss",
        "--seed", "5", "--out", str(mask_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_hs"] < 1e-10
    lat = make_separable_lattice(3, 3, 9)
    want = random_sequence(lat, np.random.default_rng([6, 23]))
    got = loads_sequence(load_text(mask_path))
    assert np.max(np.abs(got.values - want.values)) < 1e-10


@pytest.mark.parametrize(
    "L, lattice", [("8", "2,4"), ("12", "gens=2,3")], ids=["even", "even-general"]
)
def test_analysis_commands_run_at_even_L(capsys, L, lattice):
    head = ("--L", L, "--lattice", lattice, "--op", "randomrank:2")
    code, out, _ = run(capsys, "riesz", *head)
    assert code == 0
    doc = json.loads(out)
    eigs = sorted(doc["gram_eigenvalues"])
    assert np.isclose(eigs[0], doc["A"]) and np.isclose(eigs[-1], doc["B"])
    code, out, _ = run(capsys, "approx", *head, "--target", "random")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_hs"] < doc["target_norm"]
    assert doc["mask_agreement"] < 1e-9 and doc["orthogonality_defect"] < 1e-9
    code, out, _ = run(capsys, "recover", *head, "--target", "gabor:rand,rand")
    assert code == 0
    assert json.loads(out)["residual_hs"] >= 0


def test_recover_round_trip_at_even_L(capsys, tmp_path):
    """The Gaussian is Riesz on 2Z x 4Z at L = 8, so a Gabor multiplier with
    the same window recovers its mask exactly."""
    mask_path = tmp_path / "m.seq"
    code, out, _ = run(
        capsys,
        "recover", "--L", "8", "--lattice", "2,4",
        "--op", "rank1:gauss,gauss", "--target", "gabor:rand,gauss",
        "--out", str(mask_path),
    )
    assert code == 0
    assert json.loads(out)["residual_hs"] < 1e-12
    lat = make_separable_lattice(2, 4, 8)
    want = random_sequence(lat, np.random.default_rng([1, 23])).values
    got = loads_sequence(load_text(mask_path)).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fourier_wigner_specs_stay_odd_only(capsys):
    """bump and underspread are defined through FW."""
    head = ("riesz", "--L", "8", "--lattice", "2,4")
    for spec in ("bump", "underspread:1,1"):
        code, out, err = run(capsys, *head, "--op", spec)
        assert code == 1 and out == "", spec
        assert "L=8" in err, spec


# -- divide ------------------------------------------------------------------


def test_divide_underspread_reconstruction(capsys, tmp_path):
    out_path = tmp_path / "A.txt"
    code, out, _ = run(
        capsys,
        "divide", "--L", "15", "--lattice", "3,3",
        "--op", "underspread:1,1", "--divisor", "bump", "--domain", "2,2",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reconstruction_error"] < 1e-9
    assert len(doc["domain"]) == 25
    A = loads_operator(load_text(out_path))
    assert A.shape == (15, 15)


def test_divide_runs_at_even_L_with_file_operands(capsys, tmp_path):
    L = 8
    rng = np.random.default_rng(170)
    # V(pi(z)) = L delta_z, so S has V(S) on the box |m|, |n| <= 1
    S = sum(
        complex(*rng.standard_normal(2)) * tf_shift((i, j), L)
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
    ) / L
    T = random_operator(L, rng)
    paths = {}
    for name, op in (("S", S), ("T", T)):
        paths[name] = tmp_path / f"{name}.txt"
        save_text(paths[name], dumps_operator(op))
    out_path = tmp_path / "A.txt"
    code, out, _ = run(
        capsys,
        "divide", "--L", "8", "--lattice", "2,2",
        "--op", f"file:{paths['S']}", "--divisor", f"file:{paths['T']}",
        "--domain", "1,1", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out)["reconstruction_error"] < 1e-12
    assert loads_operator(load_text(out_path)).shape == (L, L)


def test_divide_rejects_wide_spreading_support(capsys):
    code, _, err = run(
        capsys,
        "divide", "--L", "15", "--lattice", "3,3",
        "--op", "random", "--divisor", "bump", "--domain", "2,2",
    )
    assert code == 2
    assert "error" in err


def test_divide_rejects_vanishing_divisor(capsys):
    code, _, _ = run(
        capsys,
        "divide", "--L", "15", "--lattice", "3,3",
        "--op", "underspread:1,1", "--divisor", "identity", "--domain", "2,2",
    )
    assert code == 2


# -- suite -------------------------------------------------------------------


def test_suite_single_case_passes(capsys):
    code, out, _ = run(capsys, "suite", "--cases", "9:3,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case L=9 lattice=3,3"
    assert any(line.startswith("suite PASS") for line in lines)
    assert not any(" FAIL " in line for line in lines)
    doc = json.loads(lines[-1])
    assert doc["pass"] is True
    assert doc["cases"][0]["L"] == 9
    assert all(c["pass"] for c in doc["cases"][0]["checks"])


def test_suite_passes_past_L_26(capsys):
    """Every check at L = 27 and 45, whose Gaussian cases build the window
    at these sizes, passes under its pinned tolerance."""
    code, out, _ = run(capsys, "suite", "--cases", "27:3,9;45:3,5", "--seed", "0")
    assert code == 0
    doc = json.loads(out.splitlines()[-1])
    assert doc["pass"] is True
    assert [case["L"] for case in doc["cases"]] == [27, 45]
    for case in doc["cases"]:
        for check in case["checks"]:
            assert check["pass"], (case["L"], check)
            if check["tol"] is not None:
                assert check["deviation"] <= check["tol"], (case["L"], check)


def test_suite_json_deterministic_across_runs(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _, _ = run(
            capsys, "suite", "--cases", "9:3,3", "--seed", "11", "--json", str(path)
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"elapsed" not in first.read_bytes()


# -- gen ---------------------------------------------------------------------


def test_gen_window_operator_mask_lattice(capsys, tmp_path):
    win = tmp_path / "win.txt"
    code, _, _ = run(capsys, "gen", "--L", "9", "--window", "gauss", "--out", str(win))
    assert code == 0
    w = loads_signal(load_text(win))
    assert np.isclose(np.linalg.norm(w), 1.0)

    op = tmp_path / "op.txt"
    code, _, _ = run(capsys, "gen", "--L", "9", "--op", "randomrank:2", "--out", str(op))
    assert code == 0
    assert loads_operator(load_text(op)).shape == (9, 9)

    mask = tmp_path / "mask.txt"
    code, _, _ = run(
        capsys,
        "gen", "--L", "9", "--lattice", "3,3", "--mask", "rand", "--out", str(mask),
    )
    assert code == 0
    assert loads_sequence(load_text(mask)).lattice == make_separable_lattice(3, 3, 9)

    lat = tmp_path / "lat.txt"
    code, _, _ = run(capsys, "gen", "--L", "9", "--lattice", "3,3", "--out", str(lat))
    assert code == 0
    assert loads_lattice(load_text(lat)) == make_separable_lattice(3, 3, 9)


def test_gen_requires_out_and_payload(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--L", "9", "--window", "gauss")
    assert code == 1
    assert "error" in err
    code, _, _ = run(capsys, "gen", "--L", "9", "--out", str(tmp_path / "x.txt"))
    assert code == 1
    code, _, _ = run(
        capsys, "gen", "--L", "9", "--mask", "rand", "--out", str(tmp_path / "x.txt")
    )
    assert code == 1


def test_generated_files_feed_back_into_commands(capsys, tmp_path):
    win = tmp_path / "win.txt"
    run(capsys, "gen", "--L", "9", "--window", "gauss", "--out", str(win))
    code, out, _ = run(
        capsys,
        "riesz", "--L", "9", "--lattice", "3,3",
        "--op", f"rank1:file:{win},file:{win}",
    )
    assert code == 0
    assert json.loads(out)["A"] > 0


def test_riesz_rejects_non_finite_operator_file(capsys, tmp_path):
    op = tmp_path / "op.txt"
    code, _, _ = run(capsys, "gen", "--L", "9", "--op", "randomrank:2", "--out", str(op))
    assert code == 0
    lines = load_text(op).splitlines()
    lines[5] = "nan 0"
    op.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, err = run(
        capsys, "riesz", "--L", "9", "--lattice", "3,3", "--op", f"file:{op}"
    )
    assert code == 1
    assert out == ""
    assert "error" in err and "nan" in err


def test_unknown_operator_spec_is_config_error(capsys):
    code, _, err = run(
        capsys, "riesz", "--L", "9", "--lattice", "3,3", "--op", "nonsense"
    )
    assert code == 1
    assert "error" in err
