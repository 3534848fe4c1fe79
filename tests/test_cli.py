"""Command line driver: flag validation, exit codes, output files, and the
named experiment tables, exercised through main(argv)."""

import csv
import json

import numpy as np
import pytest

import smash
from smash.apply import matvec_nodewise, read_vector, write_vector
from smash.cli import _CLOSED, _GEOMETRIES, main

from conftest import build_interval_hss


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_reports_shape(capsys):
    assert main(["build", "--n", "200"]) == 0
    out = capsys.readouterr().out
    assert "n_row=200" in out and "n_col=200" in out


def test_build_json_output(capsys):
    assert main(["build", "--n", "200", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n_row"] == 200
    assert info["levels"] >= 2
    assert info["max_rank"] > 0
    assert info["compressed_mib"] > 0


def test_build_saves_container(tmp_path, capsys):
    target = str(tmp_path / "m.smh")
    assert main(["build", "--n", "200", "--out", target]) == 0
    M = smash.load_matrix(target)
    assert (M.n_row, M.n_col) == (200, 200)


def test_rejects_nonpositive_size(capsys):
    assert main(["build", "--n", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--svd-tol", "nan"], "eps_svd"),
    (["--svd-tol", "2"], "eps_svd"),
    (["--tau", "1.5"], "tau"),
    (["--tau", "nan"], "tau"),
    (["--order", "0"], "r"),
], ids=["svd-tol-nan", "svd-tol-2", "tau-1.5", "tau-nan", "order-0"])
def test_parameter_that_would_wreck_the_result_exits_2(flags, named, capsys):
    # each of these once built a wrong matrix and exited 0, or failed with
    # an unrelated message
    assert main(["matvec", "--kernel", "laplace-dlp", "--geometry",
                 "sunflower", "--n", "640"] + flags) == 2
    assert "build parameter %s " % named in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["build", "matvec", "solve"])
@pytest.mark.parametrize("flags, order", [
    (["--order", "200", "--n", "200"], "200"),
    (["--n", "100", "--tol", "1e-300"], "1332"),  # choose_params' order
    (["--order", "160", "--n", "400"], "160"),
], ids=["order-200", "tol-1e-300", "order-160"])
def test_order_the_taylor_basis_cannot_evaluate_exits_2(command, flags, order,
                                                        capsys):
    # l! past l = 170 once ended in an OverflowError traceback, and a scaling
    # past the double range in srrqr's refusal of infs after RuntimeWarnings
    assert main([command] + flags) == 2
    err = capsys.readouterr().err
    assert "order" in err and order in err


# ---------------------------------------------------------------------------
# matvec
# ---------------------------------------------------------------------------

def test_matvec_matches_dense_oracle(capsys):
    assert main(["matvec", "--n", "300", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["relerr"] < 1e-7


def test_matvec_samples_rows_beyond_the_dense_budget(capsys):
    # a loose tolerance, so the error is well above roundoff
    flags = ["matvec", "--n", "2000", "--tol", "1e-4", "--json"]
    assert main(flags) == 0
    full = json.loads(capsys.readouterr().out)
    assert main(flags + ["--dense-budget", str(2000 * 2000 - 1)]) == 0
    sampled = json.loads(capsys.readouterr().out)
    assert full["relerr_rows"] == 2000
    assert sampled["relerr_rows"] == smash.bench.SAMPLE_ROWS
    assert 1e-13 < full["relerr"] < 1e-7
    assert full["relerr"] / 10 <= sampled["relerr"] <= 10 * full["relerr"]


def test_matvec_on_saved_container(tmp_path, capsys):
    target = str(tmp_path / "m.smh")
    qfile = str(tmp_path / "q.txt")
    zfile = str(tmp_path / "z.txt")
    assert main(["build", "--n", "200", "--out", target]) == 0
    q = np.random.default_rng(5).random(200)
    write_vector(qfile, q)
    assert main(["matvec", "--load", target, "--vec", qfile,
                 "--out", zfile]) == 0
    z = read_vector(zfile)
    expected = matvec_nodewise(smash.load_matrix(target), q)
    assert np.allclose(z, expected, atol=1e-12)


def test_matvec_reports_kept_block_rows(capsys):
    assert main(["matvec", "--geometry", "grid2d", "--structure", "h2",
                 "--n", "400", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kept_mib"] > 0


@pytest.mark.parametrize("command", ["build", "matvec"])
def test_h2_on_a_single_point(command, capsys):
    # the root is a leaf with a zero-radius box; it once paired with itself
    # as a coupling and failed with KeyError
    assert main([command, "--structure", "h2", "--geometry", "grid2d",
                 "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "n_row=1" in out
    if command == "matvec":
        assert "relerr=0\n" in out


def test_matvec_rejects_mismatched_vector(tmp_path, capsys):
    qfile = str(tmp_path / "q.txt")
    write_vector(qfile, np.ones(7))
    assert main(["matvec", "--n", "200", "--vec", qfile]) == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["matvec", "solve"])
def test_non_finite_vector_exits_2_naming_the_entry(tmp_path, capsys,
                                                    command, bad):
    # matvec once printed relerr=nan and exited 0
    qfile = str(tmp_path / "q.txt")
    q = np.ones(400)
    q[7] = bad
    write_vector(qfile, q)
    assert main([command, "--n", "400", "--vec", qfile]) == 2
    err = capsys.readouterr().err
    assert "q.txt: entry 7 is" in err and "finite" in err


def test_raw_vector_with_a_stray_byte_exits_2_naming_the_file(tmp_path,
                                                              capsys):
    # 100 doubles and one byte more once loaded as 100 entries
    qfile = tmp_path / "q.bin"
    qfile.write_bytes(np.ones(100).tobytes() + b"\0")
    assert main(["matvec", "--n", "100", "--vec", str(qfile)]) == 2
    err = capsys.readouterr().err
    assert "q.bin: 801 bytes" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, named", [("matvec", "relerr"),
                                            ("solve", "residual")])
def test_zero_vector_gives_zero_error_without_warning(tmp_path, capsys,
                                                      command, named):
    # a zero reference once gave 0/0: nan and a RuntimeWarning
    qfile = str(tmp_path / "zeros.txt")
    write_vector(qfile, np.zeros(400))
    assert main([command, "--n", "400", "--vec", qfile]) == 0
    assert "%s=0\n" % named in capsys.readouterr().out


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_reports_small_residual(capsys):
    assert main(["solve", "--n", "300", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["residual"] < 1e-8
    assert info["forward"] < 1e-6


def test_solve_with_rhs_file(tmp_path, capsys):
    bfile = str(tmp_path / "b.txt")
    xfile = str(tmp_path / "x.txt")
    write_vector(bfile, np.random.default_rng(3).random(200))
    assert main(["solve", "--n", "200", "--vec", bfile, "--json",
                 "--out", xfile]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["residual"] < 1e-8
    assert read_vector(xfile).shape == (200,)


def test_solve_on_single_leaf_tree(capsys):
    # n = 30 is below the leaf cap, so the root is the only node
    assert main(["solve", "--n", "30", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["residual"] < 1e-9


@pytest.mark.parametrize("command", ["build", "solve"])
def test_cauchy_like_on_single_leaf_tree(command, capsys):
    assert main([command, "--kernel", "cauchy-like", "--n", "30"]) == 0


def test_damaged_container_manifest_exits_with_input_code(tmp_path, capsys):
    target = tmp_path / "m.smh"
    assert main(["build", "--n", "200", "--out", str(target)]) == 0
    raw = target.read_bytes()
    cut = raw.index(b"\0")
    head = raw.index(b"\n") + 1
    header = json.loads(raw[head:cut])
    header["arrays"][0]["dtype"] = "zz"
    target.write_bytes(raw[:head] + json.dumps(header).encode() + raw[cut:])
    capsys.readouterr()
    assert main(["matvec", "--load", str(target)]) == 2
    assert "perm_row" in capsys.readouterr().err
    target.write_bytes(raw[:-8])  # truncated payload
    assert main(["matvec", "--load", str(target)]) == 2
    # a factor's permutation read from the bytes of a diagonal block
    header = json.loads(raw[head:cut])
    arrays = {e["name"]: e for e in header["arrays"]}
    arrays["rowfac.0.perm"]["offset"] = arrays["D.0"]["offset"]
    target.write_bytes(raw[:head] + json.dumps(header).encode() + raw[cut:])
    capsys.readouterr()
    assert main(["matvec", "--load", str(target)]) == 2
    assert "'rowfac.0.perm'" in capsys.readouterr().err


def test_damaged_container_header_exits_with_input_code(tmp_path, capsys):
    target = tmp_path / "m.smh"
    assert main(["build", "--n", "200", "--out", str(target)]) == 0
    raw = target.read_bytes()
    cut = raw.index(b"\0")
    head = raw.index(b"\n") + 1
    header = json.loads(raw[head:cut])
    del header["tree"]
    target.write_bytes(raw[:head] + json.dumps(header).encode() + raw[cut:])
    capsys.readouterr()
    assert main(["matvec", "--load", str(target)]) == 2
    assert "tree" in capsys.readouterr().err


def test_solve_refuses_h2_structure(capsys):
    assert main(["solve", "--structure", "h2", "--n", "100"]) == 2
    assert "hss" in capsys.readouterr().err


def test_singular_matrix_exits_with_numerical_code(tmp_path, capsys):
    M, _, _, _ = build_interval_hss(64, nu0=16)
    Z = smash.diag_scale(M, np.zeros(64), np.ones(64))
    target = str(tmp_path / "zero.smh")
    smash.save_matrix(Z, target)
    assert main(["solve", "--load", target]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# geometry and kernel validation
# ---------------------------------------------------------------------------

def test_grid_size_must_be_square(capsys):
    assert main(["build", "--geometry", "grid2d", "--n", "300"]) == 2
    assert "perfect square" in capsys.readouterr().err


def test_square_grid_builds(capsys):
    assert main(["build", "--geometry", "grid2d", "--structure", "h2",
                 "--n", "100", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_row"] == 100


def test_grid_restricted_to_plain_cauchy(capsys):
    assert main(["build", "--geometry", "grid2d", "--n", "100",
                 "--kernel", "cauchy-like"]) == 2


@pytest.mark.parametrize("geometry", ["interval", "snail"])
def test_boundary_kernel_needs_closed_curve(geometry, capsys):
    assert main(["build", "--kernel", "laplace-dlp",
                 "--geometry", geometry, "--n", "128"]) == 2
    assert "closed curve" in capsys.readouterr().err


def test_boundary_kernel_on_circle(capsys):
    assert main(["build", "--kernel", "laplace-dlp", "--geometry", "circle",
                 "--n", "160", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_row"] == 160


@pytest.mark.parametrize("geometry", ["ramhead", "sunflower", "honeybee",
                                      "circle"])
def test_double_layer_h2_meets_the_default_tolerance(geometry, capsys):
    assert main(["matvec", "--kernel", "laplace-dlp", "--geometry", geometry,
                 "--structure", "h2", "--n", "2560", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["relerr_rows"] == 2560
    assert info["relerr"] <= 1e-7


def _refused(kernel, geometry):
    """Whether the command line refuses this kernel on this geometry."""
    if kernel == "laplace-dlp":
        return geometry not in _CLOSED
    return geometry == "grid2d" and kernel != "cauchy"


@pytest.mark.parametrize("kernel, geometry, structure", [
    (k, g, s) for k in ("cauchy", "cauchy-like", "laplace-dlp")
    for g in _GEOMETRIES for s in ("hss", "h2")])
def test_every_accepted_combination_meets_its_tolerance(kernel, geometry,
                                                        structure, capsys):
    # each combination is refused with exit 2 or applies within 10x the
    # default --tol 1e-8 against the dense oracle; every structure takes
    # every kernel
    n = 576 if geometry == "grid2d" else 600
    code = main(["matvec", "--kernel", kernel, "--geometry", geometry,
                 "--structure", structure, "--n", str(n), "--json"])
    out = capsys.readouterr().out
    assert code == (2 if _refused(kernel, geometry) else 0)
    if code == 0:
        assert json.loads(out)["relerr"] <= 1e-7


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_unknown_experiment_rejected_by_parser():
    with pytest.raises(SystemExit) as e:
        main(["experiment", "no_such_study"])
    assert e.value.code == 2


def test_unknown_experiment_rejected_by_runner():
    with pytest.raises(ValueError, match="unknown experiment"):
        smash.bench.run_experiment("no_such_study")


def test_scaling_experiment_emits_csv(capsys):
    assert main(["experiment", "h2_matvec_scaling", "--sizes", "400"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    assert rows[0]["n"] == "400"
    assert float(rows[0]["relerr"]) < 1e-8
    assert float(rows[0]["kept_mib"]) > float(rows[0]["compressed_mib"])


def test_rank_study_written_to_file(tmp_path, capsys):
    target = str(tmp_path / "ranks.csv")
    assert main(["experiment", "rank_study", "--sizes", "320",
                 "--out", target]) == 0
    assert "wrote" in capsys.readouterr().out
    with open(target) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        assert int(row["size_bi"]) <= 2 * int(row["r_eps"]) + 10
    # tighter tolerances keep more singular values
    by_curve = {}
    for row in rows:
        by_curve.setdefault(row["curve"], []).append(int(row["r_eps"]))
    for vals in by_curve.values():
        assert vals == sorted(vals)


def test_rank_study_runs_every_size(capsys):
    assert main(["experiment", "rank_study", "--sizes", "320,640"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 12
    assert sorted(int(row["n"]) for row in rows) == [320] * 6 + [640] * 6


def test_experiment_refuses_build_flags():
    # the studies fix their own build parameters
    with pytest.raises(SystemExit) as e:
        main(["experiment", "storage_study", "--leaf-cap", "20"])
    assert e.value.code == 2


@pytest.mark.parametrize("n", [10, 50])
def test_rank_study_on_one_leaf_refused(capsys, n):
    # n <= the leaf cap leaves the root without the two children it compares
    assert main(["experiment", "rank_study", "--n", str(n)]) == 2
    err = capsys.readouterr().err
    assert "n = %d" % n in err and "leaf cap 50" in err


def test_storage_study_json(capsys):
    assert main(["experiment", "storage_study", "--sizes", "256",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "storage_study"
    for row in doc["rows"]:
        assert row["ratio_dense"] < 1.0
        assert row["ratio_generators"] < 1.0
