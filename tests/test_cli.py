"""Command line contract: flags, CSV schema, manifests, exit codes."""

import json
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

import urv
import urv.cli
from urv.core import blas_threads
from urv.cli import main


def _pool_size():
    """The size of numpy's OpenBLAS thread pool, as the getter reads it."""
    with blas_threads() as n:
        return n


def test_bench_row_count(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main(["bench", "--matrix", "slow", "--alg", "powerurv", "--q", "1",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == urv.CSV_HEADER
    assert len(lines) - 1 == 161

    manifest = json.loads((tmp_path / "p.json").read_text())
    assert manifest["algorithm"]["name"] == "powerurv"
    assert manifest["seed"] == {"seed": 7, "stream": 0}
    assert manifest["library_version"] == urv.__version__
    assert manifest["wall_time_s"] > 0


def test_manifest_records_runtime(tmp_path, monkeypatch):
    # what the reproducibility condition names: BLAS, its threads, numpy
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert main(["bench", "--matrix", "slow", "--m", "30", "--n", "20", "--alg", "qlp",
                 "--out", str(tmp_path / "p.csv")]) == 0
    manifest = json.loads((tmp_path / "p.json").read_text())
    assert set(manifest["blas"]) == {"name", "version", "config"}
    assert "openblas" in manifest["blas"]["name"]
    assert manifest["num_threads_env"]["OMP_NUM_THREADS"] == "2"
    assert all(k.endswith("_NUM_THREADS") for k in manifest["num_threads_env"])
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()
    assert manifest["diagnostics_wall_s"] > 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_csv_reproducible_at_fixed_thread_count(tmp_path, threads):
    # the LU pivot order of the power steps, like every BLAS sum, is fixed
    # once the thread count is; across thread counts the bytes may differ
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(sys.path)}
    csvs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        subprocess.run([sys.executable, "-m", "urv.cli", "bench", "--matrix", "bie",
                        "--alg", "powerurv", "--q", "2", "--seed", "3", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_csv_identical_across_thread_counts(tmp_path):
    # below _ONE_THREAD_BELOW columns the CLI runs on one BLAS thread
    # whatever OPENBLAS_NUM_THREADS says, so the bytes do not depend on it
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = tmp_path / f"t{threads}.csv"
        subprocess.run([sys.executable, "-m", "urv.cli", "bench", "--matrix", "bie",
                        "--alg", "powerurv", "--q", "2", "--seed", "3", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        lemmas = [subprocess.run([sys.executable, "-m", "urv.cli", "lemma", "--matrix", "slow",
                                  *size, "--ell", "60", "--seed", "3"],
                                 env=env, check=True, capture_output=True, timeout=300).stdout
                  for size in ([], ["--m", "398", "--n", "398"])]
        outputs.append((out.read_bytes(), lemmas))
    # at 398^2 the generated input itself depends on the pool size
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, code", [
    (["bench", "--matrix", "slow", "--m", "30", "--n", "20", "--alg", "qlp"], 0),
    (["lemma", "--matrix", "slow", "--m", "30", "--n", "20", "--ell", "5"], 0),
    (["bench", "--matrix", "slow", "--m", "30", "--n", "20", "--alg", "rsvd"], 1),
    (["bench", "--matrix", "file:{zero}", "--alg", "powerurv"], 2),
], ids=["bench-0", "lemma-0", "rsvd-without-ell-1", "zero-powerurv-2"])
def test_blas_pool_restored(tmp_path, monkeypatch, capsys, argv, code):
    # bench and lemma set the pool to one thread for a small input and put
    # back the size it had, whether they succeed or fail
    zero = tmp_path / "zero.csv"
    urv.save_matrix_csv(zero, np.zeros((6, 4)))
    seen = []

    def recorded(fn):
        def call(*args, **kwargs):
            seen.append(_pool_size())
            return fn(*args, **kwargs)
        return call

    for name in ("qlp", "lemma_check", "power_urv"):
        monkeypatch.setattr(urv.cli, name, recorded(getattr(urv.cli, name)))
    argv = [arg.format(zero=zero) for arg in argv]
    if argv[0] == "bench":
        argv += ["--out", str(tmp_path / "o.csv")]
    with blas_threads(2):
        assert main(argv) == code
        assert _pool_size() == 2
    assert seen == ([] if code == 1 else [1])


def test_manifest_blas_threads(tmp_path, monkeypatch):
    # the manifest records the pool size the factorization ran on: one
    # thread at the paper size, the size as found from _ONE_THREAD_BELOW up
    out = tmp_path / "p.csv"
    with blas_threads(2):
        assert main(["bench", "--matrix", "slow", "--alg", "qlp", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "p.json").read_text())["blas_threads"] == 1
        monkeypatch.setattr(urv.cli, "_ONE_THREAD_BELOW", 20)
        assert main(["bench", "--matrix", "slow", "--m", "30", "--n", "20", "--alg", "qlp",
                     "--out", str(out)]) == 0
        assert json.loads((tmp_path / "p.json").read_text())["blas_threads"] == 2


def test_timing_keeps_blas_pool(tmp_path, monkeypatch, capsys):
    # timing measures the kernels at the pool size it finds
    original, seen = urv.cli.householder_qr, []

    def recorded(a):
        seen.append(_pool_size())
        return original(a)

    monkeypatch.setattr(urv.cli, "householder_qr", recorded)
    with blas_threads(2):
        assert main(["timing", "--sizes", "16", "--reps", "2", "--algs", "qr",
                     "--out", str(tmp_path / "t.csv")]) == 0
    assert seen == [2, 2]


def test_manifest_spec_equals_original(tmp_path):
    # the spec rebuilt from a manifest is the spec that wrote it, seed
    # included; without size flags each kind writes its defaults
    out, seed = tmp_path / "s.csv", urv.RngSeed(7)
    for flags, original in [
        (["slow", "--m", "40", "--n", "30"], urv.MatrixSpec("slow", 40, 30, seed)),
        (["fast"], urv.MatrixSpec("fast", 200, 160, seed)),
        (["slow"], urv.MatrixSpec("slow", 200, 160, seed)),
        (["sshape"], urv.MatrixSpec("sshape", 200, 160, seed)),
        (["bie"], urv.MatrixSpec("bie", 200, 200, seed)),
        (["kahan"], urv.MatrixSpec("kahan", 96, 96, seed, {"theta": 1.2})),
    ]:
        assert main(["bench", "--matrix", *flags, "--alg", "ddh", "--seed", "7",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "s.json").read_text())
        spec = urv.MatrixSpec(**manifest["spec"])
        assert spec == original
        assert urv.matrices.matrix_streams(spec) == urv.matrices.matrix_streams(original)


def test_manifest_streams(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["bench", "--matrix", "slow", "--alg", "ddh", "--seed", "7",
                 "--out", str(out)]) == 0
    streams = json.loads((tmp_path / "s.json").read_text())["streams"]
    seed = urv.RngSeed(7)
    assert streams == {
        "matrix_u": list(seed.spawn(urv.matrices._U_STREAM)),
        "matrix_v": list(seed.spawn(urv.matrices._V_STREAM)),
        "sketch": list(seed),
    }
    # bie and file inputs draw no matrix streams
    src = tmp_path / "input.bin"
    urv.save_matrix_binary(src, urv.gaussian_matrix(30, 20, urv.RngSeed(5)))
    for matrix in ("bie", f"file:{src}"):
        assert main(["bench", "--matrix", matrix, "--alg", "ddh", "--seed", "7",
                     "--out", str(out)]) == 0
        streams = json.loads((tmp_path / "s.json").read_text())["streams"]
        assert streams == {"sketch": list(seed)}
    # qlp and cpqr draw no sketch, so the manifest lists none; the seed stays
    for alg in ("qlp", "cpqr"):
        assert main(["bench", "--matrix", "bie", "--alg", alg, "--seed", "7",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "s.json").read_text())
        assert "sketch" not in manifest["streams"]
        assert manifest["seed"] == {"seed": 7, "stream": 0}


@pytest.mark.parametrize("flags, generated", [
    (["--matrix", "fast", "--literal-decay", "--seed", "7"],
     lambda: urv.gen_fast_decay(seed=7, literal=True)[0]),
    (["--matrix", "kahan", "--theta", "1.1"], lambda: urv.gen_kahan(theta=1.1)),
], ids=["fast-literal", "kahan-theta"])
def test_manifest_spec_rebuilds_input(tmp_path, flags, generated):
    # the reproducibility contract: a manifest's spec alone gives back the input
    out = tmp_path / "r.csv"
    assert main(["bench", *flags, "--alg", "qlp", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "r.json").read_text())
    a, _ = urv.from_spec(urv.MatrixSpec(**manifest["spec"]))
    assert np.array_equal(a, generated())


@pytest.mark.parametrize("command", [["bench", "--alg", "qlp"], ["lemma", "--ell", "5"]],
                         ids=["bench", "lemma"])
@pytest.mark.parametrize("flags", [
    ["--matrix", "bie", "--m", "300"],
    ["--matrix", "kahan", "--m", "50"],
    ["--matrix", "slow", "--theta", "1.1"],
    ["--matrix", "bie", "--theta", "1.1"],
    ["--matrix", "sshape", "--literal-decay"],
    ["--matrix", "kahan", "--literal-decay"],
    ["--matrix", "file:{src}", "--m", "30"],
    ["--matrix", "file:{src}", "--n", "20"],
], ids=lambda flags: flags[1].split(":")[0] + flags[2])
def test_unread_matrix_flag_exit_1(tmp_path, capsys, command, flags):
    # a flag the chosen --matrix would ignore is refused, not dropped
    src = tmp_path / "in.bin"
    urv.save_matrix_binary(src, urv.gaussian_matrix(30, 20, urv.RngSeed(5)))
    argv = [command[0], *(f.format(src=src) for f in flags), *command[1:],
            *(["--out", str(tmp_path / "o.csv")] if command[0] == "bench" else [])]
    assert main(argv) == 1
    assert f"urv: error: {flags[2]} does not apply to --matrix" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


@pytest.mark.parametrize("alg", [
    ["qlp", "--q", "3"],
    ["ddh", "--no-reorth"],
    ["powerurv", "--ell", "7"],
    ["cpqr", "--q", "1"],
], ids=lambda alg: alg[0] + alg[1])
def test_unread_algorithm_flag_exit_1(tmp_path, capsys, alg):
    # a flag the chosen --alg would ignore is refused, not dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bench", "--matrix", "slow", "--m", "30", "--n", "20", "--alg", *alg,
                     "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"urv: error: {alg[1]} does not apply to --alg {alg[0]}\n"
    assert not list(tmp_path.iterdir())


def test_manifest_warnings(tmp_path, capsys):
    # an exactly rank-3 input: each sample has 17 deficient columns, whatever
    # the roundoff; the manifest, stderr and the provenance list the same
    # warnings, and the flags left off are recorded at their defaults
    a = np.zeros((30, 20))
    a[:, :3] = urv.gaussian_matrix(30, 3, urv.RngSeed(5))
    src = tmp_path / "rank3.bin"
    urv.save_matrix_binary(src, a)
    assert main(["bench", "--matrix", f"file:{src}", "--alg", "powerurv", "--seed", "7",
                 "--out", str(tmp_path / "w.csv")]) == 0
    manifest = json.loads((tmp_path / "w.json").read_text())
    expected = list(urv.power_urv(a, q=1, seed=urv.RngSeed(7)).provenance.warnings)
    assert expected == [f"{stage}: 17 numerically rank-deficient sample columns"
                        for stage in ("power step 1 (after A)", "right-factor QR")]
    assert manifest["warnings"] == expected
    assert capsys.readouterr().err.splitlines() == expected
    assert manifest["algorithm"] == {"name": "powerurv", "q": 1, "reorth": True, "ell": None}


def test_manifest_next_to_csv(tmp_path):
    # a dot in a directory name must not cut the manifest path short
    out_dir = tmp_path / "res.v2"
    out_dir.mkdir()
    assert main(["bench", "--matrix", "bie", "--alg", "qlp", "--out",
                 str(out_dir / "prof")]) == 0
    assert json.loads((out_dir / "prof.json").read_text())["outputs"] == [str(out_dir / "prof")]
    assert not (tmp_path / "res.json").exists()


def test_ddh_equals_powerurv_q0_bytes(tmp_path):
    out1 = tmp_path / "ddh.csv"
    out2 = tmp_path / "p0.csv"
    assert main(["bench", "--matrix", "fast", "--alg", "ddh", "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["bench", "--matrix", "fast", "--alg", "powerurv", "--q", "0",
                 "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_reproducible_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["bench", "--matrix", "sshape", "--alg", "qlp", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_lemma_command(capsys):
    code = main(["lemma", "--matrix", "slow", "--ell", "60", "--q", "1", "--seed", "3"])
    assert code == 0
    printed = capsys.readouterr().out
    value = float(printed.split(":")[1])
    assert value <= 1e-10


def test_bench_rsvd_and_cpqr(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["bench", "--matrix", "slow", "--alg", "rsvd", "--ell", "60",
                 "--seed", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 162
    out2 = tmp_path / "c.csv"
    assert main(["bench", "--matrix", "bie", "--alg", "cpqr", "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 202


def test_file_matrix_input(tmp_path):
    a = urv.gaussian_matrix(30, 20, urv.RngSeed(5))
    src = tmp_path / "input.bin"
    urv.save_matrix_binary(src, a)
    out = tmp_path / "f.csv"
    assert main(["bench", "--matrix", f"file:{src}", "--alg", "qlp",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 22
    manifest = json.loads((tmp_path / "f.json").read_text())
    assert "file" in manifest["spec"]


def test_invalid_args_exit_1(capsys):
    assert main(["bench", "--matrix", "nonsense", "--alg", "qlp"]) == 1
    assert main(["bench", "--matrix", "slow", "--alg", "rsvd"]) == 1  # missing --ell
    assert main(["bench", "--matrix", "slow", "--alg", "unknown"]) == 1
    assert main(["bench", "--matrix", "slow", "--alg", "rsvd", "--ell", "900"]) == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_out_of_range_exit_1(tmp_path, capsys, seed):
    # a seed keys the uint64 Philox generator
    for argv in (["bench", "--matrix", "slow", "--alg", "ddh", "--out", str(tmp_path / "o.csv")],
                 ["lemma", "--matrix", "slow", "--ell", "10"],
                 ["timing", "--sizes", "16", "--algs", "ddh", "--out", str(tmp_path / "t.csv")]):
        assert main(argv + ["--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err.count("urv: error: --seed must be in [0, 2**64)") == 3
    assert not list(tmp_path.iterdir())
    assert main(["lemma", "--matrix", "slow", "--m", "30", "--n", "20", "--ell", "5",
                 "--seed", str(2**64 - 1)]) == 0


def test_bad_binary_header_exit_1(tmp_path, capsys):
    src = tmp_path / "huge.bin"
    src.write_bytes(b"URVK1" + np.array([2**40, 2**40], dtype="<u8").tobytes() + bytes(16))
    assert main(["bench", "--matrix", f"file:{src}", "--alg", "qlp",
                 "--out", str(tmp_path / "h.csv")]) == 1
    assert "urv: error:" in capsys.readouterr().err


def test_file_errors_exit_1(tmp_path, monkeypatch, capsys):
    src = tmp_path / "in.bin"
    urv.save_matrix_binary(src, urv.gaussian_matrix(30, 20, urv.RngSeed(5)))
    assert main(["bench", "--matrix", f"file:{tmp_path / 'missing.bin'}",
                 "--alg", "qlp", "--out", str(tmp_path / "m.csv")]) == 1
    assert main(["bench", "--matrix", f"file:{src}", "--alg", "qlp",
                 "--out", str(tmp_path / "no_dir" / "p.csv")]) == 1
    assert capsys.readouterr().err.count("urv: error:") == 2
    # the default output is named after the input's base name, in the cwd
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["bench", "--matrix", f"file:{src}", "--alg", "qlp"]) == 0
    assert sorted(p.name for p in work.iterdir()) == ["file_in.bin_qlp.csv",
                                                       "file_in.bin_qlp.json"]


def test_numerical_failure_exit_2(tmp_path, capsys):
    # the sample of an all-zero matrix collapses to zero
    src = tmp_path / "zero.csv"
    urv.save_matrix_csv(src, np.zeros((6, 4)))
    code = main(["bench", "--matrix", f"file:{src}", "--alg", "powerurv",
                 "--q", "1", "--no-reorth", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_zero_matrix_profile(tmp_path, capsys):
    # every approximant of a zero matrix is exact, so its relative errors
    # read 0; only a sample of it (q >= 1, rsvd) collapses
    src = tmp_path / "zero.bin"
    urv.save_matrix_binary(src, np.zeros((12, 8)))
    for alg in (["qlp"], ["cpqr"], ["ddh"], ["powerurv", "--q", "0"]):
        out = tmp_path / f"{alg[0]}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bench", "--matrix", f"file:{src}", "--alg", *alg, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:] == 0.0).all()
    for alg in (["powerurv", "--q", "1"], ["rsvd", "--ell", "4"]):
        assert main(["bench", "--matrix", f"file:{src}", "--alg", *alg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "collapsed to zero" in capsys.readouterr().err


def test_linalg_error_exit_2(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet it is a numerical failure
    def fail(a):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(urv.cli, "reference_singular_values", fail)
    code = main(["bench", "--matrix", "slow", "--m", "30", "--n", "20", "--alg", "ddh",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


def _scaled_slow_file(tmp_path, amax):
    a, _ = urv.gen_slow_decay(60, 40, seed=0)
    src = tmp_path / f"slow_{amax:g}.bin"
    urv.save_matrix_binary(src, a * (amax / np.abs(a).max()))
    return src


def test_frobenius_near_overflow(tmp_path, capsys):
    # max|a| = 1e307: squared entries overflow unless the norms are prescaled
    rows = {}
    for amax in (1.0, 1e307):
        src = _scaled_slow_file(tmp_path, amax)
        out = tmp_path / f"p_{amax:g}.csv"
        assert main(["bench", "--matrix", f"file:{src}", "--alg", "powerurv",
                     "--out", str(out)]) == 0
        rows[amax] = np.loadtxt(out, delimiter=",", skiprows=1)
    big, ref = rows[1e307], rows[1.0]
    assert big.shape == (41, 8) and np.isfinite(big).all()
    assert np.allclose(big[:, 2] / 1e307, ref[:, 2], rtol=1e-8, atol=1e-13)
    assert np.allclose(big[:, 4], ref[:, 4], rtol=1e-8, atol=1e-13)
    assert "rank-deficient" not in capsys.readouterr().err


def test_lemma_near_overflow(tmp_path, capsys):
    src = _scaled_slow_file(tmp_path, 1e307)
    assert main(["lemma", "--matrix", f"file:{src}", "--ell", "10"]) == 0
    value = float(capsys.readouterr().out.split(":")[1])
    assert 0.0 < value <= 1e-12


def test_sample_overflow_exit_2(tmp_path, capsys):
    # max|a| = 1e306 factors without reorthonormalization; at 1.5e308
    # sigma_1 exceeds the double range
    a, _ = urv.gen_slow_decay(60, 40, seed=0)
    huge = tmp_path / "huge.bin"
    urv.save_matrix_binary(huge, (a / np.abs(a).max()) * 1.5e308)
    for src, expected in ((_scaled_slow_file(tmp_path, 1e306), 0), (huge, 2)):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["bench", "--matrix", f"file:{src}", "--alg", "powerurv", "--q", "1",
                         "--no-reorth", "--out", str(tmp_path / "o.csv")])
        assert code == expected
        assert ("numerical failure" in capsys.readouterr().err) == bool(expected)


@pytest.mark.parametrize("alg", [["ddh"], ["qlp"], ["cpqr"], ["rsvd", "--ell", "1", "--q", "0"]],
                         ids=lambda alg: alg[0])
def test_factor_overflow_exit_2(tmp_path, capsys, alg):
    # max|a| = 1.5e308: A V (ddh) or the pivoted R factor (qlp) overflows;
    # for rsvd a first column of 1.2e308 keeps the sample finite, not Q^T A;
    # for cpqr R's column norms of a +-1.797e308 matrix do
    if alg[0] == "rsvd":
        a = np.zeros((200, 160))
        a[:, 0] = 1.2e308
    elif alg[0] == "cpqr":
        a = np.where(urv.gaussian_matrix(20, 10, urv.RngSeed(0)) < 0.0, -1.797e308, 1.797e308)
    else:
        a, _ = urv.gen_slow_decay(60, 40, seed=0)
        a = (a / np.abs(a).max()) * 1.5e308
    src = tmp_path / "huge.bin"
    urv.save_matrix_binary(src, a)
    # the CLI silences numpy's overflow warnings itself: stderr holds one line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bench", "--matrix", f"file:{src}", "--alg", *alg,
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("urv: numerical failure: ") and err.count("\n") == 1


def test_timing_command(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["timing", "--sizes", "64,96", "--reps", "2", "--algs", "qr,cpqr",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alg,n,median_seconds,reps"
    assert len(lines) == 1 + 4  # 2 algorithms x 2 sizes
    times = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(t > 0 for t in times)


def test_timing_tall_sizes(tmp_path, capsys):
    square, mixed = tmp_path / "sq.csv", tmp_path / "mx.csv"
    args = ["timing", "--reps", "1", "--algs", "qr,powerurv"]
    assert main(args + ["--sizes", "48", "--out", str(square)]) == 0
    assert main(args + ["--sizes", "48,96x32", "--out", str(mixed)]) == 0
    printed = capsys.readouterr().out
    assert "powerurv   n= 96x32 median" in printed
    assert "powerurv   n=    48 median" in printed
    rows = mixed.read_text().splitlines()
    assert rows[0] == "alg,n,median_seconds,reps"
    assert [r.split(",")[:2] for r in rows[1:]] == [
        ["qr", "48"], ["powerurv", "48"], ["qr", "96x32"], ["powerurv", "96x32"]]
    assert square.read_text().splitlines()[1].split(",")[:2] == ["qr", "48"]
    for bad in ("32x96", "4x4x4", "axb"):
        assert main(args + ["--sizes", bad, "--out", str(mixed)]) == 1


def test_timing_rejects_zero_reps(tmp_path, capsys):
    out = tmp_path / "t.csv"
    for reps in ("0", "-1"):
        assert main(["timing", "--sizes", "16", "--reps", reps, "--algs", "qr",
                     "--out", str(out)]) == 1
    assert "--reps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_timing_rejects_rsvd(tmp_path, capsys):
    # timing runs the table entries that need no --ell
    assert main(["timing", "--sizes", "16", "--algs", "rsvd", "--out", str(tmp_path / "t.csv")]) == 1
    assert "unknown timing algorithm 'rsvd'" in capsys.readouterr().err


def test_timing_kernels(tmp_path, capsys):
    # timing puts qlp next to its own kernel (geqp3, the pivoted QR it makes
    # twice) and the paper's baseline (svd); bench profiles factorizations only
    out = tmp_path / "t.csv"
    assert main(["timing", "--sizes", "24,40x16", "--reps", "1", "--algs", "qlp,geqp3,svd",
                 "--out", str(out)]) == 0
    rows = [r.split(",")[:2] for r in out.read_text().splitlines()[1:]]
    assert rows == [[alg, n] for n in ("24", "40x16") for alg in ("qlp", "geqp3", "svd")]
    for alg in ("qr", "geqp3", "svd"):
        assert main(["bench", "--matrix", "slow", "--alg", alg]) == 1
    assert capsys.readouterr().err.count("invalid choice") == 3
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert "--alg {ddh,powerurv,qlp,rsvd,cpqr}" in capsys.readouterr().out
