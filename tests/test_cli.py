"""End-to-end command-line checks: outputs, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irislogic
from irislogic import cli
from irislogic.calibration import read_bands_json, write_bands_json
from irislogic.cli import main
from irislogic.enrollment import Template, bits_to_hex

from table_data import (
    CHAINS,
    ENTROPY_PRODUCT,
    ENTROPY_SUM,
    GALLERY_12_BITS,
    PRODUCT,
)


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def scores_csv(tmp_path, run):
    path = tmp_path / "scores.csv"
    code, _, _ = run(["simulate", "--identities", "20", "--samples-per",
                      "5", "--bits", "1024", "--flip", "0.15", "--seed",
                      "3", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(params=[False, True], ids=["stdout", "out_file"])
def run_verify(request, run, tmp_path):
    """Runs `algebra verify`, with --out into its `out` path (None in the
    stdout case) in the out_file case, where stdout must stay empty; returns
    the exit code, the check lines and stderr."""
    def _run():
        if _run.out is None:
            return run(["algebra", "verify"])
        code, out, err = run(["algebra", "verify", "--out", str(_run.out)])
        assert out == ""
        return code, _run.out.read_text(encoding="utf-8"), err

    _run.out = tmp_path / "verify.txt" if request.param else None
    return _run


class TestAlgebraCommand:
    def test_product_table(self, run):
        code, out, _ = run(["algebra", "table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "P,0,1,2,3,4,5,6,7,E"
        for a in range(8):
            cells = lines[a + 1].split(",")
            assert cells[0] == str(a)
            assert [int(c) for c in cells[1:9]] == PRODUCT[a]
            assert int(cells[9]) == ENTROPY_PRODUCT[a]

    def test_sum_table_to_file(self, run, tmp_path):
        path = tmp_path / "sum.csv"
        code, out, _ = run(["algebra", "table", "--op", "sum", "--out",
                            str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == "S,0,1,2,3,4,5,6,7,E"

    def test_entropy(self, run):
        code, out, _ = run(["algebra", "entropy"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,e_product,e_sum"
        for a in range(8):
            assert lines[a + 1] == \
                f"{a},{ENTROPY_PRODUCT[a]},{ENTROPY_SUM[a]}"

    def test_chains(self, run):
        code, out, _ = run(["algebra", "chains"])
        assert code == 0
        assert out.splitlines() == [",".join(str(x) for x in c)
                                    for c in CHAINS]

    @pytest.mark.parametrize("argv", [
        ["table"], ["table", "--op", "sum"], ["entropy"], ["chains"],
        ["verify"],
    ], ids=["product", "sum", "entropy", "chains", "verify"])
    def test_out_file_holds_the_stdout_bytes(self, run, tmp_path, argv):
        code, out, err = run(["algebra", *argv])
        assert (code, err) == (0, "")
        assert out.endswith("\n")
        path = tmp_path / "algebra.out"
        assert run(["algebra", *argv, "--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_verify_reports_every_check(self, run_verify):
        code, out, _ = run_verify()
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "result=pass"
        check_lines = [l for l in lines if l.startswith("check=")]
        assert len(check_lines) == 19
        assert all(l.endswith("result=ok") for l in check_lines)

    def test_verify_reports_a_failed_check(self, run_verify, monkeypatch):
        checks = cli.octal_algebra.verification_checks
        monkeypatch.setattr(cli.octal_algebra, "verification_checks",
                            lambda: [*checks(), ("injected", 1, False)])
        code, out, err = run_verify()
        assert code == 1
        lines = out.splitlines()
        assert "check=injected cases=1 result=FAIL" in lines
        assert lines[-1] == "result=fail"
        if run_verify.out is None:
            assert err == ("error=algebra_check_failed detail=see check lines "
                           "above\n")
        else:
            assert err == (f"error=algebra_check_failed detail=see check "
                           f"lines in {run_verify.out}\n")


class TestSimulateCommand:
    def test_output_rows(self, run, tmp_path):
        path = tmp_path / "s.csv"
        code, _, _ = run(["simulate", "--identities", "2", "--samples-per",
                          "2", "--flip", "0", "--seed", "0", "--out",
                          str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_id,label,score"
        assert len(lines) == 7          # C(4, 2) pairs
        genuine = [l for l in lines[1:] if ",genuine," in l]
        assert len(genuine) == 2
        # zero flip probability: same-identity samples agree everywhere
        assert all(l.endswith(",1.0") for l in genuine)
        assert lines[1].startswith("id0000_s000:id0000_s001,")

    def test_deterministic_bytes(self, run, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["simulate", "--identities", "5", "--samples-per", "3",
                "--bits", "256", "--flip", "0.1", "--seed", "9", "--out"]
        assert run(argv + [str(first)])[0] == 0
        assert run(argv + [str(second)])[0] == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bits, sha256", [
        ("1024", "9f025fe2a6c5b9085d771eaa46d50f6d"
                 "c924d9b986a81e87c43ce919afdefb01"),
        # 301 bits: scores like 0.7541528239202658, the longest reprs
        ("301", "0d44a5fee529061d1d707482873ac775"
                "b2c59b901f9dde555e5d0756b62cae83"),
    ])
    def test_golden_bytes(self, run, tmp_path, bits, sha256):
        path = tmp_path / "s.csv"
        code, _, _ = run(["simulate", "--identities", "20", "--samples-per",
                          "5", "--bits", bits, "--seed", "3", "--out",
                          str(path)])
        assert code == 0
        data = path.read_bytes()
        assert data.count(b"\n") == 4951      # header + C(100, 2) pairs
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_genuine_pairs_share_an_equal_identity(self, run, tmp_path,
                                                    monkeypatch):
        # identities compare by equality, as in a gallery's identity map:
        # 1 and "1" are two identities, 1 and 1.0 are one
        population = [Template(np.zeros(8, np.uint8), identity, f"t{k}")
                      for k, identity in enumerate([1, "1", 1.0])]
        monkeypatch.setattr(cli.enrollment, "generate_population",
                            lambda *args: population)
        path = tmp_path / "s.csv"
        assert run(["simulate", "--identities", "1", "--samples-per", "3",
                    "--out", str(path)])[0] == 0
        assert path.read_text().splitlines()[1:] == [
            "t0:t1,imposter,1.0", "t0:t2,genuine,1.0", "t1:t2,imposter,1.0"]

    def test_memory_stays_bounded(self, tmp_path):
        # 499,500 rows; a writer holding every row as a Python object
        # peaks well above the bound
        argv = ["simulate", "--identities", "250", "--samples-per", "4",
                "--bits", "64", "--out", str(tmp_path / "s.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_out_to_a_pipe(self, run, tmp_path):
        # --out /dev/stdout names a pipe here; it is written in place
        argv = ["simulate", "--identities", "3", "--samples-per", "2",
                "--bits", "64", "--seed", "4", "--out"]
        path = tmp_path / "s.csv"
        assert run(argv + [str(path)])[0] == 0
        src = os.path.dirname(os.path.dirname(irislogic.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", "from irislogic.cli import run; run()",
             *argv, "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == path.read_bytes()

    def test_bad_flip_rejected(self, run, tmp_path):
        code, _, err = run(["simulate", "--identities", "2",
                            "--samples-per", "2", "--flip", "0.7",
                            "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert err.startswith("error=invalid_input")


class TestCalibrateCommand:
    def test_writes_bands_and_curves(self, run, tmp_path, scores_csv):
        bands_path = tmp_path / "bands.json"
        curves_path = tmp_path / "curves.csv"
        code, out, _ = run(["calibrate", "--scores", str(scores_csv),
                            "--target", "1e-4", "--out", str(bands_path),
                            "--curves-out", str(curves_path)])
        assert code == 0
        doc = json.loads(bands_path.read_text())
        assert set(doc) == {"n", "p", "target_rate"}
        assert float(doc["n"]) < float(doc["p"])
        assert doc["target_rate"] == "0.0001"
        assert curves_path.read_text().splitlines()[0] == \
            "t,far,frr,pofa,pofr"
        report_keys = [line.split("=")[0] for line in out.splitlines()]
        assert report_keys == ["n", "genuine_discomfort",
                               "imposter_discomfort", "total_discomfort",
                               "true_accept_safety", "false_reject_safety"]

    def test_report_bytes(self, run, tmp_path):
        # overlapping classes: every report value is non-zero, and p needs
        # repr's shortest round-trip digits
        scores = tmp_path / "s.csv"
        assert run(["simulate", "--identities", "20", "--samples-per", "5",
                    "--bits", "256", "--flip", "0.3", "--seed", "3",
                    "--out", str(scores)])[0] == 0
        code, out, err = run(["calibrate", "--scores", str(scores),
                              "--target", "1e-1", "--out",
                              str(tmp_path / "b.json")])
        assert (code, err) == (0, "")
        assert out == ("n=0.5351 p=0.5458000000000001 target_rate=0.1\n"
                       "genuine_discomfort=0.115\n"
                       "imposter_discomfort=0.16421052631578947\n"
                       "total_discomfort=0.27921052631578946\n"
                       "true_accept_safety=0.9109473684210526\n"
                       "false_reject_safety=0.95\n")

    def test_does_not_load_scipy_stats(self, tmp_path):
        # the bound needs one scipy.special function; scipy.stats would add
        # hundreds of modules to every process that imports the package
        script = "\n".join([
            "import sys",
            "from irislogic.cli import main",
            "scores, bands = sys.argv[1:]",
            "assert main(['simulate', '--identities', '6', '--samples-per',",
            "             '3', '--bits', '256', '--seed', '4',",
            "             '--out', scores]) == 0",
            "assert main(['calibrate', '--scores', scores, '--target',",
            "             '0.05', '--out', bands]) == 0",
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'",
        ])
        src = os.path.dirname(os.path.dirname(irislogic.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "s.csv"),
             str(tmp_path / "b.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "b.json").exists()

    def test_only_a_bound_loads_scipy(self, run, tmp_path):
        # importing scipy.special costs a process hundreds of modules, so a
        # command that computes no bound must not load it
        script = "\n".join([
            "import contextlib, io, sys",
            "from irislogic.cli import main",
            "bands, gallery, scores, out = sys.argv[1:]",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert main(['algebra', 'verify']) == 0",
            "    assert main(['simulate', '--identities', '6',",
            "                 '--samples-per', '3', '--bits', '256',",
            "                 '--seed', '4', '--out', scores]) == 0",
            "    assert main(['decide', '--bands', bands, '--claim',",
            "                 'positive', '--score', '0.5']) == 0",
            "    assert main(['enroll', '--gallery', gallery, '--bands',",
            "                 bands, '--identity', 'alice', '--template-id',",
            "                 'alice_1', '--bits-hex', 'b2d0']) == 0",
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
            "assert not loaded, f'{len(loaded)} scipy modules loaded'",
            "assert main(['calibrate', '--scores', scores, '--target',",
            "             '0.05', '--out', out]) == 0",
            "assert 'scipy.special' in sys.modules, 'scipy.special not loaded'",
        ])
        bands = tmp_path / "bands.json"
        bands.write_text(json.dumps({"n": "0.3725", "p": "0.55",
                                     "target_rate": "1e-10"}))
        scores = tmp_path / "s.csv"
        src = os.path.dirname(os.path.dirname(irislogic.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(bands),
             str(tmp_path / "g.json"), str(scores), str(tmp_path / "b.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, out, err = run(["calibrate", "--scores", str(scores),
                              "--target", "0.05", "--out",
                              str(tmp_path / "here.json")])
        assert (code, err) == (0, "")
        assert proc.stdout == out
        assert ((tmp_path / "b.json").read_bytes()
                == (tmp_path / "here.json").read_bytes())

    def test_unachievable_target_is_a_failure(self, run, tmp_path):
        overlap = tmp_path / "overlap.csv"
        rows = ["pair_id,label,score"]
        rows += [f"g{i},genuine,0.5" for i in range(200)]
        rows += [f"i{i},imposter,0.5" for i in range(200)]
        overlap.write_text("\n".join(rows) + "\n")
        code, _, err = run(["calibrate", "--scores", str(overlap),
                            "--target", "1e-10", "--out",
                            str(tmp_path / "b.json")])
        assert code == 1
        assert err.startswith("error=unachievable_target")
        assert not (tmp_path / "b.json").exists()

    def test_bad_target_is_a_usage_error(self, run, tmp_path, scores_csv):
        code, _, err = run(["calibrate", "--scores", str(scores_csv),
                            "--target", "1.5", "--out",
                            str(tmp_path / "b.json")])
        assert code == 2
        assert err.startswith("error=invalid_input")

    def test_refuses_to_overwrite_input(self, run, scores_csv):
        code, _, err = run(["calibrate", "--scores", str(scores_csv),
                            "--target", "1e-4", "--out", str(scores_csv)])
        assert code == 2
        assert "also an input path" in err

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--target", "1e-4", "--out", "{link}"],
        ["calibrate", "--target", "1e-4", "--out", "{dir}/b.json",
         "--curves-out", "{link}"],
        ["curves", "--out", "{link}"],
    ], ids=["calibrate --out", "calibrate --curves-out", "curves --out"])
    def test_refuses_a_link_to_an_input(self, run, tmp_path, scores_csv,
                                        argv):
        link = tmp_path / "link.csv"
        link.symlink_to(scores_csv.name)
        before = scores_csv.read_bytes()
        argv = [a.format(link=link, dir=tmp_path) for a in argv]
        code, out, err = run(argv + ["--scores", str(scores_csv)])
        assert (code, out) == (2, "")
        assert err == (f"error=invalid_input detail=output path "
                       f"{str(link)!r} is also an input path\n")
        assert scores_csv.read_bytes() == before
        assert os.readlink(link) == scores_csv.name
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "scores.csv"]

    @pytest.mark.parametrize("old_bands", [None, b"old bands\n"],
                             ids=["new --out", "existing --out"])
    def test_unwritable_curves_out_leaves_both_files(self, run, tmp_path,
                                                     scores_csv, old_bands):
        bands = tmp_path / "b.json"
        if old_bands is not None:
            bands.write_bytes(old_bands)
        curves = tmp_path / "missing" / "c.csv"
        code, out, err = run(["calibrate", "--scores", str(scores_csv),
                              "--target", "1e-4", "--out", str(bands),
                              "--curves-out", str(curves)])
        assert (code, out) == (2, "")
        assert err == (f"error=invalid_input detail=[Errno 2] No such file "
                       f"or directory: {str(curves)!r}\n")
        assert set(os.listdir(tmp_path)) == \
            {"scores.csv"} | ({"b.json"} if old_bands else set())
        if old_bands is not None:
            assert bands.read_bytes() == old_bands

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("old_curves", [None, b"old curves\n"],
                             ids=["new --curves-out", "existing --curves-out"])
    def test_full_out_leaves_the_curves_file(self, run, tmp_path, scores_csv,
                                             old_curves):
        curves = tmp_path / "c.csv"
        if old_curves is not None:
            curves.write_bytes(old_curves)
        code, out, err = run(["calibrate", "--scores", str(scores_csv),
                              "--target", "1e-2", "--out", "/dev/full",
                              "--curves-out", str(curves)])
        assert (code, out) == (2, "")
        assert err == ("error=invalid_input detail=[Errno 28] No space left "
                       "on device: '/dev/full'\n")
        assert set(os.listdir(tmp_path)) == \
            {"scores.csv"} | ({"c.csv"} if old_curves else set())
        if old_curves is not None:
            assert curves.read_bytes() == old_curves

    def test_bands_file_bytes(self, run, tmp_path, scores_csv):
        # written with the curves file, as write_bands_json writes it alone
        bands = tmp_path / "b.json"
        code, _, _ = run(["calibrate", "--scores", str(scores_csv),
                          "--target", "1e-4", "--out", str(bands),
                          "--curves-out", str(tmp_path / "c.csv")])
        assert code == 0
        alone = tmp_path / "alone.json"
        write_bands_json(read_bands_json(bands), alone)
        assert bands.read_bytes() == alone.read_bytes()

    def test_curves_out_must_differ_from_out(self, run, tmp_path,
                                             scores_csv):
        # the curves file would overwrite the bands file just reported
        same = tmp_path / "same.json"
        code, out, err = run(["calibrate", "--scores", str(scores_csv),
                              "--target", "1e-4", "--out", str(same),
                              "--curves-out", str(same)])
        assert (code, out) == (2, "")
        assert err == (f"error=invalid_input detail=output path "
                       f"{str(same)!r} is also an input path\n")
        assert not same.exists()

    def test_missing_scores_file(self, run, tmp_path):
        code, _, err = run(["calibrate", "--scores",
                            str(tmp_path / "nope.csv"), "--target", "1e-4",
                            "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert err.startswith("error=invalid_input")

    def test_short_row_is_a_usage_error(self, run, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("pair_id,label,score\na:b,genuine,0.9\na:c,imposter\n")
        code, _, err = run(["calibrate", "--scores", str(short), "--target",
                            "1e-4", "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert err.startswith("error=invalid_input")
        assert "line 3 has fewer fields than the header" in err
        assert not (tmp_path / "b.json").exists()

    def test_header_only_file_is_one_error_line(self, tmp_path):
        # in a subprocess, so that a warning would reach stderr as it does
        # for a user, not pytest's warning capture
        path = tmp_path / "header.csv"
        path.write_text("pair_id,label,score\n")
        src = os.path.dirname(os.path.dirname(irislogic.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "from irislogic.cli import run; run()",
             "calibrate", "--scores", str(path), "--target", "1e-4", "--out",
             str(tmp_path / "b.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error=invalid_input detail={path}: genuine "
                               f"scores must be a non-empty 1-d list\n")
        assert not (tmp_path / "b.json").exists()

    def test_piped_scores_are_refused(self, tmp_path, scores_csv):
        # the reader reads the file from its start more than once, which a
        # pipe cannot do
        src = os.path.dirname(os.path.dirname(irislogic.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "from irislogic.cli import run; run()",
             "calibrate", "--scores", "/dev/stdin", "--target", "1e-4",
             "--out", "b.json"],
            input=scores_csv.read_bytes(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (b"error=invalid_input detail=/dev/stdin: "
                               b"File or stream is not seekable.\n")
        assert not (tmp_path / "b.json").exists()


class TestDecideCommand:
    @pytest.fixture
    def bands_json(self, tmp_path):
        path = tmp_path / "bands.json"
        path.write_text(json.dumps({"n": "0.3725", "p": "0.55",
                                    "target_rate": "1e-10"}))
        return path

    def test_record_line(self, run, bands_json):
        code, out, _ = run(["decide", "--bands", str(bands_json),
                            "--claim", "positive", "--score", "0.45"])
        assert code == 0
        assert out == ("claim=positive identity=X score=0.45 modal=O "
                       "response=repeat output_octal=3 meaning=PR'&NR'\n")

    def test_negative_claim(self, run, bands_json):
        code, out, _ = run(["decide", "--bands", str(bands_json),
                            "--claim", "negative", "--score", "0.2",
                            "--identity", "bob"])
        assert code == 0
        assert "identity=bob" in out
        assert "response=accepted" in out

    def test_out_of_range_score(self, run, bands_json):
        code, _, err = run(["decide", "--bands", str(bands_json),
                            "--claim", "positive", "--score", "1.5"])
        assert code == 2
        assert err.startswith("error=invalid_input")

    def test_unknown_polarity_is_a_usage_error(self, run, bands_json):
        code, _, _ = run(["decide", "--bands", str(bands_json),
                          "--claim", "sideways", "--score", "0.5"])
        assert code == 2


class TestEnrollCommand:
    @pytest.fixture
    def bands_json(self, tmp_path):
        path = tmp_path / "bands.json"
        path.write_text(json.dumps({"n": "0.6", "p": "0.75",
                                    "target_rate": "1e-06"}))
        return path

    @pytest.fixture
    def base_bits(self):
        return np.random.default_rng(5).integers(0, 2, 512, dtype=np.uint8)

    def test_full_flow(self, run, tmp_path, bands_json, base_bits):
        gallery = tmp_path / "gallery.json"
        code, out, _ = run(["enroll", "--gallery", str(gallery), "--bands",
                            str(bands_json), "--identity", "alice",
                            "--template-id", "alice_1", "--bits-hex",
                            bits_to_hex(base_bits)])
        assert code == 0
        assert out == "enrolled=alice_1 gallery_size=1\n"

        # 166 of 512 bits flipped lands in the uncertainty band
        shady = base_bits.copy()
        shady[:166] = 1 - shady[:166]
        before = gallery.read_bytes()
        code, _, err = run(["enroll", "--gallery", str(gallery),
                            "--identity", "bob", "--template-id", "bob_1",
                            "--bits-hex", bits_to_hex(shady)])
        assert code == 1
        assert err == "error=unenrollable detail=conflicting_ids=alice_1\n"
        assert gallery.read_bytes() == before

        distinct = base_bits.copy()
        distinct[:256] = 1 - distinct[:256]
        code, out, _ = run(["enroll", "--gallery", str(gallery),
                            "--identity", "bob", "--template-id", "bob_1",
                            "--bits-hex", bits_to_hex(distinct)])
        assert code == 0
        assert out == "enrolled=bob_1 gallery_size=2\n"

    def test_existing_gallery_bands_must_match(self, run, tmp_path,
                                               bands_json, base_bits):
        gallery = tmp_path / "gallery.json"
        distinct = base_bits.copy()
        distinct[:256] = 1 - distinct[:256]
        for identity, bits in (("alice", base_bits), ("bob", distinct)):
            code, out, _ = run(["enroll", "--gallery", str(gallery),
                                "--bands", str(bands_json), "--identity",
                                identity, "--template-id", f"{identity}_1",
                                "--bits-hex", bits_to_hex(bits)])
            assert code == 0
        assert out == "enrolled=bob_1 gallery_size=2\n"

        other = tmp_path / "other.json"
        other.write_text(json.dumps({"n": "0.5", "p": "0.75",
                                     "target_rate": "1e-06"}))
        before = gallery.read_bytes()
        distinct[256:] = 1 - distinct[256:]
        code, out, err = run(["enroll", "--gallery", str(gallery), "--bands",
                              str(other), "--identity", "carol",
                              "--template-id", "carol_1", "--bits-hex",
                              bits_to_hex(distinct)])
        assert code == 2
        assert out == ""
        assert err == f"error=bands_mismatch detail={other}\n"
        assert gallery.read_bytes() == before

    def test_duplicate_template_id_rejected(self, run, tmp_path, bands_json,
                                            base_bits):
        gallery = tmp_path / "gallery.json"
        distinct = base_bits.copy()
        distinct[:256] = 1 - distinct[:256]
        code, _, _ = run(["enroll", "--gallery", str(gallery), "--bands",
                          str(bands_json), "--identity", "alice",
                          "--template-id", "a_1", "--bits-hex",
                          bits_to_hex(base_bits)])
        assert code == 0
        before = gallery.read_bytes()
        for identity, bits in (("alice", base_bits), ("bob", distinct)):
            code, out, err = run(["enroll", "--gallery", str(gallery),
                                  "--identity", identity, "--template-id",
                                  "a_1", "--bits-hex", bits_to_hex(bits)])
            assert code == 2
            assert out == ""
            assert err == "error=duplicate_template_id detail=a_1\n"
            assert gallery.read_bytes() == before

    def test_non_string_identity_in_the_file(self, run, tmp_path,
                                             base_bits):
        gallery = tmp_path / "gallery.json"
        gallery.write_text(json.dumps({
            "bands": {"n": "0.6", "p": "0.75", "target_rate": "1e-06"},
            "bit_length": 512,
            "templates": [{"bits": bits_to_hex(base_bits),
                           "identity": ["alice"],
                           "template_id": "alice_1"}]}))
        before = gallery.read_bytes()
        distinct = base_bits.copy()
        distinct[:256] = 1 - distinct[:256]
        code, out, err = run(["enroll", "--gallery", str(gallery),
                              "--identity", "bob", "--template-id", "bob_1",
                              "--bits-hex", bits_to_hex(distinct)])
        assert (code, out) == (2, "")
        assert err == (f"error=invalid_input detail={gallery}: not a gallery "
                       f"document (identity [\"alice\"] is not a string)\n")
        assert gallery.read_bytes() == before

    def test_bits_hex_must_match_gallery_length(self, run, tmp_path,
                                                bands_json):
        gallery = tmp_path / "gallery.json"
        code, _, _ = run(["enroll", "--gallery", str(gallery), "--bands",
                          str(bands_json), "--identity", "alice",
                          "--template-id", "a_1", "--bits-hex", "60f5"])
        assert code == 0
        before = gallery.read_bytes()
        code, out, err = run(["enroll", "--gallery", str(gallery),
                              "--identity", "bob", "--template-id", "b_1",
                              "--bits-hex", "60f50000"])
        assert code == 2
        assert out == ""
        assert err.startswith("error=invalid_input")
        assert gallery.read_bytes() == before

    @pytest.mark.parametrize("second_flag", [[], ["--bit-length", "12"]])
    def test_bit_length_starts_a_gallery(self, run, tmp_path, bands_json,
                                         second_flag):
        gallery = tmp_path / "gallery.json"
        for identity, payload, flag in (
                ("alice", "b2d0", ["--bit-length", "12"]),
                ("bob", "69e0", second_flag)):
            code, out, _ = run(["enroll", "--gallery", str(gallery),
                                "--bands", str(bands_json), "--identity",
                                identity, "--template-id", f"{identity}_1",
                                "--bits-hex", payload] + flag)
            assert code == 0
        assert out == "enrolled=bob_1 gallery_size=2\n"
        assert gallery.read_text() == GALLERY_12_BITS

    def test_bit_length_must_match_the_gallery(self, run, tmp_path,
                                               bands_json):
        gallery = tmp_path / "gallery.json"
        for length in ("0", "-4"):
            code, out, err = run(["enroll", "--gallery", str(gallery),
                                  "--bands", str(bands_json), "--identity",
                                  "alice", "--template-id", "alice_1",
                                  "--bits-hex", "b2d0", "--bit-length",
                                  length])
            assert (code, out) == (2, "")
            assert err.startswith("error=invalid_input")
            assert not gallery.exists()
        run(["enroll", "--gallery", str(gallery), "--bands", str(bands_json),
             "--identity", "alice", "--template-id", "alice_1",
             "--bits-hex", "b2d0", "--bit-length", "12"])
        before = gallery.read_bytes()
        code, out, err = run(["enroll", "--gallery", str(gallery),
                              "--identity", "bob", "--template-id", "bob_1",
                              "--bits-hex", "69e0", "--bit-length", "16"])
        assert (code, out) == (2, "")
        assert err == ("error=invalid_input detail=--bit-length 16 differs "
                       "from the gallery's bit length 12\n")
        assert gallery.read_bytes() == before

    @pytest.mark.parametrize("flag", [[], ["--bit-length", "16"]])
    def test_empty_gallery_file_with_a_bit_length(self, run, tmp_path,
                                                  flag):
        # save_gallery writes null for a gallery with no templates
        gallery = tmp_path / "gallery.json"
        gallery.write_text(json.dumps({
            "bands": {"n": "0.6", "p": "0.75", "target_rate": "1e-06"},
            "bit_length": 12, "templates": []}))
        before = gallery.read_bytes()
        code, out, err = run(["enroll", "--gallery", str(gallery),
                              "--identity", "a", "--template-id", "a1",
                              "--bits-hex", "b2d0"] + flag)
        assert (code, out) == (2, "")
        assert err == (f"error=invalid_input detail={gallery}: not a gallery "
                       f"document (bit_length 12 is given for no "
                       f"templates)\n")
        assert gallery.read_bytes() == before

    def test_conflicting_id_with_a_line_break(self, run, tmp_path,
                                              base_bits):
        # the gallery file may hold such an id; the error line escapes it
        gallery = tmp_path / "gallery.json"
        gallery.write_text(json.dumps({
            "bands": {"n": "0.6", "p": "0.75", "target_rate": "1e-06"},
            "bit_length": 512,
            "templates": [{"bits": bits_to_hex(base_bits),
                           "identity": "alice", "template_id": "a\nb"}]}))
        before = gallery.read_bytes()
        shady = base_bits.copy()
        shady[:166] = 1 - shady[:166]
        code, out, err = run(["enroll", "--gallery", str(gallery),
                              "--identity", "bob", "--template-id", "bob_1",
                              "--bits-hex", bits_to_hex(shady)])
        assert (code, out) == (1, "")
        assert err == "error=unenrollable detail=conflicting_ids=a\\nb\n"
        assert gallery.read_bytes() == before

    def test_new_gallery_requires_bands(self, run, tmp_path, base_bits):
        code, _, err = run(["enroll", "--gallery",
                            str(tmp_path / "g.json"), "--identity", "a",
                            "--template-id", "a_1", "--bits-hex",
                            bits_to_hex(base_bits)])
        assert code == 2
        assert "requires --bands" in err

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new gallery", "existing gallery"])
    def test_empty_bands_path_is_a_missing_file(self, run, tmp_path,
                                                bands_json, base_bits,
                                                existing):
        gallery = tmp_path / "g.json"
        if existing:
            code, _, _ = run(["enroll", "--gallery", str(gallery), "--bands",
                              str(bands_json), "--identity", "a",
                              "--template-id", "a_1", "--bits-hex",
                              bits_to_hex(base_bits)])
            assert code == 0
        before = gallery.read_bytes() if existing else None
        distinct = base_bits.copy()
        distinct[:256] = 1 - distinct[:256]
        code, out, err = run(["enroll", "--gallery", str(gallery), "--bands",
                              "", "--identity", "b", "--template-id", "b_1",
                              "--bits-hex", bits_to_hex(distinct)])
        assert (code, out) == (2, "")
        assert err == ("error=invalid_input detail=[Errno 2] No such file "
                       "or directory: ''\n")
        if existing:
            assert gallery.read_bytes() == before
        else:
            assert not gallery.exists()

    def test_empty_bits_hex_into_a_new_gallery(self, run, tmp_path,
                                               bands_json):
        gallery = tmp_path / "g.json"
        code, out, err = run(["enroll", "--gallery", str(gallery), "--bands",
                              str(bands_json), "--identity", "a",
                              "--template-id", "a_1", "--bits-hex", ""])
        assert (code, out) == (2, "")
        assert err == ("error=invalid_input detail=bits must be a non-empty "
                       "1-d array\n")
        assert not gallery.exists()


class TestCurvesCommand:
    def test_writes_rates(self, run, tmp_path, scores_csv):
        path = tmp_path / "curves.csv"
        code, _, _ = run(["curves", "--scores", str(scores_csv),
                          "--out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,far,frr,pofa,pofr"
        assert len(lines) == 10_002
        first = lines[1].split(",")
        assert first[:3] == ["0.0", "1.0", "0.0"]

    def test_golden_bytes(self, run, tmp_path, scores_csv):
        path = tmp_path / "curves.csv"
        assert run(["curves", "--scores", str(scores_csv), "--out",
                    str(path)])[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3f2213a6f87c03287d587e34cce8f895be815c70f6d797e17541f28983fb9270")


class TestUnreadableInput:
    """Each bad file ends in one error line that names it, never a
    traceback, and leaves the file as it was."""

    def one_error_line(self, err, prefix):
        assert err.count("\n") == 1
        assert err.startswith(prefix)

    def test_bands_file_that_is_not_json(self, run, tmp_path, scores_csv):
        # a line break in the file name is escaped in the detail
        for name, shown in (("curves.csv", "curves.csv"),
                            ("bad\nname.json", "bad\\nname.json")):
            curves = tmp_path / name
            assert run(["curves", "--scores", str(scores_csv), "--out",
                        str(curves)])[0] == 0
            code, out, err = run(["decide", "--bands", str(curves),
                                  "--claim", "positive", "--score", "0.5"])
            assert (code, out) == (2, "")
            self.one_error_line(err, f"error=invalid_input "
                                     f"detail={tmp_path}/{shown}: not a "
                                     f"bands document (")

    def test_json_nested_too_deep(self, run, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run(["decide", "--bands", str(deep), "--claim",
                              "positive", "--score", "0.5"])
        assert (code, out) == (2, "")
        self.one_error_line(err, f"error=invalid_input detail={deep}: "
                                 f"not a bands document (")
        code, out, err = run(["enroll", "--gallery", str(deep), "--identity",
                              "alice", "--template-id", "alice_1",
                              "--bits-hex", "a5"])
        assert (code, out) == (2, "")
        self.one_error_line(err, f"error=invalid_input detail={deep}: "
                                 f"not a gallery document (")
        assert deep.read_text() == "[" * 100_000

    @pytest.mark.parametrize("score, detail", [
        ("1" * 131_073, ": field larger than field limit (131072)"),
        ("0.5\x00", " holds the control character '\\x00'")],
        ids=["long field", "NUL in score"])
    def test_bad_score_row(self, run, tmp_path, score, detail):
        path = tmp_path / "scores.csv"
        path.write_text(f"pair_id,label,score\na:b,genuine,0.5\n"
                        f"a:c,imposter,{score}\n")
        code, out, err = run(["calibrate", "--scores", str(path), "--target",
                              "1e-4", "--out", str(tmp_path / "b.json")])
        assert (code, out) == (2, "")
        assert err == f"error=invalid_input detail={path}: line 3{detail}\n"
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "allocation failed")], ids=["message", "bare"])
    def test_out_of_memory(self, run, monkeypatch, tmp_path, exc, detail):
        def cmd_simulate(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_simulate", cmd_simulate)
        code, out, err = run(["simulate", "--identities", "2",
                              "--samples-per", "2", "--out",
                              str(tmp_path / "s.csv")])
        assert (code, out) == (1, "")
        assert err == f"error=out_of_memory detail={detail}\n"

    def test_out_of_memory_patched_after_a_call(self, run, monkeypatch,
                                                tmp_path):
        # a parser kept from an earlier call still runs the cmd_* function
        # that the module holds now
        assert run(["algebra", "verify"])[0] == 0

        def cmd_simulate(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_simulate", cmd_simulate)
        code, out, err = run(["simulate", "--identities", "2",
                              "--samples-per", "2", "--out",
                              str(tmp_path / "s.csv")])
        assert (code, out) == (1, "")
        assert err == "error=out_of_memory detail=allocation failed\n"

    @pytest.mark.parametrize("option, value", [("--confidence", "0.9"),
                                               ("--grid-step", "0.01")],
                             ids=["--confidence", "--grid-step"])
    def test_dropped_option_is_a_usage_error(self, run, tmp_path,
                                             scores_csv, option, value):
        for argv in (["calibrate", "--target", "1e-4"], ["curves"]):
            code, out, err = run(argv + ["--scores", str(scores_csv),
                                         "--out", str(tmp_path / "o"),
                                         option, value])
            assert (code, out) == (2, "")
            self.one_error_line(err, "error=usage ")
        assert not (tmp_path / "o").exists()


class TestFileFaultsNameTheFile:
    """A file that parses but holds bad content is named in the error line,
    as one that does not parse is."""

    BANDS = {"n": "0.6", "p": "0.75", "target_rate": "1e-06"}

    def gallery(self, bits):
        return json.dumps({"bands": self.BANDS, "bit_length": 12,
                           "templates": [{"bits": bits, "identity": "alice",
                                          "template_id": "alice_1"}]})

    def bands_argv(self, path):
        return ["decide", "--bands", str(path), "--claim", "positive",
                "--score", "0.5"]

    def gallery_argv(self, path):
        return ["enroll", "--gallery", str(path), "--identity", "bob",
                "--template-id", "bob_1", "--bits-hex", "b2d0"]

    def scores_argv(self, path):
        return ["curves", "--scores", str(path), "--out",
                str(path.parent / "c.csv")]

    @pytest.mark.parametrize("kind, text, detail", [
        ("bands", '{"n": "0.9", "p": "0.1", "target_rate": "1e-4"}',
         "thresholds must satisfy 0 <= n < p <= 1, got n=0.9 p=0.1"),
        ("bands", '{"n": "0.1", "p": "0.9", "target_rate": "2"}',
         "target_rate must be in (0, 1), got 2.0"),
        ("bands", '{"n": "abc", "p": "0.9", "target_rate": "1e-4"}',
         "could not convert string to float: 'abc'"),
        ("gallery", "zz", "non-hexadecimal number found in fromhex() arg "
                          "at position 0"),
        ("gallery", "b2", "hex payload does not match the bit length"),
        ("gallery", "b2df", "hex payload does not match the bit length"),
        ("scores", "pair_id,label,score\n",
         "genuine scores must be a non-empty 1-d list"),
        ("scores", "pair_id,label,score\na:b,genuine,0.5\na:c,imposter,1.5\n",
         "imposter scores must lie in [0, 1]"),
        ("scores", "pair_id,label,score\na:b,genuine,nan\na:c,imposter,0.5\n",
         "genuine scores must lie in [0, 1]"),
    ], ids=["thresholds out of order", "bad target_rate", "not a float",
            "payload not hex", "payload too short", "padding bits set",
            "no rows", "score above 1", "NaN score"])
    def test_bad_content(self, run, tmp_path, kind, text, detail):
        path = tmp_path / f"{kind}.file"
        path.write_text(self.gallery(text) if kind == "gallery" else text)
        before = path.read_bytes()
        code, out, err = run(getattr(self, f"{kind}_argv")(path))
        assert (code, out) == (2, "")
        assert err == f"error=invalid_input detail={path}: {detail}\n"
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == [path.name]

    @pytest.mark.parametrize("kind", ["bands", "gallery", "scores"])
    def test_non_utf8_byte(self, run, tmp_path, kind):
        path = tmp_path / f"{kind}.file"
        path.write_bytes(b"\xff")
        code, out, err = run(getattr(self, f"{kind}_argv")(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error=invalid_input detail={path}: ")
        assert path.read_bytes() == b"\xff"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--identities", "3", "--samples-per", "2", "--bits",
         "64", "--out"],
        ["calibrate", "--scores", "scores.csv", "--target", "1e-4", "--out"],
        ["curves", "--scores", "scores.csv", "--out"],
        ["algebra", "table", "--out"],
        ["enroll", "--bands", "bands.json", "--identity", "alice",
         "--template-id", "alice_1", "--bits-hex", "b2d0", "--gallery"],
    ], ids=["simulate", "calibrate", "curves", "algebra table", "enroll"])
    def test_failed_write_names_the_output(self, run, tmp_path, monkeypatch,
                                           scores_csv, argv):
        # the error names the path given, not the temporary file beside it
        monkeypatch.chdir(tmp_path)
        Path("bands.json").write_text(json.dumps(self.BANDS))
        out = os.path.join("missing", "x.out")
        code, stdout, err = run(argv + [out])
        assert (code, stdout) == (2, "")
        assert err == (f"error=invalid_input detail=[Errno 2] No such file "
                       f"or directory: {out!r}\n")
        assert sorted(os.listdir()) == ["bands.json", "scores.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_failed_write_in_place_names_the_output(self, run):
        # a device is written in place; a full one fails on the write
        code, _, err = run(["algebra", "table", "--out", "/dev/full"])
        assert code == 2
        assert err == ("error=invalid_input detail=[Errno 28] No space left "
                       "on device: '/dev/full'\n")


class TestTopLevel:
    def test_unknown_command(self, run):
        assert run(["nonsense"])[0] == 2

    def test_no_command(self, run):
        assert run([])[0] == 2

    @pytest.mark.parametrize("argv", [
        ["decide", "--bands", "b.json", "--claim", "positive", "--score",
         "abc"],
        ["decide", "--claim", "positive", "--score", "0.5"],
        ["nonsense"],
        ["curves", "--scores", "s.csv", "--out", "c.csv", "--confidence",
         "0.9"],
        ["curves", "--scores", "s.csv", "--out", "c.csv", "--grid-step",
         "0.01"],
        ["decide", "--bands", "b.json", "--claim", "positive", "--score",
         "0.5", "--identity", "a\nb"],
        ["enroll", "--gallery", "g.json", "--identity", "alice",
         "--template-id", "a\nb", "--bits-hex", "b2d0"],
        ["enroll", "--gallery", "g.json", "--identity", "a\u2028b",
         "--template-id", "a_1", "--bits-hex", "b2d0"],
    ], ids=["non-numeric score", "missing flag", "unknown command",
            "--confidence", "--grid-step", "decide --identity",
            "enroll --template-id", "enroll --identity"])
    def test_argument_errors_are_one_line(self, run, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error=usage ")

    def test_detail_line_breaks_are_escaped(self, capsys):
        breaks = [c for c in map(chr, range(sys.maxunicode + 1))
                  if len(f"a{c}b".splitlines()) == 2]
        cli._fail("t", "\\x00".join(breaks), 2)
        assert capsys.readouterr().err == "error=t detail={}\n".format(
            "\\x00".join(repr(c)[1:-1] for c in breaks))

    def test_usage_detail_is_argparse_message(self, run):
        assert run(["decide", "--bands", "b.json", "--claim", "positive",
                    "--score", "abc"])[2] == (
            "error=usage detail=argument --score: invalid float value: "
            "'abc'\n")

    def test_help_exits_cleanly(self, run):
        code, out, _ = run(["--help"])
        assert code == 0
        assert "algebra" in out

    @pytest.mark.parametrize("module", ["irislogic", "irislogic.cli"])
    def test_module_form_runs_the_command_line(self, module):
        src = os.path.dirname(os.path.dirname(irislogic.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", module, "algebra", "verify"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1:] == ["result=pass"]

    def test_console_script_smoke(self, tmp_path):
        # cli_smoke.sh as CI runs it, with shims standing in for the
        # installed console script and for python
        shims = tmp_path / "bin"
        shims.mkdir()
        python = shlex.quote(sys.executable)
        for name, args in [
                ("irislogic", ' -c "from irislogic.cli import run; run()"'),
                ("python", "")]:
            (shims / name).write_text(f'#!/bin/sh\nexec {python}{args} "$@"\n')
            (shims / name).chmod(0o755)
        work = tmp_path / "work"
        work.mkdir()
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            irislogic.__file__)))
        env = dict(os.environ, PYTHONPATH=src,
                   PATH=os.pathsep.join([str(shims), os.environ["PATH"]]))
        proc = subprocess.run(
            ["bash", str(Path(__file__).with_name("cli_smoke.sh"))],
            cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestOneParser:
    """Every main call parses with one parser, built once per process, and
    no call leaves anything behind for the next."""

    RECORD = ("claim=positive identity=X score=0.45 modal=O "
              "response=repeat output_octal=3 meaning=PR'&NR'\n")

    @pytest.fixture
    def decide_argv(self, tmp_path):
        path = tmp_path / "bands.json"
        path.write_text(json.dumps({"n": "0.3725", "p": "0.55",
                                    "target_rate": "1e-10"}))
        return ["decide", "--bands", str(path), "--claim", "positive",
                "--score", "0.45"]

    def test_default_after_a_given_value(self, run, decide_argv):
        assert run(decide_argv + ["--identity", "Y"])[0] == 0
        assert run(decide_argv) == (0, self.RECORD, "")

    def test_default_op_after_sum(self, run):
        assert run(["algebra", "table", "--op", "sum"])[0] == 0
        code, out, err = run(["algebra", "table"])
        assert (code, err) == (0, "")
        assert [[int(c) for c in line.split(",")[1:9]]
                for line in out.splitlines()[1:9]] == PRODUCT

    def test_good_call_after_a_usage_error(self, run):
        code, _, err = run(["algebra", "table", "--op", "difference"])
        assert (code, err[:12]) == (2, "error=usage ")
        code, out, err = run(["algebra", "verify"])
        assert (code, err) == (0, "")
        assert out.endswith("result=pass\n")

    def test_no_parser_built_after_the_first_call(self, run, monkeypatch,
                                                   decide_argv):
        assert run(["algebra", "verify"])[0] == 0

        def refuse(*args, **kwargs):
            raise AssertionError("an argument parser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert run(decide_argv) == (0, self.RECORD, "")
        code, out, err = run(["algebra", "verify"])
        assert (code, err) == (0, "")
        assert out.endswith("result=pass\n")
        assert run(decide_argv[:-1] + ["abc"]) == (
            2, "", "error=usage detail=argument --score: invalid float "
                   "value: 'abc'\n")


# Valid files that every generated case starts from; a case corrupts one of
# them into "bad", or leaves them whole and passes a bad argument value.
_BANDS = {"n": "0.3725", "p": "0.55", "target_rate": "1e-10"}
_TEMPLATE = {"bits": "b2d0", "identity": "alice", "template_id": "alice_1"}
_GALLERY = {"bands": _BANDS, "bit_length": 12, "templates": [_TEMPLATE]}
_SCORE_ROWS = [["pair_id", "label", "score"], ["a:b", "genuine", "0.75"],
               ["a:c", "imposter", "0.25"]]


def _csv_text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


_SCORES_TEXT = _csv_text(_SCORE_ROWS)
_VALID_FILES = {"bands.json": json.dumps(_BANDS).encode(),
                "gallery.json": json.dumps(_GALLERY).encode(),
                "scores.csv": _SCORES_TEXT.encode()}

# "@name" stands for the file of that name in the case's directory
_READERS = {
    "bands": [["decide", "--bands", "@bad", "--claim", "positive",
               "--score", "0.5"],
              ["enroll", "--gallery", "@new.json", "--bands", "@bad",
               "--identity", "bob", "--template-id", "bob_1",
               "--bits-hex", "b2d0"]],
    "gallery": [["enroll", "--gallery", "@bad", "--identity", "bob",
                 "--template-id", "bob_1", "--bits-hex", "b2d0"]],
    "scores": [["calibrate", "--scores", "@bad", "--target", "1e-4",
                "--out", "@b.json", "--curves-out", "@c.csv"],
               ["curves", "--scores", "@bad", "--out", "@c.csv"]],
}


def _replaced(doc, key, value):
    return {**doc, key: value}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _bad_json(valid):
    """Text that is not the given valid JSON document, in ways a reader
    must refuse."""
    text = json.dumps(valid)
    return st.one_of(
        # a strict prefix of an object is not JSON
        st.integers(0, len(text) - 1).map(lambda k: text[:k].encode()),
        # a NUL is JSON nowhere; 0x80, 0xff and a cut sequence are not UTF-8
        st.tuples(st.integers(0, len(text)),
                  st.sampled_from([b"\x00", b"\x80", b"\xff", b"\xc3("])).map(
            lambda t: text[:t[0]].encode() + t[1] + text[t[0]:].encode()),
        # nesting, closed or not, within or beyond the decoder's depth
        st.tuples(st.sampled_from([("[", "]"), ('{"bands": ', "}")]),
                  st.sampled_from([30, 3_000, 100_000]), st.booleans()).map(
            lambda t: (t[0][0] * t[1]
                       + ("1" + t[0][1] * t[1] if t[2] else "")).encode()),
        # JSON of the wrong type at the top
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                  st.text(max_size=5), st.lists(st.integers(), max_size=3)
                  ).map(lambda v: json.dumps(v).encode()),
    )


# not a number, or outside [0, 1]
_BAD_NUMBER = st.sampled_from(
    [None, [], {}, ["0.5"], "", "abc", "nan", "inf", "-inf", "-0.5", "1.5",
     "0x1", "1e400"])
_BAD_BANDS = st.one_of(
    st.tuples(st.sampled_from(list(_BANDS)), _BAD_NUMBER).map(
        lambda t: _replaced(_BANDS, *t)),
    st.sampled_from(list(_BANDS)).map(lambda key: _without(_BANDS, key)),
    # thresholds out of order
    st.floats(0, 1).flatmap(lambda p: st.floats(p, 1).map(
        lambda n: {**_BANDS, "n": repr(n), "p": repr(p)})),
    st.sampled_from(["0", "1"]).map(
        lambda rate: _replaced(_BANDS, "target_rate", rate)),
)
_BAD_TEMPLATE = st.one_of(
    # not hex, too short or long for 12 bits, padding bits set, not text
    st.sampled_from(["zz", "b2d", "b2", "b2d0ff", "b2df", "", 178, None,
                     ["b2d0"]]).map(
        lambda bits: _replaced(_TEMPLATE, "bits", bits)),
    st.tuples(st.sampled_from(["identity", "template_id"]),
              st.sampled_from([None, 5, ["alice"], {}])).map(
        lambda t: _replaced(_TEMPLATE, *t)),
    st.sampled_from(list(_TEMPLATE)).map(
        lambda key: _without(_TEMPLATE, key)),
)
_BAD_GALLERY = st.one_of(
    _BAD_BANDS.map(lambda bands: _replaced(_GALLERY, "bands", bands)),
    st.sampled_from([0, -12, "12", 12.0, True, None, [12], 4, 17]).map(
        lambda n: _replaced(_GALLERY, "bit_length", n)),
    st.sampled_from([None, 5, "x", "", {}, [], [None], [[]], [{}],
                     {"a": 1}, [_TEMPLATE, _TEMPLATE]]).map(
        lambda t: _replaced(_GALLERY, "templates", t)),
    _BAD_TEMPLATE.map(lambda t: _replaced(_GALLERY, "templates", [t])),
    st.sampled_from(list(_GALLERY)).map(
        lambda key: _without(_GALLERY, key)),
)


def _with_cell(row, col, value):
    rows = [list(r) for r in _SCORE_ROWS]
    rows[row][col] = value
    return _csv_text(rows).encode()


_BAD_SCORES = st.one_of(
    # cut before the last score begins: no rows, one class, or a short row
    st.integers(0, _SCORES_TEXT.rfind(",") + 1).map(
        lambda k: _SCORES_TEXT[:k].encode()),
    st.tuples(st.integers(0, len(_SCORES_TEXT)),
              st.sampled_from([b"\x80", b"\xff", b"\xc3("])).map(
        lambda t: (_SCORES_TEXT[:t[0]].encode() + t[1]
                   + _SCORES_TEXT[t[0]:].encode())),
    # a NUL in a score, or a score out of range or not a float
    st.tuples(st.sampled_from([1, 2]), st.integers(0, 4)).map(
        lambda t: _with_cell(t[0], 2, "0.25"[:t[1]] + "\x00"
                             + "0.25"[t[1]:])),
    st.tuples(st.sampled_from([1, 2]), st.sampled_from(
        ["-0.25", "1.5", "nan", "inf", "-inf", "1e400", "", "abc", "0x1"])
    ).map(lambda t: _with_cell(t[0], 2, t[1])),
    # a field over the csv module's 131,072-character limit
    st.tuples(st.integers(0, 2), st.integers(0, 2),
              st.integers(131_073, 140_000)).map(
        lambda t: _with_cell(t[0], t[1], "x" * t[2])),
    # an unknown label, a header without one of its names, a row without
    # its score
    st.tuples(st.sampled_from([1, 2]), st.sampled_from(
        ["", "Genuine", "impostor", "genuine "])).map(
        lambda t: _with_cell(t[0], 1, t[1])),
    st.tuples(st.integers(0, 2), st.sampled_from(["", "scores", "Label"])
              ).map(lambda t: _with_cell(0, t[0], t[1])),
    st.sampled_from([1, 2]).map(lambda row: _csv_text(
        [r if k != row else r[:2] for k, r in enumerate(_SCORE_ROWS)]
    ).encode()),
)


def _file_fault(kind, contents):
    return st.tuples(st.just("bad"), contents,
                     st.sampled_from(_READERS[kind]))


# One bad value per command, the rest valid. No size is large, so the
# simulated population stays small. --grid-step is no longer an option:
# its cases check that passing it is a usage error.
_NOT_A_NUMBER = ["nan", "inf", "-inf", "abc", "", "1e400"]
_BAD_ARGUMENTS = st.one_of(
    st.sampled_from(_NOT_A_NUMBER + ["-0.5", "1.5", "0x1"]).map(
        lambda v: ["decide", "--bands", "@bands.json", "--claim",
                   "positive", "--score", v]),
    st.sampled_from(["sideways", "", "POSITIVE"]).map(
        lambda v: ["decide", "--bands", "@bands.json", "--claim", v,
                   "--score", "0.5"]),
    st.sampled_from(_NOT_A_NUMBER + ["-1", "0", "1", "1.5"]).map(
        lambda v: ["calibrate", "--scores", "@scores.csv", "--target", v,
                   "--out", "@b.json"]),
    st.tuples(st.sampled_from(["calibrate", "curves"]), st.sampled_from(
        _NOT_A_NUMBER + ["-1", "0", "-1e-9", "0.3", "0.007"])).map(
        lambda t: [t[0], "--scores", "@scores.csv", "--grid-step", t[1],
                   "--out", "@o"] + (["--target", "0.1"]
                                     if t[0] == "calibrate" else [])),
    st.tuples(st.sampled_from(["--identities", "--samples-per", "--bits"]),
              st.sampled_from(_NOT_A_NUMBER + ["-1", "0", "1.5"])).map(
        lambda t: ["simulate", "--identities", "2", "--samples-per", "2",
                   "--bits", "64", "--out", "@s.csv", *t]),
    st.tuples(st.sampled_from(["--flip", "--seed"]),
              st.sampled_from(_NOT_A_NUMBER + ["-1", "0.5", "1.5"])).map(
        lambda t: ["simulate", "--identities", "2", "--samples-per", "2",
                   "--bits", "64", "--out", "@s.csv", *t]),
    st.tuples(st.sampled_from(["--bits-hex", "--bit-length"]),
              st.sampled_from(_NOT_A_NUMBER + ["-1", "0", "4", "zz", "a"])
              ).map(lambda t: ["enroll", "--gallery", "@gallery.json",
                               "--identity", "bob", "--template-id", "bob_1",
                               "--bits-hex", "b2d0", *t]),
    st.sampled_from(["", "zz", "a", "b2 d"]).map(
        lambda v: ["enroll", "--gallery", "@new.json", "--bands",
                   "@bands.json", "--identity", "bob", "--template-id",
                   "bob_1", "--bits-hex", v]),
    st.sampled_from(["nan", "inf", "abc", "-1"]).map(
        lambda v: ["algebra", "table", "--op", v]),
)
_BAD_INPUTS = st.one_of(
    _file_fault("bands", st.one_of(_bad_json(_BANDS), _BAD_BANDS.map(
        lambda doc: json.dumps(doc).encode()))),
    _file_fault("gallery", st.one_of(_bad_json(_GALLERY), _BAD_GALLERY.map(
        lambda doc: json.dumps(doc).encode()))),
    _file_fault("scores", _BAD_SCORES),
    st.tuples(st.none(), st.none(), _BAD_ARGUMENTS),
)


class TestNoInputEndsInATraceback:
    """Generated bad files and bad argument values through main, in
    process: exit 1 or 2, nothing on stdout, one error= line on stderr that
    names the bad file if there is one, and every file as it was."""

    @settings(max_examples=150, deadline=None)
    @given(_BAD_INPUTS)
    # templates that are not a list once loaded as an empty gallery
    @example(("bad", json.dumps(_replaced(_GALLERY, "templates", "")).encode(),
              _READERS["gallery"][0]))
    # a bit length with no templates, which save_gallery never writes
    @example(("bad", json.dumps(_replaced(_GALLERY, "templates", [])).encode(),
              _READERS["gallery"][0]))
    def test_one_error_line(self, case):
        bad, contents, argv = case
        with tempfile.TemporaryDirectory() as tmp:
            files = dict(_VALID_FILES)
            if bad is not None:
                files[bad] = contents
            for name, data in files.items():
                Path(tmp, name).write_bytes(data)
            argv = [os.path.join(tmp, a[1:]) if a.startswith("@") else a
                    for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (1, 2)
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().startswith("error=")
            if bad is not None:
                assert os.path.join(tmp, bad) in err.getvalue()
            assert {name: Path(tmp, name).read_bytes()
                    for name in os.listdir(tmp)} == files
