"""End-to-end command-line checks: outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from irislogic.cli import main
from irislogic.enrollment import bits_to_hex

from table_data import CHAINS, ENTROPY_PRODUCT, ENTROPY_SUM, PRODUCT


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

    def test_verify_reports_every_check(self, run):
        code, out, _ = run(["algebra", "verify"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "result=pass"
        check_lines = [l for l in lines if l.startswith("check=")]
        assert len(check_lines) == 19
        assert all(l.endswith("result=ok") for l in check_lines)


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

    def test_missing_scores_file(self, run, tmp_path):
        code, _, err = run(["calibrate", "--scores",
                            str(tmp_path / "nope.csv"), "--target", "1e-4",
                            "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert err.startswith("error=invalid_input")


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

    def test_new_gallery_requires_bands(self, run, tmp_path, base_bits):
        code, _, err = run(["enroll", "--gallery",
                            str(tmp_path / "g.json"), "--identity", "a",
                            "--template-id", "a_1", "--bits-hex",
                            bits_to_hex(base_bits)])
        assert code == 2
        assert "requires --bands" in err


class TestCurvesCommand:
    def test_writes_rates(self, run, tmp_path, scores_csv):
        path = tmp_path / "curves.csv"
        code, _, _ = run(["curves", "--scores", str(scores_csv),
                          "--grid-step", "0.01", "--out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,far,frr,pofa,pofr"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert first[:3] == ["0.0", "1.0", "0.0"]

    def test_bad_grid_step(self, run, tmp_path, scores_csv):
        code, _, err = run(["curves", "--scores", str(scores_csv),
                            "--grid-step", "0.3", "--out",
                            str(tmp_path / "c.csv")])
        assert code == 2
        assert err.startswith("error=invalid_input")


class TestTopLevel:
    def test_unknown_command(self, run):
        assert run(["nonsense"])[0] == 2

    def test_no_command(self, run):
        assert run([])[0] == 2

    def test_help_exits_cleanly(self, run):
        code, out, _ = run(["--help"])
        assert code == 0
        assert "algebra" in out
