"""Mutation gauge: small deliberate edits to the source that named tests
must catch.

    python tests/mutants.py [--out MUTANTS.json]

Each mutant is (name, file under src/, exact old text, new text, test ids).
For each one the script copies src/ to a temporary directory, applies the
edit to the copy and runs the named tests against it with
`pytest -x -q -p no:cacheprovider --hypothesis-seed=0`, one process at a
time; the process runs in the temporary directory, so hypothesis keeps its
example database there. A mutant is

* killed when a named test fails or errors,
* survived when every named test passes,
* stale when its old text does not occur exactly once in its file: the
  code it mutated has changed, and the mutant is updated with it.

The output is a JSON list, one object per mutant, with its name, file,
tests, status, the first failing test id (null if none) and the seconds
taken. The script exits 1 when any mutant survived or is stale, else 0.
A survivor is a finding for a new test; a mutant is never deleted or
weakened to get a clean file. pytest does not collect this script.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str              # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids relative to the repository


CALIBRATION = "irislogic/calibration.py"
ENROLLMENT = "irislogic/enrollment.py"
TEST_CALIBRATION = "tests/test_calibration.py"
TEST_ENROLLMENT = "tests/test_enrollment.py"

MUTANTS = [
    # the band tally behind partition and consistency_check
    Mutant("partition: the uicp tag is always O", ENROLLMENT,
           "uicp_tag=join(CODE_O))", "uicp_tag=Octal(CODE_O))",
           (f"{TEST_ENROLLMENT}::TestPartition",)),
    Mutant("partition: the eicp tag joins codes no pair holds", ENROLLMENT,
           "eicp_tag=join(CODE_I, CODE_D),", "eicp_tag=sum_(CODE_I, CODE_D),",
           (f"{TEST_ENROLLMENT}::TestPartition",)),
    Mutant("consistency_check: the same-identity flag is flipped",
           ENROLLMENT, "8 * (labels[k + 1:] == labels[k])",
           "8 * (labels[k + 1:] != labels[k])",
           (f"{TEST_ENROLLMENT}::TestConsistencyCheck",)),
    Mutant("consistency_check: D bin for the error across identities",
           ENROLLMENT, "bins[CODE_I] + bins[8 + CODE_D]",
           "bins[CODE_D] + bins[8 + CODE_D]",
           (f"{TEST_ENROLLMENT}::TestConsistencyCheck",)),
    Mutant("consistency_check: I bin for the error within an identity",
           ENROLLMENT, "bins[CODE_I] + bins[8 + CODE_D]",
           "bins[CODE_I] + bins[8 + CODE_I]",
           (f"{TEST_ENROLLMENT}::TestConsistencyCheck",)),
    # from earlier hand-run checks
    Mutant("code table: the top entry of the D band reads O (off by one "
           "at n)", ENROLLMENT, "            codes.setflags(write=False)",
           "            codes[np.flatnonzero(codes == CODE_D)[-1:]] = CODE_O\n"
           "            codes.setflags(write=False)",
           (f"{TEST_ENROLLMENT}::TestCodeTable",)),
    Mutant("_agreements: float32 for every L", ENROLLMENT,
           "dtype = np.float32 if bit_length < 1 << 24 else np.float64",
           "dtype = np.float32",
           (f"{TEST_ENROLLMENT}::TestScores::"
            "test_exact_past_the_float32_integer_range",)),
    Mutant("verify: min in place of max of the claimed counts", ENROLLMENT,
           "agree[claimed].max()", "agree[claimed].min()",
           (f"{TEST_ENROLLMENT}::TestVerify",)),
    # one per class of the score scan's byte table
    Mutant("score scan: U+001F is read as content", CALIBRATION,
           "_REFUSED if c in _REFUSED_CONTROLS else 0",
           "_REFUSED if c in _REFUSED_CONTROLS - {'\\x1f'} else 0",
           (f"{TEST_CALIBRATION}::TestAtomicWrites::"
            "test_scores_writer_and_reader_refuse_the_same_controls",)),
    Mutant("score scan: CR is not a separator", CALIBRATION,
           "_SEP if c in _NEEDS_QUOTING",
           "_SEP if c in _NEEDS_QUOTING - {'\\r'}",
           (f"{TEST_CALIBRATION}::TestFileFormats",)),
    Mutant("score scan: the quote is read as a separator", CALIBRATION,
           "_QUOTE if c == '\"'", "_SEP if c == '\"'",
           (f"{TEST_CALIBRATION}::TestFileFormats",)),
    # from the open harvest list
    Mutant("_payload: non-zero padding bits are accepted", ENROLLMENT,
           "or raw and raw[-1] & padding:", ":",
           (f"{TEST_ENROLLMENT}::TestPersistence::"
            "test_hex_padding_must_be_zero",)),
    Mutant("Template.bits: the unpacked view is left writable", ENROLLMENT,
           "        bits.setflags(write=False)\n", "",
           (f"{TEST_ENROLLMENT}::TestTemplate::"
            "test_bits_are_a_read_only_copy",)),
    Mutant("atomic_write: the permission bits are not copied", CALIBRATION,
           "os.chmod(tmp, stat.S_IMODE(mode))", "pass",
           (f"{TEST_CALIBRATION}::TestAtomicWrites::test_permission_bits",)),
    Mutant("write_scores_csv: a negative pair index is accepted",
           CALIBRATION, "outside = (a < 0) | (a >= len(ids)) | (b < 0) | ",
           "outside = (a >= len(ids)) | ",
           (f"{TEST_CALIBRATION}::TestAtomicWrites::"
            "test_scores_writer_refuses_a_negative_index",)),
    Mutant("pessimistic_envelope: the tail line alone where events were "
           "counted", CALIBRATION,
           "np.where(counts > 0, np.maximum(bound, extrapolated),",
           "np.where(counts > 0, extrapolated,",
           (f"{TEST_CALIBRATION}::TestPessimisticEnvelope",)),
    Mutant("derive_bands: the refusal names the other side", CALIBRATION,
           '(("accept", below_accept), ("reject", below_reject))',
           '(("reject", below_accept), ("accept", below_reject))',
           (f"{TEST_CALIBRATION}::TestDeriveBands::"
            "test_unachievable_message_names_the_stuck_side",)),
    Mutant("consistency_check: every row has one label", ENROLLMENT,
           "labels[members] = label", "labels[members] = 0",
           (f"{TEST_ENROLLMENT}::TestConsistencyCheck",)),
    # what the gate now builds once and shares
    Mutant("O table: marks the counts whose code is D", ENROLLMENT,
           "undecidable = codes == CODE_O", "undecidable = codes == CODE_D",
           (f"{TEST_ENROLLMENT}::TestGalleryMatrix::"
            "test_code_table_is_the_same_however_the_gallery_is_built",
            f"{TEST_ENROLLMENT}::TestEnroll::"
            "test_gate_matches_scalar_reference")),
    Mutant("_compare: no conflicting ids even when a comparison is O",
           ENROLLMENT,
           "return agree, hits, (tuple([enrolled[start + m].template_id\n"
           "                                for m in hits.tolist()]) if "
           "hits.size else ())",
           "return agree, hits, ()",
           (f"{TEST_ENROLLMENT}::TestEnroll::"
            "test_admitted_results_are_one_frozen_value",
            f"{TEST_ENROLLMENT}::TestEnroll::"
            "test_gate_rejects_uncertain_comparison")),
    Mutant("_ones: the cached ones vector is left writable", ENROLLMENT,
           "    ones.setflags(write=False)\n", "",
           (f"{TEST_ENROLLMENT}::TestScores::"
            "test_ones_vector_is_made_once_and_read_only",)),
    # from the open harvest list
    Mutant("_row_templates: identity and template_id are swapped",
           ENROLLMENT, "_words(raw, bit_length), identities, template_ids)",
           "_words(raw, bit_length), template_ids, identities)",
           (f"{TEST_ENROLLMENT}::TestGeneratePopulation::"
            "test_shape_and_naming",
            f"{TEST_ENROLLMENT}::TestPersistence::"
            "test_loader_matches_scalar_loader")),
    Mutant("verify: records from the other polarity's rows", ENROLLMENT,
           "rows = _ROWS[claim.polarity]",
           "rows = _ROWS[next(p for p in _ROWS if p != claim.polarity)]",
           (f"{TEST_ENROLLMENT}::TestVerify::test_negative_claim_inverts",
            f"{TEST_ENROLLMENT}::TestVerify::test_golden_requests")),
    Mutant("write_scores_csv: a float index column is accepted",
           CALIBRATION, 'a.dtype.kind in "biu" and b.dtype.kind in "biu"',
           'a.dtype.kind in "biuf" and b.dtype.kind in "biuf"',
           (f"{TEST_CALIBRATION}::TestAtomicWrites::"
            "test_scores_writer_refuses_a_float_index_column",)),
    Mutant("write_scores_csv: a genuine flag of 2 is accepted", CALIBRATION,
           "outside = (g != 0) & (g != 1)",
           "outside = (g != 0) & (g != 1) & (g != 2)",
           (f"{TEST_CALIBRATION}::TestAtomicWrites::"
            "test_scores_writer_refuses_a_genuine_flag_that_is_not_0_or_1",)),
    Mutant("write_scores_csv: a NaN score is accepted", CALIBRATION,
           "outside = ~((s >= 0.0) & (s <= 1.0))",
           "outside = (s < 0.0) | (s > 1.0)",
           (f"{TEST_CALIBRATION}::TestAtomicWrites::"
            "test_scores_writer_refuses_a_score_outside_the_unit_interval",
            f"{TEST_CALIBRATION}::TestAtomicWrites::"
            "test_scores_writer_refuses_every_score_outside_the_unit_"
            "interval")),
    Mutant("write_scores_csv: a pair_id one character over the field limit "
           "is accepted", CALIBRATION, "np.take(widths, b) + 1 > limit",
           "np.take(widths, b) > limit",
           (f"{TEST_CALIBRATION}::TestAtomicWrites::"
            "test_scores_writer_refuses_ids_that_need_quoting",
            f"{TEST_CALIBRATION}::TestAtomicWrites::"
            "test_scores_writer_refuses_a_long_pair_in_a_later_block")),
    Mutant("score scan: the quote state is reset at each block", CALIBRATION,
           "        a = np.frombuffer(block, dtype=np.uint8)\n",
           "        inside = 0\n"
           "        a = np.frombuffer(block, dtype=np.uint8)\n",
           (f"{TEST_CALIBRATION}::TestFileFormats::"
            "test_scan_block_size_changes_nothing",)),
    # the one comparison the gate, verify and the audit share
    Mutant("_compare: compares from row 0 whatever its start row",
           ENROLLMENT, "gallery._rows[start:len(enrolled)]",
           "gallery._rows[:len(enrolled)]",
           (f"{TEST_ENROLLMENT}::TestConsistencyCheck",)),
    Mutant("_compare: no bit-length check", ENROLLMENT,
           "    _require_bit_length(t.bit_length, gallery.bit_length())\n", "",
           (f"{TEST_ENROLLMENT}::TestSimilarity::test_length_mismatch",)),
    Mutant("consistency_check: an undecidable hit takes the neighbouring "
           "row's agreement count", ENROLLMENT, "int(agree[m]) / bit_length",
           "int(agree[m - 1]) / bit_length",
           (f"{TEST_ENROLLMENT}::TestConsistencyCheck::"
            "test_planted_uncertain_pair_fails",)),
    Mutant("bits_to_hex: bits that Template refuses are packed", ENROLLMENT,
           '    t = Template(bits, "", "")\n'
           "    return t.packed.view(np.uint8)[:-(-t.bit_length // 8)]"
           ".tobytes().hex()",
           "    return np.packbits(np.asarray(bits, dtype=np.uint8))"
           ".tobytes().hex()",
           (f"{TEST_ENROLLMENT}::TestPersistence::"
            "test_bits_to_hex_refuses_what_template_refuses",)),
    # a template is its packed words: the view, the reference, the padding
    Mutant("Template.bits: the view unpacks in little-endian bit order",
           ENROLLMENT, "count=self.bit_length)",
           'count=self.bit_length, bitorder="little")',
           (f"{TEST_ENROLLMENT}::TestTemplate::"
            "test_bits_round_trip_as_a_fresh_read_only_array",)),
    Mutant("similarity: the padding bits are not shifted out", ENROLLMENT,
           "              >> (64 * a.packed.size - a.bit_length)).bit_count()",
           "              ).bit_count()",
           (f"{TEST_ENROLLMENT}::TestSimilarity::"
            "test_padding_bits_are_not_counted",)),
    Mutant("similarity: the packed words are read little-endian", ENROLLMENT,
           'int.from_bytes(a.packed.tobytes(), "big")\n'
           '               ^ int.from_bytes(b.packed.tobytes(), "big")',
           'int.from_bytes(a.packed.tobytes(), "little")\n'
           '               ^ int.from_bytes(b.packed.tobytes(), "little")',
           (f"{TEST_ENROLLMENT}::TestSimilarity::"
            "test_matches_a_count_on_bits",)),
    Mutant("_words: the padding bytes are left unzeroed", ENROLLMENT,
           "packed = np.zeros((len(raw), -(-bit_length // 64) * 8), np.uint8)",
           "packed = np.empty((len(raw), -(-bit_length // 64) * 8), np.uint8)",
           (f"{TEST_ENROLLMENT}::TestTemplate::"
            "test_padding_words_are_zeroed",)),
]


def run(mutant: Mutant) -> dict:
    """Apply one mutant to a copy of src/ and run its tests there."""
    start = time.perf_counter()
    status, killer = "stale", None
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) == 1:
            target.write_text(text.replace(mutant.old, mutant.new))
            env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                 "-p", "no:cacheprovider", "--hypothesis-seed=0",
                 "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
                 *(str(ROOT / t) for t in mutant.tests)],
                cwd=tmp, env=env, capture_output=True, text=True)
            # 1: a test failed; 2: collection was interrupted by an error
            if proc.returncode not in (0, 1, 2):
                raise RuntimeError(f"pytest exited {proc.returncode} on "
                                   f"{mutant.name!r}:\n{proc.stdout}"
                                   f"{proc.stderr}")
            status = "survived" if proc.returncode == 0 else "killed"
            # the node id runs to " - " and the message, or to the line end
            failed = re.search(r"^(?:FAILED|ERROR) ([^:\s]+)(.*?)(?: - |$)",
                               proc.stdout, re.MULTILINE)
            if failed:
                # pytest prints the path relative to the temporary directory
                path = Path(tmp, failed.group(1)).resolve()
                killer = path.relative_to(ROOT).as_posix() + failed.group(2)
    return {"name": mutant.name, "file": mutant.path,
            "tests": list(mutant.tests), "status": status,
            "killed_by": killer,
            "seconds": round(time.perf_counter() - start, 2)}


def exit_status(results) -> int:
    """The gauge's exit status: 1 when a mutant survived or is stale."""
    return int(any(r["status"] != "killed" for r in results))


def gauge(mutants, out: Path) -> list[dict]:
    """Run every mutant in turn and write the results to out as JSON."""
    results = []
    for mutant in mutants:
        results.append(run(mutant))
        print(f"{results[-1]['status']:8} {results[-1]['seconds']:6.1f}s "
              f"{mutant.name}", flush=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    return results


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    sys.exit(exit_status(gauge(MUTANTS, parser.parse_args().out)))
