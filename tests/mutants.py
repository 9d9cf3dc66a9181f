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
taken. A survivor is a finding for a new test; a mutant is never deleted
or weakened to get a clean file. pytest does not collect this script.
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
    Mutant("_words: bits is left writable", ENROLLMENT,
           "    bits.setflags(write=False)\n", "",
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
    gauge(MUTANTS, parser.parse_args().out)
