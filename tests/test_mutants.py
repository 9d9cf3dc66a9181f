"""The mutation gauge (tests/mutants.py) checked on the algebra's complement."""

import json

import mutants

NEG = "return Octal(7 - Octal(a))"


def neg_mutant(new):
    return mutants.Mutant(f"neg returns {new}", "irislogic/octal_algebra.py",
                          NEG, new, ("tests/test_octal_algebra.py",))


def test_a_neg_mutant_is_killed_and_no_edit_survives(tmp_path):
    out = tmp_path / "MUTANTS.json"
    results = mutants.gauge([neg_mutant("return Octal(6 - Octal(a))"),
                             neg_mutant(NEG)], out)
    assert json.loads(out.read_text()) == results
    for result in results:
        assert set(result) == {"name", "file", "tests", "status",
                               "killed_by", "seconds"}
        assert result["file"] == "irislogic/octal_algebra.py"
        assert result["tests"] == ["tests/test_octal_algebra.py"]
        assert type(result["seconds"]) is float and result["seconds"] >= 0
    killed, unchanged = results
    assert killed["status"] == "killed"
    assert killed["killed_by"].startswith("tests/test_octal_algebra.py::")
    # the same run on an unchanged copy passes, so the kill is the edit's
    assert (unchanged["status"], unchanged["killed_by"]) == ("survived", None)


def test_committed_mutants_are_not_stale():
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / "src" / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
