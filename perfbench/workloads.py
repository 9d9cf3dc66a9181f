"""The benchmark's three workloads: seeded inputs, timed passes, checks.

Each workload has three parts. ``setup`` builds the inputs from the seed
through irislogic's public API (populations, bands derived on the
workload's own bit length, the prior gallery). A pass runs the timed
sequence and keeps what the program returned; bookkeeping on those results
happens between timed calls, never inside them. ``check`` compares every
result with the independent reference in ``reference.py`` and counts one
operation per program call.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from irislogic import calibration, cli, enrollment
from irislogic.decision_engine import Claim, Polarity

import reference as ref

FLIP = 0.15
TARGET = 1e-4
# samples per identity of the separate populations bands are derived from
CALIB_SAMPLES = 4
# bit-flip rate that turns an enrolled template into a near-duplicate lying
# in the uncertainty band, so CLI enroll exercises the rejection path
NEAR_DUPLICATE_FLIP = 0.35

SIZES = {
    "full": {
        "calibrate": {"identities": 250, "samples": 4, "bits": 1024,
                      "decides": 400},
        "enroll": {"identities": 375, "samples": 4, "bits": 1024,
                   "calib_identities": 150, "cli_new": 14, "cli_near": 6},
        "verify": {"identities": 250, "samples": 4, "imposters": 100,
                   "bits": 2048, "calib_identities": 150, "requests": 1000},
    },
    "tiny": {
        "calibrate": {"identities": 40, "samples": 4, "bits": 256,
                      "decides": 20},
        "enroll": {"identities": 12, "samples": 3, "bits": 256,
                   "calib_identities": 40, "cli_new": 3, "cli_near": 2},
        "verify": {"identities": 12, "samples": 3, "imposters": 4,
                   "bits": 256, "calib_identities": 40, "requests": 30},
    },
}

clock = time.perf_counter


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def run_cli(argv: list[str]) -> tuple[object, str, str]:
    """Run one command in-process; return (exit code, stdout, stderr).

    A command that raises instead of returning an exit code is recorded as
    such; the check counts it as a failed operation.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sub_seeds(seed: int, count: int) -> list[int]:
    # numpy seeds must be non-negative; the modulus keeps any int usable
    rng = np.random.default_rng(seed % 2**63)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def bits_of(templates) -> np.ndarray:
    return np.stack([np.asarray(t.bits, dtype=np.uint8) for t in templates])


def to_hex(bits: np.ndarray) -> str:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def derive_bands(identities: int, bits: int, seed: int, work: str):
    """Bands for one bit length, derived by the CLI from a separate population.

    Runs ``simulate`` then ``calibrate`` (empirical curves and the envelope
    thresholds), the way a user calibrates before enrolling.
    """
    scores = os.path.join(work, "calib_scores.csv")
    bands = os.path.join(work, "calib_bands.json")
    for argv in (["simulate", "--identities", str(identities),
                  "--samples-per", str(CALIB_SAMPLES), "--bits", str(bits),
                  "--flip", repr(FLIP), "--seed", str(seed), "--out", scores],
                 ["calibrate", "--scores", scores, "--target", repr(TARGET),
                  "--out", bands]):
        code, _, err = run_cli(argv)
        if code != 0:
            raise RuntimeError(
                f"setup: {argv[0]} exited {code}: {err.strip()}")
    return calibration.read_bands_json(bands)


def calibration_population(size: dict, seed: int) -> list:
    """The population derive_bands has simulate draw, drawn directly."""
    return enrollment.generate_population(
        size["calib_identities"], CALIB_SAMPLES, size["bits"], FLIP, seed)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def read_bands_doc(path: str) -> tuple[float, float]:
    with open(path) as fh:
        doc = json.load(fh)
    return float(doc["n"]), float(doc["p"])


# ---------------------------------------------------------------------------
# calibrate: the offline command sequence


@dataclass
class CalibrateInputs:
    population: list
    seed: int
    decides: list[tuple[str, str]]


@dataclass
class CalibratePass:
    spans: np.ndarray
    steps: list[tuple[str, list[str], object, str, str]]
    hashes: dict[str, str]

    @property
    def busy_s(self) -> float:
        return float((self.spans[:, 1] - self.spans[:, 0]).sum())


class Calibrate:
    """simulate -> calibrate -> decide batch -> curves, through cli.main."""

    min_passes = 2
    setup_repeats = 9

    def __init__(self, size: dict) -> None:
        self.size = size

    def setup(self, seed: int, work: str) -> CalibrateInputs:
        pop_seed, decide_seed = sub_seeds(seed, 2)
        s = self.size
        # the same call simulate makes; the reference scores these templates
        population = enrollment.generate_population(
            s["identities"], s["samples"], s["bits"], FLIP, pop_seed)
        rng = np.random.default_rng(decide_seed)
        decides = [(str(pol), repr(round(float(x), 4))) for pol, x in zip(
            rng.choice(["positive", "negative"], size=s["decides"]),
            rng.uniform(0.45, 0.80, size=s["decides"]))]
        return CalibrateInputs(population, pop_seed, decides)

    def scored_population(self, inp: CalibrateInputs) -> list:
        """The templates this workload's pair_scores call scores."""
        return inp.population

    def paths(self, work: str) -> dict[str, str]:
        return {k: os.path.join(work, f) for k, f in (
            ("scores", "scores.csv"), ("bands", "bands.json"),
            ("curves_cal", "curves_calibrate.csv"),
            ("curves", "curves.csv"))}

    def run_pass(self, inp: CalibrateInputs, work: str, tracer,
                 seconds: float = 0.0) -> CalibratePass:
        s, p = self.size, self.paths(work)
        steps = [
            ("algebra_verify", ["algebra", "verify"]),
            ("simulate", ["simulate", "--identities", str(s["identities"]),
                          "--samples-per", str(s["samples"]), "--bits",
                          str(s["bits"]), "--flip", repr(FLIP), "--seed",
                          str(inp.seed), "--out", p["scores"]]),
            ("calibrate", ["calibrate", "--scores", p["scores"], "--target",
                           repr(TARGET), "--out", p["bands"],
                           "--curves-out", p["curves_cal"]]),
        ]
        steps += [("decide", ["decide", "--bands", p["bands"], "--claim", pol,
                              "--score", score]) for pol, score in inp.decides]
        steps.append(("curves", ["curves", "--scores", p["scores"], "--out",
                                 p["curves"]]))
        results = []
        spans = np.empty((len(steps), 2))
        for k, (name, argv) in enumerate(steps):
            spans[k, 0] = clock()
            with tracer.span(f"cli.{name}"):
                code, out, err = run_cli(argv)
            spans[k, 1] = clock()
            results.append((name, argv, code, out, err))
        hashes = {k: file_hash(v) if os.path.exists(v) else "missing"
                  for k, v in p.items()}
        return CalibratePass(spans, results, hashes)

    def check(self, inp: CalibrateInputs, passes: list[CalibratePass],
              work: str, tally: Tally) -> None:
        p = self.paths(work)
        bits = self.size["bits"]
        pop = inp.population
        agree = ref.agreements(bits_of(pop), bits_of(pop))
        iu, ju = np.triu_indices(len(pop), k=1)
        expected_scores = agree[iu, ju] / bits
        identities = np.array([t.identity for t in pop])
        same = identities[iu] == identities[ju]
        # the files on disk are the last pass's; every pass must match them
        last = passes[-1].hashes
        scores_ok = check_scores_csv(p["scores"], [t.template_id for t in pop],
                                     iu, ju, same, expected_scores)
        try:
            n, pb = read_bands_doc(p["bands"])
            curves_ok = check_curves(p["curves"], expected_scores[same],
                                     expected_scores[~same], n, pb)
        except (OSError, ValueError, KeyError) as exc:
            n = pb = float("nan")
            curves_ok = False
            tally.notes.append(f"bands or curves unreadable: {exc}")
        bands_ok = n < pb
        for k, run in enumerate(passes):
            same_files = run.hashes == last and "missing" not in last.values()
            decide_index = 0
            for name, argv, code, out, err in run.steps:
                what = f"pass {k} {name} {' '.join(argv[1:3])}"
                if name == "algebra_verify":
                    lines = out.splitlines()
                    ok = (code == 0 and lines and lines[-1] == "result=pass"
                          and all(line.endswith("result=ok")
                                  for line in lines[:-1]))
                elif name == "simulate":
                    ok = code == 0 and scores_ok and same_files
                elif name == "calibrate":
                    head = out.splitlines()[:1]
                    ok = (code == 0 and bands_ok and curves_ok and same_files
                          and head == [f"n={n!r} p={pb!r} "
                                       f"target_rate={TARGET!r}"])
                elif name == "decide":
                    pol, score = inp.decides[decide_index]
                    decide_index += 1
                    ok = code == 0 and decide_matches(out, pol, score, n, pb)
                else:  # curves: same input and grid as calibrate's curves
                    ok = (code == 0 and same_files
                          and run.hashes["curves"] == run.hashes["curves_cal"])
                tally.op(bool(ok), f"{what}: exit={code} {err.strip()[:200]}")

    def metrics(self, inp: CalibrateInputs, passes: list[CalibratePass],
                durations):
        n = len(inp.population)
        job, decide_ms = [], []
        for r in passes:
            d = durations(r.spans)
            job.append(d.sum())
            decide_ms += [x * 1e3 for (name, *_), x in zip(r.steps, d)
                          if name == "decide"]
        job = median(job)
        e2e = {
            "throughput_per_s": n * (n - 1) / 2 / job,
            "latency_p50_ms": median(decide_ms),
            "job_s": job,
        }
        named = [
            ("pairs_per_s", e2e["throughput_per_s"], "1/s",
             f"passes={len(passes)}"),
            ("decide_p50_ms", e2e["latency_p50_ms"], "ms",
             f"samples={len(decide_ms)}"),
            ("decide_p99_ms", percentile(decide_ms, 99), "ms",
             f"samples={len(decide_ms)}"),
        ]
        return e2e, named


def check_scores_csv(path, template_ids, iu, ju, same, expected) -> bool:
    """Every row: pair id in generation order, label, exact score."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError:
        return False
    lines = text.split("\n")
    if lines[0] != "pair_id,label,score" or lines[-1] != "" \
            or len(lines) - 2 != len(expected):
        return False
    ids = template_ids
    for row, i, j, genuine, score in zip(lines[1:-1], iu.tolist(), ju.tolist(),
                                         same.tolist(), expected.tolist()):
        parts = row.split(",")
        if (len(parts) != 3 or parts[0] != f"{ids[i]}:{ids[j]}"
                or parts[1] != ("genuine" if genuine else "imposter")
                or float(parts[2]) != score):
            return False
    return True


def check_curves(path, genuine, imposter, n: float, p: float) -> bool:
    """Empirical rates exact; envelopes bound them, monotone, meet target."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path) as fh:
        if fh.readline() != "t,far,frr,pofa,pofr\n":
            return False
    t, far, frr, pofa, pofr = table.T
    imposter = np.sort(imposter)
    genuine = np.sort(genuine)
    far_ref = (imposter.size - np.searchsorted(imposter, t, side="left")) \
        / imposter.size
    frr_ref = np.searchsorted(genuine, t, side="left") / genuine.size
    at_p = np.nonzero(np.isclose(t, p, rtol=0, atol=1e-12))[0]
    at_n = np.nonzero(np.isclose(t, n, rtol=0, atol=1e-12))[0]
    return bool(
        t[0] == 0.0 and t[-1] == 1.0
        and np.allclose(np.diff(t), t[1] - t[0], rtol=0, atol=1e-12)
        and np.array_equal(far, far_ref) and np.array_equal(frr, frr_ref)
        and (pofa >= far).all() and (pofr >= frr).all()
        and (np.diff(pofa) <= 0).all() and (np.diff(pofr) >= 0).all()
        and ((pofa >= 0) & (pofa <= 1) & (pofr >= 0) & (pofr <= 1)).all()
        and at_p.size == 1 and at_n.size == 1
        and pofa[at_p[0]] < TARGET and pofr[at_n[0]] < TARGET)


def decide_matches(out: str, polarity: str, score: str, n: float,
                   p: float) -> bool:
    """The decide record names the reference band and response."""
    head = out.split(" meaning=")[0].split()
    try:
        fields = dict(tok.split("=", 1) for tok in head)
    except ValueError:
        return False
    band = int(ref.bands_of(float(score), n, p))
    return (out.endswith("\n") and out.count("\n") == 1
            and fields.get("claim") == polarity
            and fields.get("score") == repr(float(score))
            and fields.get("modal") == ref.BAND_LETTER[band]
            and fields.get("response") == ref.response(polarity, band))


# ---------------------------------------------------------------------------
# enroll: the write path


@dataclass
class EnrollInputs:
    bands: object
    calib_seed: int
    candidates: list
    cli_batch: list[tuple[str, str, np.ndarray]]
    expected: dict | None = None


@dataclass
class EnrollPass:
    """Timed calls as (start, end) rows: the gates, then consistency_check,
    then the save/load round trip, then the CLI enroll calls. Gate outcomes
    are compared with the reference as they come, between calls."""

    spans: np.ndarray
    gate_matched: list[bool]
    gate_mismatches: list[str]
    consistency: object
    gallery_ids: list[str]
    roundtrip: object
    saved_hash: str
    cli_results: list[tuple[object, str, str]]
    final_ids: object
    final_hash: str

    @property
    def busy_s(self) -> float:
        return float((self.spans[:, 1] - self.spans[:, 0]).sum())


class Enroll:
    """Gate every candidate, re-check, round-trip the file, CLI enroll."""

    min_passes = 2
    setup_repeats = 3

    def __init__(self, size: dict) -> None:
        self.size = size

    def setup(self, seed: int, work: str) -> EnrollInputs:
        s = self.size
        cand_seed, calib_seed, new_seed, near_seed = sub_seeds(seed, 4)
        candidates = enrollment.generate_population(
            s["identities"], s["samples"], s["bits"], FLIP, cand_seed)
        bands = derive_bands(s["calib_identities"], s["bits"], calib_seed,
                             work)
        newcomers = enrollment.generate_population(
            s["cli_new"], 1, s["bits"], FLIP, new_seed)
        rng = np.random.default_rng(near_seed)
        near = []
        for k, c in enumerate(rng.choice(len(candidates), size=s["cli_near"],
                                          replace=False)):
            base = candidates[int(c)]
            flips = rng.random(s["bits"]) < NEAR_DUPLICATE_FLIP
            near.append((f"{base.template_id}_near{k}", base.identity,
                         np.where(flips, 1 - base.bits, base.bits)
                         .astype(np.uint8)))
        fresh = [(f"new{t.template_id}", f"new{t.identity}", t.bits)
                 for t in newcomers]
        # alternate newcomers with near-duplicates, newcomers first
        batch = []
        for k in range(max(len(fresh), len(near))):
            batch += fresh[k:k + 1] + near[k:k + 1]
        return EnrollInputs(bands, calib_seed, candidates, batch)

    def scored_population(self, inp: EnrollInputs) -> list:
        """The calibration population whose pairs set-up scores."""
        return calibration_population(self.size, inp.calib_seed)

    def run_pass(self, inp: EnrollInputs, work: str, tracer,
                 seconds: float = 0.0) -> EnrollPass:
        expected = self.expected(inp)["outcomes"]
        path = os.path.join(work, "gallery.json")
        gallery = enrollment.Gallery(bands=inp.bands)
        m = len(inp.candidates)
        spans = np.empty((m + 2 + len(inp.cli_batch), 2))
        matched, mismatches = [], []
        for k, cand in enumerate(inp.candidates):
            spans[k, 0] = clock()
            try:
                result = enrollment.enroll(gallery, cand)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                result = exc
            spans[k, 1] = clock()
            got = (repr(result) if isinstance(result, Exception)
                   else (result.accepted, tuple(result.conflicting_ids)))
            matched.append(got == expected[k])
            if got != expected[k] and len(mismatches) < 5:
                mismatches.append(f"enroll {cand.template_id}: got {got} "
                                  f"want {expected[k]}")
        gallery_ids = [t.template_id for t in gallery.enrolled]

        spans[m, 0] = clock()
        try:
            report = enrollment.consistency_check(gallery)
        except Exception as exc:  # noqa: BLE001
            report = exc
        spans[m, 1] = clock()
        if not isinstance(report, Exception):
            report = {"passed": report.passed,
                      "pair_count": report.pair_count,
                      "crisp_one_count": report.crisp_one_count,
                      "crisp_zero_count": report.crisp_zero_count,
                      "recognition_errors": report.recognition_errors}

        spans[m + 1, 0] = clock()
        try:
            enrollment.save_gallery(gallery, path)
            loaded = enrollment.load_gallery(path)
        except Exception as exc:  # noqa: BLE001
            loaded = exc
        spans[m + 1, 1] = clock()
        if isinstance(loaded, Exception):
            roundtrip = repr(loaded)
            saved_hash = "missing"
        else:
            roundtrip = {
                "same_gallery": loaded.bands == gallery.bands and [
                    (t.template_id, t.identity, t.bits.tobytes())
                    for t in loaded.enrolled] == [
                    (t.template_id, t.identity, t.bits.tobytes())
                    for t in gallery.enrolled],
                "doc": saved_doc(path),
            }
            saved_hash = file_hash(path)

        cli_results = []
        for q, (tid, identity, bits) in enumerate(inp.cli_batch):
            argv = ["enroll", "--gallery", path, "--identity", identity,
                    "--template-id", tid, "--bits-hex", to_hex(bits)]
            spans[m + 2 + q, 0] = clock()
            with tracer.span("cli.enroll"):
                res = run_cli(argv)
            spans[m + 2 + q, 1] = clock()
            cli_results.append(res)
        try:
            final_ids = saved_doc(path)["ids"]
            final_hash = file_hash(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            final_ids, final_hash = repr(exc), "missing"
        return EnrollPass(spans, matched, mismatches, report, gallery_ids,
                          roundtrip, saved_hash, cli_results, final_ids,
                          final_hash)

    def expected(self, inp: EnrollInputs) -> dict:
        """Reference results of every call in a pass, computed once per
        input set, before the first timed call."""
        if inp.expected is not None:
            return inp.expected
        bands = inp.bands
        bits = self.size["bits"]
        cands = inp.candidates
        m = len(cands)
        all_bits = np.concatenate([bits_of(cands),
                                   np.stack([b for _, _, b in inp.cli_batch])])
        ids = [t.template_id for t in cands] + [t for t, _, _ in inp.cli_batch]
        idents = np.array([t.identity for t in cands]
                          + [i for _, i, _ in inp.cli_batch])
        band = ref.band_matrix(all_bits, all_bits, bands.n, bands.p)
        accepted, conflicts = ref.gate(band[:m, :m])
        expected_outcomes = [(bool(a), tuple(ids[x] for x in c))
                             for a, c in zip(accepted, conflicts)]
        members = np.nonzero(accepted)[0]
        expected_ids = [ids[x] for x in members]
        expected_report = ref.consistency(
            band[np.ix_(members, members)],
            idents[members][:, None] == idents[members][None, :])
        expected_doc = {
            "bands": {"n": repr(float(bands.n)), "p": repr(float(bands.p)),
                      "target_rate": repr(float(bands.target_rate))},
            "bit_length": bits,
            "templates": [(ids[x], str(idents[x]), to_hex(all_bits[x]))
                          for x in members],
        }
        expected_cli, current = [], list(members)
        for q, (tid, _, _) in enumerate(inp.cli_batch):
            row = m + q
            hits = [g for g in current if band[row, g] == ref.O]
            if hits:
                expected_cli.append((1, "", "error=unenrollable detail="
                                     "conflicting_ids="
                                     + ",".join(ids[g] for g in hits) + "\n"))
            else:
                current.append(row)
                expected_cli.append((0, f"enrolled={tid} "
                                     f"gallery_size={len(current)}\n", ""))
        inp.expected = {
            "outcomes": expected_outcomes, "ids": expected_ids,
            "report": expected_report, "doc": expected_doc,
            "cli": expected_cli, "final": [ids[x] for x in current],
        }
        return inp.expected

    def check(self, inp: EnrollInputs, passes: list[EnrollPass], work: str,
              tally: Tally) -> None:
        want = self.expected(inp)
        expected_cli = want["cli"]
        first = passes[0]
        for k, run in enumerate(passes):
            for note in run.gate_mismatches:
                tally.notes.append(f"pass {k} {note}")
            for ok in run.gate_matched:
                tally.op(ok, f"pass {k} enroll")
            tally.op(run.consistency == want["report"]
                     and run.gallery_ids == want["ids"],
                     f"pass {k} consistency_check: got {run.consistency} "
                     f"want {want['report']}")
            tally.op(isinstance(run.roundtrip, dict)
                     and run.roundtrip["same_gallery"]
                     and run.roundtrip["doc"]["body"] == want["doc"]
                     and run.saved_hash == first.saved_hash,
                     f"pass {k} save/load round trip")
            for q, (got, want_cli) in enumerate(zip(run.cli_results,
                                                    expected_cli)):
                ok = got == want_cli
                if q == len(expected_cli) - 1:
                    ok = (ok and run.final_ids == want["final"]
                          and run.final_hash == first.final_hash)
                tally.op(ok, f"pass {k} cli enroll {inp.cli_batch[q][0]}: "
                         f"got {got} want {want_cli}")

    def metrics(self, inp: EnrollInputs, passes: list[EnrollPass],
                durations):
        m = len(inp.candidates)
        timed = [durations(r.spans) for r in passes]
        gate_ms = np.concatenate([d[:m] for d in timed]) * 1e3
        cli_ms = np.concatenate([d[m + 2:] for d in timed]) * 1e3
        consistency_per_s = [
            len(r.gallery_ids) * (len(r.gallery_ids) - 1) / 2 / d[m]
            for r, d in zip(passes, timed)]
        e2e = {
            "throughput_per_s": float(gate_ms.size / (gate_ms.sum() / 1e3)),
            "latency_p50_ms": median(gate_ms),
            "job_s": median([d.sum() for d in timed]),
        }
        named = [
            ("gate_per_s", e2e["throughput_per_s"], "1/s",
             f"samples={gate_ms.size}"),
            ("gate_p50_ms", e2e["latency_p50_ms"], "ms",
             f"samples={gate_ms.size}"),
            ("gate_p99_ms", percentile(gate_ms, 99), "ms",
             f"samples={gate_ms.size}"),
            ("consistency_pairs_per_s", median(consistency_per_s), "1/s",
             f"passes={len(passes)}"),
            ("cli_enroll_p50_ms", median(cli_ms), "ms",
             f"samples={cli_ms.size}"),
        ]
        return e2e, named


def saved_doc(path: str) -> dict:
    """A gallery file's content in comparable form, plus its template ids."""
    with open(path) as fh:
        doc = json.load(fh)
    templates = [(e["template_id"], e["identity"], e["bits"])
                 for e in doc["templates"]]
    return {"body": {"bands": doc["bands"], "bit_length": doc["bit_length"],
                     "templates": templates},
            "ids": [t[0] for t in templates]}


# ---------------------------------------------------------------------------
# verify: the read path


@dataclass
class VerifyInputs:
    gallery: object
    calib_seed: int
    enrolled_from: list
    probes: list
    requests: list[tuple[int, Claim]]
    expected: dict | None = None


@dataclass
class VerifyPass:
    """Request (start, end) times, and per request whether the response
    matched the reference, with a note for the first few that did not."""

    spans: list[tuple[float, float]] = field(default_factory=list)
    matched: list[bool] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(end - start for start, end in self.spans)


class Verify:
    """A closed loop of verify requests against a prebuilt gallery."""

    min_passes = 1
    setup_repeats = 3
    # request kinds and their shares of the mix
    KINDS = (("positive_genuine", 0.4), ("negative_genuine", 0.3),
             ("positive_imposter", 0.3))

    def __init__(self, size: dict) -> None:
        self.size = size

    def setup(self, seed: int, work: str) -> VerifyInputs:
        s = self.size
        pop_seed, calib_seed, req_seed = sub_seeds(seed, 3)
        per = s["samples"] + 1
        # one call: samples 0..samples-1 are enrolled, the last is the
        # genuine probe; extra identities are never enrolled
        population = enrollment.generate_population(
            s["identities"] + s["imposters"], per, s["bits"], FLIP, pop_seed)
        bands = derive_bands(s["calib_identities"], s["bits"], calib_seed,
                             work)
        enrolled_from = [population[i * per + j]
                         for i in range(s["identities"])
                         for j in range(s["samples"])]
        gallery = enrollment.Gallery(bands=bands)
        for cand in enrolled_from:
            enrollment.enroll(gallery, cand)
        genuine = {population[i * per].identity: population[i * per + per - 1]
                   for i in range(s["identities"])}
        imposters = [population[(s["identities"] + k) * per]
                     for k in range(s["imposters"])]
        probes = list(genuine.values()) + imposters
        probe_index = {id(t): k for k, t in enumerate(probes)}
        enrolled = sorted({t.identity for t in gallery.enrolled})
        rng = np.random.default_rng(req_seed)
        kinds = rng.choice(len(self.KINDS), size=s["requests"],
                           p=[share for _, share in self.KINDS])
        requests = []
        for kind in kinds:
            claimed = enrolled[int(rng.integers(len(enrolled)))]
            if kind == 0:
                probe, polarity = genuine[claimed], Polarity.POSITIVE
            elif kind == 1:
                probe, polarity = genuine[claimed], Polarity.NEGATIVE
            else:
                probe = imposters[int(rng.integers(len(imposters)))]
                polarity = Polarity.POSITIVE
            requests.append((probe_index[id(probe)], Claim(polarity, claimed)))
        return VerifyInputs(gallery, calib_seed, enrolled_from, probes,
                            requests)

    def scored_population(self, inp: VerifyInputs) -> list:
        """The calibration population whose pairs set-up scores."""
        return calibration_population(self.size, inp.calib_seed)

    def run_pass(self, inp: VerifyInputs, work: str, tracer,
                 seconds: float = 0.0) -> VerifyPass:
        """At least one pass over the request list, then on for `seconds`.

        Each response is compared with its precomputed reference answer
        between requests, so the run keeps no response objects.
        """
        expected = self.expected(inp)["answers"]
        run = VerifyPass()
        gallery_ids = [t.template_id for t in inp.gallery.enrolled]
        total = len(inp.requests)
        busy = 0.0
        k = 0
        while k < total or busy < seconds:
            r = k % total
            probe_row, claim = inp.requests[r]
            probe = inp.probes[probe_row]
            start = clock()
            try:
                result = enrollment.verify(inp.gallery, probe, claim)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                result = exc
            end = clock()
            busy += end - start
            run.spans.append((start, end))
            got = summarize_verify(result, gallery_ids)
            run.matched.append(got == expected[r])
            if got != expected[r] and len(run.mismatches) < 5:
                run.mismatches.append(f"request {r}: got {str(got)[:200]} "
                                      f"want {str(expected[r])[:200]}")
            k += 1
        return run

    def expected(self, inp: VerifyInputs) -> dict:
        """Reference gallery ids and the reference answer to every request.

        Computed once per input set, before the first timed request.
        """
        if inp.expected is not None:
            return inp.expected
        bands = inp.gallery.bands
        bits = self.size["bits"]
        cands = inp.enrolled_from
        cand_bits = bits_of(cands)
        band = ref.band_matrix(cand_bits, cand_bits, bands.n, bands.p)
        accepted, _ = ref.gate(band)
        members = np.nonzero(accepted)[0]
        gallery_ids = [cands[x].template_id for x in members]
        gallery_identities = [cands[x].identity for x in members]
        probe_agree = ref.agreements(bits_of(inp.probes), cand_bits[members])
        answers = []
        for probe_row, claim in inp.requests:
            want = ref.verify_outcome(
                probe_agree[probe_row], bits, gallery_identities,
                claim.claimed_identity, claim.polarity.value, bands.n,
                bands.p)
            want["conflicts"] = tuple(gallery_ids[c]
                                      for c in want["conflicts"])
            want["ids_in_order"] = True
            answers.append(want)
        inp.expected = {"gallery_ids": gallery_ids, "answers": answers}
        return inp.expected

    def check(self, inp: VerifyInputs, passes: list[VerifyPass], work: str,
              tally: Tally) -> None:
        gallery_ids = self.expected(inp)["gallery_ids"]
        tally.op([t.template_id for t in inp.gallery.enrolled] == gallery_ids,
                 "setup gallery differs from the reference gate")
        for k, run in enumerate(passes):
            for note in run.mismatches:
                tally.notes.append(f"pass {k} verify {note}")
            for ok in run.matched:
                tally.op(ok, f"pass {k} verify request")

    def metrics(self, inp: VerifyInputs, passes: list[VerifyPass],
                durations):
        lat = np.concatenate([durations(r.spans) for r in passes]) * 1e3
        e2e = {
            "throughput_per_s": float(lat.size / (lat.sum() / 1e3)),
            "latency_p50_ms": median(lat),
            "job_s": float(lat[:len(inp.requests)].sum() / 1e3),
        }
        named = [
            ("verify_per_s", e2e["throughput_per_s"], "1/s",
             f"samples={lat.size}"),
            ("verify_p50_ms", e2e["latency_p50_ms"], "ms",
             f"samples={lat.size}"),
            ("verify_p99_ms", percentile(lat, 99), "ms",
             f"samples={lat.size}"),
        ]
        return e2e, named


def summarize_verify(result, gallery_ids: list[str]):
    """What the check compares for one verify response."""
    if isinstance(result, Exception):
        return repr(result)
    return {
        "overall": result.overall.value,
        "claim_modal": str(result.claim_record.modal),
        "claim_response": result.claim_record.response.value,
        "conflicts": tuple(result.conflicting_ids),
        "targets": "".join(str(rec.modal) for _, rec in result.target_records),
        "ids_in_order": [tid for tid, _ in result.target_records]
        == gallery_ids,
    }


WORKLOADS = {"calibrate": Calibrate, "enroll": Enroll, "verify": Verify}
