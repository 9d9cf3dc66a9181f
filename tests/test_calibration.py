"""Rate curves, pessimistic envelopes, band derivation, comfort, file formats."""

import csv
import errno
import io
import itertools
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irislogic import calibration
from irislogic.calibration import (
    GENUINE_LABEL,
    IMPOSTER_LABEL,
    LabeledScores,
    RateCurves,
    UnachievableTargetError,
    atomic_write,
    bands_to_json,
    binomial_upper_bound,
    comfort_report,
    derive_bands,
    empirical_curves,
    fit_log_tail,
    pessimistic_envelope,
    read_bands_json,
    read_scores_csv,
    write_bands_json,
    write_curves_csv,
    write_scores_csv,
)
from irislogic.decision_engine import (
    CODE_D,
    CODE_I,
    ScoreBands,
    classify_many,
)
from irislogic.enrollment import generate_population, pair_scores

import truth


def make_samples(genuine, imposter):
    return LabeledScores(genuine=np.asarray(genuine, dtype=float),
                         imposter=np.asarray(imposter, dtype=float))


SMALL = make_samples([0.6, 0.7, 0.8, 0.9], [0.1, 0.2, 0.3, 0.4])


class TestLabeledScores:
    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            make_samples([], [0.5])
        with pytest.raises(ValueError):
            make_samples([0.5], [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_samples([1.5], [0.5])
        with pytest.raises(ValueError):
            make_samples([0.5], [-0.1])

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            LabeledScores(genuine=np.zeros((2, 2)), imposter=np.array([0.5]))


class TestEmpiricalCounting:
    """FAR counts imposters at or above t, FRR genuine strictly below."""

    def test_rates_at_exact_thresholds(self):
        curves = empirical_curves(SMALL)
        assert curves.far_at(0.0) == 1.0
        assert curves.frr_at(0.0) == 0.0
        assert curves.far_at(0.4) == 0.25   # 0.4 itself still counts
        assert curves.far_at(0.41) == 0.0
        assert curves.frr_at(0.6) == 0.0    # 0.6 itself does not
        assert curves.frr_at(0.61) == 0.25
        assert curves.far_at(1.0) == 0.0
        assert curves.frr_at(1.0) == 1.0

    def test_grid_shape(self):
        curves = empirical_curves(SMALL)
        assert curves.grid.size == 10_001
        assert curves.grid[0] == 0.0 and curves.grid[-1] == 1.0
        for arr in (curves.far, curves.frr, curves.pofa, curves.pofr):
            assert arr.size == 10_001

    def test_off_grid_threshold_rejected(self):
        curves = empirical_curves(SMALL)
        with pytest.raises(ValueError):
            curves.far_at(0.33335)
        # NaN compares false with everything, so it must not pass as on-grid
        for at in (curves.far_at, curves.frr_at, curves.pofa_at,
                   curves.pofr_at):
            with pytest.raises(ValueError, match="not on the curve grid"):
                at(float("nan"))

class TestBinomialUpperBound:
    @staticmethod
    def exact_inversion(k, n, confidence):
        # independent route: bisect the exact binomial CDF with math.comb
        def cdf(q):
            return math.fsum(math.comb(n, i) * q ** i * (1 - q) ** (n - i)
                             for i in range(k + 1))

        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if cdf(mid) > 1 - confidence:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    @pytest.mark.parametrize("k,n", [(0, 100), (1, 100), (3, 1000),
                                     (10, 200), (50, 60)])
    def test_matches_exact_inversion(self, k, n):
        expected = self.exact_inversion(k, n, 0.95)
        assert binomial_upper_bound(k, n) == pytest.approx(expected,
                                                           abs=1e-9)

    def test_zero_count_closed_form(self):
        # for k = 0 the bound is 1 - (1 - confidence)^(1/n)
        bound = float(binomial_upper_bound(0, 100))
        assert bound == pytest.approx(1.0 - 0.05 ** 0.01, abs=1e-12)
        assert bound == pytest.approx(0.0295131, abs=1e-7)
        assert bound >= 0.0295

    def test_saturated_count(self):
        assert float(binomial_upper_bound(100, 100)) == 1.0

    def test_vectorized_and_monotone_in_k(self):
        ks = np.arange(0, 101)
        bounds = binomial_upper_bound(ks, 100)
        assert bounds.shape == ks.shape
        assert (np.diff(bounds) > 0).all()
        # strictly above the empirical rate until saturation
        assert (bounds[:-1] > ks[:-1] / 100).all()
        assert bounds[-1] == 1.0

    def test_bitwise_equal_to_scipy_stats(self):
        # scipy.stats is the oracle here and nowhere else: the package calls
        # the special function behind beta.ppf directly
        from scipy import stats
        rng = np.random.default_rng(2024)
        cases = [(np.arange(n + 1), n)
                 for n in (1, 2, 3, 10, 150, 1_000, 12_000)]
        cases += [(rng.integers(0, n + 1, 2_000), n)
                  for n in (497_500, 1_995_000)]
        for k, n in cases:
            with np.errstate(invalid="ignore"):
                expected = np.where(
                    k >= n, 1.0, stats.beta.ppf(0.95, k + 1, n - k))
            assert np.array_equal(binomial_upper_bound(k, n), expected), n

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_upper_bound(0, 0)
        with pytest.raises(ValueError):
            binomial_upper_bound(-1, 10)
        with pytest.raises(ValueError):
            binomial_upper_bound(11, 10)
        with pytest.raises(ValueError, match="event counts must lie in"):
            binomial_upper_bound(np.nan, 10)


class TestLogTailFit:
    def test_recovers_exact_decade_line(self):
        # counts laid on 10^(10 - 20 t) for N = 10000: 100, 10, 1 events
        # at t = 0.60, 0.65, 0.70
        grid = np.linspace(0.0, 1.0, 21)
        counts = np.zeros_like(grid)
        counts[12] = 100
        counts[13] = 10
        counts[14] = 1
        rates = counts / 10000
        slope, intercept = fit_log_tail(grid, rates, 10000)
        assert slope == pytest.approx(-20.0, abs=1e-9)
        assert intercept == pytest.approx(10.0, abs=1e-9)
        # the fitted line reaches 1e-10 at t = 1
        assert 10.0 ** (slope * 1.0 + intercept) == pytest.approx(1e-10,
                                                                  rel=1e-6)

    def test_too_few_points_returns_none(self):
        grid = np.linspace(0.0, 1.0, 11)
        rates = np.zeros(11)
        rates[5] = 0.001
        assert fit_log_tail(grid, rates, 10000) is None
        assert fit_log_tail(grid, np.zeros(11), 10000) is None


class TestPessimisticEnvelope:
    def test_side_validation(self):
        with pytest.raises(ValueError):
            pessimistic_envelope(np.linspace(0, 1, 11), np.zeros(11), 10,
                                 "both")

    def test_never_below_empirical(self):
        curves = empirical_curves(SMALL)
        assert (curves.pofa >= curves.far - 1e-15).all()
        assert (curves.pofr >= curves.frr - 1e-15).all()

    def test_monotone_directions(self):
        curves = empirical_curves(SMALL)
        assert (np.diff(curves.pofa) <= 1e-15).all()
        assert (np.diff(curves.pofr) >= -1e-15).all()

    def test_exceeds_confidence_bound_where_counted(self):
        rng = np.random.default_rng(11)
        samples = make_samples(np.clip(rng.normal(0.7, 0.05, 400), 0, 1),
                               np.clip(rng.normal(0.3, 0.05, 400), 0, 1))
        curves = empirical_curves(samples)
        imp = np.sort(samples.imposter)
        counts = imp.size - np.searchsorted(imp, curves.grid, side="left")
        bound = binomial_upper_bound(counts, imp.size)
        mask = counts > 0
        assert (curves.pofa[mask] >= bound[mask] - 1e-12).all()

    def test_constant_scores_fall_back_to_bound_alone(self):
        samples = make_samples([0.9] * 200, [0.1] * 200)
        curves = empirical_curves(samples)
        assert curves.pofa_fallback
        assert curves.pofr_fallback
        # bound-only envelope: flat at the k=0 bound beyond the data
        floor = float(binomial_upper_bound(0, 200))
        assert curves.pofa_at(0.5) == pytest.approx(floor, abs=1e-12)

    def test_fit_region_present_clears_flag(self):
        rng = np.random.default_rng(7)
        samples = make_samples(np.clip(rng.normal(0.75, 0.06, 2000), 0, 1),
                               np.clip(rng.normal(0.25, 0.06, 2000), 0, 1))
        curves = empirical_curves(samples)
        assert not curves.pofa_fallback
        assert not curves.pofr_fallback

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=50),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=50))
    def test_envelope_invariants_hold_for_any_scores(self, gen, imp):
        curves = empirical_curves(make_samples(gen, imp))
        assert (curves.pofa >= curves.far - 1e-15).all()
        assert (curves.pofr >= curves.frr - 1e-15).all()
        assert (np.diff(curves.pofa) <= 1e-15).all()
        assert (np.diff(curves.pofr) >= -1e-15).all()
        assert ((curves.pofa >= 0) & (curves.pofa <= 1)).all()
        assert ((curves.pofr >= 0) & (curves.pofr <= 1)).all()


def step_curves(n_points, accept_from, reject_until):
    """Hand-built envelopes: safe at and above/below the given indices."""
    grid = np.linspace(0.0, 1.0, n_points)
    pofa = np.where(np.arange(n_points) >= accept_from, 1e-8, 1.0)
    pofr = np.where(np.arange(n_points) <= reject_until, 1e-8, 1.0)
    return RateCurves(grid=grid, far=np.zeros(n_points),
                      frr=np.zeros(n_points), pofa=pofa, pofr=pofr)


class TestDeriveBands:
    def test_overlapping_distributions(self):
        # reject safe up to 0.40, accept safe from 0.50: thresholds straddle
        curves = step_curves(101, accept_from=50, reject_until=40)
        bands = derive_bands(curves, 1e-6)
        assert bands.n == pytest.approx(0.40)
        assert bands.p == pytest.approx(0.50)
        assert bands.target_rate == 1e-6

    def test_separated_distributions_swap(self):
        # both sides safe across 0.30..0.60: the whole gap goes uncertain
        curves = step_curves(101, accept_from=30, reject_until=60)
        bands = derive_bands(curves, 1e-6)
        assert bands.n == pytest.approx(0.30)
        assert bands.p == pytest.approx(0.60)
        assert curves.pofa_at(bands.n) < 1e-6
        assert curves.pofr_at(bands.p) < 1e-6

    def test_coincident_candidates_widen_one_step(self):
        curves = step_curves(101, accept_from=50, reject_until=50)
        bands = derive_bands(curves, 1e-6)
        assert bands.n == pytest.approx(0.49)
        assert bands.p == pytest.approx(0.51)

    def test_coincident_at_grid_edge_unachievable(self):
        curves = step_curves(101, accept_from=0, reject_until=0)
        with pytest.raises(UnachievableTargetError):
            derive_bands(curves, 1e-6)

    def test_never_safe_sides_unachievable(self):
        grid = np.linspace(0.0, 1.0, 101)
        ones = np.ones(101)
        safe = np.full(101, 1e-8)
        stuck_accept = RateCurves(grid=grid, far=ones, frr=ones,
                                  pofa=ones, pofr=safe)
        with pytest.raises(UnachievableTargetError, match="false accept"):
            derive_bands(stuck_accept, 1e-6)
        stuck_reject = RateCurves(grid=grid, far=ones, frr=ones,
                                  pofa=safe, pofr=ones)
        with pytest.raises(UnachievableTargetError, match="false reject"):
            derive_bands(stuck_reject, 1e-6)

    @pytest.mark.parametrize("accept_safe, reject_safe, message", [
        (False, True, "target unachievable: no threshold has a pessimistic "
                      "false accept rate under 2.5e-07"),
        (True, False, "target unachievable: no threshold has a pessimistic "
                      "false reject rate under 2.5e-07"),
        # both sides stuck: the accept side is named
        (False, False, "target unachievable: no threshold has a pessimistic "
                       "false accept rate under 2.5e-07"),
    ], ids=["accept", "reject", "both"])
    def test_unachievable_message_names_the_stuck_side(
            self, accept_safe, reject_safe, message):
        grid = np.linspace(0.0, 1.0, 101)
        ones = np.ones(101)
        safe = np.full(101, 1e-8)
        curves = RateCurves(grid=grid, far=ones, frr=ones,
                            pofa=safe if accept_safe else ones,
                            pofr=safe if reject_safe else ones)
        with pytest.raises(UnachievableTargetError) as caught:
            derive_bands(curves, 2.5e-7)
        assert str(caught.value) == message

    def test_target_validation(self):
        curves = step_curves(101, 50, 40)
        for target in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                derive_bands(curves, target)

    def test_real_population_end_to_end(self):
        templates = generate_population(40, 5, 512, 0.1, seed=21)
        i, j, scores = pair_scores(templates)
        identity = np.array([t.identity for t in templates])
        genuine = identity[i] == identity[j]
        samples = make_samples(scores[genuine], scores[~genuine])
        curves = empirical_curves(samples)
        bands = derive_bands(curves, 1e-3)
        assert bands.n < bands.p
        assert curves.pofa_at(bands.p) < 1e-3
        assert curves.pofr_at(bands.n) < 1e-3
        # the classes are separated here, so both ends of the gap are
        # doubly safe and nothing in between is misclassified
        assert curves.pofa_at(bands.n) < 1e-3
        assert curves.pofr_at(bands.p) < 1e-3
        assert curves.far_at(bands.p) == 0.0
        assert curves.frr_at(bands.n) == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_derived_bands_misclassify_at_most_a_target_share(self, seed):
        # bands are only ever derived from data: whatever thresholds
        # derive_bands hands out must do what their target rate says on
        # the pairs they were derived from
        templates = generate_population(80, 4, 1024, 0.15, seed=seed)
        i, j, scores = pair_scores(templates)
        identity = np.array([t.identity for t in templates])
        genuine = identity[i] == identity[j]
        curves = empirical_curves(make_samples(scores[genuine],
                                               scores[~genuine]))
        for target in (1e-2, 1e-3):
            bands = derive_bands(curves, target)
            codes = classify_many(scores, bands)
            assert np.count_nonzero(codes[~genuine] == CODE_I) <= \
                target * np.count_nonzero(~genuine)
            assert np.count_nonzero(codes[genuine] == CODE_D) <= \
                target * np.count_nonzero(genuine)


    @pytest.mark.xfail(strict=True, reason="envelopes are not pessimistic "
                       "where no event was seen (ROADMAP item 1)")
    @pytest.mark.parametrize("population, flip, seeds, target", [
        ((20, 5, 64), 0.2, (5, 6, 8, 10, 17), 1e-4),
        ((60, 4, 256), 0.15, (3, 6, 9, 14), 1e-6),
    ], ids=["20x5x64", "60x4x256"])
    def test_derived_bands_meet_target_on_the_true_distribution(
            self, population, flip, seeds, target):
        # simulate's marginals are exact (see truth.py), read through the
        # library's own >= on k / L
        outcomes = truth.outcomes(truth.iid, [(population, flip, seeds)],
                                  [target])
        assert not [o for o in outcomes if o.missed]

    @pytest.mark.parametrize("cases", [
        truth.ROADMAP_LIST,
        *(pytest.param(cases, marks=pytest.mark.xfail(
            strict=True, reason="envelopes are not pessimistic where no "
            "event was seen (ROADMAP item 1)")) for cases in (
                truth.HELD_OUT_LIST, truth.MENAGERIE_LIST,
                truth.CORRELATED_LIST)),
    ], ids=["roadmap", "held_out", "menagerie", "correlated"])
    def test_derived_bands_rarely_miss_the_true_rates(self, cases):
        # a 95% bound may be exceeded by chance, so the gate is a share:
        # misses at most 5% of the cases that give bands
        given, missed, _ = truth.tally(truth.outcomes(*cases))
        assert missed <= 0.05 * given


class TestComfortReport:
    def test_reference_operating_point_rates(self):
        # reference rates at the published thresholds: discomfort splits
        # 2.7e-4 genuine / 1.42e-4 imposter and totals 4.12e-4
        grid = np.linspace(0.0, 1.0, 401)   # step 0.0025 holds both
        far = np.zeros(401)
        frr = np.zeros(401)
        far[149] = 1.42e-4                  # t = 0.3725
        frr[220] = 2.7e-4                   # t = 0.55
        curves = RateCurves(grid=grid, far=far, frr=frr,
                            pofa=np.zeros(401), pofr=np.zeros(401))
        report = comfort_report(curves, ScoreBands(n=0.3725, p=0.55,
                                                   target_rate=1e-6))
        assert report.genuine_discomfort == pytest.approx(2.7e-4, abs=1e-12)
        assert report.imposter_discomfort == pytest.approx(1.42e-4,
                                                           abs=1e-12)
        assert report.total_discomfort == pytest.approx(4.12e-4, abs=1e-12)
        assert report.true_accept_safety == 1.0
        assert report.false_reject_safety == 1.0

    def test_recount_from_raw_scores(self):
        rng = np.random.default_rng(13)
        genuine = np.round(np.clip(rng.normal(0.7, 0.1, 500), 0, 1), 3)
        imposter = np.round(np.clip(rng.normal(0.35, 0.1, 800), 0, 1), 3)
        samples = make_samples(genuine, imposter)
        curves = empirical_curves(samples)
        bands = ScoreBands(n=0.4, p=0.62, target_rate=1e-6)
        report = comfort_report(curves, bands)
        assert report.genuine_discomfort == np.mean(genuine < bands.p)
        assert report.imposter_discomfort == np.mean(imposter >= bands.n)
        assert report.total_discomfort == (report.genuine_discomfort
                                           + report.imposter_discomfort)
        assert report.true_accept_safety == 1.0 - np.mean(
            imposter >= bands.p)
        assert report.false_reject_safety == 1.0 - np.mean(
            genuine < bands.n)

    def test_off_grid_bands_rejected(self):
        curves = empirical_curves(SMALL)
        with pytest.raises(ValueError):
            comfort_report(curves, ScoreBands(n=0.33335, p=0.62,
                                              target_rate=1e-6))


def dictreader_scores(path):
    """Reference reader on csv.DictReader, the reader the format began with.

    A row too short to hold pair_id, label and score is a ValueError here,
    where DictReader alone would fill the gap with None.
    """
    genuine, imposter = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"pair_id", "label", "score"} \
                <= set(reader.fieldnames):
            raise ValueError("bad header")
        for row in reader:
            if None in (row["pair_id"], row["label"], row["score"]):
                raise ValueError("short row")
            if row["label"] == GENUINE_LABEL:
                genuine.append(float(row["score"]))
            elif row["label"] == IMPOSTER_LABEL:
                imposter.append(float(row["score"]))
            else:
                raise ValueError(f"pair {row['pair_id']!r} has unknown label")
    return make_samples(genuine, imposter)


def read_outcome(reader, path):
    try:
        samples = reader(path)
    except (ValueError, csv.Error):   # DictReader's field size limit
        return "ValueError"
    return samples.genuine.tolist(), samples.imposter.tolist()


SCORE_FILES = {
    "quoted ids with commas": 'pair_id,label,score\n"a,1:b",genuine,0.5\n'
                              '"x:y,2",imposter,0.25\n"p""q:r",imposter,0\n',
    "crlf": "pair_id,label,score\r\na:b,genuine,0.5\r\n"
            "a:c,imposter,0.125\r\n",
    "blank lines": "pair_id,label,score\n\na:b,genuine,0.5\n\n\n"
                   "a:c,imposter,0.1\n\n",
    "reordered and extra columns": "score,extra,label,pair_id\n"
                                   "0.5,x,genuine,a:b\n0.25,,imposter,a:c\n",
    "repeated column, last wins": "pair_id,score,label,score\n"
                                  "a:b,0.1,genuine,0.9\na:c,0.9,imposter,0.2\n",
    "quoted fields, newline in id": '"pair_id","label","score"\n'
                                    '"a\nb:c","genuine","0.75"\n'
                                    'a:c,imposter,0.3\n',
    "row longer than header": "pair_id,label,score\na:b,genuine,0.5,extra\n"
                              "a:c,imposter,0.2\n",
    "short row": "pair_id,label,score\na:b,genuine,0.5\na:c,imposter\n",
    "short row, label missing": "score,pair_id,label\n0.5,a:b,genuine\n"
                                "0.2,a:c\n",
    "short row, only pair id missing": "label,score,pair_id\n"
                                       "genuine,0.5,a:b\nimposter,0.2\n",
    "short row, quoted id across lines": "pair_id,label,score\n"
                                         "a:b,genuine,0.5\n"
                                         '"a\nb,c",imposter\n',
    "unknown label": "pair_id,label,score\na:b,genuine,0.5\na:c,match,0.2\n",
    "missing column": "pair_id,label\na:b,genuine\n",
    "blank first line": "\npair_id,label,score\na:b,genuine,0.5\n",
    "empty file": "",
    "pair id over the field limit": "pair_id,label,score\na:b,genuine,0.5\n"
                                    + "p" * (csv.field_size_limit() + 1)
                                    + ",imposter,0.2\n",
    "extra column over the field limit": "pair_id,label,score,note\n"
                                         "a:b,genuine,0.5,\na:c,imposter,0.2,"
                                         + "n" * (csv.field_size_limit() + 1)
                                         + "\n",
    "score with surrounding spaces": "pair_id,label,score\n"
                                     "a:b,genuine, 0.25 \n"
                                     "a:c,imposter,0.1\n",
    "label with a trailing space": "pair_id,label,score\na:b,genuine ,0.5\n"
                                   "a:c,imposter,0.1\n",
    "label with a leading space": "pair_id,label,score\na:b, genuine,0.5\n"
                                  "a:c,imposter,0.1\n",
    "label longer than the label column": "pair_id,label,score\n"
                                          "a:b,genuine,0.5\n"
                                          "a:c,imposterXYZ,0.1\n",
    "quoted header field with a newline": '"pair_id","la\nbel","label",score\n'
                                          "a:b,x,genuine,0.5\n"
                                          "a:c,y,imposter,0.1\n",
    # the limit counts characters, not UTF-8 bytes
    "non-ASCII pair id at the field limit": "pair_id,label,score\n"
                                            "a:b,genuine,0.5\n"
                                            + "é" * csv.field_size_limit()
                                            + ",imposter,0.2\n",
    "non-ASCII pair id over the field limit": "pair_id,label,score\n"
                                              "a:b,genuine,0.5\n"
                                              + "é" * (csv.field_size_limit()
                                                       + 1)
                                              + ",imposter,0.2\n",
    "unterminated last record, pair id over the field limit":
        "label,score,pair_id\ngenuine,0.5,a:b\nimposter,0.2,"
        + "p" * (csv.field_size_limit() + 1),
    "unterminated short last record": "pair_id,label,score\n"
                                      "a:b,genuine,0.5\na:c,imposter",
}


def reference_scores_csv(template_ids, i, j, genuine, scores) -> bytes:
    """The file write_scores_csv writes, formatted one f-string per row: the
    writer's format as it was first written, which its bytes are pinned to."""
    labels = (f",{IMPOSTER_LABEL},", f",{GENUINE_LABEL},")
    rows = [f"{template_ids[p]}:{template_ids[q]}{labels[y]}"
            f"{x + 0.0!r}\n"
            for p, q, y, x in zip(*(np.asarray(c).tolist()
                                    for c in (i, j, genuine, scores)))]
    return ("pair_id,label,score\n" + "".join(rows)).encode()


#: template ids the writer refuses, each with the words of its refusal
REFUSED_IDS = {
    "a,b": "would need CSV quoting",
    'a"b': "would need CSV quoting",
    "a\rb": "would need CSV quoting",
    "a\nb": "would need CSV quoting",
    "a\x00b": "holds the control character '\\\\x00'",
    "a\x00": "holds the control character '\\\\x00'",
    "a\x1cb": "holds the control character '\\\\x1c'",
    "a\x1fb": "holds the control character '\\\\x1f'",
    # with the field limit at 16, "ok:" and this id make 17 characters
    "p" * 14: "would be longer than the field limit \\(16\\)",
}
#: scores whose reprs are special: zeros of both signs, the smallest
#: subnormal, and 16 and 17 significant digits
SPECIAL_SCORES = [-0.0, 0.0, 1.0, 5e-324, 0.30000000000000004,
                  0.10000000000000002, 0.7541528239202658]


@st.composite
def scored_pairs(draw, ids, scores):
    """(template ids, i, j, genuine, scores) for write_scores_csv, with ids
    drawn from `ids` and scores from `scores`; 0 rows are drawn too."""
    template_ids = draw(st.lists(ids, min_size=1, max_size=6))
    index = st.integers(0, len(template_ids) - 1)
    rows = draw(st.lists(st.tuples(index, index, st.booleans(), scores),
                         max_size=25))
    i, j, genuine, values = list(zip(*rows)) or [()] * 4
    return (template_ids, np.array(i, dtype=np.int64),
            np.array(j, dtype=np.int64), np.array(genuine, dtype=bool),
            np.array(values, dtype=float))


class TestFileFormats:
    @settings(max_examples=150, deadline=None)
    @given(pairs=scored_pairs(
               st.one_of(st.just(""), st.sampled_from(["é", "José_1",
                                                       "\U0001f441", "id0"]),
                         st.text(st.characters(
                             codec="utf-8",
                             exclude_characters=',"\r\n\x00\x1c\x1d\x1e\x1f'),
                             max_size=8)),
               st.one_of(st.sampled_from(SPECIAL_SCORES),
                         st.floats(0.0, 1.0))),
           block_rows=st.sampled_from([1, 2, 7, 1 << 16]),
           block_bytes=st.sampled_from([1, 40, 1 << 22]))
    @example(pairs=(["a"], np.array([], dtype=np.int64),
                    np.array([], dtype=np.int64), np.array([], dtype=bool),
                    np.array([])),
             block_rows=7, block_bytes=1 << 22)   # the header alone
    def test_scores_bytes_match_the_row_formatter(
            self, tmp_path_factory, pairs, block_rows, block_bytes):
        # blocks of 1, 2 and 7 rows, or of fewer where the byte cap sets
        # them, so rows and distinct scores run across block boundaries
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        with pytest.MonkeyPatch.context() as m:
            m.setattr(calibration, "_BLOCK_ROWS", block_rows)
            m.setattr(calibration, "_BLOCK_BYTES", block_bytes)
            write_scores_csv(path, *pairs)
        assert path.read_bytes() == reference_scores_csv(*pairs)

    @settings(max_examples=150, deadline=None)
    @given(pairs=scored_pairs(st.text(max_size=6), st.floats(0.0, 1.0)),
           block_rows=st.sampled_from([1, 7, 1 << 16]))
    def test_accepted_ids_read_back(self, tmp_path_factory, pairs,
                                    block_rows):
        # a file the writer writes, the reader reads back to the same
        # scores; an id the writer refuses holds a character it names
        template_ids, i, j, genuine, scores = pairs
        i, j = np.append(i, [0, 0]), np.append(j, [0, 0])
        genuine = np.append(genuine, [True, False])
        scores = np.append(scores, [0.5, 0.25])
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        try:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(calibration, "_BLOCK_ROWS", block_rows)
                write_scores_csv(path, template_ids, i, j, genuine, scores)
        except ValueError:
            assert any(set(t) & set(',"\r\n\x00\x1c\x1d\x1e\x1f')
                       for t in template_ids)
            assert not path.exists()
            return
        samples = read_scores_csv(path)
        assert sorted(samples.genuine.tolist()) == \
            sorted(scores[genuine].tolist())
        assert sorted(samples.imposter.tolist()) == \
            sorted(scores[~genuine].tolist())

    def test_long_ids_shrink_the_block(self, tmp_path):
        # one 2,000-character id among 300: blocks padded to it would take
        # 44,850 rows x 4,035 bytes, about 173 MiB; the byte cap keeps a
        # block near 4 MiB
        ids = [f"id{k:04d}" for k in range(299)] + ["q" * 2000]
        i, j = np.triu_indices(len(ids), 1)
        genuine = i // 4 == j // 4
        scores = np.random.default_rng(3).random(i.size)
        path = tmp_path / "scores.csv"
        tracemalloc.start()
        try:
            write_scores_csv(path, ids, i, j, genuine, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert path.read_bytes() == reference_scores_csv(ids, i, j, genuine,
                                                         scores)

    def test_scores_csv_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, ["a", "b", "c"], np.array([0, 0, 1]),
                         np.array([1, 2, 2]), np.array([True, False, False]),
                         np.array([0.875, 0.3212890625, 0.1]))
        assert path.read_text() == ("pair_id,label,score\n"
                                    "a:b,genuine,0.875\n"
                                    "a:c,imposter,0.3212890625\n"
                                    "b:c,imposter,0.1\n")
        samples = read_scores_csv(path)
        assert samples.genuine.tolist() == [0.875]
        assert sorted(samples.imposter.tolist()) == [0.1, 0.3212890625]

    def test_scores_csv_is_utf8_under_the_c_locale(self, tmp_path):
        # under the C locale a bare open() reads and writes ASCII; the id is
        # built with chr, as a literal in -c source would be surrogateescaped
        script = "\n".join([
            "import sys",
            "from irislogic.calibration import read_scores_csv, "
            "write_scores_csv",
            "path = sys.argv[1]",
            "write_scores_csv(path, ['Jos' + chr(233) + '_1', 'b', 'c'],",
            "                 [0, 0], [1, 2], [True, False], [0.875, 0.1])",
            "samples = read_scores_csv(path)",
            "assert samples.genuine.tolist() == [0.875], samples",
            "assert samples.imposter.tolist() == [0.1], samples",
        ])
        src = os.path.dirname(os.path.dirname(calibration.__file__))
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        path = tmp_path / "s.csv"
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert path.read_bytes() == ("pair_id,label,score\n"
                                     "José_1:b,genuine,0.875\n"
                                     "José_1:c,imposter,0.1\n"
                                     ).encode("utf-8")

    def test_scores_written_as_repr_across_blocks(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(calibration, "_BLOCK_ROWS", 2)
        path = tmp_path / "scores.csv"
        scores = [1 / 3, -0.0, 0.0, 1 / 3, 0.1 + 0.2]
        write_scores_csv(path, list("abcdef"), np.arange(5),
                         np.arange(1, 6), np.zeros(5, dtype=bool),
                         np.array(scores))
        written = [line.rsplit(",", 1)[1]
                   for line in path.read_text().splitlines()[1:]]
        assert written == ["0.3333333333333333", "0.0", "0.0",
                           "0.3333333333333333", "0.30000000000000004"]

    def test_scores_csv_header_and_label_errors(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("a,b,c\n1,genuine,0.5\n")
        with pytest.raises(ValueError):
            read_scores_csv(bad_header)
        bad_label = tmp_path / "l.csv"
        bad_label.write_text("pair_id,label,score\nx,match,0.5\n")
        with pytest.raises(ValueError, match="pair 'x' has unknown label"):
            read_scores_csv(bad_label)
        short = tmp_path / "s.csv"
        short.write_text("pair_id,label,score\nx,genuine,0.5\ny,imposter\n")
        with pytest.raises(ValueError, match="line 3 has fewer fields"):
            read_scores_csv(short)

    def test_scores_csv_errors_name_the_file(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("pair_id,label,score\nx,match,0.5\n")
        with pytest.raises(ValueError) as exc:
            read_scores_csv(path)
        assert str(exc.value) == f"{path}: pair 'x' has unknown label 'match'"
        path.write_text("pair_id,label,score\nx,genuine,0.5\ny,imposter\n")
        with pytest.raises(ValueError) as exc:
            read_scores_csv(path)
        assert str(exc.value) == \
            f"{path}: line 3 has fewer fields than the header"
        path.write_text("pair_id,label\nx,genuine\n")
        with pytest.raises(ValueError) as exc:
            read_scores_csv(path)
        assert str(exc.value) == f"{path}: expected header pair_id,label,score"

    @pytest.mark.parametrize("text, pair, label", [
        ("pair_id,label,score\n\nx,genuine,0.5\n\n\ny,match,0.5\n",
         "y", "match"),
        ('pair_id,label,score\n"a\nb:c",genuine,0.5\n\nd,match,0.5\n',
         "d", "match"),
        ("pair_id,label,score\r\nx,genuine,0.5\r\n\r\ny,match,0.5\r\n",
         "y", "match"),
        ("pair_id,label,score\rx,genuine,0.5\r\ry,match,0.5\r",
         "y", "match"),
        ("pair_id,label,score\nx,genuine,0.5\n\ny,imposterXYZW,0.5\n",
         "y", "imposterXYZW"),
        ("pair_id,label,score\nx,genuine,0.5\ny,match,0.5\n\n"
         "z,other,0.5\n", "y", "match"),
    ], ids=["after blank lines", "after a two-line pair id", "CRLF",
            "CR only", "wider than S9", "first of two"])
    def test_unknown_label_names_its_record(self, tmp_path, text, pair,
                                            label):
        # numpy finds the row; its pair and label are those csv.reader reads
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as exc:
            read_scores_csv(path)
        assert str(exc.value) == \
            f"{path}: pair {pair!r} has unknown label {label!r}"

    @pytest.mark.parametrize("text, detail", [
        ("pair_id,label,score\na:b,genuine,0.5\na:c,imposter,"
         + "1" * (csv.field_size_limit() + 1) + "\n",
         f"line 3: field larger than field limit ({csv.field_size_limit()})"),
        ("pair_id,label,score," + "x" * (csv.field_size_limit() + 1)
         + "\na:b,genuine,0.5\n",
         f"line 1: field larger than field limit ({csv.field_size_limit()})"),
        ("pair_id,label,score\na:b,genuine,0.5\na:c,imposter,0.5\x00\n",
         "line 3 holds the control character '\\x00'"),
        # numpy's words: data row 0 is the first row after the header
        ('pair_id,label,score\n"a\nb:c",genuine,high\n',
         "could not convert string 'high' to float64 at row 0, column 3."),
    ], ids=["long field", "long header field", "NUL in score", "word score"])
    def test_bad_row_names_file_and_line(self, tmp_path, text, detail):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as exc:
            read_scores_csv(path)
        assert str(exc.value) == f"{path}: {detail}"

    @pytest.mark.parametrize("name", sorted(SCORE_FILES))
    def test_reader_matches_dictreader(self, tmp_path, name):
        path = tmp_path / "scores.csv"
        path.write_bytes(SCORE_FILES[name].encode())
        assert read_outcome(read_scores_csv, path) == \
            read_outcome(dictreader_scores, path)

    def test_scan_block_size_changes_nothing(self, tmp_path, monkeypatch):
        # scan blocks end at a line feed, so with one-byte reads each line
        # is a block, and quoted fields and records run across blocks
        path = tmp_path / "scores.csv"

        def result():
            try:
                samples = read_scores_csv(path)
            except ValueError as exc:
                return str(exc)
            return samples.genuine.tolist(), samples.imposter.tolist()

        for name, text in SCORE_FILES.items():
            path.write_bytes(text.encode())
            expected = result()
            with monkeypatch.context() as m:
                m.setattr(calibration, "_SCAN_BYTES", 1)
                assert result() == expected, name

    @pytest.mark.parametrize("text", [
        "pair_id,label,score\na:b,genuine,0.5\na:c,imposter,0.25\n",
        "pair_id,label\na:b,genuine\n",
        "pair_id,label,score\na:b,genuine,0.5\na:c,imposter\n",
        "pair_id,label,score\na:b,genuine,high\n",
        "pair_id,label,score\na:b,genuine,0.5\na:c,match,0.2\n",
    ], ids=["accepted", "header fault", "layout fault", "score fault",
            "unknown label"])
    def test_reader_opens_the_file_once(self, tmp_path, monkeypatch, text):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        expected = read_outcome(dictreader_scores, path)
        opened = []

        def counting(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(calibration, "open", counting, raising=False)
        assert read_outcome(read_scores_csv, path) == expected
        assert opened == [path]

    def test_file_replaced_after_its_header_is_checked_as_read(
            self, tmp_path, monkeypatch):
        # the layout check reads the handle the parser reads, so a clean
        # file put in the path's place does not stand in for the one read
        path = tmp_path / "scores.csv"
        path.write_bytes(b"pair_id,label,score\na\x00:b,genuine,0.5\n"
                         b"a:c,imposter,0.25\n")
        clean = tmp_path / "clean.csv"
        clean.write_bytes(b"pair_id,label,score\na:b,genuine,0.5\n"
                          b"a:c,imposter,0.25\n")
        reader = csv.reader

        def replace_after_header(*args, **kwargs):
            records = reader(*args, **kwargs)
            header = next(records)
            if clean.exists():
                os.replace(clean, path)
            yield header
            yield from records

        monkeypatch.setattr(calibration.csv, "reader", replace_after_header)
        with pytest.raises(ValueError) as exc:
            read_scores_csv(path)
        assert str(exc.value) == \
            f"{path}: line 2 holds the control character '\\x00'"
        assert not clean.exists()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
               st.text(alphabet='ab:,"\r\n ', min_size=1, max_size=6),
               st.sampled_from([GENUINE_LABEL, IMPOSTER_LABEL]),
               st.floats(0.0, 1.0)), min_size=2, max_size=30),
           order=st.permutations(["pair_id", "label", "score", "note"]),
           terminator=st.sampled_from(["\n", "\r\n"]),
           blanks=st.sets(st.integers(0, 30), max_size=4))
    def test_reader_matches_dictreader_on_csv_writer_output(
            self, tmp_path_factory, rows, order, terminator, blanks):
        lines = []
        for k, (pair_id, label, score) in enumerate(rows):
            if k in blanks:
                lines.append([])
            fields = {"pair_id": pair_id, "label": label,
                      "score": repr(score), "note": "n,o"}
            lines.append([fields[c] for c in order])
        path = tmp_path_factory.mktemp("rows") / "scores.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=terminator)
            writer.writerow(order)
            writer.writerows(lines)
        assert read_outcome(read_scores_csv, path) == \
            read_outcome(dictreader_scores, path)

    def test_large_score_file_reads_in_one_pass(self, tmp_path, monkeypatch):
        # 100,128 rows; csv.reader may give the header record and no more,
        # so no row goes through a Python-level loop. The bound, 4.13 MiB,
        # is what a csv.reader row loop peaked at on this file; this reader
        # takes about 2.9 MiB.
        i, j = np.triu_indices(448, 1)
        scores = np.random.default_rng(5).random(i.size)
        path = tmp_path / "scores.csv"
        write_scores_csv(path, [f"id{k:04d}" for k in range(448)], i, j,
                         i // 4 == j // 4, scores)
        expected = read_outcome(dictreader_scores, path)
        reader = csv.reader

        def header_only(*args, **kwargs):
            return itertools.islice(reader(*args, **kwargs), 1)

        monkeypatch.setattr(calibration.csv, "reader", header_only)
        tracemalloc.start()
        try:
            outcome = read_outcome(read_scores_csv, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == expected
        assert peak < 4.13 * 2**20

    def test_curves_csv_layout(self, tmp_path):
        path = tmp_path / "curves.csv"
        curves = empirical_curves(SMALL)
        write_curves_csv(curves, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,far,frr,pofa,pofr"
        assert len(lines) == 10_002
        assert lines[1].startswith("0.0,1.0,0.0,")
        # byte for byte what csv.writer makes of the float reprs
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["t", "far", "frr", "pofa", "pofr"])
        for k in range(curves.grid.size):
            writer.writerow([repr(float(c[k])) for c in (
                curves.grid, curves.far, curves.frr, curves.pofa,
                curves.pofr)])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_bands_json_round_trip(self, tmp_path):
        path = tmp_path / "bands.json"
        bands = ScoreBands(n=0.5788, p=0.6789000000000001, target_rate=1e-6)
        write_bands_json(bands, path)
        assert read_bands_json(path) == bands
        # decimal strings, not floats, in the document
        assert '"n": "0.5788"' in path.read_text()

    def test_bands_json_stable_bytes(self):
        bands = ScoreBands(n=0.3725, p=0.55, target_rate=1e-6)
        assert bands_to_json(bands) == bands_to_json(bands)
        assert bands_to_json(bands).endswith("\n")

    def test_malformed_bands_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": "0.3"}\n')
        with pytest.raises(ValueError):
            read_bands_json(path)


class TestAtomicWrites:
    """A failed write leaves the old file and no temporary file behind."""

    OLD = b"old bytes\n"
    BANDS = ScoreBands(n=0.4, p=0.6, target_rate=1e-6)

    def old_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(self.OLD)
        return path

    def assert_untouched(self, path):
        assert path.read_bytes() == self.OLD
        assert os.listdir(path.parent) == [path.name]

    def test_failure_inside_the_block(self, tmp_path):
        path = self.old_file(tmp_path, "out.txt")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("disk full")
        self.assert_untouched(path)

    def test_scores_writer_failing_mid_write(self, tmp_path, monkeypatch):
        monkeypatch.setattr(calibration, "_BLOCK_ROWS", 1)
        path = self.old_file(tmp_path, "scores.csv")
        take = np.take

        def gather(table, indices):
            # template 2 heads only the second block's one row
            if 2 in indices:
                raise MemoryError("no room for the second block")
            return take(table, indices)

        monkeypatch.setattr(calibration.np, "take", gather)
        # the second block's gather fails after the first block was written
        with pytest.raises(MemoryError):
            write_scores_csv(path, ["a", "b", "c"], np.array([0, 2]),
                             np.array([1, 1]), np.array([False, False]),
                             np.array([0.5, 0.25]))
        self.assert_untouched(path)

    def test_curves_writer_failing_mid_write(self, tmp_path):
        curves = empirical_curves(SMALL)
        broken = RateCurves(grid=curves.grid, far=curves.far[:50],
                            frr=curves.frr, pofa=curves.pofa,
                            pofr=curves.pofr)
        path = self.old_file(tmp_path, "curves.csv")
        with pytest.raises(IndexError):
            write_curves_csv(broken, path)
        self.assert_untouched(path)

    @pytest.mark.parametrize("bad_id", list(REFUSED_IDS))
    def test_scores_writer_refuses_ids_that_need_quoting(self, tmp_path,
                                                         bad_id):
        # ids CSV would quote, and ids the reader would refuse: control
        # characters, and a pair_id over the field limit
        path = self.old_file(tmp_path, "scores.csv")
        limit = csv.field_size_limit(16)
        try:
            with pytest.raises(ValueError, match=REFUSED_IDS[bad_id]):
                write_scores_csv(path, ["ok", bad_id], np.array([0]),
                                 np.array([1]), np.array([False]),
                                 np.array([0.5]))
        finally:
            csv.field_size_limit(limit)
        self.assert_untouched(path)

    def test_scores_writer_refuses_a_long_pair_in_a_later_block(
            self, tmp_path, monkeypatch):
        # one row a block, and the third row's pair_id is 17 characters:
        # the refusal covers every block, before atomic_write is reached
        monkeypatch.setattr(calibration, "_BLOCK_ROWS", 1)
        monkeypatch.setattr(calibration, "atomic_write", None)
        path = self.old_file(tmp_path, "scores.csv")
        limit = csv.field_size_limit(16)
        try:
            with pytest.raises(ValueError, match=r"^the pair_id of templates "
                               r"1 and 2 would be longer than the field "
                               r"limit \(16\)$"):
                write_scores_csv(path, ["ok", "fine", "p" * 12],
                                 np.array([0, 2, 1, 2]),
                                 np.array([2, 0, 2, 1]),
                                 np.array([False, False, True, True]),
                                 np.array([0.5, 0.25, 0.75, 0.125]))
        finally:
            csv.field_size_limit(limit)
        self.assert_untouched(path)

    def refuse_pairs(self, tmp_path, message, i, j, scores):
        """write_scores_csv over the ids a and b refuses the columns with
        exactly message, and the old file stays as it was."""
        path = self.old_file(tmp_path, "scores.csv")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_scores_csv(path, ["a", "b"], i, j,
                             np.zeros(len(scores), dtype=bool),
                             np.array(scores, dtype=float))
        self.assert_untouched(path)

    def test_scores_writer_refuses_a_negative_index(self, tmp_path):
        # np.take would read -1 as the last id and write the pair b:a
        self.refuse_pairs(tmp_path, "row 0: pair indices (-1, 0) are not "
                          "both in [0, 2)", np.array([-1]), np.array([0]),
                          [0.5])

    def test_scores_writer_refuses_an_index_past_the_end(self, tmp_path):
        self.refuse_pairs(tmp_path, "row 1: pair indices (0, 2) are not "
                          "both in [0, 2)", np.array([0, 0]),
                          np.array([1, 2]), [0.5, 0.25])

    def test_scores_writer_refuses_a_float_index_column(self, tmp_path):
        self.refuse_pairs(tmp_path, "row 0: pair indices (0, 1.0) are not "
                          "integers", np.array([0, 1]), np.array([1.0, 0.0]),
                          [0.5, 0.25])

    @pytest.mark.parametrize("score", [1.5, math.nan, math.inf, -0.25])
    def test_scores_writer_refuses_a_score_outside_the_unit_interval(
            self, tmp_path, score):
        # the reader refuses every one of these scores
        self.refuse_pairs(tmp_path, f"row 1: score {score!r} is not in "
                          f"[0, 1]", np.array([0, 1]), np.array([1, 0]),
                          [0.5, score])

    @pytest.mark.parametrize("genuine, message", [
        # np.asarray(..., dtype=bool) read both of these as genuine rows
        (["False", "no"], "row 0: genuine flag 'False' is not a bool or an "
                          "integer"),
        ([2, math.nan], "row 0: genuine flag 2.0 is not a bool or an "
                        "integer"),
        (np.array([1, 2]), "row 1: genuine flag 2 is not 0 or 1"),
        (np.array([0, -1], dtype=np.int8),
         "row 1: genuine flag -1 is not 0 or 1"),
    ], ids=["strings", "float", "two", "minus_one"])
    def test_scores_writer_refuses_a_genuine_flag_that_is_not_0_or_1(
            self, tmp_path, genuine, message):
        path = self.old_file(tmp_path, "scores.csv")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_scores_csv(path, ["a", "b"], np.array([0, 1]),
                             np.array([1, 0]), genuine, np.array([0.5, 0.25]))
        self.assert_untouched(path)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_scores_writer_accepts_0_1_integer_flags(self, tmp_path, dtype):
        # 300 distinct scores: a uint8 flag times the 300 score reprs would
        # wrap if the flags were not read as bools
        rng = np.random.default_rng(4)
        i, j = np.zeros(300, dtype=int), np.ones(300, dtype=int)
        flags, scores = rng.integers(0, 2, 300), rng.random(300)
        as_bool, as_int = tmp_path / "bool.csv", tmp_path / "int.csv"
        write_scores_csv(as_bool, ["a", "b"], i, j, flags == 1, scores)
        write_scores_csv(as_int, ["a", "b"], i, j, flags.astype(dtype),
                         scores)
        assert as_int.read_bytes() == as_bool.read_bytes()

    def test_scores_writer_accepts_bool_indices_zeros_and_no_rows(
            self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, ["a", "b"], np.array([True, False]),
                         np.array([False, True]), np.array([True, False]),
                         np.array([-0.0, 0.0]))
        assert path.read_bytes() == (b"pair_id,label,score\n"
                                     b"b:a,genuine,0.0\na:b,imposter,0.0\n")
        write_scores_csv(path, ["a"], [], [], [], [])
        assert path.read_bytes() == b"pair_id,label,score\n"

    @settings(max_examples=100, deadline=None)
    @given(good=st.lists(st.floats(0.0, 1.0), max_size=5),
           bad=st.one_of(st.just(math.nan), st.floats(max_value=-5e-324),
                         st.floats(min_value=1.0, exclude_min=True)),
           at=st.integers(0, 5))
    def test_scores_writer_refuses_every_score_outside_the_unit_interval(
            self, tmp_path_factory, good, bad, at):
        at = min(at, len(good))
        scores = good[:at] + [bad] + good[at:]
        n = len(scores)
        self.refuse_pairs(tmp_path_factory.mktemp("scores"),
                          f"row {at}: score {bad!r} is not in [0, 1]",
                          np.zeros(n, dtype=int), np.ones(n, dtype=int),
                          scores)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open descriptors in /proc/self/fd")
    def test_failed_chmod_closes_the_temporary_file(self, tmp_path,
                                                     monkeypatch):
        path = self.old_file(tmp_path, "bands.json")

        def refuse(target, mode):
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM),
                                  target)

        monkeypatch.setattr(calibration.os, "chmod", refuse)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as caught:
            write_bands_json(self.BANDS, path)
        assert len(os.listdir("/proc/self/fd")) == before
        assert caught.value.errno == errno.EPERM
        assert caught.value.filename == str(path)
        self.assert_untouched(path)

    @pytest.mark.parametrize(
        "char", [chr(c) for c in range(0x20) if chr(c) not in "\r\n"]
        + ["\x7f"], ids=lambda c: f"U+{ord(c):04X}")
    def test_scores_writer_and_reader_refuse_the_same_controls(self,
                                                                tmp_path,
                                                                char):
        # the writer and the reader's scan both read _REFUSED_CONTROLS;
        # what the writer writes must read back
        t = f"a{char}b"
        text = (f"pair_id,label,score\n{t}:c,genuine,0.5\n"
                f"c:{t},imposter,0.25\n").encode()
        written = tmp_path / "written.csv"
        try:
            write_scores_csv(written, [t, "c"], np.array([0, 1]),
                             np.array([1, 0]), np.array([True, False]),
                             np.array([0.5, 0.25]))
        except ValueError as exc:
            assert str(exc) == (f"template id {t!r} holds the control "
                                f"character {char!r}")
            writer_refuses = True
            assert not written.exists()
        else:
            writer_refuses = False
            assert written.read_bytes() == text
        by_hand = tmp_path / "by_hand.csv"
        by_hand.write_bytes(text)
        try:
            read_scores_csv(by_hand)
        except ValueError as exc:
            assert str(exc) == (f"{by_hand}: line 2 holds the control "
                                f"character {char!r}")
            reader_refuses = True
        else:
            reader_refuses = False
        assert writer_refuses == reader_refuses

    def test_scores_writer_refuses_unequal_columns(self, tmp_path):
        path = self.old_file(tmp_path, "scores.csv")
        with pytest.raises(ValueError, match="equal length"):
            write_scores_csv(path, ["a", "b"], np.array([0]), np.array([1]),
                             np.array([False]), np.array([0.5, 0.25]))
        self.assert_untouched(path)

    def test_symlink_target_is_replaced(self, tmp_path):
        target = self.old_file(tmp_path, "target.json")
        link = tmp_path / "link.json"
        link.symlink_to(target.name)
        write_bands_json(self.BANDS, link)
        assert link.is_symlink()
        assert read_bands_json(target) == self.BANDS
        assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "bands.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            write_bands_json(self.BANDS, fifo)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [bands_to_json(self.BANDS).encode()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["bands.fifo"]

    def test_permission_bits(self, tmp_path):
        reference = tmp_path / "reference.json"
        with open(reference, "w"):
            pass
        created = tmp_path / "bands.json"
        write_bands_json(self.BANDS, created)
        assert os.stat(created).st_mode == os.stat(reference).st_mode
        os.chmod(created, 0o640)
        other = ScoreBands(n=0.3, p=0.6, target_rate=1e-6)
        write_bands_json(other, created)
        assert os.stat(created).st_mode & 0o777 == 0o640
        assert read_bands_json(created) == other
