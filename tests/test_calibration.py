"""Rate curves, pessimistic envelopes, band derivation, comfort, file formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irislogic.calibration import (
    GENUINE_LABEL,
    IMPOSTER_LABEL,
    LabeledScores,
    RateCurves,
    UnachievableTargetError,
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
from irislogic.decision_engine import ScoreBands
from irislogic.enrollment import generate_population, pair_scores


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
        curves = empirical_curves(SMALL, grid_step=0.01)
        assert curves.far_at(0.0) == 1.0
        assert curves.frr_at(0.0) == 0.0
        assert curves.far_at(0.4) == 0.25   # 0.4 itself still counts
        assert curves.far_at(0.41) == 0.0
        assert curves.frr_at(0.6) == 0.0    # 0.6 itself does not
        assert curves.frr_at(0.61) == 0.25
        assert curves.far_at(1.0) == 0.0
        assert curves.frr_at(1.0) == 1.0

    def test_grid_shape(self):
        curves = empirical_curves(SMALL, grid_step=0.01)
        assert curves.grid.size == 101
        assert curves.grid[0] == 0.0 and curves.grid[-1] == 1.0
        for arr in (curves.far, curves.frr, curves.pofa, curves.pofr):
            assert arr.size == 101

    def test_off_grid_threshold_rejected(self):
        curves = empirical_curves(SMALL, grid_step=0.01)
        with pytest.raises(ValueError):
            curves.far_at(0.333)

    def test_grid_step_validation(self):
        with pytest.raises(ValueError):
            empirical_curves(SMALL, grid_step=0.02)
        with pytest.raises(ValueError):
            empirical_curves(SMALL, grid_step=0.0)
        with pytest.raises(ValueError):
            empirical_curves(SMALL, grid_step=0.003)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_upper_bound(0, 0)
        with pytest.raises(ValueError):
            binomial_upper_bound(-1, 10)
        with pytest.raises(ValueError):
            binomial_upper_bound(11, 10)
        with pytest.raises(ValueError):
            binomial_upper_bound(1, 10, confidence=1.0)


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
        curves = empirical_curves(SMALL, grid_step=0.01)
        assert (curves.pofa >= curves.far - 1e-15).all()
        assert (curves.pofr >= curves.frr - 1e-15).all()

    def test_monotone_directions(self):
        curves = empirical_curves(SMALL, grid_step=0.01)
        assert (np.diff(curves.pofa) <= 1e-15).all()
        assert (np.diff(curves.pofr) >= -1e-15).all()

    def test_exceeds_confidence_bound_where_counted(self):
        rng = np.random.default_rng(11)
        samples = make_samples(np.clip(rng.normal(0.7, 0.05, 400), 0, 1),
                               np.clip(rng.normal(0.3, 0.05, 400), 0, 1))
        curves = empirical_curves(samples, grid_step=0.01)
        imp = np.sort(samples.imposter)
        counts = imp.size - np.searchsorted(imp, curves.grid, side="left")
        bound = binomial_upper_bound(counts, imp.size)
        mask = counts > 0
        assert (curves.pofa[mask] >= bound[mask] - 1e-12).all()

    def test_constant_scores_fall_back_to_bound_alone(self):
        samples = make_samples([0.9] * 200, [0.1] * 200)
        curves = empirical_curves(samples, grid_step=0.01)
        assert curves.pofa_fallback
        assert curves.pofr_fallback
        # bound-only envelope: flat at the k=0 bound beyond the data
        floor = float(binomial_upper_bound(0, 200))
        assert curves.pofa_at(0.5) == pytest.approx(floor, abs=1e-12)

    def test_fit_region_present_clears_flag(self):
        rng = np.random.default_rng(7)
        samples = make_samples(np.clip(rng.normal(0.75, 0.06, 2000), 0, 1),
                               np.clip(rng.normal(0.25, 0.06, 2000), 0, 1))
        curves = empirical_curves(samples, grid_step=0.001)
        assert not curves.pofa_fallback
        assert not curves.pofr_fallback

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=50),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=50))
    def test_envelope_invariants_hold_for_any_scores(self, gen, imp):
        curves = empirical_curves(make_samples(gen, imp), grid_step=0.01)
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
        curves = empirical_curves(samples, grid_step=1e-3)
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
        report = comfort_report(curves, ScoreBands(n=0.3725, p=0.55))
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
        curves = empirical_curves(samples, grid_step=0.01)
        bands = ScoreBands(n=0.4, p=0.62)
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
        curves = empirical_curves(SMALL, grid_step=0.01)
        with pytest.raises(ValueError):
            comfort_report(curves, ScoreBands(n=0.333, p=0.62))


class TestFileFormats:
    def test_scores_csv_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        rows = [("a:b", GENUINE_LABEL, 0.875),
                ("a:c", IMPOSTER_LABEL, 0.3212890625),
                ("b:c", IMPOSTER_LABEL, 0.1)]
        write_scores_csv(path, rows)
        samples = read_scores_csv(path)
        assert samples.genuine.tolist() == [0.875]
        assert sorted(samples.imposter.tolist()) == [0.1, 0.3212890625]

    def test_scores_csv_header_and_label_errors(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("a,b,c\n1,genuine,0.5\n")
        with pytest.raises(ValueError):
            read_scores_csv(bad_header)
        bad_label = tmp_path / "l.csv"
        bad_label.write_text("pair_id,label,score\nx,match,0.5\n")
        with pytest.raises(ValueError):
            read_scores_csv(bad_label)

    def test_curves_csv_layout(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(empirical_curves(SMALL, grid_step=0.01), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,far,frr,pofa,pofr"
        assert len(lines) == 102
        assert lines[1].startswith("0.0,1.0,0.0,")

    def test_bands_json_round_trip(self, tmp_path):
        path = tmp_path / "bands.json"
        bands = ScoreBands(n=0.5788, p=0.6789000000000001, target_rate=1e-6)
        write_bands_json(bands, path)
        assert read_bands_json(path) == bands
        # decimal strings, not floats, in the document
        assert '"n": "0.5788"' in path.read_text()

    def test_bands_json_stable_bytes(self):
        bands = ScoreBands(n=0.3725, p=0.55)
        assert bands_to_json(bands) == bands_to_json(bands)
        assert bands_to_json(bands).endswith("\n")

    def test_malformed_bands_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": "0.3"}\n')
        with pytest.raises(ValueError):
            read_bands_json(path)
