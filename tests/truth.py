"""Exact truth for calibration claims on three population models.

Each model builds its labelled pair scores from the library's own
generate_population and knows their exact genuine and imposter pmfs on the
score lattice, with scipy.stats.binom as the oracle. The true rates at
derived bands are read off those pmfs through the curves' rule: an accept
is a score >= p, a reject a score < n.

* iid: generate_population draws each sample bit as its identity's uniform
  master bit, flipped independently with probability f. So the agreements
  of two L-bit templates follow exact binomials: Bin(L, 1/2) between
  identities and Bin(L, 1 - 2f(1 - f)) within one (two samples agree where
  both or neither flipped).
* menagerie (Doddington et al., "Sheep, goats, lambs and wolves", ICSLP
  1998): each identity is a goat with a given share, and goats flip more
  bits than sheep. The genuine pmf is the realised mixture of the two
  binomials; the imposter pmf is unchanged, because the masters are still
  independent and uniform.
* correlated: each of L/r independent bits is repeated r times, so the
  agreements are r·Bin(L/r, ·) and a code carries L/r degrees of freedom
  (Daugman, "The importance of being random", 2003).

Each case list is (model, cases, targets), a case being (population,
parameters, seeds): the roadmap list the envelope variants were chosen on,
a held-out list they were not, and one list for each of the other models.
"""

from dataclasses import dataclass

import numpy as np

from irislogic.calibration import (LabeledScores, UnachievableTargetError,
                                   derive_bands, empirical_curves)
from irislogic.enrollment import Template, generate_population, pair_scores


def iid_pmfs(bit_length: int, flip: float):
    """(scores k/L, genuine pmf, imposter pmf) over k = 0..L."""
    from scipy import stats
    k = np.arange(bit_length + 1)
    return (k / bit_length,
            stats.binom.pmf(k, bit_length, 1.0 - 2.0 * flip * (1.0 - flip)),
            stats.binom.pmf(k, bit_length, 0.5))


def _labelled(templates, identities) -> LabeledScores:
    """The templates' pair scores, genuine where the identities match."""
    i, j, scores = pair_scores(templates)
    identity = np.array(identities)
    same = identity[i] == identity[j]
    return LabeledScores(genuine=scores[same], imposter=scores[~same])


def iid(population, flip: float, seed: int):
    """(labelled scores, exact pmfs) of one generated population."""
    templates = generate_population(*population, flip, seed=seed)
    return (_labelled(templates, [t.identity for t in templates]),
            iid_pmfs(population[2], flip))


def menagerie(population, params, seed: int):
    """(labelled scores, exact pmfs) of sheep and goats: params is (sheep
    flip, goat flip, goat share). The goats are the identities where
    default_rng(seed).random(identities) < share; the sheep are drawn with
    seed 7 * seed and the goats with 7 * seed + 1, their identities
    prefixed s and g."""
    identities, per, bit_length = population
    sheep_flip, goat_flip, share = params
    goats = int(np.count_nonzero(
        np.random.default_rng(seed).random(identities) < share))
    templates, names = [], []
    for prefix, count, flip, flock_seed in (
            ("s", identities - goats, sheep_flip, seed * 7),
            ("g", goats, goat_flip, seed * 7 + 1)):
        if count:
            flock = generate_population(count, per, bit_length, flip,
                                        seed=flock_seed)
            templates += flock
            names += [prefix + t.identity for t in flock]
    score, sheep, imposter = iid_pmfs(bit_length, sheep_flip)
    goat = iid_pmfs(bit_length, goat_flip)[1]
    genuine = ((identities - goats) * sheep + goats * goat) / identities
    return _labelled(templates, names), (score, genuine, imposter)


def correlated(population, params, seed: int):
    """(labelled scores, exact pmfs) of L-bit codes whose bits come in runs
    of r copies: params is (r, flip), and the codes are np.repeat of a
    population drawn at L/r bits."""
    identities, per, bit_length = population
    r, flip = params
    drawn = generate_population(identities, per, bit_length // r, flip,
                                seed=seed)
    bits = np.repeat(np.stack([t.bits for t in drawn]), r, axis=1)
    templates = [Template(row, t.identity, t.template_id)
                 for row, t in zip(bits, drawn)]
    # the score of r·k agreements is the float of rk/L, the same rational,
    # so the same float, as k/(L/r) on the L/r-bit lattice
    return (_labelled(templates, [t.identity for t in templates]),
            iid_pmfs(bit_length // r, flip))


#: 78 populations at 4 targets: 312 cases
ROADMAP_LIST = (iid, [
    ((80, 4, 1024), 0.15, range(1, 11)),
    ((50, 10, 1024), 0.15, range(801, 806)),
    ((60, 4, 256), 0.15, range(1, 21)),
    ((30, 3, 128), 0.25, range(1, 21)),
    ((20, 5, 64), 0.2, range(1, 21)),
    ((250, 4, 256), 0.3, range(1, 4)),
], (1e-2, 1e-3, 1e-4, 1e-6))

TARGETS = (3e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

#: 78 populations at 6 targets: 468 cases
HELD_OUT_LIST = (iid, [
    ((40, 5, 128), 0.2, range(101, 121)),
    ((100, 3, 512), 0.2, range(101, 111)),
    ((30, 4, 96), 0.25, range(101, 121)),
    ((150, 2, 1024), 0.1, range(101, 106)),
    ((25, 6, 48), 0.15, range(101, 121)),
    ((120, 4, 200), 0.3, range(101, 104)),
], TARGETS)

#: 60 populations at 6 targets: 360 cases; (sheep flip, goat flip, share)
MENAGERIE_LIST = (menagerie, [
    ((200, 4, 1024), (0.10, 0.25, 0.2), range(1, 11)),
    ((60, 5, 256), (0.10, 0.25, 0.2), range(1, 21)),
    ((40, 5, 128), (0.15, 0.30, 0.15), range(1, 21)),
    ((100, 3, 512), (0.10, 0.30, 0.1), range(1, 11)),
], TARGETS)

#: 40 populations at 6 targets: 240 cases; (r, flip), 128 degrees of
#: freedom each
CORRELATED_LIST = (correlated, [
    ((150, 4, 1024), (8, 0.15), range(1, 11)),
    ((80, 4, 2048), (16, 0.15), range(1, 11)),
    ((60, 5, 512), (4, 0.2), range(1, 21)),
], TARGETS)


def true_rates(bands, score, genuine, imposter) -> tuple[float, float]:
    """The true FAR(p) and FRR(n) of pmfs over the score lattice."""
    return (float(imposter[score >= bands.p].sum()),
            float(genuine[~(score >= bands.n)].sum()))


@dataclass(frozen=True)
class Outcome:
    """One case: the true rates at the bands derived for target, or None
    for both where the target was unachievable."""

    population: tuple[int, int, int]
    params: object
    seed: int
    target: float
    far: float | None
    frr: float | None

    @property
    def missed(self) -> bool:
        return self.far is not None and not (self.far < self.target
                                             and self.frr < self.target)


def outcomes(model, cases, targets) -> list[Outcome]:
    """Every (population, parameters, seed) of cases at every target."""
    out = []
    for population, params, seeds in cases:
        for seed in seeds:
            samples, pmfs = model(population, params, seed)
            curves = empirical_curves(samples)
            for target in targets:
                try:
                    bands = derive_bands(curves, target)
                except UnachievableTargetError:
                    rates = None, None
                else:
                    rates = true_rates(bands, *pmfs)
                out.append(Outcome(population, params, seed, target, *rates))
    return out


def tally(results) -> tuple[int, int, int]:
    """(cases that give bands, of them missed, unachievable cases)."""
    given = sum(o.far is not None for o in results)
    return given, sum(o.missed for o in results), len(results) - given
