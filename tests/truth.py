"""Exact truth for calibration claims on simulate's i.i.d. model.

generate_population draws each sample bit as its identity's uniform master
bit, flipped independently with probability f. So the agreements of two
L-bit templates follow exact binomials: Bin(L, 1/2) between identities and
Bin(L, 1 - 2f(1 - f)) within one (two samples agree where both or neither
flipped). The pmfs sit on the score lattice k/L, with scipy.stats.binom as
the oracle, and the true rates at derived bands are read off them through
the curves' rule: an accept is a score >= p, a reject a score < n.

Two case lists, each a list of (population, flip, seeds) and its targets:
the roadmap list the envelope variants were chosen on, and a held-out list
they were not.
"""

from dataclasses import dataclass

import numpy as np

from irislogic.calibration import (LabeledScores, UnachievableTargetError,
                                   derive_bands, empirical_curves)
from irislogic.enrollment import generate_population, pair_scores

#: 78 populations at 4 targets: 312 cases
ROADMAP_LIST = ([
    ((80, 4, 1024), 0.15, range(1, 11)),
    ((50, 10, 1024), 0.15, range(801, 806)),
    ((60, 4, 256), 0.15, range(1, 21)),
    ((30, 3, 128), 0.25, range(1, 21)),
    ((20, 5, 64), 0.2, range(1, 21)),
    ((250, 4, 256), 0.3, range(1, 4)),
], (1e-2, 1e-3, 1e-4, 1e-6))

#: 78 populations at 6 targets: 468 cases
HELD_OUT_LIST = ([
    ((40, 5, 128), 0.2, range(101, 121)),
    ((100, 3, 512), 0.2, range(101, 111)),
    ((30, 4, 96), 0.25, range(101, 121)),
    ((150, 2, 1024), 0.1, range(101, 106)),
    ((25, 6, 48), 0.15, range(101, 121)),
    ((120, 4, 200), 0.3, range(101, 104)),
], (3e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6))


def iid_pmfs(bit_length: int, flip: float):
    """(scores k/L, genuine pmf, imposter pmf) over k = 0..L."""
    from scipy import stats
    k = np.arange(bit_length + 1)
    return (k / bit_length,
            stats.binom.pmf(k, bit_length, 1.0 - 2.0 * flip * (1.0 - flip)),
            stats.binom.pmf(k, bit_length, 0.5))


def true_rates(bands, bit_length: int, flip: float) -> tuple[float, float]:
    """The true FAR(p) and FRR(n) of the i.i.d. model at bands."""
    score, genuine, imposter = iid_pmfs(bit_length, flip)
    return (float(imposter[score >= bands.p].sum()),
            float(genuine[~(score >= bands.n)].sum()))


def iid_curves(population, flip: float, seed: int):
    """The empirical curves of one generated population's labelled pairs."""
    templates = generate_population(*population, flip, seed=seed)
    i, j, scores = pair_scores(templates)
    identity = np.array([t.identity for t in templates])
    same = identity[i] == identity[j]
    return empirical_curves(LabeledScores(genuine=scores[same],
                                          imposter=scores[~same]))


@dataclass(frozen=True)
class Outcome:
    """One case: the true rates at the bands derived for target, or None
    for both where the target was unachievable."""

    population: tuple[int, int, int]
    flip: float
    seed: int
    target: float
    far: float | None
    frr: float | None

    @property
    def missed(self) -> bool:
        return self.far is not None and not (self.far < self.target
                                             and self.frr < self.target)


def iid_outcomes(populations, targets) -> list[Outcome]:
    """Every (population, flip, seed) of populations at every target."""
    out = []
    for population, flip, seeds in populations:
        for seed in seeds:
            curves = iid_curves(population, flip, seed)
            for target in targets:
                try:
                    bands = derive_bands(curves, target)
                except UnachievableTargetError:
                    rates = None, None
                else:
                    rates = true_rates(bands, population[2], flip)
                out.append(Outcome(population, flip, seed, target, *rates))
    return out


def tally(outcomes) -> tuple[int, int, int]:
    """(cases that give bands, of them missed, unachievable cases)."""
    given = sum(o.far is not None for o in outcomes)
    return given, sum(o.missed for o in outcomes), len(outcomes) - given
