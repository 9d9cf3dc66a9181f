"""Eight-valued decision algebra, score-band calibration, and gated
enrollment for binary-template verification."""

from .calibration import (
    ComfortReport,
    LabeledScores,
    RateCurves,
    UnachievableTargetError,
    comfort_report,
    derive_bands,
    empirical_curves,
)
from .decision_engine import (
    UNDECIDABLE,
    Claim,
    DecisionRecord,
    Polarity,
    Response,
    ScoreBands,
    classify,
    decide,
    defuzzify,
    output_encoding,
    psi,
)
from .enrollment import (
    Gallery,
    Template,
    consistency_check,
    enroll,
    generate_population,
    partition,
    similarity,
    verify,
)
from .octal_algebra import (
    BitTriple,
    CubeVector,
    IntervalSet,
    ModalString,
    Octal,
    entropy,
    leq,
    maximal_chains,
    neg,
    product,
    subalgebra_closure,
    sum_,
)

__version__ = "0.1.0"

__all__ = [
    "BitTriple", "Claim", "ComfortReport", "CubeVector", "DecisionRecord",
    "Gallery", "IntervalSet", "LabeledScores", "ModalString", "Octal",
    "Polarity", "RateCurves", "Response", "ScoreBands", "Template",
    "UNDECIDABLE", "UnachievableTargetError", "classify", "comfort_report",
    "consistency_check", "decide", "defuzzify", "derive_bands",
    "empirical_curves", "enroll", "entropy", "generate_population", "leq",
    "maximal_chains", "neg", "output_encoding", "partition", "product", "psi",
    "similarity", "subalgebra_closure", "sum_", "verify",
]
