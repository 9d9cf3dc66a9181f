"""Command-line front end.

Subcommands: algebra (tables, self-checks, entropy, chains), calibrate,
simulate, decide, enroll, curves. Exit codes: 0 success, 1 verification or
protocol failure, 2 usage or parse error. Failures print one
machine-readable `error=<token> detail=<text>` line on stderr, with any line
break in the detail escaped; an argument the parser refuses is
`error=usage`, with argparse's message as the detail.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import calibration, enrollment, octal_algebra
from .calibration import UnachievableTargetError
from .decision_engine import Claim, Polarity, decide

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


# the characters str.splitlines splits on, each mapped to its escape
_LINE_BREAKS = {ord(c): repr(c)[1:-1]
                for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _fail(token: str, detail: str, code: int) -> int:
    print(f"error={token} detail={detail.translate(_LINE_BREAKS)}",
          file=sys.stderr)
    return code


def _one_line(value: str) -> str:
    """The value of an id option, which is printed inside one-line
    records; a value holding a line break is refused."""
    if value.translate(_LINE_BREAKS) != value:
        raise argparse.ArgumentTypeError(f"{value!r} holds a line break")
    return value


class _Parser(argparse.ArgumentParser):
    """A parser that raises its errors instead of printing usage and
    exiting; subparsers are built from the same class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _require_distinct(out_path: str, in_paths: list[str]) -> None:
    # atomic_write replaces the file a symbolic link points to
    resolved = {os.path.realpath(p) for p in in_paths}
    if os.path.realpath(out_path) in resolved:
        raise ValueError(f"output path {out_path!r} is also an input path")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with calibration.atomic_write(out_path) as fh:
            fh.write(text)


def cmd_algebra(args) -> int:
    all_ok = True
    if args.what == "table":
        text = octal_algebra.table_csv(args.op)
    elif args.what == "entropy":
        text = "a,e_product,e_sum\n" + "".join(
            f"{int(a)},{octal_algebra.entropy(a, 'product')},"
            f"{octal_algebra.entropy(a, 'sum')}\n"
            for a in octal_algebra.ELEMENTS)
    elif args.what == "chains":
        text = octal_algebra.chains_csv()
    else:   # args.what == "verify"
        checks = octal_algebra.verification_checks()
        all_ok = all(ok for _, _, ok in checks)
        text = "".join(f"check={name} cases={cases} "
                       f"result={'ok' if ok else 'FAIL'}\n"
                       for name, cases, ok in checks)
        text += f"result={'pass' if all_ok else 'fail'}\n"
    _emit(text, args.out)
    where = "above" if args.out is None else f"in {args.out}"
    return EXIT_OK if all_ok else _fail(
        "algebra_check_failed", f"see check lines {where}", EXIT_FAILURE)


def _read_curves(args) -> calibration.RateCurves:
    samples = calibration.read_scores_csv(args.scores)
    return calibration.empirical_curves(samples)


def _fields(record) -> list[str]:
    return [f"{name}={value!r}" for name, value in asdict(record).items()]


def cmd_calibrate(args) -> int:
    _require_distinct(args.out, [args.scores])
    if args.curves_out is not None:
        _require_distinct(args.curves_out, [args.scores, args.out])
    curves = _read_curves(args)
    bands = calibration.derive_bands(curves, args.target)
    # the bands file is replaced only once the curves file is, so an output
    # that cannot be written leaves both files as they were
    with calibration.atomic_write(args.out) as fh:
        fh.write(calibration.bands_to_json(bands))
        fh.flush()   # a full device fails here, before the curves file
        if args.curves_out is not None:
            calibration.write_curves_csv(curves, args.curves_out)
    report = calibration.comfort_report(curves, bands)
    print(" ".join(_fields(bands)), *_fields(report), sep="\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    templates = enrollment.generate_population(
        args.identities, args.samples_per, args.bits, args.flip, args.seed)
    i, j, scores = enrollment.pair_scores(templates)
    # identities compare by equality, as in a gallery's identity map
    first: dict = {}
    identity = np.array([first.setdefault(t.identity, len(first))
                         for t in templates])
    calibration.write_scores_csv(
        args.out, [t.template_id for t in templates], i, j,
        identity[i] == identity[j], scores)
    return EXIT_OK


def cmd_decide(args) -> int:
    bands = calibration.read_bands_json(args.bands)
    claim = Claim(polarity=Polarity(args.claim),
                  claimed_identity=args.identity)
    record = decide(claim, args.score, bands)
    print(record.to_record())
    return EXIT_OK


def cmd_enroll(args) -> int:
    bands = (None if args.bands is None
             else calibration.read_bands_json(args.bands))
    if os.path.exists(args.gallery):
        gallery = enrollment.load_gallery(args.gallery)
        if bands is not None and bands != gallery.bands:
            return _fail("bands_mismatch", args.bands, EXIT_USAGE)
        if args.template_id in gallery._ids:
            return _fail("duplicate_template_id", args.template_id,
                         EXIT_USAGE)
    elif bands is not None:
        gallery = enrollment.Gallery(bands=bands)
    else:
        raise ValueError("creating a new gallery requires --bands")
    if args.bit_length is not None and args.bit_length < 1:
        raise ValueError("--bit-length must be at least 1")
    payload = bytes.fromhex(args.bits_hex)
    bit_length = gallery.bit_length() or args.bit_length or len(payload) * 8
    if args.bit_length not in (None, bit_length):
        raise ValueError(f"--bit-length {args.bit_length} differs from the "
                         f"gallery's bit length {bit_length}")
    candidate = enrollment.Template(
        bits=enrollment.bits_from_hex(args.bits_hex, bit_length),
        identity=args.identity, template_id=args.template_id)
    result = enrollment.enroll(gallery, candidate)
    if not result.accepted:
        return _fail("unenrollable",
                     "conflicting_ids=" + ",".join(result.conflicting_ids),
                     EXIT_FAILURE)
    enrollment.save_gallery(gallery, args.gallery)
    print(f"enrolled={candidate.template_id} "
          f"gallery_size={len(gallery.enrolled)}")
    return EXIT_OK


def cmd_curves(args) -> int:
    _require_distinct(args.out, [args.scores])
    calibration.write_curves_csv(_read_curves(args), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="irislogic",
        description="Eight-valued decision algebra, calibration and "
                    "gated enrollment for binary-template verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    scores = _Parser(add_help=False)
    scores.add_argument("--scores", required=True)

    p_alg = sub.add_parser("algebra",
                           help="operation tables and exhaustive self-checks")
    p_alg.add_argument("what", choices=["table", "verify", "entropy",
                                        "chains"])
    p_alg.add_argument("--op", choices=["product", "sum"], default="product")
    p_alg.add_argument("--out", default=None, help="write to file instead "
                                                   "of stdout")

    p_cal = sub.add_parser("calibrate", parents=[scores],
                           help="derive operating thresholds from scores")
    p_cal.add_argument("--target", type=float, required=True)
    p_cal.add_argument("--out", required=True, help="bands JSON path")
    p_cal.add_argument("--curves-out", default=None,
                       help="also write the rate curves CSV")

    p_sim = sub.add_parser("simulate",
                           help="generate a synthetic labeled-scores CSV")
    p_sim.add_argument("--identities", type=int, required=True)
    p_sim.add_argument("--samples-per", type=int, required=True)
    p_sim.add_argument("--bits", type=int, default=1024)
    p_sim.add_argument("--flip", type=float, default=0.15)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)

    p_dec = sub.add_parser("decide", help="adjudicate one claim and score")
    p_dec.add_argument("--bands", required=True)
    p_dec.add_argument("--claim", choices=["positive", "negative"],
                       required=True)
    p_dec.add_argument("--score", type=float, required=True)
    p_dec.add_argument("--identity", type=_one_line, default="X")

    p_enr = sub.add_parser("enroll",
                           help="gate one candidate into a gallery file")
    p_enr.add_argument("--gallery", required=True)
    p_enr.add_argument("--bands", default=None,
                       help="bands JSON, required when creating the gallery")
    p_enr.add_argument("--identity", type=_one_line, required=True)
    p_enr.add_argument("--template-id", type=_one_line, required=True)
    p_enr.add_argument("--bits-hex", required=True)
    p_enr.add_argument("--bit-length", type=int, default=None,
                       help="bit length of a new gallery (default: 8 x the "
                            "payload bytes)")

    p_cur = sub.add_parser("curves", parents=[scores],
                           help="export rate curves for plotting")
    p_cur.add_argument("--out", required=True)

    return parser


# parse_args leaves the parser as it found it, so one serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except argparse.ArgumentError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    except SystemExit:   # --help, once the help text is printed
        return EXIT_OK
    try:
        # looked up per call, so a replaced cmd_* attribute is the one run
        return globals()[f"cmd_{args.command}"](args)
    except UnachievableTargetError as exc:
        return _fail("unachievable_target", str(exc), EXIT_FAILURE)
    except (ValueError, OSError) as exc:
        return _fail("invalid_input", str(exc), EXIT_USAGE)
    except MemoryError as exc:
        return _fail("out_of_memory", str(exc) or "allocation failed",
                     EXIT_FAILURE)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
