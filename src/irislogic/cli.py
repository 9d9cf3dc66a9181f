"""Command-line front end.

Subcommands: algebra (tables, self-checks, entropy, chains), calibrate,
simulate, decide, enroll, curves. Exit codes: 0 success, 1 verification or
protocol failure, 2 usage or parse error. Failures print one
machine-readable `error=<token> detail=<text>` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import calibration, enrollment, octal_algebra
from .calibration import UnachievableTargetError
from .decision_engine import Claim, Polarity, decide

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _fail(token: str, detail: str, code: int) -> int:
    print(f"error={token} detail={detail}", file=sys.stderr)
    return code


def _require_distinct(out_path: str, in_paths: list[str]) -> None:
    resolved = {os.path.abspath(p) for p in in_paths}
    if os.path.abspath(out_path) in resolved:
        raise ValueError(f"output path {out_path!r} is also an input path")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_algebra(args) -> int:
    if args.what == "table":
        _emit(octal_algebra.table_csv(args.op), args.out)
        return EXIT_OK
    if args.what == "entropy":
        lines = ["a,e_product,e_sum"]
        for a in octal_algebra.ELEMENTS:
            lines.append(f"{int(a)},{octal_algebra.entropy(a, 'product')},"
                         f"{octal_algebra.entropy(a, 'sum')}")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    if args.what == "chains":
        _emit(octal_algebra.chains_csv(), args.out)
        return EXIT_OK
    # args.what == "verify"
    all_ok = True
    for name, cases, ok in octal_algebra.verification_checks():
        print(f"check={name} cases={cases} result={'ok' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    print(f"result={'pass' if all_ok else 'fail'}")
    if not all_ok:
        return _fail("algebra_check_failed", "see check lines above",
                     EXIT_FAILURE)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _require_distinct(args.out, [args.scores])
    if args.curves_out is not None:
        _require_distinct(args.curves_out, [args.scores])
    samples = calibration.read_scores_csv(args.scores)
    curves = calibration.empirical_curves(samples, grid_step=args.grid_step,
                                          confidence=args.confidence)
    bands = calibration.derive_bands(curves, args.target)
    calibration.write_bands_json(bands, args.out)
    if args.curves_out is not None:
        calibration.write_curves_csv(curves, args.curves_out)
    report = calibration.comfort_report(curves, bands)
    print(f"n={bands.n!r} p={bands.p!r} target_rate={bands.target_rate!r}")
    print(f"genuine_discomfort={report.genuine_discomfort!r}")
    print(f"imposter_discomfort={report.imposter_discomfort!r}")
    print(f"total_discomfort={report.total_discomfort!r}")
    print(f"true_accept_safety={report.true_accept_safety!r}")
    print(f"false_reject_safety={report.false_reject_safety!r}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    templates = enrollment.generate_population(
        args.identities, args.samples_per, args.bits, args.flip, args.seed)
    i, j, scores = enrollment.pair_scores(templates)
    rows = ((f"{templates[a].template_id}:{templates[b].template_id}",
             calibration.GENUINE_LABEL
             if templates[a].identity == templates[b].identity
             else calibration.IMPOSTER_LABEL,
             s)
            for a, b, s in zip(i.tolist(), j.tolist(), scores.tolist()))
    calibration.write_scores_csv(args.out, rows)
    return EXIT_OK


def cmd_decide(args) -> int:
    bands = calibration.read_bands_json(args.bands)
    claim = Claim(polarity=Polarity(args.claim),
                  claimed_identity=args.identity)
    record = decide(claim, args.score, bands)
    print(record.to_record())
    return EXIT_OK


def cmd_enroll(args) -> int:
    bands = args.bands and calibration.read_bands_json(args.bands)
    if os.path.exists(args.gallery):
        gallery = enrollment.load_gallery(args.gallery)
        if bands and bands != gallery.bands:
            return _fail("bands_mismatch", args.bands, EXIT_USAGE)
        if any(t.template_id == args.template_id for t in gallery.enrolled):
            return _fail("duplicate_template_id", args.template_id,
                         EXIT_USAGE)
    elif bands:
        gallery = enrollment.Gallery(bands=bands)
    else:
        raise ValueError("creating a new gallery requires --bands")
    payload = bytes.fromhex(args.bits_hex)
    bit_length = gallery.bit_length() or len(payload) * 8
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
    samples = calibration.read_scores_csv(args.scores)
    curves = calibration.empirical_curves(samples, grid_step=args.grid_step,
                                          confidence=args.confidence)
    calibration.write_curves_csv(curves, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irislogic",
        description="Eight-valued decision algebra, calibration and "
                    "gated enrollment for binary-template verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra",
                           help="operation tables and exhaustive self-checks")
    p_alg.add_argument("what", choices=["table", "verify", "entropy",
                                        "chains"])
    p_alg.add_argument("--op", choices=["product", "sum"], default="product")
    p_alg.add_argument("--out", default=None, help="write to file instead "
                                                   "of stdout")
    p_alg.set_defaults(func=cmd_algebra)

    p_cal = sub.add_parser("calibrate",
                           help="derive operating thresholds from scores")
    p_cal.add_argument("--scores", required=True)
    p_cal.add_argument("--target", type=float, required=True)
    p_cal.add_argument("--grid-step", type=float, default=1e-4)
    p_cal.add_argument("--confidence", type=float, default=0.95)
    p_cal.add_argument("--out", required=True, help="bands JSON path")
    p_cal.add_argument("--curves-out", default=None,
                       help="also write the rate curves CSV")
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate",
                           help="generate a synthetic labeled-scores CSV")
    p_sim.add_argument("--identities", type=int, required=True)
    p_sim.add_argument("--samples-per", type=int, required=True)
    p_sim.add_argument("--bits", type=int, default=1024)
    p_sim.add_argument("--flip", type=float, default=0.15)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_dec = sub.add_parser("decide", help="adjudicate one claim and score")
    p_dec.add_argument("--bands", required=True)
    p_dec.add_argument("--claim", choices=["positive", "negative"],
                       required=True)
    p_dec.add_argument("--score", type=float, required=True)
    p_dec.add_argument("--identity", default="X")
    p_dec.set_defaults(func=cmd_decide)

    p_enr = sub.add_parser("enroll",
                           help="gate one candidate into a gallery file")
    p_enr.add_argument("--gallery", required=True)
    p_enr.add_argument("--bands", default=None,
                       help="bands JSON, required when creating the gallery")
    p_enr.add_argument("--identity", required=True)
    p_enr.add_argument("--template-id", required=True)
    p_enr.add_argument("--bits-hex", required=True)
    p_enr.set_defaults(func=cmd_enroll)

    p_cur = sub.add_parser("curves", help="export rate curves for plotting")
    p_cur.add_argument("--scores", required=True)
    p_cur.add_argument("--grid-step", type=float, default=1e-4)
    p_cur.add_argument("--confidence", type=float, default=0.95)
    p_cur.add_argument("--out", required=True)
    p_cur.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UnachievableTargetError as exc:
        return _fail("unachievable_target", str(exc), EXIT_FAILURE)
    except (ValueError, OSError) as exc:
        return _fail("invalid_input", str(exc), EXIT_USAGE)


def run() -> None:
    sys.exit(main())
