"""Command line driver.

Loads geometry, automorphism, and one-form files, dispatches the checks,
and emits reports.  Each subcommand's handler takes the parsed arguments
and the tolerance and returns its report; ``main`` alone reads the
tolerance, starts the clock and emits the report.  Exit code 0 means every
check passed, 1 means at least one failed, 2 means the input could not be
used (unknown command, missing or malformed file, dimension mismatch).

``verify`` and ``fluctuate`` read their twist the same way: a
twist-by-grading marker file carries its own, which ``--rho`` may not
override; a plain geometry takes it from ``--rho``.

Reports print as text by default; ``--report json`` emits the full
precision record instead.  JSON output is deterministic for fixed inputs
(the wall time appears only in the text form).  ``--tol`` sets the
relative tolerance of a run; without it the default applies.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .algebra import Algebra, join_double
from .clifford import MAX_M, charge_conjugation, gamma, grading_product
from .fluct import TwistedOneForm, verify_fluctuated
from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    anticommutator,
    dagger,
    fro,
    pair_residual,
    sign_fits,
    tightest,
    worst,
)
from .mintwist import (
    free_dirac_pointwise,
    gamma_tilde_diagnostics,
    twist_by_grading,
    uniqueness_engine,
)
from .report import Report
from .serialize import (
    automorphism_from_json,
    dump_json,
    geometry_from_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    one_form_from_json,
    twisted_from_json,
    twisted_marker_to_json,
)
from .sm import (
    DEFAULT_MAJORANA,
    DEFAULT_YUKAWAS,
    generalized_minimal_twist_check,
    label_swap_check,
    sm_first_order_report,
    sm_order_zero_report,
    twisted_sm_geometry,
    verify_sm_twisted,
)
from .triple import verify_spectral_triple
from .twist import TwistedGeometry, verify_twisted


def _emit(report: Report, args, started: float) -> int:
    """Print the report and map it to an exit code.

    --out receives the report unless the handler wrote its own artifact
    there and recorded it as ``info["written"]``.
    """
    report.info["command"] = " ".join(args.command_echo)
    payload = report.to_json()
    if args.out and "written" not in report.info:
        with open(args.out, "w") as fh:
            fh.write(payload)
            fh.write("\n")
    if args.report == "json":
        print(payload)
    else:
        print(report.format_text())
        print(f"wall time: {time.perf_counter() - started:.3f}s")
    return 0 if report.ok else 1


def _gamma_report(m: int, tol: Tolerance) -> Report:
    data = gamma(m)
    rep = Report(f"gamma matrices, m={m} (dimension {data.dim})")
    n = data.dim
    eye = np.eye(n)
    r_sa = worst(fro(g - dagger(g)) for g in data.gammas)
    rep.check("each gamma self-adjoint", r_sa, tol, 1.0)
    r_sq = worst(fro(g @ g - eye) for g in data.gammas)
    rep.check("each gamma squares to one", r_sq, tol, 1.0)
    r_ac = worst(
        fro(anticommutator(gi, gj))
        for i, gi in enumerate(data.gammas)
        for gj in data.gammas[i + 1 :]
    )
    rep.check("distinct gammas anticommute", r_ac, tol, 1.0)
    rep.check(
        "grading is the signed product of the gammas",
        fro(data.grading - grading_product(data)),
        tol,
        1.0,
    )
    rep.check(
        "grading anticommutes with every gamma",
        worst(fro(anticommutator(data.grading, g)) for g in data.gammas),
        tol,
        1.0,
    )
    cc = charge_conjugation(m, tol)
    rep.add(
        "charge conjugation signs",
        *tightest(sign_fits((cc.eps, cc.eps_dblprime), cc.evidence)),
        note=f"eps={cc.eps}, eps''={cc.eps_dblprime}, branch {cc.branch()}",
    )
    return rep


def cmd_gamma(args, tol: Tolerance) -> Report:
    data = gamma(args.m)
    rep = _gamma_report(args.m, tol)
    if args.report == "text":
        names = [f"gamma^{i + 1}" for i in range(2 * args.m)] + ["grading"]
        mats = list(data.gammas) + [data.grading]
        for name, mat in zip(names, mats):
            print(f"{name} =")
            print(np.array2string(mat, precision=3, suppress_small=True))
    if args.out:
        dump_json(
            {
                "m": args.m,
                "gammas": [matrix_to_json(g) for g in data.gammas],
                "grading": matrix_to_json(data.grading),
            },
            args.out,
        )
        rep.info["written"] = args.out
    return rep


def _twisted(obj: dict, rho_path: str | None) -> TwistedGeometry | None:
    """The twisted geometry of a loaded geometry file, or None without a twist.

    A marker file carries its own twist; a plain geometry takes --rho.
    """
    if obj.get("kind") == "twist-by-grading":
        if rho_path is not None:
            raise ValueError("twisted geometry files carry their own twist; drop --rho")
        return twisted_from_json(obj)
    if rho_path is None:
        return None
    return TwistedGeometry(
        geometry_from_json(obj), automorphism_from_json(load_json(rho_path))
    )


def cmd_verify(args, tol: Tolerance) -> Report:
    obj = load_json(args.geometry)
    tg = _twisted(obj, args.rho)
    if tg is None:
        return verify_spectral_triple(geometry_from_json(obj), tol)
    return verify_twisted(tg, tol)


def cmd_twist_by_grading(args, tol: Tolerance) -> Report:
    g = geometry_from_json(load_json(args.geometry))
    tg = twist_by_grading(g, tol)
    rep = verify_twisted(tg, tol)
    rep.info["u_rho_attached"] = tg.rho.u_rho is not None
    if args.out:
        dump_json(twisted_marker_to_json(g), args.out)
        rep.info["written"] = args.out
    return rep


def cmd_fluctuate(args, tol: Tolerance) -> Report:
    tg = _twisted(load_json(args.geometry), args.rho)
    if tg is None:
        raise ValueError("fluctuate needs --rho unless the file carries a twist")
    terms = one_form_from_json(tg.algebra, load_json(args.form))
    return verify_fluctuated(tg, TwistedOneForm.of(*terms), tol)


def cmd_uniqueness(args, tol: Tolerance) -> Report:
    return uniqueness_engine(args.m, tol)


def cmd_free_dirac(args, tol: Tolerance) -> Report:
    if args.samples:
        mat = matrix_from_json(load_json(args.samples))
        if mat.shape != (2 * args.m, 2):
            raise ValueError(
                f"samples must be {2 * args.m}x2 (one (f, g) pair per direction), "
                f"got {mat.shape[0]}x{mat.shape[1]}"
            )
        samples = mat
    else:
        rng = np.random.default_rng(args.seed)
        samples = rng.standard_normal((2 * args.m, 2)) + 1j * rng.standard_normal(
            (2 * args.m, 2)
        )
    return free_dirac_pointwise(args.m, samples, tol)


def cmd_gamma_tilde(args, tol: Tolerance) -> Report:
    tg = twisted_from_json(load_json(args.twisted))
    diag = gamma_tilde_diagnostics(tg, tol=tol)
    rep = Report("doubling involution of a twisted geometry")
    rep.add("self-adjoint involution", *diag.involution)
    scale = max(1.0, fro(diag.gamma_tilde)) ** 2
    rep.check(
        "commutes with the represented algebra", diag.commutes_with_rep, tol, scale
    )
    rep.check(
        "anticommutes with D (is a grading)",
        diag.anticommutator_with_dirac,
        tol,
        max(1.0, fro(tg.geometry.dirac)),
    )
    rep.add(
        "equals the grading of the input geometry",
        *diag.input_grading,
        note="exact for a twist by grading",
    )
    # the pair (a, b) acts as P+ pi0(a) + P- pi0(b), so commuting with the
    # doubled algebra is commuting with the first copy and the projectors
    gam, alg = tg.geometry.grading, tg.algebra
    first = Algebra(alg.components[: alg.ncomponents // 2])
    one, zero = first.unit(), first.zero()
    side_b = [join_double(a, a) for a in first.generators()]
    side_b += [join_double(one, zero), join_double(zero, one)]
    pi = tg.geometry.rep
    scale = pi.generator_scale * max(1.0, fro(gam))
    rep.check(
        "grading commutes with the doubled algebra",
        pair_residual([gam], pi.generator_images),
        tol,
        scale,
    )
    rep.check(
        "grading commutes with the first copy and the projectors",
        pair_residual([gam], pi.images(alg.coord_rows(side_b))),
        tol,
        scale,
    )
    return rep


def _parse_complex_list(text: str, count: int, what: str) -> list[complex]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated values")
    try:
        values = [complex(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad {what} value: {exc}") from exc
    if not np.isfinite(values).all():
        raise ValueError(f"{what} values must be finite, got {text}")
    return values


def cmd_sm(args, tol: Tolerance) -> Report:
    yukawas = dict(DEFAULT_YUKAWAS)
    if args.yukawa:
        y_nu, y_e, y_u, y_d = _parse_complex_list(args.yukawa, 4, "--yukawa")
        yukawas = {"nu": y_nu, "e": y_e, "up": y_u, "down": y_d}
    majorana = DEFAULT_MAJORANA
    if args.majorana:
        (majorana,) = _parse_complex_list(args.majorana, 1, "--majorana")

    tg = twisted_sm_geometry(yukawas, majorana)
    if args.check == "all":
        return verify_sm_twisted(tg, tol)
    if args.check == "zero-order":
        return sm_order_zero_report(tg, tol)
    if args.check == "first-order":
        return sm_first_order_report(tg, tol)
    rep = generalized_minimal_twist_check(tg, tol)  # recovery
    rep.merge(label_swap_check(tg, tol), prefix="labels: ")
    return rep


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=DEFAULT_TOL.rel, help="relative tolerance"
    )
    common.add_argument(
        "--report", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument("--out", default=None, help="write output to this file")

    parser = argparse.ArgumentParser(
        prog="nctwist", description="twisted finite geometry toolbox"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gamma", parents=[common], help="build gamma matrices")
    p.add_argument("--m", type=int, required=True, help=f"half-dimension, 1..{MAX_M}")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("verify", parents=[common], help="verify a geometry file")
    p.add_argument("geometry", help="geometry JSON file")
    p.add_argument("--rho", default=None, help="automorphism JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "twist-by-grading", parents=[common], help="double and twist a geometry"
    )
    p.add_argument("geometry", help="geometry JSON file (graded)")
    p.set_defaults(func=cmd_twist_by_grading)

    p = sub.add_parser(
        "fluctuate", parents=[common], help="fluctuate by a twisted one-form"
    )
    p.add_argument("geometry", help="geometry JSON file")
    p.add_argument("--rho", default=None, help="automorphism JSON file")
    p.add_argument("--form", required=True, help="one-form JSON file")
    p.set_defaults(func=cmd_fluctuate)

    p = sub.add_parser(
        "uniqueness", parents=[common], help="dimension of the gamma intertwiner space"
    )
    p.add_argument(
        "--m", type=int, required=True, help=f"half-dimension, 1..{MAX_M}"
    )
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser(
        "free-dirac", parents=[common], help="pointwise free Dirac twist analysis"
    )
    p.add_argument("--m", type=int, required=True, help=f"half-dimension, 1..{MAX_M}")
    p.add_argument("--samples", default=None, help="2m x 2 coefficient matrix JSON")
    p.add_argument("--seed", type=int, default=0, help="seed of drawn samples")
    p.set_defaults(func=cmd_free_dirac)

    p = sub.add_parser(
        "gamma-tilde", parents=[common], help="doubling involution diagnostics"
    )
    p.add_argument("twisted", help="twist-by-grading JSON file")
    p.set_defaults(func=cmd_gamma_tilde)

    p = sub.add_parser(
        "sm", parents=[common], help="standard model finite and twisted checks"
    )
    p.add_argument("--yukawa", default=None, help="y_nu,y_e,y_u,y_d (complex)")
    p.add_argument("--majorana", default=None, help="y_R (complex)")
    p.add_argument(
        "--check",
        choices=("all", "zero-order", "first-order", "recovery"),
        default="all",
    )
    p.set_defaults(func=cmd_sm)
    return parser


# flags whose value may start with "-" (a negative complex such as
# -1.0-0.2j), which argparse would otherwise read as an option
_SIGNED_VALUE_FLAGS = ("--yukawa", "--majorana")


def _glue_signed_values(argv: list[str]) -> list[str]:
    """``--flag -value`` as ``--flag=-value`` for the signed-value flags."""
    out = []
    for tok in argv:
        signed = tok.startswith("-") and not tok.startswith("--")
        if signed and out and out[-1] in _SIGNED_VALUE_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_signed_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help; keep its code
        return int(exc.code or 0)
    args.command_echo = ["nctwist"] + argv
    try:
        started = time.perf_counter()
        tol = Tolerance(rel=args.tol, abs=DEFAULT_TOL.abs)
        return _emit(args.func(args, tol), args, started)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a directory or an unwritable path given to --out, or read as input
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
