"""Batch command-line front end.

One verb per invocation; every processed input line yields one JSON object
on stdout (JSON-lines for batch files), printed as soon as it is made.  Exit
codes: 0 processed, 1 stdout closed before the output was written, 2 input
or parse error, 3 internal self-check failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .errors import CyclideError, InternalCheckError, ParseError, ZeroInput
from .pipeline import analyze
from .recognizer import TolerancePolicy
from .scalar import EXACT, FLOAT, format_scalar
from .serialize import (coefficients_to_json, error_text, parse_coefficients,
                        read_csv_coefficients)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclide",
        description="Recognize and classify Dupin cyclides from implicit "
                    "Darboux-form coefficients.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--exact", dest="mode", action="store_const",
                          const=EXACT, help="exact rational arithmetic (default)")
        mode.add_argument("--float", dest="mode", action="store_const",
                          const=FLOAT, help="floating point with tolerance")
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance for float mode "
                            "(default 1e-9; env CYCLIDE_TOL overrides)")
        p.set_defaults(mode=EXACT)

    for verb in ("recognize", "classify", "canonicalize", "j0", "to-torus"):
        p = sub.add_parser(verb, help=f"{verb} coefficient input")
        add_common(p)
        p.add_argument("input",
                       help="inline JSON object, a file path (.json lines or "
                            ".csv), or '-' for stdin")

    g = sub.add_parser("generate", help="emit exact Dupin cyclides with provenance")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--kind", choices=("quartic", "cubic", "mixed"), default="quartic")

    sub.add_parser("selftest", help="run the acceptance criteria")
    return parser


def _tolerance(args) -> TolerancePolicy:
    """Policy from --tol, else CYCLIDE_TOL, else 1e-9; ParseError unless the
    tolerance is a finite float >= 0."""
    tau = args.tol
    if tau is None:
        env = os.environ.get("CYCLIDE_TOL")
        try:
            tau = float(env) if env else 1e-9
        except ValueError:
            raise ParseError(f"CYCLIDE_TOL={env!r} is not a number") from None
    if not (math.isfinite(tau) and tau >= 0):
        raise ParseError(f"tolerance {tau!r} must be finite and >= 0")
    return TolerancePolicy(args.mode, tau)


def _parse_json(text: str, mode: str):
    """DarbouxCoefficients of one JSON object; an object nested deeper than
    the JSON decoder can follow, or an integer literal longer than the
    int-to-str digit limit, is a ParseError."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise ParseError(f"JSON integer literal too long: {exc}") from None
    return parse_coefficients(obj, mode)


def _iter_inputs(raw: str, mode: str):
    """Yield DarbouxCoefficients from inline JSON, stdin, or a file;
    input that is not UTF-8 text is a ParseError, and a leading byte-order
    mark is dropped."""
    if raw.lstrip().startswith("{"):
        yield _parse_json(raw, mode)
        return
    try:
        if raw == "-":
            text = sys.stdin.read()
        else:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None
    text = text.removeprefix("\ufeff")
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input")
    if stripped.startswith("{"):
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                yield _parse_json(line, mode)
            except (ParseError, json.JSONDecodeError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    else:
        yield from read_csv_coefficients(text, mode)


def _run_analysis(args) -> int:
    try:
        pol = _tolerance(args)
        inputs = list(_iter_inputs(args.input, args.mode))
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"cyclide: input error: {exc}", file=sys.stderr)
        return 2

    if not inputs:
        print("cyclide: input error: no coefficient rows found", file=sys.stderr)
        return 2

    want = "classify" if args.verb == "j0" else args.verb
    had_bad_input = False
    try:
        for c in inputs:
            try:
                report = analyze(c, pol, want=want)
            except ZeroInput:
                report = {"error": "zero polynomial"}
                had_bad_input = True
            except InternalCheckError:
                raise
            except CyclideError as exc:
                report = {"error": error_text(exc)}
            if args.verb == "j0":
                report = {k: report[k] for k in ("J0", "willmore", "kind", "error")
                          if k in report}
            print(json.dumps(report))
        sys.stdout.flush()
    except InternalCheckError as exc:
        print(f"cyclide: internal assertion: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader left (`| head`): the exit-time flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if had_bad_input:
        print("cyclide: input error: zero polynomial", file=sys.stderr)
        return 2
    return 0


def _run_generate(args) -> int:
    import random
    from .genkit import (generate_cubic_dupin, generate_quartic_dupin, random_motion,
                         random_quartic_seed)
    rng = random.Random(args.seed)
    for i in range(args.count):
        kind = args.kind
        if kind == "mixed":
            kind = "cubic" if rng.getrandbits(1) else "quartic"
        if kind == "quartic":
            seed = random_quartic_seed(rng)
            c = generate_quartic_dupin(seed)
            provenance = {
                "seed": args.seed, "index": i, "kind": "quartic",
                "params": {k: format_scalar(getattr(seed, k)) for k in "stum"},
                "motion": _motion_json(seed.motion),
                "lambda": format_scalar(seed.lam)}
        else:
            p = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            motion = random_motion(rng)
            c = generate_cubic_dupin(p, q, motion)
            provenance = {
                "seed": args.seed, "index": i, "kind": "cubic",
                "params": {"p": format_scalar(p), "q": format_scalar(q)},
                "motion": _motion_json(motion), "lambda": 1}
        print(json.dumps({"coefficients": coefficients_to_json(c),
                          "provenance": provenance}))
    return 0


def _motion_json(m) -> dict:
    return {"rotation": [[format_scalar(v) for v in row] for row in m.rotation],
            "translation": [format_scalar(v) for v in m.translation]}


def _run_selftest() -> int:
    from .acceptance import run_all
    results = run_all(verbose=True)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "generate":
        return _run_generate(args)
    if args.verb == "selftest":
        return _run_selftest()
    return _run_analysis(args)


if __name__ == "__main__":
    sys.exit(main())
