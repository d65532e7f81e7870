"""Command line interface.

Subcommands cover the library surface: orbit enumeration, Gamma tables,
exponent words, the reducibility predicate, brute-force singular vectors,
end-to-end factor-product verification, and the factor identity suites.
Output is a JSON report (schema rank2verma-report/1, see
docs/report_schema.md) or CSV rows; all rationals are serialized as exact
strings like "3/2".  Exit codes: 0 success, 1 a verification failed,
2 invalid configuration.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
from fractions import Fraction

from .cartan import (
    CartanData,
    RootVector,
    orbit,
)
from .freealg import GradeCapExceeded, _fraction_str, grade_cap, word_str
from .gamma import (
    GENERIC_T_SAMPLES,
    GammaTable,
    WeightParam,
    change_of_variable,
    exponent_word,
    ffm_exponents,
    gamma,
    kac_kazhdan,
    random_rational,
    trajectory_exponent_word,
    xi_of_mt,
)
from .pbw import TARGETS, factor_shift_identities, projection_defined
from .products import end_to_end
from .verma import annihilates, singular_vectors

SCHEMA = "rank2verma-report/1"


def _rat(x) -> str | None:
    return None if x is None else str(Fraction(x))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expected 'a,b', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(f"{flag} expects two integers 'a,b', got {text!r}") from None


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    return values


def _require_at_least(value: int, least: int, flag: str) -> None:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


def _weight_from_args(args) -> WeightParam:
    w = WeightParam(_parse_fraction(args.x), _parse_fraction(args.y), args.coords == "shifted")
    return w


def cmd_orbit(args) -> tuple[dict, list[dict], int]:
    cartan = CartanData(args.p, args.q)
    start = RootVector(*_parse_pair(args.start, "--start"))
    expected = cartan.q if start.as_pair() == (1, 0) else cartan.p
    rows = []
    ok = True
    for idx, op in enumerate(orbit(start, args.depth, cartan)):
        cv = op.point.curve_value(cartan)
        ok = ok and cv == expected
        rows.append(
            {
                "index": idx,
                "k1": op.point.k1,
                "k2": op.point.k2,
                "case": op.case,
                "n": op.n,
                "word": str(op.word),
                "curve_value": cv,
            }
        )
    params = {
        "p": args.p,
        "q": args.q,
        "start": args.start,
        "depth": args.depth,
        "expected_invariant": expected,
    }
    return ({"params": params, "results": rows}, rows, 0 if ok else 1)


def cmd_gamma(args) -> tuple[dict, list[dict], int]:
    cartan = CartanData(args.p, args.q)
    _require_at_least(args.kmax, 0, "--kmax")
    table = GammaTable(cartan)
    rows = []
    ok = True
    for k in range(args.kmax + 1):
        rec_g1, rec_g2 = table.entry(k)
        bin_g1, bin_g2 = gamma(k, cartan)
        agree = (rec_g1, rec_g2) == (bin_g1, bin_g2)
        ok = ok and agree
        rows.append(
            {
                "k": k,
                "g1": rec_g1,
                "g2": rec_g2,
                "binomial_g1": bin_g1,
                "binomial_g2": bin_g2,
                "agree": agree,
            }
        )
    params = {"p": args.p, "q": args.q, "kmax": args.kmax}
    return ({"params": params, "results": rows}, rows, 0 if ok else 1)


def cmd_exponents(args) -> tuple[dict, list[dict], int]:
    if args.t is not None and args.variable != "t":
        raise ValueError("--t needs --variable t")
    if args.xi is not None and args.variable != "xi":
        raise ValueError("--xi needs --variable xi (the default is --variable t)")
    if args.m is None and (args.t is not None or args.xi is not None):
        raise ValueError(f"{'--t' if args.t is not None else '--xi'} needs --m to be evaluated")
    if args.m is not None:
        _require_at_least(args.m, 1, "--m")
    cartan = CartanData(args.p, args.q)
    data = ffm_exponents(args.case, args.n, cartan)
    word = data.exponents
    match = trajectory_exponent_word(args.case, args.n, cartan).exponents == word.exponents
    xi_form = xi_of_mt(args.case, args.n, cartan)
    degenerate = False
    if args.variable == "xi":
        word, xi_form = change_of_variable(word, cartan)
        degenerate = word.degenerate_rewrite
    t = None if args.t is None else _parse_fraction(args.t)
    xi_value = None if args.xi is None else _parse_fraction(args.xi)
    value = t if args.variable == "t" else xi_value
    rows = []
    for pos, (letter, form) in enumerate(zip(word.letters, word.exponents), start=1):
        row = {"pos": pos, "letter": letter, "exponent": str(form)}
        if value is not None:
            row["value"] = _rat(form.at(args.m, value))
        rows.append(row)
    weight = data.weight
    params = {
        "p": args.p,
        "q": args.q,
        "case": args.case,
        "n": args.n,
        "variable": args.variable,
        "m": args.m,
        "t": _rat(t),
        "xi": _rat(xi_value),
    }
    payload = {
        "params": params,
        "root": {"k1": data.root.k1, "k2": data.root.k2},
        "reflection_word": str(data.word),
        "weight_shifted": {"x": str(weight.x), "y": str(weight.y)},
        "xi_of_mt": None if xi_form is None else str(xi_form),
        "degenerate_rewrite": degenerate,
        "trajectory_match": match,
        "results": rows,
    }
    if t is not None:
        wv = weight.at(args.m, t)
        payload["weight_shifted_value"] = {"x": _rat(wv.x), "y": _rat(wv.y)}
    return (payload, rows, 0 if match else 1)


def cmd_kk(args) -> tuple[dict, list[dict], int]:
    cartan = CartanData(args.p, args.q)
    root = RootVector(*_parse_pair(args.root, "--root"))
    weight = _weight_from_args(args)
    on_line = kac_kazhdan(weight, root, args.m, cartan)
    rows = [{"on_line": on_line}]
    params = {
        "p": args.p,
        "q": args.q,
        "root": args.root,
        "m": args.m,
        "x": _rat(_parse_fraction(args.x)),
        "y": _rat(_parse_fraction(args.y)),
        "coords": args.coords,
    }
    return ({"params": params, "results": rows}, rows, 0)


def cmd_singular(args) -> tuple[dict, list[dict], int]:
    cartan = CartanData(args.p, args.q)
    root = RootVector(*_parse_pair(args.root, "--root"))
    weight = _weight_from_args(args)
    res = singular_vectors(weight, root, args.m, cartan)
    rows = []
    all_annihilated = True
    for vi, vec in enumerate(res.vectors):
        ann = annihilates(vec, weight, cartan)
        all_annihilated = all_annihilated and ann
        den, nums = vec.integer_form()
        for w in sorted(nums):
            rows.append(
                {
                    "vector": vi,
                    "word": "".join(map(str, w)),
                    "pretty": word_str(w),
                    "coeff": _fraction_str(nums[w], den),
                    "annihilated": ann,
                }
            )
    params = {
        "p": args.p,
        "q": args.q,
        "root": args.root,
        "m": args.m,
        "x": _rat(_parse_fraction(args.x)),
        "y": _rat(_parse_fraction(args.y)),
        "coords": args.coords,
    }
    payload = {
        "params": params,
        "summary": {
            "grade": {"g1": res.grade[0], "g2": res.grade[1]},
            "quotient_dim": res.quotient_dim,
            "kernel_dim": res.kernel_dim,
            "on_line": res.on_line,
            "annihilated": all_annihilated,
        },
        "results": rows,
    }
    return (payload, rows, 0 if all_annihilated else 1)


def _weight_doc(weight) -> dict | None:
    return None if weight is None else {"x": _rat(weight.x), "y": _rat(weight.y)}


def _element_doc(elem, sep: str) -> dict | None:
    """{key: coefficient text} of an element, each key's entries joined by sep."""
    if elem is None:
        return None
    den, nums = elem.integer_form()
    return {sep.join(map(str, k)): _fraction_str(nums[k], den) for k in sorted(nums)}


def _vector_doc(vec) -> dict | None:
    return _element_doc(vec, "")


def _pbw_doc(elem) -> dict | None:
    return _element_doc(elem, ",")


# fixed parameter grid for the verify-time identity pass
_IDENTITY_PARAMS = (
    (0, 1, Fraction(1, 2), 1),
    (1, 2, Fraction(-3, 5), 2),
    (2, 3, Fraction(7, 3), 3),
)


def cmd_verify(args) -> tuple[dict, list[dict], int]:
    cartan = CartanData(args.p, args.q)
    if args.targets == "auto":
        targets = None
    else:
        targets = [t.strip() for t in args.targets.split(",") if t.strip()]
        for t in targets:
            if t not in TARGETS:
                raise ValueError(f"unknown target {t!r}; use H, L, or auto")
            if not projection_defined(t, cartan):
                raise ValueError(
                    f"target {t} is undefined at (p, q) = ({args.p}, {args.q}): "
                    "the Serre relator does not project to zero (needs p >= 2 and q >= 2)"
                )
    cases = _parse_int_list(args.cases, "--cases")
    ns = _parse_int_list(args.n, "--n")
    ms = _parse_int_list(args.m, "--m")
    cap = grade_cap()
    if args.grade_cap is not None:
        _require_at_least(args.grade_cap, 1, "--grade-cap")
        cap = min(cap, args.grade_cap)
    t_samples = list(GENERIC_T_SAMPLES)
    random_t = None
    if args.seed is not None:
        random_t = random_rational(random.Random(args.seed))
        t_samples.append(random_t)

    identities_ok = True
    for target in TARGETS:
        for alpha, beta, u, n in _IDENTITY_PARAMS:
            identities_ok = identities_ok and all(
                factor_shift_identities(alpha, beta, u, n, target).values()
            )

    rows = []
    counts = {"ok": 0, "failed": 0, "nongeneric": 0, "skipped": 0}
    for case in cases:
        for n in ns:
            for m in ms:
                records = end_to_end(case, n, m, cartan, targets=targets, t_samples=tuple(t_samples), cap=cap)
                for rec in records:
                    counts[rec.status] += 1
                    rows.append(
                        {
                            "case": rec.case,
                            "n": rec.n,
                            "m": rec.m,
                            "target": rec.target,
                            "t": _rat(rec.t),
                            "xi": _rat(rec.xi),
                            "g1": rec.grade[0],
                            "g2": rec.grade[1],
                            "quotient_dim": rec.quotient_dim,
                            "kernel_dim": rec.kernel_dim,
                            "status": rec.status,
                            "scalar": _rat(rec.scalar),
                            "reason": rec.reason,
                            "weight": _weight_doc(rec.weight),
                            "vector": _vector_doc(rec.vector),
                            "projection": _pbw_doc(rec.projection),
                            "product": _pbw_doc(rec.product),
                        }
                    )
    params = {
        "p": args.p,
        "q": args.q,
        "cases": args.cases,
        "n": args.n,
        "m": args.m,
        "targets": args.targets,
        "grade_cap": args.grade_cap,
        "seed": args.seed,
        "random_t": _rat(random_t),
    }
    summary = dict(counts)
    summary["identities_ok"] = identities_ok
    payload = {"params": params, "summary": summary, "results": rows}
    return (payload, rows, 0 if counts["failed"] == 0 and identities_ok else 1)


def cmd_identities(args) -> tuple[dict, list[dict], int]:
    _require_at_least(args.alpha_max, 0, "--alpha-max")
    _require_at_least(args.beta_max, 0, "--beta-max")
    _require_at_least(args.n_max, 1, "--n-max")
    _require_at_least(args.trials, 1, "--trials")
    rng = random.Random(args.seed)
    targets = list(TARGETS) if args.target == "both" else [args.target]
    rows = []
    ok = True
    for target in targets:
        for _ in range(args.trials):
            u = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            alpha = rng.randint(0, args.alpha_max)
            beta = rng.randint(0, args.beta_max)
            n = rng.randint(1, args.n_max)
            results = factor_shift_identities(alpha, beta, u, n, target)
            for name, good in sorted(results.items()):
                ok = ok and good
                rows.append(
                    {
                        "target": target,
                        "identity": name,
                        "alpha": alpha,
                        "beta": beta,
                        "n": n,
                        "u": _rat(u),
                        "ok": good,
                    }
                )
    params = {
        "target": args.target,
        "alpha_max": args.alpha_max,
        "beta_max": args.beta_max,
        "n_max": args.n_max,
        "trials": args.trials,
        "seed": args.seed,
    }
    return ({"params": params, "results": rows}, rows, 0 if ok else 1)


def _emit(command: str, payload: dict, rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        doc = {"schema": SCHEMA, "command": command}
        doc.update(payload)
        print(json.dumps(doc, indent=2))
        return
    import csv  # here, so that JSON runs never load it

    buf = io.StringIO()
    if rows:
        # structured witness cells become compact JSON strings in CSV
        flat = [
            {k: json.dumps(v) if isinstance(v, (dict, list)) else v for k, v in row.items()}
            for row in rows
        ]
        writer = csv.DictWriter(buf, fieldnames=list(flat[0].keys()))
        writer.writeheader()
        writer.writerows(flat)
    sys.stdout.write(buf.getvalue())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank2verma",
        description="Exact singular vectors of rank-2 Verma modules and their quadratic-factor projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, pq=True):
        if pq:
            sp.add_argument("--p", type=int, required=True, help="off-diagonal Cartan entry -a12")
            sp.add_argument("--q", type=int, required=True, help="off-diagonal Cartan entry -a21")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("orbit", help="enumerate a positive half-orbit and its reflection words")
    add_common(sp)
    sp.add_argument("--start", default="1,0", help="seed root, '1,0' or '0,1'")
    sp.add_argument("--depth", type=int, default=8)
    sp.set_defaults(handler=cmd_orbit)

    sp = sub.add_parser("gamma", help="Gamma coefficient table with both computation routes")
    add_common(sp)
    sp.add_argument("--kmax", type=int, default=10)
    sp.set_defaults(handler=cmd_gamma)

    sp = sub.add_parser("exponents", help="closed-form exponent word for one orbit family")
    add_common(sp)
    sp.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--t", default=None, help="rational t value, e.g. 1/3")
    sp.add_argument("--xi", default=None, help="rational xi value (with --variable xi)")
    sp.add_argument("--variable", choices=("t", "xi"), default="t")
    sp.set_defaults(handler=cmd_exponents)

    sp = sub.add_parser("kk", help="reducibility-line predicate for a (root, m) pair")
    add_common(sp)
    sp.add_argument("--root", required=True, help="root 'a,b'")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--x", required=True, help="weight coordinate lambda(h1), rational")
    sp.add_argument("--y", required=True, help="weight coordinate lambda(h2), rational")
    sp.add_argument("--coords", choices=("shifted", "unshifted"), default="shifted")
    sp.set_defaults(handler=cmd_kk)

    sp = sub.add_parser("singular", help="brute-force singular vectors at grade m*root")
    add_common(sp)
    sp.add_argument("--root", required=True, help="root 'a,b'")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--x", required=True, help="weight coordinate lambda(h1), rational")
    sp.add_argument("--y", required=True, help="weight coordinate lambda(h2), rational")
    sp.add_argument("--coords", choices=("shifted", "unshifted"), default="shifted")
    sp.set_defaults(handler=cmd_singular)

    sp = sub.add_parser("verify", help="factor products vs projected singular vectors")
    add_common(sp)
    sp.add_argument("--cases", default="1,2,3,4", help="comma list of family cases")
    sp.add_argument("--n", default="1", help="comma list of n values")
    sp.add_argument("--m", default="1", help="comma list of m values")
    sp.add_argument("--targets", default="auto", help="auto, or comma list from {H, L}")
    sp.add_argument("--grade-cap", type=int, default=None,
                    help="skip (with reason) any case whose total grade exceeds this")
    sp.add_argument("--seed", type=int, default=None, help="adds one seeded random t sample")
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("identities", help="shift and sandwich identity suites for the quadratic factors")
    add_common(sp, pq=False)
    sp.add_argument("--target", choices=("H", "L", "both"), default="both")
    sp.add_argument("--alpha-max", type=int, default=3)
    sp.add_argument("--beta-max", type=int, default=3)
    sp.add_argument("--n-max", type=int, default=3)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, rows, code = args.handler(args)
    except (ValueError, OverflowError, GradeCapExceeded) as exc:  # FiniteTypeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args.command, payload, rows, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is left of the report, and the flush at
        # exit, go to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
