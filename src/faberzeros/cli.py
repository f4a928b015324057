"""Command-line front door.

Subcommands: faber, zeros, exp-zeros, predict, figure, verify, basis.
Formats: json, csv, pretty.  Floating-point output is printed with 17
significant digits; exact rationals are printed as decimal strings.
Identical configurations produce byte-identical output.

Exit codes: 0 success, 1 verification failed, 2 invalid input,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .errors import DomainError, NumericalError
from .faber import faber_polynomial, renormalized_coeffs
from .halfplane import OUT_OF_REGIME, _prediction_height, _prediction_line, zero_report
from .modforms import decompose_weight, miller_basis_series, miller_form_spec
from .roots import _check_tolerance, truncated_exp_inverse_zeros

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

ZERO_COLUMNS = (
    "k", "m", "D", "r",
    "t_re", "t_im", "tau_re", "tau_im", "pred_re", "pred_im",
    "abs_err", "k_times_err",
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats rendered at 17 significant digits."""
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    pad = "  " * indent
    pad_in = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{key}": {_json_text(val, indent + 1)}' for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_json_text(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"not JSON-serializable here: {type(obj)}")


def _csv_cell(value) -> str:
    # the text of a float or an int never holds a comma, a quote or a newline
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(header, rows) -> str:
    lines = [",".join(map(_csv_cell, header))]
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


def _resolve_m(m_arg: str, ell: int) -> int:
    """Resolve --m, including the last / last-N aliases, against ell."""
    if m_arg == "last":
        return ell
    match = re.fullmatch(r"last-(\d+)", m_arg)
    if match:
        m = ell - int(match.group(1))
        if m < 0:
            raise DomainError(f"alias {m_arg!r} resolves to m={m} < 0 (ell = {ell})")
        return m
    try:
        return int(m_arg)
    except ValueError:
        raise DomainError(f"invalid --m value {m_arg!r}") from None


def _even(name: str, value: int) -> int:
    if value % 2 != 0:
        raise DomainError(f"--{name} must be even, got {value}")
    return value


def _doubling_grid(k_min: int, k_max: int) -> list[int]:
    if k_min <= 0:
        raise DomainError(f"k-min must be positive, got {k_min}")
    if k_min > k_max:
        raise DomainError(f"k-min {k_min} exceeds k-max {k_max}")
    grid = []
    k = _even("k-min", k_min)
    _even("k-max", k_max)
    while k <= k_max:
        grid.append(k)
        k *= 2
    return grid


# -- subcommands -------------------------------------------------------------


def _miller_spec(args: argparse.Namespace):
    return miller_form_spec(args.k, _resolve_m(args.m, decompose_weight(args.k).ell))


def _faber_json(poly) -> dict:
    return {"k": poly.k, "m": poly.m, "D": poly.degree, "coeffs_desc": [str(c) for c in poly.coeffs]}


def cmd_faber(args: argparse.Namespace) -> int:
    poly = faber_polynomial(_miller_spec(args))
    if args.format == "json":
        _emit(_json_text(_faber_json(poly)) + "\n", args)
    elif args.format == "csv":
        rows = [(poly.k, poly.m, poly.degree, s, str(c)) for s, c in enumerate(poly.coeffs)]
        _emit(_csv_text(("k", "m", "D", "s", "x_s"), rows), args)
    else:
        _emit(f"F_{{{poly.k},{poly.m}}}(t) = {poly}\n", args)
    return EXIT_OK


def _zero_rows(report):
    rows = []
    for row in report.rows:
        if row.status == OUT_OF_REGIME:
            tau_re = tau_im = abs_err = k_err = OUT_OF_REGIME
        else:
            tau_re, tau_im = row.tau.tau.real, row.tau.tau.imag
            abs_err, k_err = row.abs_err, row.k_times_err
        rows.append(
            (
                report.k, report.m, report.degree, row.r,
                row.t.real, row.t.imag, tau_re, tau_im,
                row.tau_hat.tau.real, row.tau_hat.tau.imag,
                abs_err, k_err,
            )
        )
    return rows


def cmd_zeros(args: argparse.Namespace) -> int:
    report = zero_report(_miller_spec(args), tol=args.tol, strict=False)
    rows = _zero_rows(report)
    if args.format == "json":
        payload = [dict(zip(ZERO_COLUMNS, row)) for row in rows]
        _emit(_json_text(payload) + "\n", args)
    elif args.format == "csv":
        _emit(_csv_text(ZERO_COLUMNS, rows), args)
    else:
        lines = [f"zeros of the degree-{report.degree} Faber polynomial at k={report.k}, m={report.m}"]
        for row in rows:
            lines.append("  " + "  ".join(_csv_cell(c) for c in row[3:]))
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def _roots_json(roots) -> dict:
    return {"roots": [{"re": z.real, "im": z.imag} for z in roots.roots], "residual": roots.residual}


def cmd_exp_zeros(args: argparse.Namespace) -> int:
    roots = truncated_exp_inverse_zeros(args.degree, tol=args.tol)
    if args.format == "json":
        _emit(_json_text(_roots_json(roots)) + "\n", args)
    elif args.format == "csv":
        rows = [(args.degree, r + 1, z.real, z.imag) for r, z in enumerate(roots.roots)]
        _emit(_csv_text(("D", "r", "re", "im"), rows), args)
    else:
        lines = [f"inverse zeros of the degree-{args.degree} truncated exponential"]
        lines += [f"  z_{r + 1} = {_fmt(z.real)} + {_fmt(z.imag)}i" for r, z in enumerate(roots.roots)]
        lines.append(f"  residual {_fmt(roots.residual)}")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    _emit_points([_even("k", args.k)], args)
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    if args.degree < 1:
        raise DomainError("figure requires D >= 1 (a constant polynomial has no zeros)")
    for name, val in (("k-min", args.k_min), ("k-max", args.k_max), ("k-step", args.k_step)):
        _even(name, val)
    if args.k_min <= 0 or args.k_min > args.k_max or args.k_step <= 0:
        raise DomainError("grid requires 0 < k-min <= k-max and k-step > 0")
    _emit_points(range(args.k_min, args.k_max + 1, args.k_step), args)
    return EXIT_OK


def _emit_points(weights, args: argparse.Namespace) -> None:
    """The predicted zero of every weight and every inverse zero z_{D,r}, one row each.

    Each z_{D,r} fixes a vertical line; the weight only sets the height on it.
    So one template per weight holds r and Re for every line, with ``%d``
    for k and ``%.17g`` for each height, and one ``%`` over the repeated
    template formats every point in C: the bytes ``_json_text``/``_csv_text``
    would write for the ``(k, r, re, im)`` rows, k-major and r-minor.

    Heights grow with k, so a line that any weight refuses is refused at
    the first or the last weight: checking those two, first weight first,
    raises the error (and the message) the k-major walk meets first.
    """
    limits = truncated_exp_inverse_zeros(args.degree, tol=args.tol).roots
    tracks = [(r, *_prediction_line(z)) for r, z in enumerate(limits, 1)]
    radii = [z_abs for _, _, z_abs in tracks]
    for k in (weights[0], weights[-1]):
        for z_abs in radii:
            _prediction_height(k, z_abs)
    if args.format == "json":
        rows = [
            f'  {{\n    "k": %d,\n    "r": {r},\n    "re": {_fmt(x)},\n    "im": %.17g\n  }}'
            for r, x, _ in tracks
        ]
        head, sep, tail = "[\n", ",\n", "\n]\n"
    elif args.format == "csv":
        rows = [f"%d,{r},{_fmt(x)},%.17g" for r, x, _ in tracks]
        head, sep, tail = "k,r,re,im\n", "\n", "\n"
    else:
        rows = [f"k=%d r={r}: {_fmt(x)} + %.17gi" for r, x, _ in tracks]
        head, sep, tail = "", "\n", "\n"
    log, two_pi = math.log, 2 * math.pi
    cells = [0] * (2 * len(weights) * len(radii))
    cells[0::2] = [k for k in weights for _ in radii]
    cells[1::2] = [log(2 * k * z_abs) / two_pi for k in weights for z_abs in radii]
    template = f"{head}{sep.join([sep.join(rows)] * len(weights))}{tail}"
    _emit(template % tuple(cells), args)


def _ratios_bounded(ratios) -> bool:
    """Whether every n/d in ``ratios``, (n, d) int pairs with d > 0, is at most 3/2 of
    the first: 2 n d_0 <= 3 n_0 d, exactly, with no Fraction built."""
    n0, d0 = ratios[0]
    return all(2 * n * d0 <= 3 * n0 * d for n, d in ratios)


def cmd_verify(args: argparse.Namespace) -> int:
    """Monitor k * deviation sequences over a doubling grid.

    Coefficient rows track k * |x_s s!/(2k)^s - 1| for s = 1..D (exact
    rationals, kept as int numerator and denominator and printed as their
    correctly rounded quotient); zero rows track k * |tau_r - tau_hat_r|
    over the grid entries whose roots are large enough to invert.  Exit 0 when every
    monitored sequence stays within 1.5x its first computed entry.
    """
    d = args.degree
    if d < 1 or d > 8:
        raise DomainError(f"verify requires 1 <= D <= 8, got {d}")
    grid = _doubling_grid(args.k_min, args.k_max)
    coeff_rows = {s: [] for s in range(1, d + 1)}  # exact (numerator, denominator) pairs
    zero_rows = {r: [] for r in range(1, d + 1)}  # floats or None
    for k in grid:
        weight = decompose_weight(k)
        if weight.ell < d:
            raise DomainError(f"k = {k} has ell = {weight.ell} < D = {d}")
        report = zero_report(miller_form_spec(k, weight.ell - d), tol=args.tol, strict=False)
        devs = renormalized_coeffs(report.faber)
        for s in range(1, d + 1):
            coeff_rows[s].append((k * abs(devs[s].numerator), devs[s].denominator))
        for row in report.rows:
            zero_rows[row.r].append(row.k_times_err)

    table = [
        (f"coeff_dev[s={s}]", [n / den for n, den in seq], _ratios_bounded(seq))
        for s, seq in coeff_rows.items()
    ]
    for r, seq in zero_rows.items():
        values = [v for v in seq if v is not None]
        if values:  # else nothing computable on this grid
            shown = [OUT_OF_REGIME if v is None else v for v in seq]
            limit = 1.5 * values[0]
            table.append((f"zero_err[r={r}]", shown, all(v <= limit for v in values)))
    all_bounded = all(ok for _, _, ok in table)

    if args.format == "json":
        payload = {
            "k_grid": grid,
            "rows": [
                {"metric": name, "values": list(values), "bounded": ok}
                for name, values, ok in table
            ],
            "all_bounded": all_bounded,
        }
        _emit(_json_text(payload) + "\n", args)
    elif args.format == "csv":
        header = ("metric",) + tuple(f"k={k}" for k in grid) + ("bounded",)
        rows = [
            (name, *values, "yes" if ok else "no")
            for name, values, ok in table
        ]
        _emit(_csv_text(header, rows), args)
    else:
        lines = ["k grid: " + " ".join(str(k) for k in grid)]
        for name, values, ok in table:
            rendered = " ".join(v if isinstance(v, str) else _fmt(v) for v in values)
            lines.append(f"{name}: {rendered}  [{'bounded' if ok else 'UNBOUNDED'}]")
        lines.append("all bounded" if all_bounded else "verification FAILED")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if all_bounded else EXIT_VERIFY_FAILED


def _series_json(series) -> dict:
    coeffs = [str(c) for c in series.coeffs]
    return {"valuation": series.valuation, "order": series.order, "coeffs": coeffs}


def cmd_basis(args: argparse.Namespace) -> int:
    weight = decompose_weight(args.k)
    order = weight.ell + 5  # enough trailing terms to show genuine coefficients
    basis = miller_basis_series(args.k, order)
    if args.format == "json":
        payload = {
            "k": args.k,
            "order": order,
            "basis": [_series_json(series) for series in basis],
        }
        _emit(_json_text(payload) + "\n", args)
    elif args.format == "csv":
        rows = []
        for i, series in enumerate(basis):
            for n in range(series.valuation, series.order):
                rows.append((args.k, i, n, str(series.coeff(n))))
        _emit(_csv_text(("k", "i", "n", "coeff"), rows), args)
    else:
        lines = [f"f_{{{args.k},{i}}} = {series}" for i, series in enumerate(basis)]
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


@functools.cache  # built on the first main() call, reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faberzeros",
        description="Faber polynomials of level-one modular forms and the geometry of their zeros.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, handler, fmt):
        p.add_argument("--tol", type=float, default=1e-10, help="numerical tolerance (default 1e-10)")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default=fmt)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("faber", help="print the exact Faber polynomial of f_{k,m}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", required=True, help="integer or last / last-N alias")
    common(p, cmd_faber, "json")

    p = sub.add_parser("zeros", help="Faber roots, actual zeros, and predictions for f_{k,m}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", required=True)
    common(p, cmd_zeros, "csv")

    p = sub.add_parser("exp-zeros", help="inverse zeros of the truncated exponential of degree D")
    p.add_argument("--D", dest="degree", type=int, required=True)
    common(p, cmd_exp_zeros, "json")

    p = sub.add_parser("predict", help="predicted zero locations for one weight")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--D", dest="degree", type=int, required=True)
    common(p, cmd_predict, "csv")

    p = sub.add_parser("figure", help="predicted point cloud over a k grid (the figure data)")
    p.add_argument("--D", dest="degree", type=int, required=True)
    p.add_argument("--k-min", dest="k_min", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--k-step", dest="k_step", type=int, default=1000)
    common(p, cmd_figure, "csv")

    p = sub.add_parser("verify", help="boundedness of k-scaled deviations over a doubling grid")
    p.add_argument("--D", dest="degree", type=int, required=True)
    p.add_argument("--k-min", dest="k_min", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    common(p, cmd_verify, "pretty")

    p = sub.add_parser("basis", help="exact q-expansions of the Miller basis of M_k")
    p.add_argument("--k", type=int, required=True)
    common(p, cmd_basis, "json")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_tolerance(args.tol)
        return args.handler(args)
    except DomainError as exc:
        print(f"faberzeros: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"faberzeros: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
