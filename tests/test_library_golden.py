"""Bit-identity of the library on custom windows: Faber coefficients and zero rows.

The CLI builds only Miller windows, so its golden table never reaches a
custom window y(0..D) = (1, a(1), ..., a(D)).  Here four custom windows
pin the exact Faber coefficients (as strings) and, for every
``zero_report`` row, the ``float.hex`` of t, tau, tau_hat, abs_err,
k * err and t_gap (as one sha256 per window).  A refactor of the spec
builders or of the z = t/(2k) rescaling that keeps behaviour keeps
every entry.

Float digests are tied to the CPython and libm they were recorded with.
"""

import hashlib
from fractions import Fraction as Fr

import pytest

from faberzeros import custom_form_spec, decompose_weight, faber_polynomial, zero_report

GOLDEN = [
    (
        240000, 4, (Fr(1, 3), -2, 5, 0),
        ("1", "1431073/3", "114132052934", "18261478108275025", "6594701347445411117632/3"),
        "7d649b9940e4a855bc8362ab4e69f8c6f8f7e38154ef77ae3bbad7c652f1e300",
    ),
    (
        240004, 3, (Fr(-7, 2), 11, Fr(5, 9)),
        ("1", "955049/2", "114371088575", "164868978834345713/9"),
        "3249ee6b7bb06a9f9e4e28db875b15c67bd16379103bea708527f1ee457caf19",
    ),
    (
        2400010, 6, (3, 0, Fr(-1, 4), 100, Fr(2, 7), -5),
        (
            "1", "4795803", "11503439134416", "73603383500943941295/4",
            "22082288682843336085257052", "148447643619362528633002408569155/7",
            "118838759379090473565608334298425854525/7",
        ),
        "3b50abff8efa31bfae28ea603afe30a6f0bb6f0439c4bd460b86f8e920528c6c",
    ),
    (
        24000006, 2, (Fr(1, 5), -13),
        ("1", "239995081/5", "1151988561655379"),
        "b87d30e5b69f0f94c9bc9ebc13f04d54c4ebc352d6647f0ab2fcf2cb8892e1ec",
    ),
]


def _hex(x):
    return "None" if x is None else float.hex(x)


def _coeff_and_row_text(spec):
    lines = [str(c) for c in faber_polynomial(spec).coeffs]
    for row in zero_report(spec, strict=False).rows:
        tau = (None, None) if row.tau is None else (row.tau.tau.real, row.tau.tau.imag)
        values = (
            row.t.real, row.t.imag, *tau, row.tau_hat.tau.real, row.tau_hat.tau.imag,
            row.abs_err, row.k_times_err, row.t_gap,
        )
        lines.append(f"{row.r} {row.status} " + " ".join(_hex(v) for v in values))
    return lines


@pytest.mark.parametrize(
    ("k", "d", "a", "coeffs", "rows_digest"), GOLDEN, ids=[f"k={k},D={d}" for k, d, *_ in GOLDEN]
)
def test_custom_window_is_bit_identical(k, d, a, coeffs, rows_digest):
    spec = custom_form_spec(k, decompose_weight(k).ell - d, a)
    lines = _coeff_and_row_text(spec)
    assert tuple(lines[: d + 1]) == coeffs
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == rows_digest
