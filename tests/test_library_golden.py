"""Bit-identity of the library on custom windows: Faber coefficients and zero rows.

The CLI builds only Miller windows, so its golden table never reaches a
custom window y(0..D) = (1, a(1), ..., a(D)).  Here four custom windows
pin the exact Faber coefficients (as strings) and, for every
``zero_report`` row, the ``float.hex`` of t, tau, tau_hat, abs_err,
k * err and t_gap (as one sha256 per window).  A refactor of the spec
builders or of the z = t/(2k) rescaling that keeps behaviour keeps
every entry.

Float digests are tied to the CPython and libm they were recorded with.

Run as a script to record rows from the current checkout; it prints one
``(k, D, window, coeffs, rows digest)`` row per window of the table and
never rewrites this file:

    PYTHONPATH=src python tests/test_library_golden.py
"""

import hashlib
import sys
from fractions import Fraction as Fr

import pytest

from faberzeros import custom_form_spec, decompose_weight, faber_polynomial, zero_report

GOLDEN = [
    (
        240000, 4, (Fr(1, 3), -2, 5, 0),
        ("1", "1431073/3", "114132052934", "18261478108275025", "6594701347445411117632/3"),
        "7013b42bdf8da7ee2bb81436d14429164112b90bfe96d93c639efcf343bcb91e",
    ),
    (
        240004, 3, (Fr(-7, 2), 11, Fr(5, 9)),
        ("1", "955049/2", "114371088575", "164868978834345713/9"),
        "6444d185cff5355e0fc96e613334c76561a0052a50ec6fdaba1662af80725f3c",
    ),
    (
        2400010, 6, (3, 0, Fr(-1, 4), 100, Fr(2, 7), -5),
        (
            "1", "4795803", "11503439134416", "73603383500943941295/4",
            "22082288682843336085257052", "148447643619362528633002408569155/7",
            "118838759379090473565608334298425854525/7",
        ),
        "96ed3709ebb7e481d8e0fcaf5be2a3ceb77aeb1f2dea666dcc86baf18f2411a0",
    ),
    (
        24000006, 2, (Fr(1, 5), -13),
        ("1", "239995081/5", "1151988561655379"),
        "ef4212fb9df668c66b396e1496e2069abea92540a46066d84007176c1189066a",
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


def record(k: int, d: int, a) -> tuple:
    """The golden row of one custom window, computed by the current checkout."""
    lines = _coeff_and_row_text(custom_form_spec(k, decompose_weight(k).ell - d, a))
    text = "\n".join(lines) + "\n"
    return k, d, a, tuple(lines[: d + 1]), hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    ("k", "d", "a", "coeffs", "rows_digest"), GOLDEN, ids=[f"k={k},D={d}" for k, d, *_ in GOLDEN]
)
def test_custom_window_is_bit_identical(k, d, a, coeffs, rows_digest):
    _, _, _, got_coeffs, got_digest = record(k, d, a)
    assert got_coeffs == coeffs
    assert got_digest == rows_digest


if __name__ == "__main__":
    for k, d, a, _, _ in GOLDEN:
        print(record(k, d, a))
