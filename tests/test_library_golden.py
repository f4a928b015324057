"""Bit-identity of the library: custom windows and the float layer under them.

The CLI builds only Miller windows, so its golden table never reaches a
custom window y(0..D) = (1, a(1), ..., a(D)).  Here four custom windows
pin the exact Faber coefficients (as strings) and, for every
``zero_report`` row, the ``float.hex`` of t, tau, tau_hat, abs_err,
k * err and t_gap (as one sha256 per window).  A refactor of the spec
builders or of the z = t/(2k) rescaling that keeps behaviour keeps
every entry.

The float layer gets its own rows: the ``float.hex`` of ``invert_j`` on a
seeded grid of t with 2000 <= |t| <= 1e150 at three tolerances, of
``evaluate_j`` at seeded tau with four truncation lengths, and of the
roots and residual of ``truncated_exp_inverse_zeros(D)`` for D = 1..21
(one sha256 each).  A change to the Horner kernel or to the j evaluator
that moves any bit fails here.

Float digests are tied to the CPython and libm they were recorded with.

Run as a script to record rows from the current checkout; it prints one
``(k, D, window, coeffs, rows digest)`` row per window of the table,
then the float-layer digests, and never rewrites this file:

    PYTHONPATH=src python tests/test_library_golden.py
"""

import cmath
import hashlib
import math
import random
import sys
from fractions import Fraction as Fr

import pytest

from faberzeros import (
    custom_form_spec, decompose_weight, evaluate_j, faber_polynomial, invert_j,
    truncated_exp_inverse_zeros, zero_report,
)
from faberzeros.errors import NumericalError

GOLDEN = [
    (
        240000, 4, (Fr(1, 3), -2, 5, 0),
        ("1", "1431073/3", "114132052934", "18261478108275025", "6594701347445411117632/3"),
        "ff29a2ebe2822efe173d2a1811aed45dd7ed937b9263374fd08d784facb78b49",
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
        "d6f98470354253520001461a029ec6688ce8681073f867e1e3bb8f7c0c79057d",
    ),
]


# digest of invert_j(t).tau over _inversion_grid(), per tolerance
GOLDEN_INVERT_J = {
    1e-10: "622fa4576a57a35a5a5c51c662b4405dba923a98243a39634ef68f6eb949a135",
    2.3e-16: "76e3ec16b8f24d56cd2119d512fda4898b0a0525b0f503d09f5bf2429e16829e",
    0.001: "622fa4576a57a35a5a5c51c662b4405dba923a98243a39634ef68f6eb949a135",
}

# digest of evaluate_j(tau, terms) over _evaluation_grid(), per term count
GOLDEN_EVALUATE_J = {
    2: "b57ed41c21e6bae74a247d2a6759d02c525fa0fad7bdd8f7f0a55fdbc50ead24",
    12: "82649be7a51701e61a2bdabf09c150d54c2fe2a7a1d375893900cc279448e8a1",
    32: "51881e298684d34ad184c6074cfc347b9329378f7dad4d14354eff2b38c1f1c2",
    60: "51881e298684d34ad184c6074cfc347b9329378f7dad4d14354eff2b38c1f1c2",
}

# digest of truncated_exp_inverse_zeros(D): its roots, then its residual
GOLDEN_INVERSE_ZEROS = {
    1: "feac72948fedd007030aa1e7aa0040916a234dece539cd21b5df4b7983fa5093",
    2: "663e588270eb29374696043d2c810fc04e26b69cc1087f54ebc637d651dc8db0",
    3: "bde2d488652f14f93014eb8275ebf9381a8050bf5ae0bfb85d9f64fdb551ddb2",
    4: "0ade30542837fcafc2b4a0c4cf5ed136a3fab7e9e59f107bae7746634ad57e56",
    5: "242b4a2c247f18fd66daa7d0ff6b14bc423b532345bd4dd32565aa0e096a1402",
    6: "70da0255edd26245f4c42c29e6763f36930184b9060c73ba997e3b54da5686a4",
    7: "e13809b7f67752a1e1a473935fbf66159c5b7641b72284175563aaebb6b8e61b",
    8: "43bd224825eedc0567b073d12be5493bf0f2fd894a91b3ce749d3ced66bfcac9",
    9: "0c567179a00b8bf1cbb92a96163e93617d8cab9ef2b3f5b973a884f991c75e14",
    10: "6b57604642fc0e0b18263f76e7d30c70ef9c473643ce85ba1ff756fbb8dea77d",
    11: "f0f183da45a1b8ad392add5eb76619552a08cc4fce5d960350804b638adaf7d2",
    12: "44a299b5536dc1b800ae0e77b45a8696be45457f4550cab1ecf911ca5fe5c1bb",
    13: "41fdb7994b2f6426ee668a796e5936426a8323c75ed3424e642ee4b35535b554",
    14: "08393c8013d6c7a367cce4b46c21eed366f80d7c6bbd727c3a4423d4f50c4826",
    15: "91bd94af2a9eaa5a25c9539991dbd4861e5010ebd01fb3bdc8e3129f9f38b499",
    16: "1fb2c214231176201f3ef42774248a64487d665eb3b12b3b87ac7289f06efa68",
    17: "d824996619a7e3b729fa3ac5f1a9181384100ec89cb7e6c331cde95262cf5957",
    18: "3a4169e5df45d44c94b5baf33adc32132622ff867f9790617bf7e0ac3cc34c77",
    19: "e3d4bd83f6bc98b33f427e4a57ed7585dc9e45a5131d4d68235f908b3e7e8cfd",
    20: "67d84a1efcf5314218571a8d7c61ad22d016d4d0199849cd9f57bd5cb2d40365",
    21: "a1df8795c39b0604428bd88575ea0c0d376583ce85f3d591964a8fff6b298300",
}


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


def _digest(lines) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def _inversion_grid() -> list[complex]:
    """t on both axes at |t| = 2000 and 1e150, then 300 seeded t, log-uniform in |t|."""
    rng = random.Random(19)
    edges = [s * m for m in (2000.0, 1e150) for s in (1, -1, 1j, -1j)]
    return edges + [
        cmath.rect(10 ** rng.uniform(math.log10(2000), 150), rng.uniform(-math.pi, math.pi))
        for _ in range(300)
    ]


def _evaluation_grid() -> list[complex]:
    """200 seeded tau with Re in [-1/2, 1/2) and Im log-uniform in [0.8, 80]."""
    rng = random.Random(23)
    return [complex(rng.uniform(-0.5, 0.5), 0.8 * 10 ** rng.uniform(0, 2)) for _ in range(200)]


def _inversion_text(tol: float) -> list[str]:
    lines = []
    for t in _inversion_grid():
        try:
            tau = invert_j(t, tol=tol).tau
        except NumericalError as exc:
            lines.append(f"NumericalError {exc}")
        else:
            lines.append(f"{_hex(tau.real)} {_hex(tau.imag)}")
    return lines


def _evaluation_text(terms: int) -> list[str]:
    values = (evaluate_j(tau, terms) for tau in _evaluation_grid())
    return [f"{_hex(v.real)} {_hex(v.imag)}" for v in values]


def _inverse_zeros_text(d: int) -> list[str]:
    found = truncated_exp_inverse_zeros(d)
    return [f"{_hex(z.real)} {_hex(z.imag)}" for z in found.roots] + [_hex(found.residual)]


def record_float_layer() -> tuple[dict, dict, dict]:
    """The float-layer digests, computed by the current checkout."""
    return (
        {tol: _digest(_inversion_text(tol)) for tol in (1e-10, 2.3e-16, 1e-3)},
        {terms: _digest(_evaluation_text(terms)) for terms in (2, 12, 32, 60)},
        {d: _digest(_inverse_zeros_text(d)) for d in range(1, 22)},
    )


@pytest.mark.parametrize(
    ("k", "d", "a", "coeffs", "rows_digest"), GOLDEN, ids=[f"k={k},D={d}" for k, d, *_ in GOLDEN]
)
def test_custom_window_is_bit_identical(k, d, a, coeffs, rows_digest):
    _, _, _, got_coeffs, got_digest = record(k, d, a)
    assert got_coeffs == coeffs
    assert got_digest == rows_digest


@pytest.mark.parametrize(
    ("tol", "digest"), GOLDEN_INVERT_J.items(), ids=[f"tol={t:g}" for t in GOLDEN_INVERT_J]
)
def test_invert_j_is_bit_identical(tol, digest):
    assert _digest(_inversion_text(tol)) == digest


@pytest.mark.parametrize(
    ("terms", "digest"), GOLDEN_EVALUATE_J.items(), ids=[f"terms={n}" for n in GOLDEN_EVALUATE_J]
)
def test_evaluate_j_is_bit_identical(terms, digest):
    assert _digest(_evaluation_text(terms)) == digest


@pytest.mark.parametrize(
    ("d", "digest"), GOLDEN_INVERSE_ZEROS.items(), ids=[f"D={d}" for d in GOLDEN_INVERSE_ZEROS]
)
def test_inverse_zeros_are_bit_identical(d, digest):
    assert _digest(_inverse_zeros_text(d)) == digest


if __name__ == "__main__":
    for k, d, a, _, _ in GOLDEN:
        print(record(k, d, a))
    for table in record_float_layer():
        print(table)
