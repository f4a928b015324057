"""Root finding, truncated-exponential zeros, matching, and the Ostrowski bound."""

import cmath
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from faberzeros.cli import _roots_json
from faberzeros.errors import DomainError, NumericalError
from faberzeros.faber import FaberPoly, faber_polynomial
from faberzeros import roots
from faberzeros.modforms import custom_form_spec, decompose_weight, miller_form_spec
from faberzeros.roots import (
    ComplexPoly,
    find_roots,
    match_roots,
    scaled_faber_roots,
    truncated_exp_inverse_zeros,
    truncated_exp_poly,
)
from oracles import (
    binary_search_match_roots, companion_roots, ostrowski_bound, scaled_roots_oracle,
)


def brute_force_pairing(xs, ys):
    """Exhaustive bottleneck assignment over all permutations."""
    n = len(xs)
    best_perm, best_val = None, math.inf
    for perm in itertools.permutations(range(n)):
        val = max(abs(xs[i] - ys[perm[i]]) for i in range(n))
        if val < best_val:
            best_val, best_perm = val, perm
    return best_perm, best_val


# --- find_roots ----------------------------------------------------------------


def test_find_roots_quadratic_units():
    rs = find_roots(ComplexPoly.from_coefficients([1, 0, 1]))
    assert rs.roots == (-1j, 1j)  # sorted by argument
    assert rs.residual <= 1e-14


def test_find_roots_paper_values_24():
    f = faber_polynomial(miller_form_spec(24, 0))
    poly = ComplexPoly.from_coefficients([float(c) for c in f.coeffs])
    rs = find_roots(poly)
    assert abs(rs.roots[0] - 93.0072) < 1e-2
    assert abs(rs.roots[1] - 1346.99) < 1e-2


def test_find_roots_paper_values_36():
    f = faber_polynomial(miller_form_spec(36, 0))
    poly = ComplexPoly.from_coefficients([float(c) for c in f.coeffs])
    rs = find_roots(poly)
    for got, printed in zip(rs.roots, (30.3029, 582.232, 1547.46)):
        assert abs(got - printed) < 1e-2


def test_find_roots_residual_contract():
    rng = random.Random(11)
    for _ in range(50):
        deg = rng.randint(1, 8)
        coeffs = [1.0] + [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(deg)]
        poly = ComplexPoly(coeffs=tuple(coeffs))
        rs = find_roots(poly, tol=1e-10)
        scale = max(abs(c) for c in coeffs)
        assert rs.residual <= 1e-10 * scale
        assert len(rs.roots) == deg


def test_find_roots_within_certifiable_envelope():
    # the residual certificate is only achievable while the evaluation
    # noise (Cauchy root bound)^D * eps stays below tol * max|coeff|;
    # inside that envelope the finder must deliver, whatever the spread
    rng = random.Random(4242)
    checked = 0
    while checked < 100:
        deg = rng.randint(2, 6)
        coeffs = [1.0] + [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-2, 2)
            for _ in range(deg)
        ]
        scale = max(abs(c) for c in coeffs)
        cauchy = 1 + max(abs(c) for c in coeffs[1:])
        if cauchy**deg * 2.3e-16 > 0.1 * 1e-10 * scale:
            continue
        rs = find_roots(ComplexPoly(coeffs=tuple(coeffs)), tol=1e-10)
        assert rs.residual <= 1e-10 * scale
        checked += 1


def test_find_roots_refuses_uncertifiable_input():
    # roots near 1e8 at degree 4: evaluating p there carries ~|root|^4 * eps
    # of rounding noise, far above tol * max|coeff|, so no double-precision
    # residual certificate is possible and the finder must say so
    poly = ComplexPoly.from_coefficients([1, 1e8, -1e8, 3e7, 1e5])
    with pytest.raises(NumericalError):
        find_roots(poly, tol=1e-10)


def test_find_roots_deterministic():
    poly = ComplexPoly.from_coefficients([1, -3, 3 + 2j, 7])
    a = find_roots(poly)
    b = find_roots(poly)
    assert a.roots == b.roots and a.residual == b.residual


def test_find_roots_matches_companion_oracle():
    rng = random.Random(23)
    for _ in range(25):
        deg = rng.randint(2, 7)
        coeffs = [1.0] + [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(deg)]
        mine = find_roots(ComplexPoly(coeffs=tuple(coeffs))).roots
        oracle = companion_roots(coeffs)
        pairing = match_roots(mine, oracle)
        assert pairing.max_distance < 1e-7


def test_find_roots_iteration_cap(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITER", 1)
    poly = ComplexPoly.from_coefficients([1, -2, 1.00000001, 17, -3])
    with pytest.raises(NumericalError) as info:
        find_roots(poly, tol=1e-10)
    assert info.value.best is not None and len(info.value.best) == 4


def test_monic_normalization():
    poly = ComplexPoly.from_coefficients([2, 4, 6])
    assert poly.coeffs == (1, 2, 3)
    with pytest.raises(DomainError):
        ComplexPoly.from_coefficients([5])


# --- truncated exponential -------------------------------------------------------


def test_exp_inverse_zeros_degree_one():
    rs = truncated_exp_inverse_zeros(1)
    assert abs(rs.roots[0] - (-1)) < 1e-15


def test_exp_inverse_zeros_degree_two_quadratic_formula():
    # roots of 1 + t + t^2/2 are -1 +- i by the quadratic formula
    disc = cmath.sqrt(1 - 2)
    expected = sorted(
        (1 / (-1 + disc), 1 / (-1 - disc)),
        key=lambda z: (cmath.phase(z), abs(z)),
    )
    rs = truncated_exp_inverse_zeros(2)
    assert abs(rs.roots[0] - (-0.5 - 0.5j)) < 1e-14
    assert abs(rs.roots[1] - (-0.5 + 0.5j)) < 1e-14
    assert max(abs(a - b) for a, b in zip(rs.roots, expected)) < 1e-14


def test_exp_inverse_zeros_degree_four_vs_companion_oracle():
    rs = truncated_exp_inverse_zeros(4)
    coeffs = [math.factorial(4) // math.factorial(4 - nu) for nu in range(5)]
    oracle = sorted(
        (1 / z for z in companion_roots(coeffs)),
        key=lambda z: (cmath.phase(z), abs(z)),
    )
    assert max(abs(a - b) for a, b in zip(rs.roots, oracle)) < 1e-12


def test_exp_inverse_zeros_sorted_by_argument():
    def arg(z):  # the [-pi, pi) convention used for labeling
        ph = cmath.phase(z)
        return -math.pi if ph >= math.pi else ph

    for d in range(1, 9):
        rs = truncated_exp_inverse_zeros(d)
        phases = [arg(z) for z in rs.roots]
        assert phases == sorted(phases)


def test_exp_inverse_zeros_vieta():
    for d in range(1, 11):
        rs = truncated_exp_inverse_zeros(d)
        total = sum(rs.roots)
        prod = math.prod(rs.roots)
        assert abs(total - (-1)) < 1e-10, d
        assert abs(prod - (-1) ** d / math.factorial(d)) < 1e-10, d


def test_exp_zeros_simple():
    for d in range(2, 11):
        rs = truncated_exp_inverse_zeros(d)
        gaps = [
            abs(a - b) for a, b in itertools.combinations(rs.roots, 2)
        ]
        assert min(gaps) > 1e-6, d


def test_truncated_exp_poly_requires_positive_degree():
    with pytest.raises(DomainError):
        truncated_exp_poly(0)


def test_truncated_exp_poly_beyond_double_range_is_domain_error():
    # 171! no longer fits in a double; the conversion must not escape as OverflowError
    with pytest.raises(DomainError, match="coefficients must be finite"):
        truncated_exp_poly(171)
    with pytest.raises(DomainError, match="coefficients must be finite"):
        truncated_exp_inverse_zeros(171)


def test_truncated_exp_poly_matches_factorial_ratios():
    for d in range(1, 171):
        ratios = [math.factorial(d) // math.factorial(d - nu) for nu in range(d + 1)]
        assert truncated_exp_poly(d) == ComplexPoly.from_coefficients(ratios)


def test_nan_residual_is_rejected():
    # from D = 104 on, p(z) overflows to inf during the Aberth sweeps and the
    # iterates turn NaN; a NaN residual must fail the check, not pass it
    for d in (120, 170):
        with pytest.raises(NumericalError, match="residual nan"):
            find_roots(truncated_exp_poly(d))
    with pytest.raises(NumericalError):
        truncated_exp_inverse_zeros(120)


# --- memoized inverse zeros -----------------------------------------------------------


def test_exp_inverse_zeros_cached_equals_fresh_solve_bitwise():
    def bits(rs):
        return [(z.real.hex(), z.imag.hex()) for z in rs.roots], rs.residual.hex()

    truncated_exp_inverse_zeros.cache_clear()
    for d in range(1, 22):
        cached = truncated_exp_inverse_zeros(d)
        assert truncated_exp_inverse_zeros(d) is cached
        assert bits(cached) == bits(truncated_exp_inverse_zeros.__wrapped__(d)), d


def test_exp_inverse_zeros_failures_are_not_cached():
    truncated_exp_inverse_zeros(3)
    size = truncated_exp_inverse_zeros.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NumericalError):
            truncated_exp_inverse_zeros(22)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="tolerance must be positive and finite"):
                truncated_exp_inverse_zeros(3, tol=tol)
        with pytest.raises(DomainError):
            truncated_exp_inverse_zeros(0)
    assert truncated_exp_inverse_zeros.cache_info().currsize == size


def test_exp_inverse_zeros_cached_per_tolerance():
    truncated_exp_inverse_zeros.cache_clear()
    loose = truncated_exp_inverse_zeros(9, tol=1e-6)
    tight = truncated_exp_inverse_zeros(9, tol=1e-12)
    assert loose is not tight
    assert truncated_exp_inverse_zeros.cache_info().currsize == 2
    assert truncated_exp_inverse_zeros(9, tol=1e-6) is loose
    assert truncated_exp_inverse_zeros(9, tol=1e-12) is tight


def test_exp_inverse_zeros_one_entry_per_tolerance_value():
    truncated_exp_inverse_zeros.cache_clear()
    default = truncated_exp_inverse_zeros(7)
    assert truncated_exp_inverse_zeros(7, 1e-10) is default
    assert truncated_exp_inverse_zeros(7, tol=1e-10) is default
    assert truncated_exp_inverse_zeros(d=7, tol=1e-10) is default
    info = truncated_exp_inverse_zeros.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


# --- ostrowski bound ----------------------------------------------------------------


def test_ostrowski_zero_for_equal_polynomials():
    p = ComplexPoly.from_coefficients([1, 2, 3])
    assert ostrowski_bound(p, p) == 0.0


def test_ostrowski_linear_example():
    p = ComplexPoly.from_coefficients([1, -1])
    q = ComplexPoly.from_coefficients([1, -1.1])
    bound = ostrowski_bound(p, q)
    assert abs(bound - 0.2) < 1e-12
    assert bound >= 0.1  # dominates the true distance


def test_ostrowski_degree_mismatch():
    p = ComplexPoly.from_coefficients([1, 2])
    q = ComplexPoly.from_coefficients([1, 2, 3])
    with pytest.raises(DomainError):
        ostrowski_bound(p, q)


def test_ostrowski_dominates_on_random_cubics():
    rng = random.Random(99)
    for _ in range(200):
        base = [1.0] + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        pert = [1.0] + [
            c + complex(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)) for c in base[1:]
        ]
        p = ComplexPoly(coeffs=tuple(base))
        q = ComplexPoly(coeffs=tuple(pert))
        dist = match_roots(find_roots(p).roots, find_roots(q).roots).max_distance
        assert dist <= ostrowski_bound(p, q) + 1e-12


# --- match_roots -----------------------------------------------------------------------


def test_match_roots_obvious_pairing():
    pairing = match_roots([1 + 0j, 2 + 0j], [2.01 + 0j, 1.02 + 0j])
    assert pairing.pairs == ((0, 1), (1, 0))
    assert abs(pairing.max_distance - 0.02) < 1e-15


def test_match_roots_identity():
    pts = [1 + 1j, -2 + 0.5j, 3 - 1j]
    pairing = match_roots(pts, pts)
    assert pairing.pairs == ((0, 0), (1, 1), (2, 2))
    assert pairing.max_distance == 0.0


def _tied_root_sets(rng, n):
    """Two root lists on a small integer grid, so exact distance ties are common."""
    grid = [complex(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    return [rng.choice(grid) for _ in range(n)], [rng.choice(grid) for _ in range(n)]


def _perturbed_root_sets(rng, n):
    xs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    ys = [x + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for x in xs]
    rng.shuffle(ys)
    return xs, ys


def test_match_roots_against_exhaustive_oracle():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 5)
        xs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
        ys = [x + complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for x in xs]
        rng.shuffle(ys)
        pairing = match_roots(xs, ys)
        _, best_val = brute_force_pairing(xs, ys)
        assert abs(pairing.max_distance - best_val) < 1e-12
        realized = max(abs(xs[i] - ys[j]) for i, j in pairing.pairs)
        assert abs(realized - best_val) < 1e-12
    # n up to 6, half of the sets with exact ties: the optimum is one of the
    # distances, so it must come back exactly
    for trial in range(300):
        make = _tied_root_sets if trial % 2 else _perturbed_root_sets
        xs, ys = make(rng, rng.randint(1, 6))
        pairing = match_roots(xs, ys)
        _, best_val = brute_force_pairing(xs, ys)
        assert pairing.max_distance == best_val
        assert max(abs(xs[i] - ys[j]) for i, j in pairing.pairs) == best_val


def test_match_roots_equals_the_plain_binary_search():
    # the floor probe and the search above it must return the very pairing of
    # a binary search over every distance, ties included; both paths are taken
    rng = random.Random(2024)
    paths = set()
    for trial in range(600):
        make = _tied_root_sets if trial % 5 == 0 else _perturbed_root_sets
        xs, ys = make(rng, rng.randint(1, 12))
        got = match_roots(xs, ys)
        assert got == binary_search_match_roots(xs, ys), (xs, ys)
        dist = [[abs(x - y) for y in ys] for x in xs]
        floor = max(max(map(min, dist)), max(map(min, zip(*dist))))
        assert got.max_distance >= floor
        paths.add(got.max_distance == floor)
    assert paths == {True, False}


def test_match_roots_empty():
    pairing = match_roots([], [])
    assert pairing.pairs == () and pairing.max_distance == 0.0


def test_match_roots_cardinality_mismatch():
    with pytest.raises(DomainError):
        match_roots([1 + 0j], [1 + 0j, 2 + 0j])


@pytest.mark.parametrize("bad", [complex("nan"), complex(0, math.nan), complex(math.inf, 0),
                                 complex(1, -math.inf), math.nan, math.inf])
def test_match_roots_refuses_non_finite_roots(bad):
    finite = [0j, 1 + 1j]
    with pytest.raises(DomainError, match="finite"):
        match_roots([bad, 1 + 1j], finite)
    with pytest.raises(DomainError, match="finite"):
        match_roots(finite, [1 + 1j, bad])
    with pytest.raises(DomainError, match="finite"):
        match_roots([bad], [bad])


# --- scaled faber roots -------------------------------------------------------------------


def test_scaled_roots_small_weight():
    sfr = scaled_faber_roots(faber_polynomial(miller_form_spec(24, 1)))
    assert abs(2 * 24 * sfr.roots[0] - 696) < 1e-9
    assert abs(sfr.roots[0] - 14.5) < 1e-12


def test_scaled_roots_large_weight_closed_form():
    k = 12000
    spec = miller_form_spec(k, decompose_weight(k).ell - 1)
    sfr = scaled_faber_roots(faber_polynomial(spec))
    assert abs(2 * k * sfr.roots[0] - (-(2 * k - 744))) < 1e-6
    assert abs(sfr.roots[0] - (-1 + 744 / (2 * k))) < 1e-12
    assert abs(abs(sfr.roots[0] - (-1)) - 0.031) < 1e-12


def test_scaled_roots_gap_not_growing():
    # |t_r - 2k z_{2,r}| stays ~744 when k doubles
    vals = []
    for k in (12000, 24000):
        spec = miller_form_spec(k, decompose_weight(k).ell - 2)
        sfr = scaled_faber_roots(faber_polynomial(spec))
        limits = truncated_exp_inverse_zeros(2)
        gap = max(
            abs(2 * k * z_root - 2 * k * z)
            for z_root, z in zip(sfr.roots, limits.roots)
        )
        vals.append(gap)
        assert gap <= 2000
    assert vals[1] <= vals[0] * 1.01


def test_scaled_roots_read_the_weight_from_the_polynomial():
    f = faber_polynomial(miller_form_spec(24, 1))
    with pytest.raises(TypeError):
        scaled_faber_roots(f, 24)  # tol is keyword-only; k is f.k
    assert scaled_faber_roots(f, tol=1e-10) == scaled_faber_roots(f)


def test_scaled_roots_degree_zero():
    sfr = scaled_faber_roots(faber_polynomial(miller_form_spec(24, 2)))
    assert sfr.roots == ()


def test_rootset_json_shape():
    d = _roots_json(truncated_exp_inverse_zeros(2))
    assert set(d) == {"roots", "residual"}
    assert d["roots"][0] == {"re": -0.5, "im": -0.5}


def _rescaled_as_fractions(f):
    """g_k's coefficients rounded through Fraction arithmetic, the plain reading of c/(2k)^s."""
    return ComplexPoly.from_coefficients(float(c / Fraction(2 * f.k) ** s) for s, c in enumerate(f.coeffs))


def test_scaled_coefficients_round_like_the_fraction_quotient(monkeypatch):
    # both roundings are correct, so every double must agree bit for bit
    monkeypatch.setattr(roots, "find_roots", lambda g, tol, start: g)
    rng = random.Random(17)
    for trial in range(400):
        d = rng.randint(1, 20)
        k = 12 * rng.randint(d, 10 ** rng.randint(2, 8)) + rng.choice((0, 4, 6, 8, 10, 14))
        m = decompose_weight(k).ell - d
        if trial % 2:
            a = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(d)]
            spec = custom_form_spec(k, m, a)
        else:
            spec = miller_form_spec(k, m)
        f = faber_polynomial(spec)
        got = [c.real.hex() for c in scaled_faber_roots(f).coeffs]
        assert got == [c.real.hex() for c in _rescaled_as_fractions(f).coeffs], (k, m)


@pytest.mark.parametrize("big", [10**400, Fraction(10**400, 3), Fraction(-(10**400), 7)])
def test_scaled_coefficient_beyond_double_range_is_domain_error(big):
    f = FaberPoly(k=24, m=1, coeffs=(1, big))
    with pytest.raises(DomainError, match="coefficients must be finite"):
        scaled_faber_roots(f)


# --- Aberth starts ---------------------------------------------------------------


@pytest.mark.parametrize(
    "start",
    [[], [1j], [1, 2, 3], [0.5, math.nan], [0.5, complex(1, math.inf)], ["x", 1], 5, [1, 1]],
    ids=["empty", "short", "long", "nan", "inf", "not-a-number", "not-iterable", "repeated"],
)
def test_bad_starts_are_domain_errors(start):
    with pytest.raises(DomainError, match="start points"):
        find_roots(ComplexPoly.from_coefficients([1, 0, 1]), start=start)
    f = faber_polynomial(miller_form_spec(240000, decompose_weight(240000).ell - 2))
    with pytest.raises(DomainError, match="start points"):
        scaled_faber_roots(f, start=start)


def test_degree_zero_takes_only_an_empty_start():
    f = faber_polynomial(miller_form_spec(24, 2))
    assert scaled_faber_roots(f, start=()).roots == ()
    with pytest.raises(DomainError, match="need 0 start points"):
        scaled_faber_roots(f, start=[1j])


def test_repeated_starts_on_a_root_are_refused():
    # both iterates would sit on the root 1 (p = 0 skips them every sweep) and lose -1
    p = ComplexPoly.from_coefficients([1, 0, -1])
    with pytest.raises(DomainError, match="start points must be pairwise distinct"):
        find_roots(p, start=[1, 1])
    assert find_roots(p, start=[1, -1]).roots == (1 + 0j, -1 + 0j)


def test_start_at_a_critical_point_is_nudged_off_it():
    # p'(0) = 0, so the first Newton quotient at start 0 is undefined
    got = find_roots(ComplexPoly.from_coefficients([1, 0, -1]), start=[0, 2])
    assert got.roots == (-1 + 0j, 1 + 0j) and got.residual == 0.0


def test_default_start_is_the_circle():
    p = truncated_exp_poly(7)
    n = p.degree
    radius = (1.0 + sum(abs(c) for c in p.coeffs[1:])) ** (1.0 / n)
    circle = [radius * cmath.exp(1j * (2 * math.pi * i / n + roots._ABERTH_OFFSET)) for i in range(n)]
    from_circle = find_roots(p, start=circle)
    assert tuple(sorted(from_circle.roots, key=roots._sort_key)) == find_roots(p).roots
    assert from_circle.residual == find_roots(p).residual


def test_roots_come_back_in_start_order():
    p = ComplexPoly.from_coefficients([1, 0, 0, -1])  # the cube roots of unity
    units = [cmath.exp(2j * math.pi * i / 3) for i in range(3)]
    for start in ([1.1, -0.6 + 0.8j, -0.6 - 0.8j], [-0.6 - 0.8j, 1.1, -0.6 + 0.8j]):
        got = find_roots(p, start=start).roots
        assert [min(range(3), key=lambda i: abs(z - units[i])) for z in got] == [
            min(range(3), key=lambda i: abs(s - units[i])) for s in start
        ]
        assert max(abs(z**3 - 1) for z in got) < 1e-14


def test_truncated_exp_inverse_zeros_are_pinned_bit_for_bit():
    # the circle solve behind figure, predict and exp-zeros, d = 1..21
    text = "".join(
        f"{d} {z.real.hex()} {z.imag.hex()}\n" for d in range(1, 22) for z in truncated_exp_inverse_zeros(d).roots
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "577fc9be2ed94e43d6101ad807d2e87788cf0f1e335e2c0ed83be29bf452fdf5"
    )


# Screened Miller weights (perfbench/cells.json): the smallest at every D, where
# g_k's roots lie farthest from their limits, and the median and largest at D <= 12.
ACCURACY_WEIGHTS = {
    1: (3706, 253182, 16628702), 2: (3672, 367062, 23774608), 3: (2718, 248110, 17535710),
    4: (2442, 264282, 23336078), 5: (2410, 267886, 18505484), 6: (2766, 222626, 15928430),
    7: (3126, 163364, 22018280), 8: (2434, 243228, 16478720), 9: (2742, 256980, 19668316),
    10: (3250, 299170, 18429500), 11: (2604, 223562, 15156808), 12: (3346, 328974, 23083532),
    13: (2634,), 14: (2662,), 15: (2866,), 16: (2634,), 17: (2710,), 18: (2454,), 19: (3300,),
    20: (2826,), 21: (3492,),
}


@pytest.mark.parametrize("d", sorted(ACCURACY_WEIGHTS))
def test_starts_at_the_limits_keep_the_roots_as_accurate_as_the_circle(d):
    # the circle is the only start before zero_report passed the limits, so it is the baseline
    limits = truncated_exp_inverse_zeros(d).roots
    worst = {"circle": 0.0, "limits": 0.0}
    for k in ACCURACY_WEIGHTS[d]:
        f = faber_polynomial(miller_form_spec(k, decompose_weight(k).ell - d))
        exact = scaled_roots_oracle(f)
        for name, start in (("circle", None), ("limits", limits)):
            got = scaled_faber_roots(f, start=start).roots
            worst[name] = max(worst[name], max(min(abs(z - e) for e in exact) for z in got))
    assert worst["circle"] < 1e-11, worst
    assert worst["limits"] <= 2 * worst["circle"], worst
