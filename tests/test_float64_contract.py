"""H's float64 contract, against 900-digit mpmath (oracles.mp_bands), and the regime's, against Fraction.

Every H the build accepts has band scalars (D, U, V) within K eps of its largest exact band
scalar, and a finite N |H|_F; every H it rejects has N |H|_F past float64 ("H overflows"), or
no normal entry ("H underflows"), or is exactly zero ("H is zero").  The inputs are built to
cancel, where float64 loses most: B ~ LA (the x^2 coefficient B^2 - L^2 A^2), A ~ RB (the p^2
coefficient A^2 - R^2 B^2) and LA^2 ~ -RB^2 (the cross coefficient), at subnormal, huge and
spread frequencies, together with every argv that CHANGES.md names in a FOUND or MENDED line.

The regime contract, on the same kind of inputs: the regime is the exact signs of a and b, the
coefficients a, b, c and the reality window are their exact values rounded once, and w_v is
within 1 ulp of sqrt(b/a) (60-digit mpmath), or None where b/a is not positive or its root is
outside float64.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

import oracles
from nhosc import BasisSpec, HamiltonianSpec, Regime, TransformParams, model
from nhosc import classify_regime, reality_window, variational_frequency
from nhosc.cli import ConfigError, parse_config

EPS = sys.float_info.epsilon
TINY = sys.float_info.min
K = 4  # fixed: never loosened

# the argvs of CHANGES.md's FOUND and MENDED lines; the last block stops in parse_config, before any H
NAMED_ARGVS = [
    "commutator-check --L 1e300 --N 10",
    "spectrum --L=-1.34 --R=-1.82 --A=-4.1199211783996836e+153 --B=8.649834512902248e+153 --w 1.99 --N 2",
    "spectrum --L 1 --R 1 --A 1 --B 1 --w 4 --N 2",
    "spectrum --L=-1e100 --A 1 --B 1e100 --w 4 --N 3",
    "spectrum --R 1e155 --A 1 --B 0 --w 1 --N 3",
    "spectrum --R 1e155 --B 1e-150 --w 1 --N 3",
    "spectrum --L 1e-5 --R 1e100 --A 1e100 --B 1 --w 4 --N 2",
    "spectrum --L=69.13304933807956 --R=8.878467928194506e+29 --A=6.696600120056964e+40 "
    "--B=75425176665.79794 --w=5.537241693088149e+16 --N 3",
    "spectrum --L 1e300 --A 0 --w 1e-300 --N 3",
    "spectrum --L 0 --A 0 --w 1e-300 --N 3",
    "spectrum --R 1e300 --B 0 --w 1e300 --N 3",
    "spectrum --L 1e300 --R 2e-8 --A 1.5e-154 --w 5e-21 --N 3",
    "spectrum --L 1 --w 1e-320 --N 12",
    "commutator-check --N 2000",
    "spectrum --B 1e-200 --w auto --N 6",
    "spectrum --A 1e200 --w auto --N 6",
    "spectrum --L 0.19050204223716805 --R 0.1 --A 0.19215634136855086 --B 1.9215634136855084 --N 6 --w auto",
    "duality --B 1e-150 --w 1e-320 --N 3",
]
CONFIG_ERRORS = [
    "spectrum --s 1e-300 --N 6",  # --s is no flag any more: x and p are fixed by w alone
    "duality --s 1e-300",
    "duality --s 1e-85 --N 6",
    "spectrum --s 1e78 --N 6",
    "table2 --W 5e-324",
    "duality --W 5e-324 --R 3",
    "spectrum --L inf",
    "spectrum --w inf",
    "spectrum --w nan",
    "spectrum --w 0 --N 6",
    "spectrum --w=-2 --N 6",
    "spectrum --w=-inf --N 6",
]


def _near(rng, value):
    """value exactly, a few ulps off, or off by a relative 1e-15 .. 1e-3."""
    kind = rng.randrange(3)
    if kind == 0:
        return value
    if kind == 1:
        return value * (1.0 + rng.choice([-1, 1]) * rng.randint(1, 4) * EPS)
    return value * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -3.0))


def cancelling_inputs(count=200, seed=31):
    """(L, R, A, B, w, N): B ~ LA, A ~ RB or LA^2 ~ -RB^2 over magnitudes up to 1e+-20 or 1e+-160,
    A and B then scaled together (which keeps each relation) by 1 or by 1e-170 .. 1e-150, with w
    subnormal, 1e300 or log-uniform over 1e-300 .. 1e300, and N = 3 or 6."""
    rng = random.Random(seed)
    inputs = []
    while len(inputs) < count:
        span = rng.choice([20.0, 160.0])
        mag = lambda: rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-span, span)  # noqa: E731
        l_coef, r_coef, a_coef, b_coef = mag(), mag(), mag(), mag()
        kind = rng.randrange(3)
        if kind == 0:
            b_coef = _near(rng, l_coef * a_coef)
        elif kind == 1:
            a_coef = _near(rng, r_coef * b_coef)
        else:
            r_coef = _near(rng, -l_coef * (a_coef / b_coef) * (a_coef / b_coef))
        scale = rng.choice([1.0, 10.0 ** rng.uniform(-170.0, -150.0)])
        a_coef, b_coef = scale * a_coef, scale * b_coef
        w = rng.choice([10.0 ** rng.uniform(-323.5, -308.0), 1e300, 10.0 ** rng.uniform(-300.0, 300.0)])
        if not all(math.isfinite(v) for v in (l_coef, r_coef, a_coef, b_coef)) or not w > 0.0:
            continue
        if 1.0 + l_coef * r_coef == 0.0:
            continue
        inputs.append((l_coef, r_coef, a_coef, b_coef, w, rng.choice([3, 6])))
    return inputs


def check_contract(params, basis):
    """Assert the contract for one H; return its outcome ("built" or the rejection's kind)."""
    spec = HamiltonianSpec(params, basis)
    couplings = (params.l_coef, params.r_coef, params.a_coef, params.b_coef, basis.freq, basis.n_dim)
    true, norm, largest = oracles.mp_bands(*couplings, dps=900)
    try:
        got = model._checked_bands(spec, basis.freq)
    except ValueError as exc:
        kind = str(exc).split(" (")[0].split(" for ")[0]
        if kind == "H overflows float64":
            assert norm >= (1.0 - 8 * EPS) * sys.float_info.max, (couplings, str(exc), norm)
        elif kind == "H underflows float64":
            assert 0.0 < largest < TINY, (couplings, largest)
        else:
            assert kind == "H is zero" and largest == 0.0, (couplings, str(exc), largest)
        return kind
    assert norm <= (1.0 + 8 * EPS) * sys.float_info.max, (couplings, norm)
    assert largest >= TINY or params.a_coef == params.b_coef == 0.0, (couplings, largest)
    # below the smallest normal float64 the spacing is 2^-1074, whatever the scale
    bound = K * EPS * max(map(abs, true)) + 2.0**-1074
    assert max(abs(g - t) for g, t in zip(got, true)) <= bound, (couplings, got, true)
    assert spec.bands.diag[0] == got[0]
    return "built"


def _float(x):
    """A Fraction rounded once, +-inf past float64."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def check_regime(params):
    """Assert the regime contract for one parameter set; return the regime."""
    l, r, a, b = map(Fraction, (params.l_coef, params.r_coef, params.a_coef, params.b_coef))
    c = 1 / (1 + l * r)
    p2, x2, cross = c * (a * a - r * r * b * b), c * (b * b - l * l * a * a), c * (l * a * a + r * b * b)
    report = classify_regime(params)
    assert (report.regime is Regime.REAL_SPECTRUM) == (p2 > 0 and x2 > 0), params
    got = (report.coef_p2, report.coef_x2, report.coef_cross, report.ab_plus_csq)
    assert got == tuple(map(_float, (p2, x2, cross, (a * b) ** 2))), params
    window = reality_window(params)
    if report.regime is Regime.REAL_SPECTRUM:
        assert window == tuple(map(_float, oracles.exact_reality_window(*map(float, (l, r, a, b))))), params
    else:
        assert window is None
    w_v = variational_frequency(params)
    if not p2 or x2 / p2 <= 0:
        assert w_v is None, params
        return report.regime
    with mpmath.workdps(60):
        ratio = x2 / p2
        root = mpmath.sqrt(mpmath.mpf(ratio.numerator) / ratio.denominator)
        if w_v is None:
            assert root >= sys.float_info.max or root <= 2.0**-1074, (params, root)
        else:
            assert abs(w_v - root) <= math.ulp(w_v), (params, w_v, root)
    return report.regime


def test_cancelling_inputs_keep_the_regime_contract():
    # 2000 draws: B ~ LA, A ~ RB and LA^2 ~ -RB^2 at ordinary and extreme scales
    regimes = [check_regime(TransformParams(*c[:4])) for c in cancelling_inputs(count=2000, seed=32)]
    assert set(regimes) == {Regime.REAL_SPECTRUM, Regime.BROKEN}


def test_table_one_regime_is_exact():
    params = TransformParams(l_coef=3.0, b_coef=5.0)
    assert check_regime(params) is Regime.REAL_SPECTRUM
    assert reality_window(params) == (2.0, 8.0) and variational_frequency(params) == 4.0


def test_cancelling_inputs_keep_the_contract():
    outcomes = [check_contract(TransformParams(*c[:4]), BasisSpec(c[5], c[4])) for c in cancelling_inputs()]
    # the set reaches each outcome that N = 3 and 6 allow: an H with A or B nonzero is exactly zero only at N = 2
    assert set(outcomes) == {"built", "H overflows float64", "H underflows float64"}


@pytest.mark.parametrize("argv", NAMED_ARGVS)
def test_named_argvs_keep_the_contract(argv):
    config = parse_config(argv.split())
    check_contract(config.params, config.basis)
    check_regime(config.params)


@pytest.mark.parametrize("argv", CONFIG_ERRORS)
def test_named_argvs_that_stop_before_h(argv):
    with pytest.raises(ConfigError):
        parse_config(argv.split())


def _parent_bound(bands, n_dim):
    """The O(1) float64 bound that each band scalar triple of an earlier build met before it was kept:
    floor <= N hypot(D lev_norm, U pair_norm, V pair_norm) < inf, with the ladders' 2-norms in closed
    form, floor = 4 N tiny (lev_norm + pair_norm), and floor = inf at N = 2."""
    lev_norm = math.sqrt((n_dim - 1) * (2 * n_dim - 3) * (2 * n_dim - 1) // 3 + (n_dim - 1) ** 2)
    pair_norm = math.sqrt((n_dim - 2.0) * (n_dim - 1.0) * n_dim / 3.0)
    floor = 4.0 * n_dim * TINY * (lev_norm + pair_norm) if n_dim > 2 else math.inf
    diag, up, low = bands
    return floor <= math.hypot(diag * lev_norm, up * pair_norm, low * pair_norm) * n_dim < math.inf


def _outcome(call, *args):
    """A call's band scalars as bits, or its ValueError's message."""
    try:
        return [v.hex() for v in call(*args)]
    except ValueError as exc:
        return str(exc)


def interval_inputs(seed=33):
    """(L, R, A, B, N): the cancelling draws' couplings at N = 2, 3, 6 and 200, as many log-uniform ones
    (L, R within 1e+-3, A, B within 1e+-160), and 100 at L = R = 1, A = +-B, where a = b = 0 and
    c = A^2 is 1e304 .. 1e308, so whether c alone may bring N |H|_F past float64 decides the interval."""
    rng = random.Random(seed)
    sign = lambda: rng.choice([-1.0, 1.0])  # noqa: E731
    inputs = [(*c[:4], rng.choice([2, 3, 6, 200])) for c in cancelling_inputs()]
    while len(inputs) < 400:
        l_coef, r_coef = (sign() * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
        a_coef, b_coef = (sign() * 10.0 ** rng.uniform(-160.0, 160.0) for _ in range(2))
        if 1.0 + l_coef * r_coef != 0.0:
            inputs.append((l_coef, r_coef, a_coef, b_coef, rng.choice([2, 3, 6, 200])))
    for _ in range(100):
        a_coef = 10.0 ** rng.uniform(152.0, 154.0)
        inputs.append((1.0, 1.0, a_coef, sign() * a_coef, rng.choice([3, 6, 200])))
    return inputs


def test_frequency_interval_is_inside_the_float_bound():
    # at each spec's lo and hi, their neighbours and a log-uniform w between, a w inside [lo, hi] gets the
    # float scalars bit for bit, and they meet the float64 bound; a w outside gets _exact_bands' answer
    rng = random.Random(33)
    inside = outside = 0
    for *couplings, n_dim in interval_inputs():
        spec = HamiltonianSpec(TransformParams(*couplings), BasisSpec(n_dim))
        last, lo, hi, half_a, half_b, c = spec._scalars
        assert last == n_dim - 1, couplings
        if n_dim == 2:
            assert lo == math.inf, couplings
            continue
        trial = [lo, hi, math.nextafter(lo, 0.0), math.nextafter(lo, math.inf), math.nextafter(hi, 0.0),
                 math.nextafter(hi, math.inf)]
        if lo < hi:
            trial.append(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        for w in trial:
            if not 0.0 < w < math.inf:
                continue
            got = _outcome(model._checked_bands, spec, w)
            if lo <= w <= hi:
                inside += 1
                x, y = half_a * w, half_b / w
                float_bands = (x + y, (y - x) + c, (y - x) - c)
                assert _parent_bound(float_bands, n_dim), (couplings, n_dim, w)
                assert got == [v.hex() for v in float_bands], (couplings, n_dim, w)
            else:
                outside += 1
                assert got == _outcome(model._exact_bands, spec, w), (couplings, n_dim, w)
    assert inside >= 1000 and outside >= 400, (inside, outside)
