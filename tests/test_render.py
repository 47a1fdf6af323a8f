"""The CLI's table renderer against Python's own ``%`` formatting."""

from fractions import Fraction

import numpy as np
import pytest

from cyclewalk import cli


def _render(template, columns):
    return b"".join(cli._table(template, columns)).decode("ascii")


def _ties(rng, count):
    """Exact ties at 17 significant digits: x = j 2^-m with j odd has the
    decimal digits of j 5^m, which end in a 5; with j 5^m in [1e17, 1e18)
    that 5 is the 18th digit and nothing follows it."""
    out = []
    for m in range(2, 26):
        low = -(-10 ** 17 // 5 ** m)
        high = min(2 ** 53, 10 ** 18 // 5 ** m)
        if low >= high:
            continue
        j = rng.integers(low, high, count) | 1
        out.append(np.ldexp(j[j < high].astype(np.float64), -m))
    return np.concatenate(out)


def _families():
    rng = np.random.default_rng(20)
    decades = np.arange(-300, 301)
    powers = np.array([float(f"1e{k}") for k in decades])
    dyadic = np.ldexp(1.0, np.arange(-1074, 1024))
    j = rng.integers(10 ** 15, 9 * 10 ** 15 // 2, 20000)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2250738585072009e-308, 2.2250738585072014e-308, 1e-320,
                        9.9999999999999999e-96, 1e100, 9.999999999999999e99, 1e-100])
    return {
        "uniform": rng.random(50000),
        "log-uniform": rng.choice([-1.0, 1.0], 50000) * 10 ** rng.uniform(-320, 308, 50000),
        "bit-patterns": rng.integers(0, 2 ** 64, 50000, dtype=np.uint64).view(np.float64),
        "powers-of-ten": np.concatenate([
            np.nextafter(powers, direction) for direction in (-np.inf, 0.0, np.inf)
        ] + [powers, -powers]),
        "ties": np.concatenate([_ties(rng, 2000), -_ties(rng, 200)]),
        "half-integers": np.concatenate([(2 * j + 1) / 2, (2 * j + 1) / 2 * 1e-16]),
        "dyadic": np.concatenate([dyadic, -dyadic]),
        "special": np.concatenate([special, -special, np.ldexp(
            rng.integers(1, 2 ** 52, 1000).astype(np.float64), -1074)]),
    }


_FAMILIES = _families()


@pytest.mark.parametrize("family", _FAMILIES)
def test_float_fields_match_format_exactly(family):
    x = _FAMILIES[family]
    expected = "".join(format(v, ".16e") + "\n" for v in x.tolist())
    rendered = _render("%.16e\n", (x,))
    if rendered != expected:
        lines = rendered.split("\n")
        bad = [(repr(v), lines[i]) for i, v in enumerate(x.tolist())
               if lines[i] != format(v, ".16e")]
        pytest.fail(f"{len(bad)} mismatches, first: {bad[:3]}")


def test_int_and_label_fields_match_percent_formatting():
    rng = np.random.default_rng(3)
    labels = np.array(["", "a", "generic", "antipodal-pair", "diagonal-pair"])
    for digits in (1, 2, 5, 9, 18):
        rows = 3000
        ints = rng.integers(-10 ** digits + 1, 10 ** digits, rows)
        small = rng.integers(0, 10 ** rng.integers(1, digits + 1, rows))
        names = labels[rng.integers(0, len(labels), rows)]
        floats = rng.standard_normal(rows) * 10 ** rng.uniform(-30, 30, rows)
        template = "%d,[%s]%d;%.16e %s|\n"
        columns = (ints, names, small, floats, names[::-1])
        cells = [v for row in zip(*(c.tolist() for c in columns)) for v in row]
        assert _render(template, columns) == template * rows % tuple(cells)



@pytest.mark.parametrize("digits", range(1, 20))
def test_int_fields_of_every_width_match_percent_formatting(digits):
    # the widest value of a column sets its 4-digit groups; each column mixes
    # signs, zero and the shorter values that take leading NULs
    rng = np.random.default_rng(digits)
    top = min(10 ** digits - 1, 2 ** 63 - 1)
    edges = [0, 1, -1, 9, 10, 9999, 10000, -10000, 10 ** (digits - 1), top, -top]
    shorter = rng.integers(0, 10 ** rng.integers(1, min(digits, 18) + 1, 400))
    wide = rng.integers(10 ** (digits - 1), top, 400, dtype=np.int64, endpoint=True)
    for values in (np.concatenate([edges, shorter, -wide, wide]),
                   np.abs(np.concatenate([edges, shorter, wide]))):
        assert _render("%d\n", (values,)) == "".join(f"{v}\n" for v in values.tolist())


def test_float_fields_at_the_exponent_edges_match_format():
    # exponents +-99 take the word table; +-100 take the exact fallback
    mantissas = np.array([1.0, 1.5, 9.999999999999999, 9.9999999999999999, 5.000000000000001])
    x = np.concatenate([mantissas * 10.0 ** e for e in (-100, -99, 99)]
                       + [np.nextafter([1e100, 1e100, 1e-99, 1e-100, 1e-100],
                                       [0, 2e100, 0, 0, 1])])
    x = np.concatenate([x, -x])
    assert _render("%.16e\n", (x,)) == "".join(format(v, ".16e") + "\n" for v in x.tolist())


def _rounding_up_to_a_power_of_ten():
    """The doubles below 10^k whose 17 significant digits round up to
    1.0000000000000000e(k), for the exponents of the word table."""
    out = []
    for k in range(-98, 100):
        power = float(f"1e{k}")
        for x in (power, float(np.nextafter(power, 0))):
            rounded = format(x, ".16e") == f"1.0000000000000000e{k:+03d}"
            if rounded and Fraction(x) < Fraction(10) ** k:
                out.append(x)
    return np.array(out)


@pytest.mark.parametrize("log10_low", [False, True], ids=["log10", "log10-one-ulp-low"])
def test_mantissas_that_round_up_to_ten_to_the_17_match_format(monkeypatch, log10_low):
    x = _rounding_up_to_a_power_of_ten()
    assert len(x) >= 3
    if log10_low:
        # with E one too small, the scaled value lies just below 10^17: the
        # digits round up to 10^17, and the exponent word moves up by one
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    x = np.concatenate([x, -x])
    assert _render("%.16e\n", (x,)) == "".join(format(v, ".16e") + "\n" for v in x.tolist())


@pytest.mark.parametrize("digits", [1, 4, 5, 8, 19])
def test_fields_without_common_nul_columns_match_percent_formatting(digits):
    # equally wide non-negative ints, and floats without a fallback value,
    # leave out the NULs that every row has; such a chunk has none to delete
    rng = np.random.default_rng(digits)
    ints = rng.integers(10 ** (digits - 1), min(10 ** digits, 2 ** 63 - 1), 3000)
    floats = rng.uniform(1e-3, 1e3, 3000)
    assert cli._ints(ints).shape[1] == digits
    assert cli._floats(floats).shape[1] == 22 and cli._floats(-floats).shape[1] == 23
    for column in (floats, -floats):
        template = "%d,%.16e\n"
        cells = [v for row in zip(ints.tolist(), column.tolist()) for v in row]
        assert _render(template, (ints, column)) == template * len(ints) % tuple(cells)
