"""``csvtext.repr_field`` must give exactly the bytes of ``repr`` for every
float64: random bit patterns, hypothesis floats and enumerated edges."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from woodelf import csvtext


def _assert_repr_bytes(values):
    values = np.asarray(values, dtype=np.float64)
    got = csvtext.pack(csvtext.repr_field(values), np.array([ord("\n")], np.uint8)).decode()
    expected = "".join(f"{x!r}\n" for x in values.tolist())
    if got != expected:
        bad = [(e, g) for e, g in zip(expected.splitlines(), got.splitlines()) if e != g]
        raise AssertionError(f"{len(bad)} values differ from repr, e.g. {bad[:5]}")


def test_random_bit_patterns():
    rng = np.random.default_rng(2511)
    _assert_repr_bytes(rng.integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
                       .view(np.float64))


def test_wide_and_everyday_magnitudes():
    rng = np.random.default_rng(9376)
    scales = 10.0 ** rng.integers(-300, 300, 200_000)
    _assert_repr_bytes(rng.standard_normal(200_000) * scales)
    _assert_repr_bytes(rng.standard_normal(200_000) * 1e-3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_hypothesis_floats(values):
    _assert_repr_bytes(values)


def test_enumerated_edges():
    tiny, huge = 5e-324, np.finfo(np.float64).max
    powers_of_ten = 10.0 ** np.arange(-30, 31)
    _assert_repr_bytes(np.concatenate([
        [0.0, -0.0, tiny, -tiny, huge, -huge, np.finfo(np.float64).tiny],
        2.0 ** np.arange(-1074, 1024), -(2.0 ** np.arange(-1074, 1024)),
        powers_of_ten, np.nextafter(powers_of_ten, 0), np.nextafter(powers_of_ten, np.inf),
        -powers_of_ten,
        [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54 + 4, 0.1, 0.2, 0.3, 2.5, 1e-7, 1e20,
         1e-4, 1e-5, 1e15, 1e16, 1e17, 123456789012345678.0, 0.000123, 1234.0],
        [np.nan, np.inf, -np.inf],
    ]))


def test_every_significant_digit_count():
    """Decimals of 1 to 17 significant digits at exponents -30..30, and the
    integral floats that print in fixed form with a trailing ``.0``."""
    rng = np.random.default_rng(17)
    values = []
    for digits in range(1, 18):
        for exponent in range(-30, 31):
            for _ in range(20):
                mantissa = "".join(map(str, rng.integers(0, 10, digits)))
                values.append(float(f"{rng.integers(1, 10)}{mantissa[1:]}e{exponent}"))
    values += [float(i) for i in range(-1000, 1000)]
    values += [float(10**k + 1) for k in range(16)]
    _assert_repr_bytes(values)


def test_fields_and_pack():
    ids = csvtext.text_field(["0", "9", "10"])
    names = csvtext.text_field(["a", "", "é,\"x\""])
    assert ids.shape == (3, 2) and csvtext.pack(ids) == b"0910"
    assert csvtext.pack(names) == "aé,\"x\"".encode()
    newline = np.array([ord("\n")], np.uint8)
    assert csvtext.join(ids[:, None, :], names, newline).shape == (3, 3, 2 + 6 + 1)
    lines = csvtext.pack(ids[:, None, :], names, newline).decode()
    assert lines.splitlines() == ["0a", "0", "0é,\"x\"", "9a", "9", "9é,\"x\"",
                                  "10a", "10", "10é,\"x\""]
