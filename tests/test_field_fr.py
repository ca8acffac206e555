"""Unit and property tests for the BN254 scalar field."""

import ast
import importlib
import tokenize
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.curve.fq import Q
from repro.errors import FieldError
from repro.field import MODULUS, batch_inverse, inv, root_of_unity
from repro.field import fr

elements = st.integers(min_value=0, max_value=MODULUS - 1)


def test_modulus_is_prime_ish():
    # Fermat tests with several bases; MODULUS is the standard BN254 r.
    for base in (2, 3, 5, 7, 11, 13):
        assert pow(base, MODULUS - 1, MODULUS) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(FieldError):
        inv(0)
    with pytest.raises(FieldError):
        batch_inverse([1, 0, 2])


@given(elements)
def test_inverse_property(a):
    if a == 0:
        return
    assert a * inv(a) % MODULUS == 1


@given(st.lists(st.integers(min_value=1, max_value=MODULUS - 1), max_size=20))
def test_batch_inverse_matches_single(values):
    assert batch_inverse(values) == [inv(v) for v in values]


@pytest.mark.parametrize("log", [0, 1, 2, 5, 10, 20, 28])
def test_roots_of_unity(log):
    n = 1 << log
    w = root_of_unity(n)
    assert pow(w, n, MODULUS) == 1
    if n > 1:
        assert pow(w, n // 2, MODULUS) != 1


def test_root_of_unity_rejects_bad_orders():
    with pytest.raises(FieldError):
        root_of_unity(3)
    with pytest.raises(FieldError):
        root_of_unity(1 << 29)
    with pytest.raises(FieldError):
        root_of_unity(0)


class TestRandomScalar:
    """The sanctioned entropy source: secrets-backed, optional F_r^*."""

    def test_default_range(self):
        for _ in range(32):
            assert 0 <= fr.random_scalar() < MODULUS

    def test_default_permits_zero(self, monkeypatch):
        monkeypatch.setattr(fr.secrets, "randbelow", lambda n: 0)
        assert fr.random_scalar() == 0

    def test_nonzero_rejects_zero_draws(self, monkeypatch):
        draws = iter([0, 0, 42])
        monkeypatch.setattr(fr.secrets, "randbelow", lambda n: next(draws))
        assert fr.random_scalar(nonzero=True) == 42

    def test_nonzero_accepts_first_nonzero_draw(self, monkeypatch):
        calls = []

        def fake_randbelow(n):
            calls.append(n)
            return 7

        monkeypatch.setattr(fr.secrets, "randbelow", fake_randbelow)
        assert fr.random_scalar(nonzero=True) == 7
        assert calls == [MODULUS]

    def test_uses_the_os_csprng(self):
        # The module must draw from secrets (OS CSPRNG), never random.
        import inspect

        source = inspect.getsource(fr.random_scalar)
        assert "secrets.randbelow" in source


def test_no_bn254_modulus_literal_outside_its_home():
    """Each BN254 modulus is written once, as a named constant (``fr.MODULUS``,
    ``fq.Q``): a literal copy anywhere else in the package, in any base, is
    one mistyped digit away from arithmetic in the wrong field."""
    package = Path(fr.__file__).resolve().parent.parent
    homes = {package / "field" / "fr.py", package / "curve" / "fq.py"}
    copies = []
    for path in sorted(package.rglob("*.py")):
        if path in homes:
            continue
        with tokenize.open(path) as source:
            for token in tokenize.generate_tokens(source.readline):
                if token.type == tokenize.NUMBER and ast.literal_eval(token.string) in (MODULUS, Q):
                    copies.append("%s:%d" % (path.relative_to(package), token.start[0]))
    assert not copies


_PACKAGE = Path(fr.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "package",
    sorted(
        ".".join(("repro",) + init.parent.relative_to(_PACKAGE).parts)
        for init in _PACKAGE.rglob("__init__.py")
    ),
)
def test_every_exported_name_resolves(package):
    """A name left in ``__all__`` after its definition is deleted breaks
    ``from <package> import *`` and every reader of the package's surface,
    yet imports cleanly: only a lookup of each name catches it."""
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_no_true_division_in_protocol_arithmetic():
    """Field, curve and protocol code is integer arithmetic: a ``/`` goes
    through a float and silently rounds any value past 2**53, so the
    packages that compute in the fields or on the curve hold none.
    (``gadgets/fixedpoint.py`` encodes reals on purpose and is not one of
    them.)"""
    package = Path(fr.__file__).resolve().parent.parent
    found = []
    for sub in ("field", "curve", "kzg", "plonk", "groth16", "backend", "core"):
        for path in sorted((package / sub).rglob("*.py")):
            with tokenize.open(path) as source:
                for token in tokenize.generate_tokens(source.readline):
                    if token.type == tokenize.OP and token.string in ("/", "/="):
                        found.append("%s:%d" % (path.relative_to(package), token.start[0]))
    assert not found
