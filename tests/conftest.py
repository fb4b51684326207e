import contextlib
import random

import pytest

from cuntzlab import AlgebraElement, EndomorphismSpec, algebra


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def s1():
    return AlgebraElement.generator(2, 1)


@pytest.fixture
def s2():
    return AlgebraElement.generator(2, 2)


@pytest.fixture
def one():
    return AlgebraElement.one(2)


@pytest.fixture
def psi12():
    return EndomorphismSpec.from_label("(1 2)")


@pytest.fixture
def sparse_reference(monkeypatch):
    """A context in which every product, comparison, sum, adjoint, trace
    state and theta takes the sparse monomial path, the reference for the
    dense kernel; making a kernel element inside it fails the test."""
    def no_kernel_element(*args):
        raise AssertionError("kernel element made inside the sparse reference")

    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "_dense_fits", lambda *args: False)
            mp.setattr(algebra, "_unbuilt", lambda elem: False)
            mp.setattr(algebra, "_held_element", no_kernel_element)
            yield
    return context
