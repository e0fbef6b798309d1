"""``Pcg64`` held to numpy: every draw equals ``numpy.random.default_rng``'s.

The simulator's streams are :class:`repro.simnet.rng.Pcg64`, a pure-Python
PCG64 seeded through numpy's ``SeedSequence``.  numpy stays a test
dependency so that this oracle can replay each generated draw sequence on
both and demand bit-equal results: seeding from ints up to 2**128 and from
``[a, b]`` lists; ``random``/``uniform``/``integers``/``exponential``,
weighted sampling without replacement and ``shuffle`` interleaved, so
the cached spare 32-bit half of a 64-bit draw meets the 64-bit draws;
weighted ``choice``; the exponential ziggurat's rare paths and
its tables; and the pairwise summation behind ``zipf_weights`` and the
metrics' means, whose form changes at 8 and 128 elements.
"""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import ziggurat
from repro.simnet.rng import Pcg64, pairwise_sum, zipf_weights

SEEDS = st.one_of(
    st.integers(0, 2**128),
    st.lists(st.integers(0, 2**64), min_size=2, max_size=2),
)


@st.composite
def weighted_samples(draw):
    """``("weighted", p, size)``: ``p`` with zeros among its weights, and
    ``size`` up to the count of non-zero ones."""
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                            min_size=1, max_size=30).filter(any))
    total = pairwise_sum(weights)
    size = draw(st.integers(0, sum(w > 0 for w in weights)))
    return ("weighted", [w / total for w in weights], size)


#: ``(op, a, b)``: ``random``; ``uniform(a, b)``; ``integers(a, a + b)``;
#: ``exponential(a)``; ``sample(len(a), b, p=a)``;
#: ``shuffle(list(range(a)))``.  Spans
#: reach 2**32 - 1, where Lemire's rejection threshold is largest.
DRAWS = st.lists(st.one_of(
    st.tuples(st.just("random"), st.just(0), st.just(0)),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40),
              st.one_of(st.integers(1, 40), st.integers(1, 2**32 - 1))),
    st.tuples(st.just("exponential"), st.floats(1e-3, 1e3), st.just(0)),
    weighted_samples(),
    st.tuples(st.just("shuffle"), st.integers(0, 70), st.just(0)),
), max_size=60)


def sample(gen, n, size, p):
    """``Pcg64.sample`` is numpy's ``choice(..., replace=False)``."""
    if isinstance(gen, Pcg64):
        return gen.sample(n, size, p=p)
    return gen.choice(n, size, p=p, replace=False).tolist()


def play(gen, draws):
    out = []
    for op, a, b in draws:
        if op == "random":
            out.append(float(gen.random()))
        elif op == "uniform":
            out.append(float(gen.uniform(a, a + b)))
        elif op == "integers":
            out.append(int(gen.integers(a, a + b)))
        elif op == "exponential":
            out.append(float(gen.exponential(a)))
        elif op == "weighted":
            out.append(sample(gen, len(a), b, p=a))
        else:
            items = list(range(a))
            gen.shuffle(items)
            out.append(items)
    return out


@settings(max_examples=300, deadline=None)
@given(SEEDS, DRAWS)
def test_draws_equal_numpys(seed, draws):
    assert play(Pcg64(seed), draws) == play(np.random.default_rng(seed), draws)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_one_argument_integers_and_a_span_of_one(seed):
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    for high in (1, 2, 7, 1, 2**31, 3):
        assert ours.integers(high) == int(theirs.integers(high))
        assert ours.integers(5, 6) == int(theirs.integers(5, 6))  # draws nothing
    assert ours.random() == theirs.random()


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40)
       .filter(lambda w: sum(w) > 0), st.integers(0, 30))
def test_weighted_choice_equals_numpys(seed, weights, size):
    total = float(np.sum(weights))
    p = [w / total for w in weights]
    ours = Pcg64(seed).choice(len(p), size=size, p=p)
    theirs = np.random.default_rng(seed).choice(len(p), size=size, p=p)
    assert ours == [int(i) for i in theirs]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.floats(0.05, 3.0))
def test_zipf_weights_equal_numpys_normalisation(n, s):
    weights = np.array([1.0 / (k + 1) ** s for k in range(n)])
    weights /= weights.sum()
    assert zipf_weights(n, s) == weights.tolist()


def test_zipf_choice_equals_numpys_across_the_pairwise_forms():
    # numpy's pairwise sum changes form at n = 8 and n = 128 and recurses
    # above 128: every n up to 300, then two that recurse several levels.
    for n in [*range(1, 301), 1000, 5000]:
        p = zipf_weights(n, 1.1)
        theirs = np.random.default_rng(n).choice(n, size=20, p=p)
        assert Pcg64(n).choice(n, size=20, p=p) == [int(i) for i in theirs], n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=700))
def test_pairwise_mean_equals_numpys_mean(values):
    assert pairwise_sum(values) / len(values) == float(np.mean(values))


def test_pairwise_mean_equals_numpys_mean_on_long_inputs():
    rng = np.random.default_rng(3)
    for n in (129, 256, 1024, 4097, 20000):
        values = (rng.random(n) * 10.0 ** rng.integers(-3, 4, n)).tolist()
        assert pairwise_sum(values) / n == float(np.mean(values)), n


class Probe(Pcg64):
    """A ``Pcg64`` that records, per ``random()`` call ``exponential``
    makes off its fast path, the box the 64-bit draw before it picked."""

    def __init__(self, seed):
        super().__init__(seed)
        self.last = 0
        self.raw = 0
        self.boxes = []

    def _next64(self):
        self.raw += 1
        self.last = super()._next64()
        return self.last

    def random(self):
        self.boxes.append((self.last >> 3) & 0xFF)
        return super().random()


def test_exponential_equals_numpys_through_the_tail_and_the_wedges():
    n = 200_000
    ours = Probe(11)
    draws = [ours.exponential(2.5) for _ in range(n)]
    assert draws == np.random.default_rng(11).exponential(2.5, n).tolist()
    tails = ours.boxes.count(0)
    wedges = len(ours.boxes) - tails
    rejections = ours.raw - len(ours.boxes) - n  # box draws beyond one per result
    assert tails > 0 and wedges > 0 and rejections > 0, (tails, wedges, rejections)


def test_weighted_sampling_with_zero_weights_and_every_non_zero_index():
    p = [0.0, 0.3, 0.0, 0.05, 0.6, 0.0, 0.05]
    for seed in range(50):
        for size in range(5):  # 4 = every index of non-zero weight
            ours, theirs = Pcg64(seed), np.random.default_rng(seed)
            picks = ours.sample(len(p), size, p=p)
            assert picks == sample(theirs, len(p), size, p=p)
            assert all(p[i] > 0 for i in picks) and len(set(picks)) == size
            assert ours.random() == theirs.random()
    for size in (5, len(p) + 1):  # more than the non-zero weights, or than n
        with pytest.raises(ValueError):
            Pcg64(0).sample(len(p), size, p=p)


def test_shuffle_equals_numpys_on_every_length_up_to_1000():
    ours, theirs = Pcg64(5), np.random.default_rng(5)
    for n in range(1001):
        a, b = list(range(n)), list(range(n))
        ours.shuffle(a)
        theirs.shuffle(b)
        assert a == b, n
    assert ours.random() == theirs.random()


LIBNPYRANDOM = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")


@pytest.mark.skipif(not os.path.exists(LIBNPYRANDOM), reason="numpy ships no libnpyrandom.a")
def test_ziggurat_tables_are_numpys_compiled_ones():
    """A draw oracle cannot pin every bit of ``KE`` and ``FE`` (most
    entries decide nothing in a feasible sample), so read numpy's own:
    ``fe_double``, ``we_double`` and ``ke_double`` lie one after another
    in its static library, found by ``we_double[0]``'s bytes."""
    with open(LIBNPYRANDOM, "rb") as f:
        data = f.read()
    at = data.find(struct.pack("<d", ziggurat.WE[0]))
    assert at >= 2048, "we_double[0] not found"
    assert struct.pack("<256d", *ziggurat.FE) == data[at - 2048:at]
    assert struct.pack("<256d", *ziggurat.WE) == data[at:at + 2048]
    assert struct.pack("<256Q", *ziggurat.KE) == data[at + 2048:at + 4096]
