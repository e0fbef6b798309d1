"""``Pcg64`` held to numpy: every draw equals ``numpy.random.default_rng``'s.

The simulator's streams are :class:`repro.simnet.rng.Pcg64`, a pure-Python
PCG64 seeded through numpy's ``SeedSequence``.  numpy stays a test
dependency so that this oracle can replay each generated draw sequence on
both and demand bit-equal results: seeding from ints up to 2**128 and from
``[a, b]`` lists; ``random``/``uniform``/``integers`` interleaved, so the
cached spare 32-bit half of a 64-bit draw meets the 64-bit draws; weighted
``choice``; and the pairwise summation behind ``zipf_weights`` and the
metrics' means, whose form changes at 8 and 128 elements.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.rng import Pcg64, pairwise_sum, zipf_weights

SEEDS = st.one_of(
    st.integers(0, 2**128),
    st.lists(st.integers(0, 2**64), min_size=2, max_size=2),
)

#: ``(op, a, b)``: ``random``; ``uniform(a, b)``; ``integers(a, a + b)``.
#: Spans reach 2**32 - 1, where Lemire's rejection threshold is largest.
DRAWS = st.lists(st.one_of(
    st.tuples(st.just("random"), st.just(0), st.just(0)),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40),
              st.one_of(st.integers(1, 40), st.integers(1, 2**32 - 1))),
), max_size=60)


def play(gen, draws):
    out = []
    for op, a, b in draws:
        if op == "random":
            out.append(float(gen.random()))
        elif op == "uniform":
            out.append(float(gen.uniform(a, a + b)))
        else:
            out.append(int(gen.integers(a, a + b)))
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
