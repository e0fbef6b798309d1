"""Unit tests for named, seeded RNG streams."""

from repro.simnet.rng import Pcg64, stream_seed


def draws(gen, n):
    return [gen.random() for _ in range(n)]


def stream(seed, name):
    return Pcg64(stream_seed(seed, name))


def test_distinct_names_give_distinct_streams():
    a = draws(stream(7, "a"), 10)
    b = draws(stream(7, "b"), 10)
    assert a != b


def test_same_seed_reproduces_streams():
    x = draws(stream(3, "vbr/0"), 20)
    y = draws(stream(3, "vbr/0"), 20)
    assert x == y


def test_different_seeds_differ():
    x = draws(stream(3, "vbr/0"), 20)
    y = draws(stream(4, "vbr/0"), 20)
    assert x != y


def test_adding_stream_does_not_perturb_existing():
    """Name-based seeding: creation order must not matter."""
    first = stream(9, "first")
    draws(first, 5)
    a1 = draws(stream(9, "target"), 10)

    a2 = draws(stream(9, "target"), 10)  # created without "first"
    assert a1 == a2
