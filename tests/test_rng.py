"""Unit tests for the seeded RNG registry."""

from repro.simnet.rng import RngRegistry


def draws(gen, n):
    return [gen.random() for _ in range(n)]


def test_same_name_returns_same_generator():
    reg = RngRegistry(seed=7)
    assert reg.fork("a") is reg.fork("a")


def test_distinct_names_give_distinct_streams():
    reg = RngRegistry(seed=7)
    a = draws(reg.fork("a"), 10)
    b = draws(reg.fork("b"), 10)
    assert a != b


def test_same_seed_reproduces_streams():
    x = draws(RngRegistry(seed=3).fork("vbr/0"), 20)
    y = draws(RngRegistry(seed=3).fork("vbr/0"), 20)
    assert x == y


def test_different_seeds_differ():
    x = draws(RngRegistry(seed=3).fork("vbr/0"), 20)
    y = draws(RngRegistry(seed=4).fork("vbr/0"), 20)
    assert x != y


def test_adding_stream_does_not_perturb_existing():
    """Name-based forking: creation order must not matter."""
    reg1 = RngRegistry(seed=9)
    reg1.fork("first")
    a1 = draws(reg1.fork("target"), 10)

    reg2 = RngRegistry(seed=9)
    a2 = draws(reg2.fork("target"), 10)  # created without "first"
    assert a1 == a2


def test_none_seed_defaults_to_zero():
    assert RngRegistry(None).seed == 0


def test_names_listing():
    reg = RngRegistry(seed=1)
    reg.fork("b")
    reg.fork("a")
    assert reg.names() == ["a", "b"]
