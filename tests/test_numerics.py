import numpy as np
import pytest

from mfou.errors import GridTooCoarse, LengthMismatch
from mfou.numerics import (
    MIN_CELLS,
    RandomStream,
    TimeGrid,
    finite_diff_derivative,
    rekeyed,
)
from oracles import trapezoid_integral


def test_grid_nodes_and_dt():
    grid = TimeGrid(2.0, 10)
    assert grid.dt == 0.2
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 2.0
    assert grid.nodes.shape == (11,)
    assert np.allclose(np.diff(grid.nodes), 0.2)


def test_grid_nodes_frozen():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError):
        grid.nodes[0] = 1.0


def test_grid_index_of():
    grid = TimeGrid(4.0, 16)
    assert grid.index_of(0.0) == 0
    assert grid.index_of(1.0) == 4
    assert grid.index_of(4.0) == 16
    with pytest.raises(ValueError):
        grid.index_of(1.1)
    with pytest.raises(ValueError):
        grid.index_of(4.25)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 16)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 16)
    with pytest.raises(ValueError):
        TimeGrid(float("inf"), 16)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 10.5)
    with pytest.raises(GridTooCoarse):
        TimeGrid(1.0, MIN_CELLS - 1)


def test_stream_is_deterministic():
    a = RandomStream(123, (1, 2)).generator().standard_normal(8)
    b = RandomStream(123, (1, 2)).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_stream_children_differ():
    base = RandomStream(123)
    a = base.child(0).generator().standard_normal(8)
    b = base.child(1).generator().standard_normal(8)
    c = base.child(0, 1).generator().standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert base.child(0).key == (0,)
    assert base.child(0, 1).key == (0, 1)


def test_stream_order_independent():
    # drawing from one address must not perturb another
    first = RandomStream(9, (4,)).generator().standard_normal(4)
    RandomStream(9, (5,)).generator().standard_normal(100)
    again = RandomStream(9, (4,)).generator().standard_normal(4)
    assert np.array_equal(first, again)


def test_stream_rejects_bad_seed():
    with pytest.raises(ValueError):
        RandomStream(-1)
    with pytest.raises(ValueError):
        RandomStream(1.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("master_seed", [0, 1, 2**32, 2**63 + 5, 2**130 + 7])
@pytest.mark.parametrize("prefix", [(), (0,), (2**40,)])
def test_child_keys_match_seed_sequence(master_seed, prefix):
    # the key that Philox(SeedSequence(...)) takes, for every edge address;
    # any RuntimeWarning (uint32 scalar overflow) fails the test
    stream = RandomStream(master_seed, prefix)
    rep_ids = [0, 1, 2**32 - 1]
    for sub in (0, 1):
        keys = stream.child_keys(rep_ids, sub)
        assert keys.shape == (3, 2) and keys.dtype == np.uint64
        for key, rep in zip(keys, rep_ids):
            seq = np.random.SeedSequence(entropy=master_seed, spawn_key=prefix + (rep, sub))
            assert np.array_equal(key, seq.generate_state(2, np.uint64))


def test_child_keys_reject_out_of_range_ids():
    stream = RandomStream(5, (1,))
    for bad in ([-1], [0, 2**32]):
        with pytest.raises(ValueError):
            stream.child_keys(bad, 0)
    assert stream.child_keys([], 0).shape == (0, 2)


def test_rekeyed_generator_matches_fresh_child():
    base = RandomStream(31, (2,))
    gen = base.generator()
    # leave the buffer part used and a spare 32-bit word pending
    gen.integers(0, 10, dtype=np.uint32)
    gen.random(3)
    rep_ids = [6, 0, 6]
    for rng, rep in zip(rekeyed(gen, base.child_keys(rep_ids, 1)), rep_ids):
        fresh = base.child(rep, 1).generator().standard_normal(7)
        assert np.array_equal(rng.standard_normal(7), fresh)
        rng.integers(0, 10, dtype=np.uint32)


def test_trapezoid_square_oracle():
    # trapezoid of t^2 on [0,1] with 10 cells is exactly 1/3 + dt^2/6 = 0.335
    nodes = np.linspace(0.0, 1.0, 11)
    inc = np.full(10, 0.1)
    assert trapezoid_integral(nodes**2, inc) == pytest.approx(0.335, abs=1e-12)


def test_trapezoid_length_check():
    with pytest.raises(LengthMismatch):
        trapezoid_integral(np.ones(5), np.ones(5))


def test_finite_diff_cubic():
    # second-order stencils differentiate t^3 with O(dx^2) error, exact for t^2
    dx = 0.01
    t = np.arange(0.0, 1.0 + dx / 2, dx)
    d = finite_diff_derivative(t**3, dx)
    assert d.shape == t.shape
    assert np.max(np.abs(d - 3.0 * t**2)) < 1e-3
    exact = finite_diff_derivative(t**2, dx)
    assert np.max(np.abs(exact - 2.0 * t)) < 1e-10
