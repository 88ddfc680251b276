import copy
import random

import pytest

from quasidet.catalog import CheckContext, _independent_values
from quasidet.rings import DomainError, Rationals, SampleProfile, SquareMatrices
from quasidet.sampling import (
    RESAMPLE_LIMIT,
    Draw,
    ReplayDraw,
    sample_assignment,
    substream,
)


def test_assignment_reproducible_rationals():
    a = sample_assignment(["x"], Rationals(), random.Random(1))
    b = sample_assignment(["x"], Rationals(), random.Random(1))
    assert a == b


def test_assignment_reproducible_matrix_scalars():
    ring = SquareMatrices(2)
    a = sample_assignment(["x", "y"], ring, random.Random(7))
    b = sample_assignment(["x", "y"], ring, random.Random(7))
    assert a == b
    assert set(a) == {"x", "y"}


def test_substream_independent_of_sibling_order():
    s1 = substream(5, "ID", 3, 2, 0).random()
    # consuming another stream first must not disturb the first stream
    substream(5, "ID", 3, 2, 1).random()
    s1_again = substream(5, "ID", 3, 2, 0).random()
    assert s1 == s1_again


def test_substream_tokens_matter():
    a = substream(5, "A", 1).randint(0, 10**9)
    b = substream(5, "B", 1).randint(0, 10**9)
    assert a != b


def test_draw_log_replays_every_kind():
    ring = SquareMatrices(2)
    draw = Draw(random.Random(3))
    values = (
        draw.scalar(ring),
        draw.invertible_scalar(ring),
        draw.matrix(ring, 2, 3),
        draw.assignment(["x", "y"], ring),
        draw.int_range(1, 6),
        draw.choice(["a", "b", "c"]),
        draw.subset(range(1, 8), 3),
        draw.permutation(4),
    )
    replay = ReplayDraw(draw.log)
    replayed = (
        replay.scalar(ring),
        replay.invertible_scalar(ring),
        replay.matrix(ring, 2, 3),
        replay.assignment(["x", "y"], ring),
        replay.int_range(1, 6),
        replay.choice(["a", "b", "c"]),
        replay.subset(range(1, 8), 3),
        replay.permutation(4),
    )
    assert replayed == values


def test_until_rejects_false_accept_and_domain_errors():
    draw = Draw(random.Random(0))
    tries = iter(range(10))

    def make():
        k = next(tries)
        if k == 1:
            raise DomainError("make rejects try 1")
        return k

    def accept(k):
        if k == 2:
            raise DomainError("accept rejects try 2")
        return k != 0

    # try 0 fails accept, 1 and 2 raise, 3 is the first one taken
    assert draw.until(make, accept, "never") == 3
    assert next(tries) == 4


def test_until_gives_up_after_fifty_tries():
    draw = Draw(random.Random(0))
    calls = []
    with pytest.raises(DomainError, match="^nothing fits$"):
        draw.until(lambda: calls.append(None), lambda _: False, "nothing fits")
    assert len(calls) == RESAMPLE_LIMIT == 50
    assert draw.log == []


def test_rejected_tries_replay_through_the_log():
    # integers in [-1, 1]: three of them repeat a value often, and a
    # repeated value makes the sequence dependent over Q
    ring, count = Rationals(), 3
    for seed in range(100):
        draw = Draw(random.Random(seed), SampleProfile(1, 1))
        drawn = _independent_values(CheckContext(draw=draw, ring=ring, n=count, d=1), count)
        if len(draw.log) > count:
            break
    else:
        pytest.fail("no seed below 100 rejected a try")
    replay = ReplayDraw(draw.log)
    ctx = CheckContext(draw=replay, ring=ring, n=count, d=1)
    assert _independent_values(ctx, count) == drawn
    assert replay.pos == len(draw.log)


M2, M3 = SquareMatrices(2), SquareMatrices(3)
D3 = {"kind": "matrices", "d": 3}


def _set(key, value):
    def edit(rec):
        rec[key] = value

    return edit


def _keep(rec):
    pass


# each case: a live draw, an edit of its one record, and the replayed draw
# that must refuse the edited record
REFUSED = {
    "scalar-ring": (lambda d: d.scalar(M2), _set("ring", D3), lambda r: r.scalar(M2)),
    "assignment-ring": (
        lambda d: d.assignment(["x"], M2),
        _set("ring", D3),
        lambda r: r.assignment(["x"], M2),
    ),
    "assignment-order": (
        lambda d: d.assignment(["x", "y"], Rationals()),
        _keep,
        lambda r: r.assignment(["y", "x"], Rationals()),
    ),
    "matrix-ring": (lambda d: d.matrix(M2, 2, 2), _keep, lambda r: r.matrix(M3, 2, 2)),
    "matrix-shape": (
        lambda d: d.matrix(Rationals(), 2, 3),
        _keep,
        lambda r: r.matrix(Rationals(), 3, 2),
    ),
    "invertible-matrix-shape": (
        lambda d: d.invertible_matrix(Rationals(), 2),
        _keep,
        lambda r: r.invertible_matrix(Rationals(), 3),
    ),
    "int-above-range": (lambda d: d.int_range(1, 6), _set("v", 7), lambda r: r.int_range(1, 6)),
    "choice-negative": (
        lambda d: d.choice([1, 2, 3]),
        _set("v", -1),
        lambda r: r.choice([1, 2, 3]),
    ),
    "subset-unsorted": (
        lambda d: d.subset(range(1, 8), 2),
        _set("v", [3, 1]),
        lambda r: r.subset(range(1, 8), 2),
    ),
    "subset-repeat": (
        lambda d: d.subset(range(1, 8), 2),
        _set("v", [2, 2]),
        lambda r: r.subset(range(1, 8), 2),
    ),
    "subset-outside-pool": (
        lambda d: d.subset(range(1, 8), 2),
        _set("v", [1, 9]),
        lambda r: r.subset(range(1, 8), 2),
    ),
    "subset-size": (
        lambda d: d.subset(range(1, 8), 2),
        _set("v", [1, 2, 3]),
        lambda r: r.subset(range(1, 8), 2),
    ),
    "permutation-repeat": (
        lambda d: d.permutation(2),
        _set("v", [3, 3]),
        lambda r: r.permutation(2),
    ),
    "permutation-size": (
        lambda d: d.permutation(2),
        _set("v", [1, 2, 3]),
        lambda r: r.permutation(2),
    ),
}


@pytest.mark.parametrize("draw_one,edit,replay_one", list(REFUSED.values()), ids=list(REFUSED))
def test_replay_refuses_a_record_its_draw_cannot_return(draw_one, edit, replay_one):
    draw = Draw(random.Random(3))
    draw_one(draw)
    (rec,) = copy.deepcopy(draw.log)
    edit(rec)
    replay = ReplayDraw([rec])
    with pytest.raises(ValueError, match="^replay log mismatch"):
        replay_one(replay)
    assert replay.pos == 0


def test_replayed_matrix_is_over_the_callers_ring():
    draw = Draw(random.Random(3))
    drawn = draw.matrix(M2, 2, 2)
    replayed = ReplayDraw(draw.log).matrix(M2, 2, 2)
    assert replayed == drawn and replayed.ring is M2
