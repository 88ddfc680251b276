"""Seeded randomness: substream derivation and replayable draws.

Every random decision flows through a ``Draw``; a live draw records the
serialized form of each value it hands out, and a ``ReplayDraw`` feeds
those values back in the same order, raising ValueError at a record that
does not fit the draw that reads it.  Identity checks written against
this interface replay counterexamples bit-exactly, in or across
processes.  Substreams are derived by hashing (seed, tokens...) so that
per-(identity, size, dimension, sample) streams are independent of
execution order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Optional, Sequence

from .matrix import NcMatrix
from .rings import DomainError, SampleProfile, ScalarRing, _is_grid

# tries per sample slot in ``run_identity`` and per ``Draw.until`` loop
RESAMPLE_LIMIT = 50


def substream(seed: int, *tokens) -> random.Random:
    """Deterministic child RNG for the given seed and token path."""
    material = repr((seed,) + tokens).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_matrix(
    ring: ScalarRing,
    n_rows: int,
    n_cols: int,
    rng: random.Random,
    profile: Optional[SampleProfile] = None,
) -> NcMatrix:
    return NcMatrix(
        ring,
        [
            [ring.random_element(rng, profile) for _ in range(n_cols)]
            for _ in range(n_rows)
        ],
    )


class Draw:
    """Live randomness source that logs every drawn value."""

    def __init__(self, rng: random.Random, profile: Optional[SampleProfile] = None):
        self.rng = rng
        self.profile = profile
        self.log: list = []

    def until(self, make: Callable, accept: Callable, message: str):
        """The first ``make()`` that ``accept`` takes, in at most
        ``RESAMPLE_LIMIT`` tries.  A ``DomainError`` from either call
        rejects a try.  Nothing is logged here: a try is in the log exactly
        when ``make`` logs it, so a replay walks through the same rejected
        tries."""
        for _ in range(RESAMPLE_LIMIT):
            try:
                value = make()
                if accept(value):
                    return value
            except DomainError:
                pass
        raise DomainError(message)

    # each method returns the value and appends its serialized form

    def scalar(self, ring: ScalarRing):
        x = ring.random_element(self.rng, self.profile)
        self.log.append({"t": "scalar", "ring": ring.spec(), "v": ring.serialize(x)})
        return x

    def invertible_scalar(self, ring: ScalarRing):
        x = self.until(
            lambda: ring.random_element(self.rng, self.profile),
            lambda x: ring.try_invert(x) is not None,
            f"could not sample an invertible scalar in {ring.name}",
        )
        self.log.append({"t": "scalar", "ring": ring.spec(), "v": ring.serialize(x)})
        return x

    def matrix(self, ring, n_rows, n_cols):
        mat = sample_matrix(ring, n_rows, n_cols, self.rng, self.profile)
        self.log.append({"t": "matrix", "v": mat.serialize()})
        return mat

    def invertible_matrix(self, ring, n):
        mat = self.until(
            lambda: sample_matrix(ring, n, n, self.rng, self.profile),
            lambda mat: mat.inverse() is not None,  # a singular one raises
            f"could not draw an invertible {n}x{n} matrix over {ring.name}",
        )
        self.log.append({"t": "matrix", "v": mat.serialize()})
        return mat

    def assignment(self, names: Sequence[str], ring: ScalarRing) -> dict:
        sigma = {name: ring.random_element(self.rng, self.profile) for name in names}
        self.log.append(
            {
                "t": "assignment",
                "ring": ring.spec(),
                "v": {k: ring.serialize(v) for k, v in sigma.items()},
                "order": list(names),
            }
        )
        return sigma

    def int_range(self, lo: int, hi: int) -> int:
        v = self.rng.randint(lo, hi)
        self.log.append({"t": "int", "v": v})
        return v

    def choice(self, options: Sequence):
        idx = self.rng.randrange(len(options))
        self.log.append({"t": "int", "v": idx})
        return options[idx]

    def subset(self, pool: Sequence, size: int) -> tuple:
        picked = sorted(self.rng.sample(list(pool), size))
        self.log.append({"t": "ints", "v": list(picked)})
        return tuple(picked)

    def permutation(self, n: int) -> tuple:
        perm = list(range(1, n + 1))
        self.rng.shuffle(perm)
        self.log.append({"t": "ints", "v": list(perm)})
        return tuple(perm)


class ReplayDraw(Draw):
    """Feeds back a recorded draw log.  Each record is checked against the
    draw that reads it: its kind and the fields that kind carries, its ring
    and shape, and that its value is one the live draw could return,
    invertibility included.  A record that
    does not fit raises ValueError and is not consumed; ``check_exhausted``
    raises one for records left over once the check is done."""

    def __init__(self, log: list):
        if not isinstance(log, list):
            raise ValueError(f"a draw log is a list of records, got {log!r}")
        super().__init__(random.Random(0))
        self.stored = list(log)
        self.pos = 0

    def _next(self, kind: str, fits: Callable, read: Callable = lambda v: v):
        """``read`` of the next record's value, if its kind is ``kind`` and
        ``fits`` takes it; ``read`` raises ValueError on a value the draw
        could not return."""
        if self.pos >= len(self.stored):
            raise ValueError("replay log exhausted")
        rec = self.stored[self.pos]
        if not isinstance(rec, dict) or not isinstance(rec.get("t"), str):
            raise ValueError(f"replay log mismatch: record {self.pos} is not an object with a string t")
        if rec["t"] != kind:
            raise ValueError(f"replay log mismatch: wanted {kind}, log has {rec['t']}")
        if "v" not in rec or not fits(rec):
            raise ValueError(f"replay log mismatch: {kind} record {self.pos} does not fit")
        try:
            value = read(rec["v"])
        except ValueError as err:
            raise ValueError(
                f"replay log mismatch: {kind} record {self.pos} does not fit: {err}"
            ) from None
        self.pos += 1
        self.log.append(rec)
        return value

    def check_exhausted(self):
        """ValueError when records are left that no draw has read."""
        if self.pos < len(self.stored):
            raise ValueError(
                f"replay log mismatch: {len(self.stored) - self.pos} record(s) "
                f"left unread from record {self.pos}"
            )

    def scalar(self, ring):
        return self._next("scalar", lambda rec: rec.get("ring") == ring.spec(), ring.deserialize)

    def invertible_scalar(self, ring):
        def read(v):
            x = ring.deserialize(v)
            if ring.try_invert(x) is None:
                raise ValueError(f"not invertible in {ring.name}")
            return x

        return self._next("scalar", lambda rec: rec.get("ring") == ring.spec(), read)

    def matrix(self, ring, n_rows, n_cols):
        return self._matrix(ring, n_rows, n_cols, lambda mat: mat)

    def invertible_matrix(self, ring, n):
        def invertible(mat):
            try:
                mat.inverse()
            except DomainError:
                raise ValueError(f"singular over {ring.name}") from None
            return mat

        return self._matrix(ring, n, n, invertible)

    def _matrix(self, ring, n_rows, n_cols, check: Callable):
        def fits(rec):
            v = rec["v"] if isinstance(rec["v"], dict) else {}
            rows, cols = v.get("row_labels"), v.get("col_labels")
            labels = _is_range(rows, n_rows) and _is_range(cols, n_cols)
            grid = _is_grid(v.get("entries"), n_rows, n_cols)
            return v.get("ring") == ring.spec() and labels and grid

        def read(v):
            entries = [[ring.deserialize(x) for x in row] for row in v["entries"]]
            return check(NcMatrix(ring, entries))

        return self._next("matrix", fits, read)

    def assignment(self, names, ring):
        want = [ring.spec(), list(names)]
        return self._next(
            "assignment",
            lambda rec: [rec.get("ring"), rec.get("order")] == want
            and isinstance(rec["v"], dict) and rec["v"].keys() == set(names),
            lambda v: {k: ring.deserialize(v[k]) for k in names},
        )

    def int_range(self, lo, hi):
        return self._next("int", lambda rec: type(rec["v"]) is int and lo <= rec["v"] <= hi)

    def choice(self, options):
        return options[self.int_range(0, len(options) - 1)]

    def subset(self, pool, size):
        def fits(rec):
            v = rec["v"]
            return _int_list(v) and len(v) == size and v == sorted(set(v)) and set(v) <= set(pool)

        return tuple(self._next("ints", fits))

    def permutation(self, n):
        # a permutation of 1..n is a list of ints that sorts to 1..n
        return tuple(
            self._next("ints", lambda rec: _int_list(rec["v"]) and _is_range(sorted(rec["v"]), n))
        )


def _int_list(v) -> bool:
    # a bool is an int to isinstance, so int draws compare types exactly
    return type(v) is list and all(type(x) is int for x in v)


def _is_range(v, n: int) -> bool:
    # whether v is the list 1..n; by its length first, so a large n costs only v's size
    return type(v) is list and len(v) == n and v == list(range(1, n + 1))
