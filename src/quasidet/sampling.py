"""Seeded randomness: substream derivation and replayable draws.

Every random decision flows through a ``Draw``; a live draw records the
serialized form of each value it hands out, and a ``ReplayDraw`` feeds
those values back in the same order.  Identity checks written against
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
from .rings import DomainError, SampleProfile, ScalarRing

# tries per sample slot in ``run_identity`` and per ``Draw.until`` loop
RESAMPLE_LIMIT = 50


def substream(seed: int, *tokens) -> random.Random:
    """Deterministic child RNG for the given seed and token path."""
    material = repr((seed,) + tokens).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_assignment(
    names: Sequence[str],
    ring: ScalarRing,
    rng: random.Random,
    profile: Optional[SampleProfile] = None,
) -> dict:
    """Independent random ring values for each name, in the given order."""
    return {name: ring.random_element(rng, profile) for name in names}


def sample_matrix(
    ring: ScalarRing,
    n_rows: int,
    n_cols: int,
    rng: random.Random,
    profile: Optional[SampleProfile] = None,
    row_labels=None,
    col_labels=None,
) -> NcMatrix:
    return NcMatrix(
        ring,
        [
            [ring.random_element(rng, profile) for _ in range(n_cols)]
            for _ in range(n_rows)
        ],
        row_labels,
        col_labels,
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
        sigma = sample_assignment(names, ring, self.rng, self.profile)
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
    """Feeds back a recorded draw log; raises if the shape disagrees."""

    def __init__(self, log: list):
        super().__init__(random.Random(0))
        self.stored = list(log)
        self.pos = 0

    def _next(self, kind: str):
        if self.pos >= len(self.stored):
            raise ValueError("replay log exhausted")
        rec = self.stored[self.pos]
        if rec["t"] != kind:
            raise ValueError(f"replay log mismatch: wanted {kind}, log has {rec['t']}")
        self.pos += 1
        self.log.append(rec)
        return rec

    def scalar(self, ring):
        rec = self._next("scalar")
        return ring.deserialize(rec["v"])

    invertible_scalar = scalar

    def matrix(self, ring, n_rows, n_cols):
        rec = self._next("matrix")
        return NcMatrix.deserialize(rec["v"])

    def invertible_matrix(self, ring, n):
        rec = self._next("matrix")
        return NcMatrix.deserialize(rec["v"])

    def assignment(self, names, ring):
        rec = self._next("assignment")
        return {k: ring.deserialize(v) for k, v in rec["v"].items()}

    def int_range(self, lo, hi):
        return self._next("int")["v"]

    def choice(self, options):
        return options[self._next("int")["v"]]

    def subset(self, pool, size):
        return tuple(self._next("ints")["v"])

    def permutation(self, n):
        return tuple(self._next("ints")["v"])
