"""Randomized identity verdicts and formula equivalence checking.

Two formulas are compared by exact evaluation at seeded random points
over exact-rational matrix rings of several dimensions.  Agreement at
every sampled point yields ``verified`` (a probabilistic verdict); one
exact mismatch yields ``counterexample`` with a replayable assignment;
persistent domain failures yield ``domain_exhausted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .formula import RatFormula, evaluate, free_vars
from .rings import (
    DomainError,
    Rationals,
    SampleProfile,
    ScalarRing,
    SquareMatrices,
)
from .sampling import sample_assignment, substream

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
DOMAIN_EXHAUSTED = "domain_exhausted"
# the cell filters of a run left the identity nothing to sample
NO_CELLS = "no_cells"


def ring_for_dimension(d: int) -> ScalarRing:
    """Evaluation ring for dimension d: rationals at 1, matrices above."""
    return Rationals() if d == 1 else SquareMatrices(d)


@dataclass
class IdentityVerdict:
    status: str
    attempted: int = 0
    succeeded: int = 0
    seed: int = 0
    counterexample: Optional[dict] = None
    cells: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "seed": self.seed,
            "counterexample": self.counterexample,
            "cells": self.cells,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IdentityVerdict":
        return cls(
            status=obj["status"],
            attempted=obj["attempted"],
            succeeded=obj["succeeded"],
            seed=obj["seed"],
            counterexample=obj.get("counterexample"),
            cells=obj.get("cells", []),
        )


@dataclass
class EquivalenceConfig:
    dims: tuple = (1, 2, 3)
    samples: int = 20
    resample_limit: int = 50
    seed: int = 0xC0FFEE
    profile: Optional[SampleProfile] = None


def equivalent(f: RatFormula, g: RatFormula, config: Optional[EquivalenceConfig] = None) -> IdentityVerdict:
    """Decide f ~ g by sampling; exact comparison, no tolerances."""
    config = config or EquivalenceConfig()
    names = sorted(free_vars(f) | free_vars(g))
    verdict = IdentityVerdict(status=VERIFIED, seed=config.seed)
    for d in config.dims:
        ring = ring_for_dimension(d)
        cell = {"d": d, "attempted": 0, "succeeded": 0, "status": VERIFIED}
        verdict.cells.append(cell)
        for k in range(config.samples):
            rng = substream(config.seed, "EQ", d, k)
            done = False
            for _ in range(config.resample_limit):
                verdict.attempted += 1
                cell["attempted"] += 1
                sigma = sample_assignment(names, ring, rng, config.profile)
                try:
                    lhs = evaluate(f, sigma, ring)
                    rhs = evaluate(g, sigma, ring)
                except DomainError:
                    continue
                verdict.succeeded += 1
                cell["succeeded"] += 1
                done = True
                if not ring.equals(lhs, rhs):
                    verdict.status = COUNTEREXAMPLE
                    cell["status"] = COUNTEREXAMPLE
                    verdict.counterexample = {
                        "d": d,
                        "sample": k,
                        "ring": ring.spec(),
                        "assignment": {n: ring.serialize(v) for n, v in sigma.items()},
                        "lhs": ring.serialize(lhs),
                        "rhs": ring.serialize(rhs),
                    }
                    return verdict
                break
            if not done:
                cell["status"] = DOMAIN_EXHAUSTED
                verdict.status = DOMAIN_EXHAUSTED
                return verdict
    return verdict


def replay_equivalence(f: RatFormula, g: RatFormula, counterexample: dict) -> dict:
    """Re-evaluate a stored counterexample; returns fresh serializations."""
    from .rings import ring_from_spec

    ring = ring_from_spec(counterexample["ring"])
    sigma = {n: ring.deserialize(v) for n, v in counterexample["assignment"].items()}
    lhs = evaluate(f, sigma, ring)
    rhs = evaluate(g, sigma, ring)
    return {"lhs": ring.serialize(lhs), "rhs": ring.serialize(rhs)}
