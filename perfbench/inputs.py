"""Workload definitions and the seeded input streams they draw from.

Everything here is plain data (problem dicts as ``levystop.spec_from_dict``
reads them); nothing imports the package under test.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from oracle import phi, psi1

# Passage levels of the acceptance gate (AC-4).
LEVELS = (-0.15, -0.4, -0.8, -1.1, -1.5)

BROWNIAN = {"family": "brownian", "m": -0.5, "sigma": 1.0}
KOU = {"family": "kou", "m": -0.2, "sigma": 0.3, "a": 0.5, "p": 0.4,
       "eta1": 3.0, "eta2": 2.0}
EXPJD = {"family": "expjd", "m": -0.3, "sigma": 0.8, "a": 0.8, "eta1": 2.5}
SPECTNEG = {"family": "spectneg_kou", "m": 0.1, "sigma": 0.7, "a": 0.9,
            "eta2": 1.8}
NEG_POISSON = {"family": "neg_poisson", "a": 1.5}


@dataclass(frozen=True)
class PassageCase:
    """``mc.hitting_estimates`` at LEVELS for one gate model."""

    model: dict
    r: float
    seed: int


@dataclass(frozen=True)
class PolicyCase:
    """``mc.policy_value`` at B_c, started from ``v_over_b`` times B_c
    (or from the fixed ``v`` of the problem when ``v_over_b`` is None)."""

    problem: dict
    seed: int
    v_over_b: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    families: Tuple[str, ...]
    per_family: int          # specs of each family in one timed sub-block
    sub_blocks: int          # timed sub-blocks per round
    passage_paths: int
    policy_paths: int
    passage: Tuple[PassageCase, ...]
    policy: Tuple[PolicyCase, ...]
    # Gate problem for the CLI processes and the set-up warm-up: a fixed
    # spec keeps per-spec cost out of those few, second-long samples.
    gate: dict
    # Valid specs whose value curve fails through a known fault; each round
    # attempts them, so the failed share is the same in every run.
    known_faults: Tuple[dict, ...] = ()
    # Pair a shallow spec with a deep one in each sub-block.  Value-curve
    # cost varies 10x with the depth 1/Phi(r) the scale table must cover,
    # and balanced pairs keep that spread out of the sub-block rates.
    pair_by_depth: bool = False


def _problem(model, r, alpha=1.0, c=1.0, v=1.0):
    return {"model": dict(model), "r": r, "alpha": alpha, "c": c, "v": v}


# The AC-2 problems.
KOU_PROBLEM = _problem(KOU, 1.0, v=2.6)
COUNTER_PROBLEM = _problem({"family": "neg_poisson", "a": 1.0}, 0.5, v=3.2)


WORKLOADS = {
    # Root solves, the two-root Kou transforms and the dt-grid sampler do the
    # work; no scale-function table is built.
    "diffusive": Workload(
        families=("brownian", "kou", "expjd"), per_family=5, sub_blocks=80,
        passage_paths=2000, policy_paths=2000,
        passage=(PassageCase(BROWNIAN, 2.0, 40), PassageCase(KOU, 1.0, 40),
                 PassageCase(EXPJD, 2.0, 40)),
        policy=(PolicyCase(_problem({"family": "brownian", "m": 0.0,
                                     "sigma": 1.0}, 1.0), 31, v_over_b=2.0),
                PolicyCase(KOU_PROBLEM, 21)),
        gate=KOU_PROBLEM),
    # Talbot scale tables dominate every value curve.
    "spectneg": Workload(
        families=("spectneg_kou",), per_family=2, sub_blocks=30,
        passage_paths=2000, policy_paths=2000, pair_by_depth=True,
        passage=(PassageCase(SPECTNEG, 2.0, 40),),
        policy=(PolicyCase(_problem(SPECTNEG, 2.0), 32, v_over_b=2.0),),
        gate=_problem(SPECTNEG, 2.0),
        known_faults=(
            _problem({"family": "spectneg_kou", "m": 0.0, "sigma": 1e-3,
                      "a": 1.0, "eta2": 2.0}, 1.0),
            _problem({"family": "spectneg_kou", "m": -0.1, "sigma": 1e-3,
                      "a": 0.5, "eta2": 1.5}, 1.2, alpha=0.8, c=1.5),
        )),
    # Microsecond thresholds and the exact event sampler: fixed per-call
    # costs dominate.
    "counter": Workload(
        families=("neg_poisson",), per_family=50, sub_blocks=60,
        passage_paths=1000000, policy_paths=200000,
        passage=(PassageCase(NEG_POISSON, 0.3, 40),),
        policy=(PolicyCase(COUNTER_PROBLEM, 22),),
        gate=COUNTER_PROBLEM),
}


class SpecStream:
    """Distinct problem dicts drawn from the acceptance fuzz ranges."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def draw(self, family):
        rng = self._rng
        m = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.15, 1.8)
        a = rng.uniform(0.1, 2.5)
        if family == "brownian":
            model = {"m": m, "sigma": sigma}
        elif family == "kou":
            model = {"m": m, "sigma": sigma, "a": a,
                     "p": rng.uniform(0.1, 0.9),
                     "eta1": rng.uniform(1.2, 6.0),
                     "eta2": rng.uniform(0.25, 6.0)}
        elif family == "expjd":
            model = {"m": m, "sigma": sigma, "a": a,
                     "eta1": rng.uniform(1.2, 6.0)}
        elif family == "neg_poisson":
            model = {"a": rng.uniform(0.1, 4.0)}
        elif family == "spectneg_kou":
            model = {"m": m, "sigma": sigma, "a": a,
                     "eta2": rng.uniform(0.25, 6.0)}
        else:
            raise ValueError(f"unknown family {family!r}")
        model = {"family": family, **model}
        r = max(psi1(model), 0.0) + rng.uniform(0.15, 2.5)
        return _problem(model, r, alpha=rng.uniform(0.2, 3.0),
                        c=rng.uniform(0.2, 3.0))

    def round_blocks(self, workload):
        """The timed sub-blocks of one round, each with the same family mix."""
        blocks = [[self.draw(fam) for fam in workload.families
                   for _ in range(workload.per_family)]
                  for _ in range(workload.sub_blocks)]
        if workload.pair_by_depth:
            docs = sorted((doc for block in blocks for doc in block),
                          key=lambda doc: 1.0 / phi(doc))
            n = len(docs)
            blocks = [[docs[i], docs[n - 1 - i]] for i in range(n // 2)]
            self._rng.shuffle(blocks)
        return blocks
