"""Job lists for the three benchmark workloads, all derived from one seed.

A workload is a sequence of rounds.  Round k is a list of jobs; a CLI job is
an argument vector for `rank2verma`, a warm job is a family index and a `t`
value for the long-lived worker.  Everything here is a pure function of the
seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("grid-cold", "tsweep-warm", "factors-cold")

# (p, q, cases, n, m) for each one-process `verify` job of grid-cold, with
# the grades they reach.  Seven cheap jobs, three light and four heavy of
# about the same cost, so that the median and the tail both fall among the
# heavy ones and not on the edge between two jobs' samples; then the (6,4)
# job, which only the first round runs: at about 8 s it would otherwise
# leave too few samples for a tail.
GRID_JOBS = (
    (2, 2, "2", "1", "3"),  # (3,6); t = -3/2 is nongeneric here, kept on purpose
    (2, 2, "4", "1", "3"),  # (6,3); same nongeneric sample
    (2, 3, "1,3", "2", "1"),  # (5,3) and (2,5)
    (2, 2, "1,2,3,4", "1,2", "1"),  # the acceptance grid, up to (4,3) and (3,4)
    (2, 3, "4", "1", "2"),  # (4,2)
    (1, 4, "2", "1", "2"),  # (2,8); only target H is defined
    (3, 3, "4", "1", "2"),  # (6,2)
)
GRID_FIRST_ROUND_ONLY = (2, 2, "1", "2", "2")  # (6,4); quotient dim 48

# (p, q, case, n, m) for each family of tsweep-warm: grades (5,3), (3,6), (8,3).
# A job sweeps all three at one t, so it lasts about a second: jobs of a
# tenth of a second would each land wholly in a fast or a slow phase of a
# shared CPU, and their median would jump between the two.
TSWEEP_FAMILIES = (
    (2, 3, 1, 2, 1),
    (2, 2, 2, 1, 3),
    (3, 3, 1, 2, 1),
)

# identities jobs.  The L-target sandwich products cost about n^3.5, and the
# CLI draws n uniformly from [1, n_max] itself, so with a large n_max a few
# draws set a job's cost and the per-run median moves with the seed.  n_max =
# 4 with 100 trials per target keeps it steady (README.md has the
# measurements); beta stays in the hundreds.
FACTOR_TRIALS = 100
FACTOR_N_MAX = 4
FACTOR_ALPHA_MAX = 4
FACTOR_BETA_RANGE = (100, 500)

# rounds done by a traced run, which is fixed work rather than timed
TRACE_ROUNDS = {"grid-cold": 4, "tsweep-warm": 24, "factors-cold": 30}


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class Grid:
    """Every grid-cold round runs the cheap jobs and round 0 ends with the
    (6,4) job.  Each round draws fresh verify seeds, so a run averages over
    several random t samples per job."""

    def __init__(self, seed: int):
        self._rng = _rng(seed, "grid-cold")
        self._rounds: list[list[list[str]]] = []

    def round(self, k: int) -> list[list[str]]:
        while len(self._rounds) <= k:
            jobs = GRID_JOBS if self._rounds else GRID_JOBS + (GRID_FIRST_ROUND_ONLY,)
            self._rounds.append([
                [
                    "verify", "--p", str(p), "--q", str(q), "--cases", cases,
                    "--n", n, "--m", m, "--seed", str(self._rng.randrange(10**6)),
                ]
                for p, q, cases, n, m in jobs
            ])
        return self._rounds[k]


def random_t(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-999, 999), rng.randint(1, 999))


class TSweep:
    """t values for tsweep-warm: one for the warm-up job, then one fresh t
    per round.  A job runs every family at its t."""

    def __init__(self, seed: int):
        self._rng = _rng(seed, "tsweep-warm")
        self.warmup = random_t(self._rng)
        self._rounds: list[list[Fraction]] = []

    def round(self, k: int) -> list[Fraction]:
        while len(self._rounds) <= k:
            self._rounds.append([random_t(self._rng)])
        return self._rounds[k]


class Factors:
    """One fresh `identities` job per round."""

    def __init__(self, seed: int):
        self._rng = _rng(seed, "factors-cold")
        self._rounds: list[list[list[str]]] = []

    def round(self, k: int) -> list[list[str]]:
        while len(self._rounds) <= k:
            rng = self._rng
            self._rounds.append([[
                "identities", "--target", "both", "--trials", str(FACTOR_TRIALS),
                "--alpha-max", str(FACTOR_ALPHA_MAX),
                "--beta-max", str(rng.randint(*FACTOR_BETA_RANGE)),
                "--n-max", str(FACTOR_N_MAX), "--seed", str(rng.randrange(10**6)),
            ]])
        return self._rounds[k]
