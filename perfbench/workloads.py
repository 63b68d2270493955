"""Workload definitions shared by the runner, the child and the reference
generator.

A workload turns a seed into the argument lists handed to
``crystalchain.cli.main``.  Seed 0 runs the baseline initial state (basis
index 0); any other seed draws the initial word from the workload's pool
with ``random.Random(seed)``.  The program only ever sees the word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COUPLING_ARGS = ["--mu0", "1", "--eps", "0.1", "--gamma", "0.5", "--delta", "0.5", "--eta", "0.5"]
SWEEP_AXES = ["--param", "gamma=0.3,0.5,0.7,0.9", "--param", "delta=0.3,0.5,0.7,0.9"]
FIGURES = ("fig1", "fig2", "fig3", "fig4")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "profile", "sweep" or "figs"
    n: int = 0
    # Initial words; pool[0] is basis index 0, the baseline initial state.
    pool: tuple[str, ...] = ()

    def initial(self, seed: int) -> str:
        if seed == 0:
            return self.pool[0]
        return random.Random(seed).choice(self.pool)

    def unit_argv(self, word: str, out: str) -> list[list[str]]:
        """The main() calls of one profile or sweep unit (one call)."""
        if self.kind == "profile":
            return [["profile", "--n", str(self.n), "--initial", word, *COUPLING_ARGS,
                     "--horizon", "auto", "--out", out]]
        return [["sweep", "--n", str(self.n), "--initial", word, *COUPLING_ARGS,
                 "--horizon", "infinite", *SWEEP_AXES, "--out", out]]

    def reference_key(self, word: str | None) -> str:
        return f"{self.name}/{word}" if word else self.name


def figure_cycles(seed: int):
    """Endless figure orders for figs_small; the seed shuffles each cycle."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(FIGURES, len(FIGURES))


def figure_argv(order, out: str) -> list[list[str]]:
    return [["reproduce", fig, "--out", f"{out}/{fig}"] for fig in order]


# The N=11 pool holds words whose stable-horizon search resolves T = 320,
# like index 0, so every seed costs the same number of probes and the
# spread across seeds measures the machine, not the input.
# make_reference.py re-checks this property.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("profile_n11", "profile", 11, (
            "RYRYRYRYRYY", "RYYRRYYYYRY", "RRYRRYYYYYR",
            "YYRRRYRYYRY", "RYYYYRRRYYR", "RRRYYRRYYRY",
        )),
        Workload("sweep_n10_inf", "sweep", 10, ("RYRYRYRYRY", "RRYYRYRYYR", "YRRYRYYRRY")),
        Workload("figs_small", "figs"),
        # Tiny variants for --selftest; same code paths, seconds to run.
        Workload("profile_n4", "profile", 4, ("RYRY", "YRRY")),
        Workload("sweep_n4_inf", "sweep", 4, ("RYRY", "RRYY")),
    )
}
GATED = ("profile_n11", "sweep_n10_inf", "figs_small")
SELFTEST = ("profile_n4", "sweep_n4_inf", "figs_small")
