"""Seeded violation for rule ``cache-key`` at the whole-solve memo.

``solve_depth`` changes what every solve returns, but the key handed to
``context.solution`` omits it: a long-lived context would serve a solve
computed under a different depth.
"""

from dataclasses import dataclass


@dataclass
class PlannerConfig:
    #: Read by the solve but missing from the memo key -- the violation.
    solve_depth: int = 2


class SailorPlanner:
    def __init__(self, config: PlannerConfig) -> None:
        self.config = config

    def _plan_branch(self, context, pp, pool):
        def solve():
            return (pp, pool, self.config.solve_depth)

        return context.solution((pp, pool), solve)
