"""Clean twin of ``cache_key_bad``'s memo site: ``solve_depth`` reaches
the key handed to ``context.solution``, and only through that call."""

from dataclasses import dataclass


@dataclass
class PlannerConfig:
    #: Folded into the whole-solve memo key below.
    solve_depth: int = 2


class SailorPlanner:
    def __init__(self, config: PlannerConfig) -> None:
        self.config = config

    def _plan_branch(self, context, pp, pool):
        def solve():
            return (pp, pool, self.config.solve_depth)

        return context.solution((pp, pool, self.config.solve_depth), solve)
