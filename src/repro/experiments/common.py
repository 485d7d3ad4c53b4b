"""Shared infrastructure for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import get_baseline
from repro.baselines.base import BaselineSearchLimits
from repro.core.objectives import Objective
from repro.core.plan import ParallelizationPlan, PlannerResult
from repro.core.planner import SailorPlanner
from repro.core.simulator import (
    ReferenceSimulator,
    SailorSimulator,
    SimulationEnvironment,
    build_environment,
)
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

@dataclass
class ExperimentTable:
    """A simple column-oriented result table (one per figure/table)."""

    title: str
    columns: list[str]
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: object) -> None:
        """Append a row; unknown columns raise ``ValueError``."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> list[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    def filtered(self, **criteria: object) -> list[dict[str, object]]:
        """Rows whose values match all the given criteria."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out

    def to_text(self, float_format: str = "{:.4g}") -> str:
        """Render the table as aligned plain text (what the benches print)."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            if value is None:
                return "-"
            return str(value)

        header = [self.title] if self.title else []
        widths = {c: len(c) for c in self.columns}
        rendered = []
        for row in self.rows:
            line = {c: fmt(row.get(c)) for c in self.columns}
            rendered.append(line)
            for c in self.columns:
                widths[c] = max(widths[c], len(line[c]))
        header.append("  ".join(c.ljust(widths[c]) for c in self.columns))
        header.append("  ".join("-" * widths[c] for c in self.columns))
        for line in rendered:
            header.append("  ".join(line[c].ljust(widths[c]) for c in self.columns))
        if self.notes:
            header.append(f"note: {self.notes}")
        return "\n".join(header)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()


# ---------------------------------------------------------------------------
# Scales
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling experiment size so it fits the available machine.

    ``gpu_scale`` shrinks the paper's cluster sizes and ``max_ranked``
    caps how many ranked plans a baseline may try to deploy.  No knob is a
    wall clock: every baseline search is bounded by counts, so a table's
    rows depend only on its inputs.
    """

    name: str
    gpu_scale: float = 1.0
    max_ranked: int = 64

    def scaled_gpus(self, gpus: int, minimum: int = 4) -> int:
        """Scale a paper GPU count down, keeping it a multiple of 4."""
        scaled = max(minimum, int(round(gpus * self.gpu_scale)))
        return max(minimum, (scaled // 4) * 4)


#: The paper's own sizes (slow).
PAPER_SCALE = ExperimentScale(name="paper")

#: Laptop-friendly sizes used by the benchmark suite.
SMALL_SCALE = ExperimentScale(name="small", gpu_scale=0.25, max_ranked=32)

#: Even smaller; used by the unit/integration tests.
TINY_SCALE = ExperimentScale(name="tiny", gpu_scale=0.125, max_ranked=16)

_SCALES = {"paper": PAPER_SCALE, "small": SMALL_SCALE, "tiny": TINY_SCALE}


def resolve_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Accept either a scale name or an explicit scale object."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return _SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; use one of {sorted(_SCALES)}") from None


# ---------------------------------------------------------------------------
# Jobs and topologies
# ---------------------------------------------------------------------------

def opt_350m_job(global_batch_size: int = 2048) -> TrainingJobSpec:
    """The OPT-350M training job used throughout the evaluation."""
    return TrainingJobSpec(model=get_model("OPT-350M"),
                           global_batch_size=global_batch_size,
                           sequence_length=2048, optimizer="adam")


def gpt_neo_job(global_batch_size: int = 2048) -> TrainingJobSpec:
    """The GPT-Neo-2.7B training job used throughout the evaluation."""
    return TrainingJobSpec(model=get_model("GPT-Neo-2.7B"),
                           global_batch_size=global_batch_size,
                           sequence_length=2048, optimizer="adam")


def a100_topology(num_gpus: int, zone: str = "us-central1-a") -> ClusterTopology:
    """Single-zone A100 topology of 4-GPU VMs."""
    if num_gpus % 4 != 0:
        raise ValueError("num_gpus must be a multiple of 4 (4-GPU VMs)")
    return ClusterTopology.homogeneous("a2-highgpu-4g", num_gpus // 4, zone=zone)


def v100_topology(num_gpus: int, zone: str = "us-central1-a") -> ClusterTopology:
    """Single-zone V100 topology of 4-GPU VMs."""
    if num_gpus % 4 != 0:
        raise ValueError("num_gpus must be a multiple of 4 (4-GPU VMs)")
    return ClusterTopology.homogeneous("n1-standard-v100-4", num_gpus // 4, zone=zone)


def mixed_a100_v100_topology(num_a100: int, num_v100: int,
                             zone: str = "us-central1-a") -> ClusterTopology:
    """Single-zone mixed A100 + V100 topology of 4-GPU VMs."""
    nodes: dict[str, int] = {}
    if num_a100:
        nodes["a2-highgpu-4g"] = num_a100 // 4
    if num_v100:
        nodes["n1-standard-v100-4"] = num_v100 // 4
    return ClusterTopology.single_zone(zone, nodes)


def geo_topology(gpus_per_zone: int, zones: list[str]) -> ClusterTopology:
    """A100 topology spread over the given zones (4-GPU VMs per zone)."""
    nodes = {zone: {"a2-highgpu-4g": gpus_per_zone // 4} for zone in zones}
    return ClusterTopology(nodes=nodes)


def gh200_topology(num_nodes: int, zone: str = "on-prem-a") -> ClusterTopology:
    """On-premise Grace-Hopper cluster (4 GH200 per node)."""
    topo = ClusterTopology.single_zone(zone, {"gh200-4g": num_nodes})
    topo.zone_to_region[zone] = "on-prem"
    return topo


def rtx_heterogeneous_topology(zone: str = "on-prem-a") -> ClusterTopology:
    """The paper's on-prem heterogeneous cluster: 2x8 TitanRTX, 3x8 RTX2080, 2x8 RTX3090."""
    topo = ClusterTopology.single_zone(zone, {
        "titan-rtx-8g": 2, "rtx-2080-8g": 3, "rtx-3090-8g": 2})
    topo.zone_to_region[zone] = "on-prem"
    return topo


# ---------------------------------------------------------------------------
# Planner invocation helpers
# ---------------------------------------------------------------------------

def make_environment(job: TrainingJobSpec, topology: ClusterTopology,
                     *, noise_std: float = 0.02, seed: int = 0,
                     ) -> SimulationEnvironment:
    """Build the simulation environment (profiles, prices) for an experiment."""
    return build_environment(job, topology, noise_std=noise_std, seed=seed)


def make_sailor(env: SimulationEnvironment) -> SailorPlanner:
    """Sailor planner for an experiment: unbounded, so every plan it
    reports is certified optimal over its search space."""
    return SailorPlanner(env)


def make_baseline(name: str, env: SimulationEnvironment,
                  scale: ExperimentScale):
    """Baseline planner configured for the experiment scale."""
    limits = BaselineSearchLimits(max_ranked=scale.max_ranked)
    return get_baseline(name, env, limits=limits)


def measured_throughput(env: SimulationEnvironment, plan: ParallelizationPlan,
                        seed: int = 0) -> tuple[float, float]:
    """'Deployed' throughput and cost of a plan, via the reference simulator."""
    reference = ReferenceSimulator(env, seed=seed)
    measured = reference.measure(plan)
    return measured.throughput_iters_per_s, measured.cost_per_iteration_usd


def run_planner(name: str, env: SimulationEnvironment, job: TrainingJobSpec,
                topology: ClusterTopology, objective: Objective,
                scale: ExperimentScale) -> PlannerResult:
    """Run either Sailor or a baseline by name."""
    if name == "sailor":
        return make_sailor(env).plan(job, topology, objective)
    return make_baseline(name, env, scale).plan(job, topology, objective)


def planner_comparison_rows(planners: list[str], env: SimulationEnvironment,
                            job: TrainingJobSpec, topology: ClusterTopology,
                            objective: Objective, scale: ExperimentScale,
                            extra: dict[str, object] | None = None,
                            ) -> list[dict[str, object]]:
    """Rows of (planner, throughput, cost, oom plans, search time) for a setup."""
    rows = []
    for name in planners:
        result = run_planner(name, env, job, topology, objective, scale)
        if result.found:
            throughput, cost = measured_throughput(env, result.plan)
            gpus = result.plan.total_gpus
            zones_used = len(result.plan.zones())
        else:
            throughput, cost, gpus, zones_used = 0.0, float("nan"), 0, 0
        row: dict[str, object] = {
            "planner": name,
            "throughput_iters_per_s": throughput,
            "cost_per_iteration_usd": cost,
            "oom_plans": result.oom_plans_generated,
            "search_time_s": result.search_time_s,
            "gpus_used": gpus,
            "zones_used": zones_used,
            "found": result.found,
        }
        if extra:
            row.update(extra)
        rows.append(row)
    return rows


#: Column set shared by the planner-comparison figures.
COMPARISON_COLUMNS = [
    "setup", "planner", "throughput_iters_per_s", "cost_per_iteration_usd",
    "oom_plans", "search_time_s", "gpus_used", "zones_used", "found",
]
