"""The benchmark's three workloads: input generation and strategy set-up.

Each workload is a ``prepare(seed)`` function returning a :class:`Prepared`
replay: the generated :class:`~repro.core.problem.ATAInstance`, the
:class:`~repro.simulation.runner.SimulationRunner` that binds the strategy
to ``instance.travel``, and the strategy built by that runner with the
default :class:`~repro.assignment.planner.PlannerConfig`.  Everything
``prepare`` does is the benchmark's set-up time (``setup_s``).

The seed relabels worker and task ids (a seeded permutation of the same id
values; seed 0 is the identity).  Every seed therefore replays the same
spatio-temporal stream at the same load, while tie-breaks by id, and so the
decisions, differ per seed.  Changing the generator seeds instead moves the
load itself: on ``yueche_datawa`` it takes the predicted-task count from 97
to 482-714 and the replay time up by 40-60%, far beyond any bound a
regression gate can use.  A benchmark run replays ``STREAMS[name]``
relabellings in turn (:func:`stream_seed`).  See ``README.md``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.assignment.strategies import AssignmentStrategy
from repro.core.problem import ATAInstance
from repro.datasets.synthetic import WorkloadConfig
from repro.datasets.yueche import generate_yueche
from repro.experiments.assignment_experiments import AssignmentExperiment
from repro.experiments.config import ExperimentScale
from repro.resilience.checkpoint import InMemoryCheckpointStore
from repro.resilience.journal import InMemoryJournal
from repro.roadnet.graph import grid_network
from repro.roadnet.scenario import roadnet_rushhour
from repro.simulation.platform import PlatformConfig
from repro.simulation.runner import SimulationRunner


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


@dataclass
class Prepared:
    """One set-up replay: generated instance, runner and strategy."""

    instance: ATAInstance
    runner: SimulationRunner
    strategy: AssignmentStrategy


def relabel(instance: ATAInstance, seed: int) -> ATAInstance:
    """Permute worker ids and task ids among themselves (seed 0: identity)."""
    rng = random.Random(seed)
    worker_ids = [w.worker_id for w in instance.workers]
    task_ids = [t.task_id for t in instance.tasks]
    # Seed 0 takes the same path with the identity permutation, so every
    # seed pays the same set-up cost.
    new_worker_ids = rng.sample(worker_ids, len(worker_ids)) if seed else worker_ids
    new_task_ids = rng.sample(task_ids, len(task_ids)) if seed else task_ids
    workers = [
        dataclasses.replace(w, worker_id=new)
        for w, new in zip(instance.workers, new_worker_ids)
    ]
    tasks = [
        dataclasses.replace(t, task_id=new) for t, new in zip(instance.tasks, new_task_ids)
    ]
    return ATAInstance(workers, tasks, travel=instance.travel, name=instance.name)


def _build(
    instance: ATAInstance,
    strategy_name: str,
    platform_config: PlatformConfig,
    predicted=(),
) -> Prepared:
    runner = SimulationRunner(
        instance, platform_config=platform_config, predicted_tasks=predicted
    )
    strategy = runner.build_strategy(strategy_name)
    # A strategy planning with another travel model than the one the
    # platform executes with serves far fewer tasks (243 instead of 504 on
    # a Yueche stream): such a run measures a misconfiguration.
    if strategy.travel is not instance.travel:
        raise CheckFailed(f"{strategy_name}: strategy.travel is not instance.travel")
    return Prepared(instance, runner, strategy)


def prepare_yueche_dta(seed: int) -> Prepared:
    workload = generate_yueche(scale=0.3, seed=11)
    config = PlatformConfig(
        journal=InMemoryJournal(), checkpoint_store=InMemoryCheckpointStore()
    )
    return _build(relabel(workload.instance, seed), "DTA", config)


def prepare_rushhour_roadnet_dta(seed: int) -> Prepared:
    network = grid_network(
        20,
        20,
        spacing=0.4,
        speed=0.012,
        seed=42,
        speed_jitter=0.35,
        one_way_fraction=0.15,
        name="rushhour-city",
    )
    config = WorkloadConfig(
        name="rushhour-roadnet",
        num_workers=120,
        num_tasks=1500,
        horizon=3600.0,
        history_horizon=0.0,
        task_valid_time=180.0,
        worker_available_time=2400.0,
        reachable_distance=1.6,
        worker_speed=0.012,
        seed=7,
    )
    workload = roadnet_rushhour(network, config=config, peak_multipliers=(0.75, 0.45))
    return _build(relabel(workload.instance, seed), "DTA", PlatformConfig())


def prepare_yueche_datawa(seed: int) -> Prepared:
    experiment = AssignmentExperiment(
        dataset="yueche", scale=ExperimentScale(workload_scale=0.09)
    )
    instance = experiment.workload().instance
    predicted = experiment.predicted_tasks()
    # DATA-WA without predicted tasks silently degrades to TVF-guided DTA
    # (the same pipeline on DiDi at scale 0.09 predicts nothing).
    if not predicted:
        raise CheckFailed("yueche_datawa: the demand predictor produced no tasks")
    return _build(relabel(instance, seed), "DATA-WA", PlatformConfig(), predicted)


#: Relabellings one benchmark run replays in turn, per workload; a run
#: replays each at least once.  Decisions, and so the work of a replay,
#: differ per relabelling: on ``yueche_datawa`` replay time varies by a
#: tenth between relabellings, on ``rushhour_roadnet_dta`` the median
#: decision time by an eighth.  A run pools several, so that its figures
#: vary less from one ``--seed`` to the next: as many as its time allows.
STREAMS = {"yueche_dta": 2, "rushhour_roadnet_dta": 4, "yueche_datawa": 2}


def stream_seed(name: str, seed: int, replay: int) -> int:
    """Relabelling seed of the ``replay``-th replay of a run of ``name`` with ``seed``.

    Seed 0 replays the canonical stream every time.  With ``n`` relabellings
    per run, seed ``s >= 1`` cycles through relabellings ``n(s - 1) + 1`` to
    ``ns``, so no two run seeds share a relabelling.
    """
    if seed == 0:
        return 0
    n = STREAMS[name]
    return n * (seed - 1) + 1 + replay % n


WORKLOADS: Dict[str, Callable[[int], Prepared]] = {
    "yueche_dta": prepare_yueche_dta,
    "rushhour_roadnet_dta": prepare_rushhour_roadnet_dta,
    "yueche_datawa": prepare_yueche_datawa,
}

#: Names in the order ``run.py`` replays them when no workload is named.
NAMES: List[str] = list(WORKLOADS)
