"""Episodic evaluation: accuracy with 95% confidence intervals, paired
method comparison, and shrinkage-parameter sweeps.

Every episode derives its random streams from (master seed, episode
index) by a counter-keyed split, so the episode sequence is a pure
function of the configuration and worker count cannot change any result.
:func:`evaluate`, :func:`compare_methods` and :func:`lambda_sweep` share
one pass over that stream: each episode is built once and classified by
every method, and methods with the same kernel share each class's Gram,
centering, eigensystem and query kernel rows.  Comparisons are therefore
paired by construction, and each report equals the one its method gets
from :func:`evaluate` alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .classifier import classify_filters
from .data import Dataset, Episode, Jitter, apply_one_shot_policy, sample_episode
from .errors import ConfigurationError, ProtofilterError
from .kernels import KernelSpec, resolve_kernel
from .spectral import (
    AbsoluteLambda,
    FilterKind,
    FilterSpec,
    _check_method,
    format_lambda_policy,
)

#: Default shrinkage-parameter grid for sweeps.
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

_EPISODE_DOMAIN = 0


@dataclass(frozen=True)
class EvalConfig:
    """Episode shape, method, and evaluation protocol.

    ``one_shot`` applies only when ``shot == 1``; it is ignored otherwise.
    """

    way: int = 5
    shot: int = 5
    query_per_class: int = 10
    episode_count: int = 1000
    kernel: KernelSpec = KernelSpec()
    filter: FilterSpec = FilterSpec(FilterKind.ZERO, AbsoluteLambda(0.0))
    zeta: float = 1.0
    one_shot: Jitter | None = None
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.episode_count < 1:
            raise ConfigurationError(f"episode_count must be >= 1, got {self.episode_count}")
        if self.way < 2:
            raise ConfigurationError(f"way must be >= 2, got {self.way}")
        if self.shot < 1:
            raise ConfigurationError(f"shot must be >= 1, got {self.shot}")
        if self.query_per_class < 1:
            raise ConfigurationError(
                f"query_per_class must be >= 1, got {self.query_per_class}"
            )
        if not self.zeta > 0:
            raise ConfigurationError(f"zeta must be positive, got {self.zeta}")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class EvalReport:
    """Aggregated episodic evaluation results.

    ``ci95_halfwidth`` is 1.96 * sample std / sqrt(N) over per-episode
    accuracies (0 by convention for a single episode).
    """

    name: str
    accuracy_mean: float
    ci95_halfwidth: float
    mean_loss: float
    per_episode_accuracies: tuple[float, ...]
    config_echo: dict


def episode_rngs(master_seed: int, index: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (sampling, augmentation) generators for one episode.

    Derived by a counter-keyed seed split, so each episode's streams are
    a pure function of (seed, index) regardless of evaluation order or
    parallelism, and independent of kernel/filter choices.
    """
    root = np.random.SeedSequence(entropy=master_seed, spawn_key=(_EPISODE_DOMAIN, index))
    sampling, augmentation = root.spawn(2)
    return np.random.default_rng(sampling), np.random.default_rng(augmentation)


def build_episode(dataset: Dataset, cfg: EvalConfig, index: int) -> Episode:
    """Episode ``index`` of the stream fixed by the config's shape fields
    and master seed.  Method fields (kernel, filter, zeta) cannot
    influence it, which is what makes comparisons paired."""
    sample_rng, augment_rng = episode_rngs(cfg.master_seed, index)
    episode = sample_episode(dataset, cfg.way, cfg.shot, cfg.query_per_class, sample_rng)
    if cfg.one_shot is not None and cfg.shot == 1:
        episode = apply_one_shot_policy(episode, cfg.one_shot, augment_rng)
    return episode


def _ci95(accuracies: Sequence[float]) -> float:
    if len(accuracies) < 2:
        return 0.0
    return float(1.96 * np.std(accuracies, ddof=1) / math.sqrt(len(accuracies)))


def _one_shot_text(policy: Jitter | None) -> str:
    if policy is None:
        return "none"
    if policy.sigma is None:
        return "jitter"
    return f"jitter:{policy.sigma:g}"


def _echo(cfg: EvalConfig, kernel: KernelSpec) -> dict:
    return {
        "way": cfg.way,
        "shot": cfg.shot,
        "query_per_class": cfg.query_per_class,
        "episodes": cfg.episode_count,
        "kernel": kernel.kind.value,
        "bandwidth_sq": kernel.bandwidth_sq,
        "filter": cfg.filter.kind.value,
        "lambda_policy": format_lambda_policy(cfg.filter.lambda_policy),
        "zeta": cfg.zeta,
        "one_shot": _one_shot_text(cfg.one_shot),
        "seed": cfg.master_seed,
        "workers": cfg.workers,
    }


def _evaluate_methods(dataset: Dataset, base_cfg: EvalConfig,
                      methods: Sequence[tuple[str, KernelSpec, FilterSpec]]) -> list[EvalReport]:
    """One report per (name, kernel, filter) method, from one walk over the
    episode stream of ``base_cfg``.

    Each episode is built once.  Methods sharing a resolved kernel share
    its per-class Gram, centering, eigensystem and query kernel rows
    (:func:`classify_filters`); only the filter, distances and loss are
    per method, so every report equals the method's own one-method walk.
    On failure the error of the first failing method in list order is
    raised, as if the methods had been evaluated one after another: a
    method stops at its first failure, and the walk goes on only while a
    method listed before every failed one still runs.
    """
    configs, kernels = [], []
    error: ProtofilterError | None = None
    for name, kernel, filter_spec in methods:
        try:
            cfg = replace(base_cfg, kernel=kernel, filter=filter_spec)
            resolved = resolve_kernel(kernel, dataset.dim)
            _check_method(name, filter_spec)
        except ProtofilterError as exc:
            error = exc
            break
        configs.append(cfg)
        kernels.append(resolved)
    # only methods listed before the first failure found so far are run
    width = len(kernels)
    groups: dict[KernelSpec, list[int]] = {}
    for k, kernel in enumerate(kernels):
        groups.setdefault(kernel, []).append(k)

    def run(index: int) -> list:
        active = width  # read when the episode runs; see the walk below
        try:
            episode = build_episode(dataset, base_cfg, index)
        except ProtofilterError as exc:
            return [exc] * active
        outcomes: list = [None] * active
        for kernel, members in groups.items():
            needed = [k for k in members if k < active]
            results = classify_filters(episode, kernel, [configs[k].filter for k in needed],
                                       base_cfg.zeta)
            for k, result in zip(needed, results):
                outcomes[k] = result if isinstance(result, ProtofilterError) else (
                    float(np.mean(result.predicted == episode.query_labels)), result.loss)
        return outcomes

    metrics: list[list[tuple[float, float]]] = [[] for _ in range(width)]
    indices = range(base_cfg.episode_count)
    with (ThreadPoolExecutor(max_workers=base_cfg.workers) if base_cfg.workers > 1
          else nullcontext()) as pool:
        # ``map`` is lazy, so a serial walk runs each episode only for the
        # methods still needed.  Pool threads may read a larger ``width``
        # than the one an episode is consumed at, never a smaller one:
        # it only shrinks, and an episode is consumed after it has run.
        rows = pool.map(run, indices) if pool is not None else map(run, indices)
        for index, row in zip(indices, rows):
            for k, outcome in enumerate(row[:width]):
                if isinstance(outcome, ProtofilterError):
                    outcome.args = (f"episode {index}: {outcome}",)
                    error, width = outcome, k
                    break
                metrics[k].append(outcome)
            if width == 0:
                break
    if error is not None:
        raise error
    reports = []
    for (name, _, _), cfg, kernel, rows in zip(methods, configs, kernels, metrics):
        accuracies = tuple(a for a, _ in rows)
        reports.append(EvalReport(
            name=name,
            accuracy_mean=float(np.mean(accuracies)),
            ci95_halfwidth=_ci95(accuracies),
            mean_loss=float(np.mean([loss for _, loss in rows])),
            per_episode_accuracies=accuracies,
            config_echo=_echo(cfg, kernel),
        ))
    return reports


def evaluate(dataset: Dataset, cfg: EvalConfig, name: str = "eval") -> EvalReport:
    """Classify ``episode_count`` sampled episodes and aggregate accuracy,
    its 95% confidence half-width, and the mean loss.

    The one-method case of the walk that also serves
    :func:`compare_methods` and :func:`lambda_sweep`.  Deterministic for a
    fixed master seed regardless of ``workers``: episodes derive
    independent streams and results aggregate in episode order.  A
    truncated-SVD filter whose policy can only resolve lambda = 0
    (``absolute=0`` or ``relative=0``) is a ConfigurationError.
    """
    return _evaluate_methods(dataset, cfg, [(name, cfg.kernel, cfg.filter)])[0]


def compare_methods(dataset: Dataset, base_cfg: EvalConfig,
                    methods: Sequence[tuple[str, KernelSpec, FilterSpec]]) -> list[EvalReport]:
    """Evaluate several (name, kernel, filter) methods in one pass over the
    episode stream: every episode is built once and classified by every
    method, so accuracy differences are paired per episode by
    construction.  Methods with the same kernel share each class's
    eigensystem.  Each report, and the error raised if a method fails,
    equals what :func:`evaluate` gives for that method alone."""
    entries = list(methods)
    if not entries:
        raise ConfigurationError("method list is empty")
    names = [entry[0] for entry in entries]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise ConfigurationError(f"duplicate method names: {sorted(duplicates)}")
    return _evaluate_methods(dataset, base_cfg, entries)


def lambda_sweep(dataset: Dataset, base_cfg: EvalConfig,
                 lambda_values: Sequence[float] = DEFAULT_LAMBDA_GRID) -> list[EvalReport]:
    """Evaluate the base method at several absolute shrinkage parameters in
    one pass over the episode stream: each episode's per-class
    eigensystems are computed once and filtered at every value.  Each
    report equals what :func:`evaluate` gives for that value alone."""
    values = [float(v) for v in lambda_values]
    if not values:
        raise ConfigurationError("lambda grid is empty")
    if any(v < 0 for v in values):
        raise ConfigurationError("lambda values must all be >= 0")
    return _evaluate_methods(dataset, base_cfg, [
        (f"lambda={value:g}", base_cfg.kernel,
         FilterSpec(base_cfg.filter.kind, AbsoluteLambda(value)))
        for value in values
    ])


def report_record(report: EvalReport) -> dict:
    """Flat machine-readable record.  The key names are part of the
    external interface; do not rename them."""
    echo = report.config_echo
    return {
        "name": report.name,
        "way": echo["way"],
        "shot": echo["shot"],
        "episodes": echo["episodes"],
        "kernel": echo["kernel"],
        "filter": echo["filter"],
        "lambda_policy": echo["lambda_policy"],
        "accuracy_mean": report.accuracy_mean,
        "ci95": report.ci95_halfwidth,
        "mean_loss": report.mean_loss,
        "seed": echo["seed"],
    }


def format_table(reports: Sequence[EvalReport]) -> str:
    """Aligned human-readable table, one row per report."""
    headers = ["name", "way", "shot", "episodes", "kernel", "filter",
               "lambda_policy", "accuracy", "ci95", "mean_loss"]
    rows = []
    for report in reports:
        rec = report_record(report)
        rows.append([
            str(rec["name"]), str(rec["way"]), str(rec["shot"]), str(rec["episodes"]),
            str(rec["kernel"]), str(rec["filter"]), str(rec["lambda_policy"]),
            f"{rec['accuracy_mean']:.4f}", f"{rec['ci95']:.4f}", f"{rec['mean_loss']:.4f}",
        ])
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
