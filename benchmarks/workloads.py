"""The four benchmark workloads.

Each workload makes closed-loop calls into one public entry point
(``evaluate``, ``lambda_sweep`` or ``train``).  Call ``i`` of a run with
seed ``s`` uses ``master_seed = s * SEED_STRIDE + i``, so every call sees
distinct episodes and the same seed always gives the same inputs.  The
datasets are fixed synthetic families: the ``reference`` preset of the
README and criterion 09, and the 4-d family of criterion 10.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

import oracle
import protofilter
from protofilter import (
    DEFAULT_LAMBDA_GRID,
    SYNTH_PRESETS,
    AbsoluteLambda,
    EvalConfig,
    FilterKind,
    FilterSpec,
    KernelKind,
    KernelSpec,
    LinearEmbedding,
    RelativeToMaxEigenvalue,
    SynthConfig,
    TrainConfig,
)

SEED_STRIDE = 100_000
# Calls whose master seed is reserved for set-up warm-up, never timed.
WARM_UP_CALL = SEED_STRIDE - 1

# Tolerance of the recomputed mean loss against the library's.
LOSS_RTOL = 1e-8
# Tolerance of a train step against one along the recomputed gradient,
# as a share of the step's largest component.
STEP_RTOL = 1e-5
# A train step halves its learning rate up to this many times until the
# frozen-batch loss does not rise.
MAX_HALVINGS = 10

TRAIN_SYNTH = SynthConfig(4, 4, 30, 1.5, (2.0, 1.0, 1.0, 0.5), rotation_seed=3, sample_seed=5)


class Workload:
    """One workload: its dataset, its call, and the check of a call's output.

    ``episodes`` and ``steps`` are the distinct episodes and train steps of
    one call; ``trace_calls`` is how many calls the traced run replays.
    """

    name: str
    synth: SynthConfig
    way: int
    episodes: int
    steps = 0
    trace_calls: int

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dataset = None

    def set_up(self) -> None:
        """Generate the dataset and make one warm-up call."""
        self.dataset = protofilter.synth_generate(self.synth)
        self.call(WARM_UP_CALL)

    @cached_property
    def pool(self) -> oracle.Pool:
        """The dataset as the output check's recomputation reads it."""
        return oracle.Pool(self.dataset.features, self.dataset.labels)

    def master_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def call(self, index: int):
        """Make call ``index``; returns its output in comparable form."""
        raise NotImplementedError

    def check(self, index: int, output) -> list[str]:
        """Mismatches between call ``index``'s output and the recomputation."""
        raise NotImplementedError

    @staticmethod
    def accuracy_and_loss(output) -> tuple[float | None, float]:
        raise NotImplementedError


class _Eval(Workload):
    """``evaluate`` on ``episodes`` episodes per call."""

    shot: int
    query: int
    kernel: KernelSpec
    ratio = 0.1

    def config(self, index: int) -> EvalConfig:
        return EvalConfig(
            way=self.way, shot=self.shot, query_per_class=self.query,
            episode_count=self.episodes, kernel=self.kernel,
            filter=FilterSpec(FilterKind.TIKHONOV, RelativeToMaxEigenvalue(self.ratio)),
            master_seed=self.master_seed(index), workers=1,
        )

    def call(self, index: int):
        report = protofilter.evaluate(self.dataset, self.config(index))
        return report.per_episode_accuracies, report.mean_loss

    def distances(self, support, queries, absolute=None, relative=None):
        return oracle.identity_distances(support, queries, absolute, relative)

    def recompute(self, index: int, absolute=None, relative=None):
        """Per-episode accuracies and the mean loss of call ``index``."""
        accuracies, losses = [], []
        for e in range(self.episodes):
            supports, queries, labels = oracle.eval_episode(
                self.pool, self.master_seed(index), e, self.way, self.shot, self.query)
            dists = np.column_stack(
                [self.distances(s, queries, absolute, relative) for s in supports])
            accuracy, loss = oracle.score(dists, labels)
            accuracies.append(accuracy)
            losses.append(loss)
        return tuple(accuracies), float(np.mean(losses))

    @staticmethod
    def compare(label: str, got, want) -> list[str]:
        (got_acc, got_loss), (want_acc, want_loss) = got, want
        problems = []
        if tuple(got_acc) != tuple(want_acc):
            problems.append(f"{label}: accuracies {got_acc} != recomputed {want_acc}")
        if not np.isclose(got_loss, want_loss, rtol=LOSS_RTOL, atol=0.0):
            problems.append(f"{label}: mean loss {got_loss!r} != recomputed {want_loss!r}")
        return problems

    def check(self, index: int, output) -> list[str]:
        return self.compare(f"call {index}", output, self.recompute(index, relative=self.ratio))

    @staticmethod
    def accuracy_and_loss(output):
        accuracies, loss = output
        return float(np.mean(accuracies)), loss


class EvalRef(_Eval):
    name = "eval_ref"
    synth = SYNTH_PRESETS["reference"]
    way, shot, query = 5, 5, 10
    kernel = KernelSpec()
    episodes = 5
    trace_calls = 24


class EvalRbf20Shot(_Eval):
    name = "eval_rbf_20shot"
    synth = SYNTH_PRESETS["reference"]
    way, shot, query = 5, 20, 5
    kernel = KernelSpec(KernelKind.RBF)
    episodes = 1
    trace_calls = 24

    def distances(self, support, queries, absolute=None, relative=None):
        # the library's default bandwidth is the embedding dimension
        return oracle.rbf_distances(support, queries, float(self.synth.dim), absolute, relative)


class SweepRef5Lambda(_Eval):
    name = "sweep_ref_5lambda"
    synth = SYNTH_PRESETS["reference"]
    way, shot, query = 5, 5, 10
    kernel = KernelSpec()
    episodes = 1
    trace_calls = 40

    def call(self, index: int):
        reports = protofilter.lambda_sweep(self.dataset, self.config(index), DEFAULT_LAMBDA_GRID)
        return tuple((r.per_episode_accuracies, r.mean_loss) for r in reports)

    def check(self, index: int, output) -> list[str]:
        problems = []
        for value, got in zip(DEFAULT_LAMBDA_GRID, output, strict=True):
            want = self.recompute(index, absolute=value)
            problems += self.compare(f"call {index} lambda={value:g}", got, want)
        return problems

    @staticmethod
    def accuracy_and_loss(output):
        accuracies = [a for per_lambda, _ in output for a in per_lambda]
        return float(np.mean(accuracies)), float(np.mean([loss for _, loss in output]))


class TrainFd(Workload):
    """``train`` for ``steps`` steps per call from the identity map, with
    the criterion-10 configuration (P = 4 * 4 + 1 = 17 parameters)."""

    name = "train_fd"
    synth = TRAIN_SYNTH
    way, shot, query, batch = 2, 2, 2, 4
    lam = 1.0
    steps = 1
    episodes = steps * batch
    trace_calls = 30

    def config(self, index: int) -> TrainConfig:
        return TrainConfig(
            steps=self.steps, way=self.way, shot=self.shot, query_per_class=self.query,
            batch_episodes=self.batch, learning_rate=0.05, fd_step=1e-5,
            filter=FilterSpec(FilterKind.TIKHONOV, AbsoluteLambda(self.lam)),
            master_seed=self.master_seed(index),
        )

    def call(self, index: int):
        result = protofilter.train(self.dataset, self.config(index),
                                   LinearEmbedding.identity(self.synth.dim), 1.0)
        return result.embedding.weights.tobytes(), result.zeta, result.loss_history

    def batch_loss(self, index: int, step: int, weights: np.ndarray, zeta: float) -> float:
        losses = []
        for supports, queries, labels in oracle.train_batch(
                self.pool, self.master_seed(index), step, self.batch,
                self.way, self.shot, self.query):
            dists = np.column_stack([
                oracle.identity_distances(s @ weights.T, queries @ weights.T, absolute=self.lam)
                for s in supports
            ])
            losses.append(oracle.score(dists, labels, zeta)[1])
        return float(np.mean(losses))

    def check(self, index: int, output) -> list[str]:
        """The one step of call ``index`` must be x0 - rate * g, where g is
        the central-difference gradient of the recomputed frozen-batch
        loss at x0 = (identity, 1) and rate is the first of 0.05 * 2**-k
        that does not raise that loss."""
        raw_weights, zeta, history = output
        dim = self.synth.dim
        cfg = self.config(index)
        if len(history) != self.steps:
            return [f"call {index}: {len(history)} losses for {self.steps} steps"]

        def loss(x: np.ndarray) -> float:
            return self.batch_loss(index, 0, x[:-1].reshape(dim, dim), x[-1])

        x0 = np.append(np.eye(dim).ravel(), 1.0)
        got = np.append(np.frombuffer(raw_weights), zeta)
        loss0 = loss(x0)
        problems = []
        if not np.isclose(history[0], loss0, rtol=LOSS_RTOL, atol=0.0):
            problems.append(f"call {index}: step-0 loss {history[0]!r} != recomputed {loss0!r}")
        grad = oracle.central_difference(loss, x0, cfg.fd_step)
        for k in range(MAX_HALVINGS + 1):
            rate = cfg.learning_rate * 0.5**k
            want = x0 - rate * grad
            if np.allclose(got, want, rtol=0.0, atol=STEP_RTOL * rate * np.abs(grad).max()):
                return problems
            if want[-1] > 0 and loss(want) <= loss0:
                return problems + [f"call {index}: step is not x0 - {rate:g} * recomputed "
                                   f"gradient, the first rate that lowers the loss"]
        return problems + [f"call {index}: step is not x0 - rate * recomputed gradient "
                           f"for any rate tried"]

    @staticmethod
    def accuracy_and_loss(output):
        return None, float(np.mean(output[2]))


WORKLOADS = {w.name: w for w in (EvalRef, EvalRbf20Shot, SweepRef5Lambda, TrainFd)}
