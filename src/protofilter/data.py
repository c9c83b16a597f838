"""Dataset model, CSV ingestion, synthetic data, episode sampling, and the
one-shot support-augmentation policy."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError


class Dataset:
    """Immutable collection of labeled embedding vectors sharing one dimension."""

    def __init__(self, features, labels):
        feats = np.array(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError(
                f"dataset features must be a nonempty 2-D array, got shape {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise DataError("dataset features must all be finite")
        label_tuple = tuple(str(lab) for lab in labels)
        if len(label_tuple) != feats.shape[0]:
            raise DataError(f"{len(label_tuple)} labels for {feats.shape[0]} feature rows")
        if any(not lab for lab in label_tuple):
            raise DataError("labels must be nonempty strings")
        feats.setflags(write=False)
        self._features = feats
        self._labels = label_tuple
        by_class: dict[str, list[int]] = {}
        for i, lab in enumerate(label_tuple):
            by_class.setdefault(lab, []).append(i)
        self._class_indices = {
            lab: np.array(idx, dtype=np.intp) for lab, idx in sorted(by_class.items())
        }

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def classes(self) -> tuple[str, ...]:
        """Class labels in sorted order."""
        return tuple(self._class_indices)

    @property
    def dim(self) -> int:
        return int(self._features.shape[1])

    def __len__(self) -> int:
        return int(self._features.shape[0])

    def class_indices(self, label: str) -> np.ndarray:
        if label not in self._class_indices:
            raise DataError(f"dataset has no class {label!r}")
        return self._class_indices[label]


def load_csv(path) -> Dataset:
    """Load a dataset from ``label,v1,...,vd`` rows.

    UTF-8, comma-separated, decimal points.  An optional single header
    row whose first field is ``label`` is skipped.  There is no quoting,
    so labels containing commas are rejected (they parse as extra
    columns).  The dimension is inferred from the first data row; blank
    lines are ignored.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc}") from None
    labels: list[str] = []
    rows: list[list[float]] = []
    dim: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if lineno == 1 and fields[0].lower() == "label":
            continue
        if not fields[0]:
            raise DataError(f"{p}: line {lineno}: empty label")
        if len(fields) < 2:
            raise DataError(f"{p}: line {lineno}: need a label and at least one feature")
        if dim is None:
            dim = len(fields) - 1
        elif len(fields) - 1 != dim:
            raise DataError(
                f"{p}: line {lineno}: expected {dim} features, found {len(fields) - 1}"
            )
        values = []
        for col, field in enumerate(fields[1:], start=2):
            try:
                value = float(field)
            except ValueError:
                raise DataError(
                    f"{p}: line {lineno}, column {col}: {field!r} is not a number"
                ) from None
            if not np.isfinite(value):
                raise DataError(f"{p}: line {lineno}, column {col}: non-finite value")
            values.append(value)
        labels.append(fields[0])
        rows.append(values)
    if not rows:
        raise DataError(f"{p}: no data rows")
    return Dataset(np.array(rows), labels)


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the format :func:`load_csv` reads, with a header."""
    header = "label," + ",".join(f"f{i + 1}" for i in range(dataset.dim))
    lines = [header]
    for lab, row in zip(dataset.labels, dataset.features):
        lines.append(lab + "," + ",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SynthConfig:
    """Anisotropic-Gaussian mixture: class means on a sphere of radius
    ``mean_scale``, every class sharing one randomly rotated axis-aligned
    covariance with per-axis standard deviations ``anisotropy``."""

    class_count: int
    dim: int
    per_class_count: int
    mean_scale: float
    anisotropy: tuple[float, ...]
    rotation_seed: int = 0
    sample_seed: int = 1

    def __post_init__(self) -> None:
        for name in ("class_count", "dim", "per_class_count", "rotation_seed", "sample_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if any(isinstance(a, bool) or not isinstance(a, Real) for a in self.anisotropy):
            raise ConfigurationError(f"anisotropy entries must be numbers, got {self.anisotropy!r}")
        object.__setattr__(self, "anisotropy", tuple(float(a) for a in self.anisotropy))
        if self.class_count < 1:
            raise ConfigurationError(f"class_count must be >= 1, got {self.class_count}")
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")
        if self.per_class_count < 2:
            raise ConfigurationError(
                f"per_class_count must be >= 2, got {self.per_class_count}"
            )
        if not np.isfinite(self.mean_scale):
            raise ConfigurationError("mean_scale must be finite")
        if len(self.anisotropy) != self.dim:
            raise ConfigurationError(
                f"anisotropy needs {self.dim} entries, got {len(self.anisotropy)}"
            )
        if any(not a > 0 for a in self.anisotropy):
            raise ConfigurationError("anisotropy entries must all be positive")
        if self.rotation_seed < 0 or self.sample_seed < 0:
            raise ConfigurationError("seeds must be nonnegative integers")


#: Named synthetic families usable from the CLI.  ``reference`` is the
#: fixed desk-scale family used by the regression checks; ``separable``
#: has class means far beyond the within-class spread.
SYNTH_PRESETS: dict[str, SynthConfig] = {
    "reference": SynthConfig(
        class_count=20,
        dim=16,
        per_class_count=200,
        mean_scale=3.0,
        anisotropy=(4.0, 4.0) + (1.0,) * 14,
        rotation_seed=7,
        sample_seed=11,
    ),
    "separable": SynthConfig(
        class_count=10,
        dim=8,
        per_class_count=50,
        mean_scale=100.0,
        anisotropy=(1.0,) * 8,
        rotation_seed=1,
        sample_seed=2,
    ),
}


def _random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _unit_directions(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    dirs = rng.standard_normal((count, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        dirs[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs / norms


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset for the given config.

    The rotation and the class-mean directions come from ``rotation_seed``;
    samples are mean + R diag(anisotropy) z with z standard normal drawn
    from ``sample_seed``.
    """
    rotation_rng = np.random.default_rng(np.random.SeedSequence(cfg.rotation_seed))
    rotation = _random_rotation(cfg.dim, rotation_rng)
    means = cfg.mean_scale * _unit_directions(cfg.class_count, cfg.dim, rotation_rng)
    sample_rng = np.random.default_rng(np.random.SeedSequence(cfg.sample_seed))
    scales = np.array(cfg.anisotropy)
    width = len(str(cfg.class_count - 1))
    blocks = []
    labels: list[str] = []
    for c in range(cfg.class_count):
        z = sample_rng.standard_normal((cfg.per_class_count, cfg.dim))
        blocks.append(means[c] + (z * scales) @ rotation.T)
        labels.extend([f"c{c:0{width}d}"] * cfg.per_class_count)
    return Dataset(np.vstack(blocks), labels)


@dataclass(frozen=True)
class Episode:
    """One C-way n-shot task: per-class support features plus labeled queries.

    ``support_indices`` mirror ``support`` with dataset row indices;
    manufactured (augmented) vectors carry index -1.  Query labels are
    dense episode-class indices; ``class_labels`` maps them back to
    dataset labels.
    """

    class_labels: tuple[str, ...]
    support: tuple[np.ndarray, ...]
    support_indices: tuple[tuple[int, ...], ...]
    query_features: np.ndarray
    query_labels: np.ndarray
    query_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.class_labels) < 2:
            raise DataError("an episode needs at least two classes")
        if len(self.support) != len(self.class_labels) or len(self.support_indices) != len(
            self.class_labels
        ):
            raise DataError("per-class support arrays, indices, and labels disagree")
        shots = {arr.shape[0] for arr in self.support}
        if len(shots) != 1 or 0 in shots:
            raise DataError(
                f"all support classes must hold the same positive count, got {sorted(shots)}"
            )
        dims = {arr.shape[1] for arr in self.support}
        dims.add(self.query_features.shape[1])
        if len(dims) != 1:
            raise DataError(f"support and query dimensions differ: {sorted(dims)}")
        m = self.query_features.shape[0]
        if m < 1:
            raise DataError("an episode needs at least one query")
        if self.query_labels.shape != (m,):
            raise DataError(
                f"{m} queries but {self.query_labels.shape} labels"
            )
        if np.any(self.query_labels < 0) or np.any(self.query_labels >= self.way):
            raise DataError("query labels must be dense episode-class indices")
        if len(self.query_indices) != m:
            raise DataError(f"{m} queries but {len(self.query_indices)} query indices")
        support_rows = {i for cls in self.support_indices for i in cls if i >= 0}
        overlap = support_rows & {i for i in self.query_indices if i >= 0}
        if overlap:
            raise DataError(
                f"support and query share dataset rows {sorted(overlap)[:5]}"
            )

    @property
    def way(self) -> int:
        return len(self.class_labels)

    @property
    def shot(self) -> int:
        return int(self.support[0].shape[0])

    @property
    def dim(self) -> int:
        return int(self.query_features.shape[1])

    @property
    def query_count_per_class(self) -> int:
        return self.query_features.shape[0] // self.way


def sample_episode(dataset: Dataset, way: int, shot: int, query_per_class: int,
                   rng: np.random.Generator) -> Episode:
    """Sample a C-way n-shot episode without replacement.

    Classes are drawn uniformly without replacement; within each class
    ``shot + query_per_class`` member rows are drawn without replacement
    and split, so support and query rows are disjoint.  Deterministic for
    a given generator state.
    """
    if way < 2:
        raise ConfigurationError(f"way must be >= 2, got {way}")
    if shot < 1:
        raise ConfigurationError(f"shot must be >= 1, got {shot}")
    if query_per_class < 1:
        raise ConfigurationError(f"query_per_class must be >= 1, got {query_per_class}")
    classes = dataset.classes
    if len(classes) < way:
        raise DataError(f"dataset has {len(classes)} classes, need {way}")
    need = shot + query_per_class
    chosen = rng.choice(len(classes), size=way, replace=False)
    supports: list[np.ndarray] = []
    support_idx: list[tuple[int, ...]] = []
    query_blocks: list[np.ndarray] = []
    query_labels: list[int] = []
    query_idx: list[int] = []
    for slot, class_pos in enumerate(chosen):
        label = classes[int(class_pos)]
        members = dataset.class_indices(label)
        if members.shape[0] < need:
            raise DataError(
                f"class {label!r} has {members.shape[0]} members, need {need} "
                f"(shot {shot} + query {query_per_class})"
            )
        pick = rng.choice(members.shape[0], size=need, replace=False)
        rows = members[pick]
        supports.append(dataset.features[rows[:shot]])
        support_idx.append(tuple(int(r) for r in rows[:shot]))
        query_blocks.append(dataset.features[rows[shot:]])
        query_labels.extend([slot] * query_per_class)
        query_idx.extend(int(r) for r in rows[shot:])
    return Episode(
        class_labels=tuple(classes[int(c)] for c in chosen),
        support=tuple(supports),
        support_indices=tuple(support_idx),
        query_features=np.vstack(query_blocks),
        query_labels=np.array(query_labels, dtype=np.intp),
        query_indices=tuple(query_idx),
    )


@dataclass(frozen=True)
class Jitter:
    """One-shot augmentation: append a Gaussian-perturbed copy of the
    single support vector so a nontrivial support spectrum exists.

    ``sigma`` is the per-axis noise scale; ``None`` derives it as 5% of
    the vector's mean absolute feature value.  The manufactured vector
    participates in both the class prototype and the spectrum.
    """

    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.sigma is not None and not self.sigma >= 0:
            raise ConfigurationError(f"jitter sigma must be >= 0, got {self.sigma}")


def augment_one_shot(support_class, policy: Jitter | None,
                     rng: np.random.Generator) -> np.ndarray:
    """Apply a one-shot support policy to a single-vector support class.

    ``None`` returns the input unchanged (downstream shrinkage then
    degenerates to the plain prototype distance); a jitter policy returns
    the original plus one noisy copy.
    """
    arr = np.asarray(support_class, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != 1:
        count = arr.shape[0] if arr.ndim == 2 else arr.ndim
        raise ConfigurationError(
            f"one-shot augmentation requires exactly one support vector, got {count}"
        )
    if policy is None:
        return arr.copy()
    sigma = policy.sigma
    if sigma is None:
        sigma = 0.05 * float(np.mean(np.abs(arr[0])))
    extra = arr[0] + sigma * rng.standard_normal(arr.shape[1])
    return np.vstack([arr, extra[None, :]])


def apply_one_shot_policy(episode: Episode, policy: Jitter | None,
                          rng: np.random.Generator) -> Episode:
    """Augment every support class of a one-shot episode, in class order.

    Identity for ``policy=None``.  Augmented vectors get index -1.
    """
    if policy is None:
        return episode
    if episode.shot != 1:
        raise ConfigurationError(
            f"one-shot policy applied to a {episode.shot}-shot episode"
        )
    new_support = []
    new_indices = []
    for class_arr, idx in zip(episode.support, episode.support_indices):
        new_support.append(augment_one_shot(class_arr, policy, rng))
        new_indices.append(idx + (-1,))
    return Episode(
        class_labels=episode.class_labels,
        support=tuple(new_support),
        support_indices=tuple(new_indices),
        query_features=episode.query_features,
        query_labels=episode.query_labels,
        query_indices=episode.query_indices,
    )
