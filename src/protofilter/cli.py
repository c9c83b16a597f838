"""Command-line interface: episodic evaluation, paired method comparison,
shrinkage sweeps, synthetic-data dumps, and linear-embedding training.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import SYNTH_PRESETS, Dataset, Jitter, SynthConfig, load_csv, save_csv, synth_generate
from .errors import ConfigurationError, DataError, NumericalError
from .harness import (
    DEFAULT_LAMBDA_GRID,
    EvalConfig,
    compare_methods,
    evaluate,
    format_table,
    lambda_sweep,
    report_record,
)
from .kernels import KernelKind, KernelSpec
from .spectral import AbsoluteLambda, FilterKind, FilterSpec, RelativeToMaxEigenvalue, parse_lambda_policy
from .training import LinearEmbedding, TrainConfig, save_embedding, train


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--data", help="CSV dataset path (label,v1,...,vd rows)")
    group.add_argument("--synth", help="synthetic preset name or JSON config path")


def _add_episode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--way", type=int, default=5)
    parser.add_argument("--shot", type=int, default=5)
    parser.add_argument("--query", type=int, default=10, help="queries per class")
    parser.add_argument("--episodes", type=int, default=1000)
    parser.add_argument("--one-shot", default="none",
                        help="one-shot support policy: none or jitter[:sigma]")
    parser.add_argument("--seed", type=int, default=0)


def _add_method_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", choices=[k.value for k in KernelKind], default="identity")
    parser.add_argument("--sigma2", type=float, default=None,
                        help="RBF bandwidth; defaults to the data dimension")
    parser.add_argument("--filter", choices=[f.value for f in FilterKind], default="tikhonov")
    policy = parser.add_mutually_exclusive_group()
    policy.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="absolute shrinkage parameter")
    policy.add_argument("--rho", type=float, default=None,
                        help="shrinkage as a multiple of each class's top eigenvalue")


def _add_eval_parser(sub, name: str, help_text: str, func) -> argparse.ArgumentParser:
    """A subcommand that classifies an episode stream with one method or more."""
    parser = sub.add_parser(name, help=help_text)
    _add_dataset_flags(parser)
    _add_episode_flags(parser)
    _add_method_flags(parser)
    parser.add_argument("--zeta", type=float, default=1.0, help="metric scaling")
    parser.add_argument("--json", help="write machine-readable records to this path")
    parser.add_argument("--workers", type=int, default=1)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protofilter",
        description="Episodic few-shot evaluation with spectral filtering of "
                    "relative prototypes in kernel feature space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_eval_parser(sub, "eval", "evaluate one method", _cmd_eval)

    p_cmp = _add_eval_parser(sub, "compare", "evaluate several methods on paired episodes",
                             _cmd_compare)
    p_cmp.add_argument("--method", action="append", default=[],
                       help="name:kernel:filter:lambda_policy "
                            "(policy: absolute=V, relative=V, or none); repeatable")

    p_sweep = _add_eval_parser(sub, "sweep", "sweep the absolute shrinkage parameter",
                               _cmd_sweep)
    p_sweep.add_argument("--lambdas", default=",".join(f"{v:g}" for v in DEFAULT_LAMBDA_GRID),
                         help="comma-separated shrinkage parameters")

    p_dump = sub.add_parser("synth-dump", help="materialize a synthetic dataset as CSV")
    p_dump.add_argument("--synth", required=True,
                        help="synthetic preset name or JSON config path")
    p_dump.add_argument("--out", required=True, help="output CSV path")
    p_dump.set_defaults(func=_cmd_synth_dump)

    # no abbreviated flags: ``--zeta`` must not pass for ``--zeta0``
    p_train = sub.add_parser("train", help="train a linear embedding by finite differences",
                             allow_abbrev=False)
    _add_dataset_flags(p_train)
    p_train.add_argument("--way", type=int, default=2)
    p_train.add_argument("--shot", type=int, default=2)
    p_train.add_argument("--query", type=int, default=2, help="queries per class")
    p_train.add_argument("--one-shot", default="none")
    p_train.add_argument("--seed", type=int, default=0)
    _add_method_flags(p_train)
    p_train.add_argument("--steps", type=int, default=50)
    p_train.add_argument("--batch-episodes", type=int, default=8)
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument("--fd-step", type=float, default=1e-5)
    p_train.add_argument("--dout", type=int, default=None,
                         help="embedding output dimension (default: input dimension)")
    p_train.add_argument("--zeta0", type=float, default=1.0)
    p_train.add_argument("--freeze-weights", action="store_true")
    p_train.add_argument("--freeze-zeta", action="store_true")
    p_train.add_argument("--out", help="write the learned map as CSV")
    p_train.set_defaults(func=_cmd_train)

    return parser


def _synth_config(spec: str) -> SynthConfig:
    if spec in SYNTH_PRESETS:
        return SYNTH_PRESETS[spec]
    path = Path(spec)
    if path.exists():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise DataError(f"{path}: expected a JSON object of config fields")
        try:
            return SynthConfig(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
    raise ConfigurationError(
        f"unknown synthetic preset {spec!r}; choose one of "
        f"{sorted(SYNTH_PRESETS)} or give a JSON config path"
    )


def _load_dataset(args) -> Dataset:
    if args.data is not None:
        return load_csv(args.data)
    if args.synth is not None:
        return synth_generate(_synth_config(args.synth))
    raise ConfigurationError("provide --data <csv> or --synth <preset|json>")


def _kernel_from_args(args) -> KernelSpec:
    kind = KernelKind(args.kernel)
    if kind is KernelKind.RBF:
        return KernelSpec(kind, args.sigma2)
    return KernelSpec(kind)


def _filter_from_args(args, require_policy: bool = True) -> FilterSpec:
    kind = FilterKind(args.filter)
    if args.lam is not None:
        policy = AbsoluteLambda(args.lam)
    elif args.rho is not None:
        policy = RelativeToMaxEigenvalue(args.rho)
    elif kind is FilterKind.ZERO or not require_policy:
        policy = AbsoluteLambda(0.0)
    else:
        raise ConfigurationError(
            f"filter {kind.value!r} needs a shrinkage policy: --lambda or --rho"
        )
    return FilterSpec(kind, policy)


def _one_shot_from_args(text: str) -> Jitter | None:
    if text == "none":
        return None
    if text == "jitter":
        return Jitter()
    if text.startswith("jitter:"):
        raw = text.split(":", 1)[1]
        try:
            return Jitter(float(raw))
        except ValueError:
            raise ConfigurationError(f"jitter sigma {raw!r} is not a number") from None
    raise ConfigurationError(f"unknown one-shot policy {text!r}; use none or jitter[:sigma]")


def _eval_config(args, require_policy: bool = True) -> EvalConfig:
    return EvalConfig(
        way=args.way,
        shot=args.shot,
        query_per_class=args.query,
        episode_count=args.episodes,
        kernel=_kernel_from_args(args),
        filter=_filter_from_args(args, require_policy=require_policy),
        zeta=args.zeta,
        one_shot=_one_shot_from_args(args.one_shot),
        master_seed=args.seed,
        workers=args.workers,
    )


def _emit(reports, json_path) -> None:
    print(format_table(reports))
    if json_path:
        records = [report_record(r) for r in reports]
        Path(json_path).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


def _cmd_eval(args) -> int:
    dataset = _load_dataset(args)
    report = evaluate(dataset, _eval_config(args))
    _emit([report], args.json)
    return 0


def _parse_method(text: str, args) -> tuple[str, KernelSpec, FilterSpec]:
    parts = text.split(":", 3)
    if len(parts) != 4 or not parts[0]:
        raise ConfigurationError(
            f"--method must be name:kernel:filter:lambda_policy, got {text!r}"
        )
    name, kernel_text, filter_text, policy_text = parts
    try:
        kernel_kind = KernelKind(kernel_text)
    except ValueError:
        raise ConfigurationError(f"unknown kernel {kernel_text!r}") from None
    kernel = KernelSpec(kernel_kind, args.sigma2 if kernel_kind is KernelKind.RBF else None)
    try:
        filter_kind = FilterKind(filter_text)
    except ValueError:
        raise ConfigurationError(f"unknown filter {filter_text!r}") from None
    return name, kernel, FilterSpec(filter_kind, parse_lambda_policy(policy_text))


def _cmd_compare(args) -> int:
    dataset = _load_dataset(args)
    if not args.method:
        raise ConfigurationError("compare needs at least one --method")
    methods = [_parse_method(m, args) for m in args.method]
    reports = compare_methods(dataset, _eval_config(args, require_policy=False), methods)
    _emit(reports, args.json)
    return 0


def _cmd_sweep(args) -> int:
    dataset = _load_dataset(args)
    try:
        values = [float(v) for v in args.lambdas.split(",") if v.strip()]
    except ValueError:
        raise ConfigurationError(f"--lambdas must be comma-separated numbers, got {args.lambdas!r}") from None
    reports = lambda_sweep(dataset, _eval_config(args, require_policy=False), values)
    _emit(reports, args.json)
    return 0


def _cmd_synth_dump(args) -> int:
    dataset = synth_generate(_synth_config(args.synth))
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} rows of dimension {dataset.dim} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    dataset = _load_dataset(args)
    d_out = args.dout if args.dout is not None else dataset.dim
    cfg = TrainConfig(
        steps=args.steps,
        way=args.way,
        shot=args.shot,
        query_per_class=args.query,
        batch_episodes=args.batch_episodes,
        learning_rate=args.lr,
        fd_step=args.fd_step,
        train_weights=not args.freeze_weights,
        train_zeta=not args.freeze_zeta,
        kernel=_kernel_from_args(args),
        filter=_filter_from_args(args),
        one_shot=_one_shot_from_args(args.one_shot),
        master_seed=args.seed,
    )
    result = train(dataset, cfg, LinearEmbedding.identity(dataset.dim, d_out), args.zeta0)
    if result.loss_history:
        print(f"steps={len(result.loss_history)} "
              f"initial_loss={result.loss_history[0]:.6f} "
              f"last_step_loss={result.loss_history[-1]:.6f} "
              f"zeta={result.zeta:.6f}")
    else:
        print(f"steps=0 zeta={result.zeta:.6f}")
    if args.out:
        save_embedding(args.out, result.embedding, result.zeta)
        print(f"wrote embedding to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
