"""Command-line entry points.

Subcommands: generate, train-biased, debias, oracle-check, vcae, sweep,
report. Every command is deterministic given its config and seed; repeated
invocations produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .classifier import GradientError, TrainConfig, TrainingDiverged, save_model
from .data import (KINDS, GenConfig, generate, load_dataset, save_dataset, write_csv,
                   write_f64le, write_json)
from .debias import (METHODS, SCHEMES, SampleWeights, amplifier_prob_table,
                     train_biased_classifier)
from .runner import (ConfigError, RunConfig, aggregate_report, run_experiment, run_sweep,
                     write_weights_csv)
from .vcae import VCAE_WEIGHT_CAP, VcaeConfig


def _add_gen_flags(p):
    p.add_argument("--kind", default=GenConfig.kind, choices=KINDS)
    p.add_argument("--classes", type=int, default=GenConfig.num_classes)
    p.add_argument("--n", type=int, default=GenConfig.n)
    p.add_argument("--rho", type=float, default=GenConfig.bc_ratio,
                   help="bias-conflicting ratio in (0,1)")
    p.add_argument("--sigma-u", type=float, default=GenConfig.sigma_u)
    p.add_argument("--sigma-b", type=float, default=GenConfig.sigma_b)


def _add_run_flags(p):
    """The flags of a run config that ``debias`` and ``sweep`` share."""
    p.add_argument("--config")
    p.add_argument("--data", help="dataset directory (overrides config)")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--tau", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def cmd_generate(args) -> int:
    cfg = GenConfig(num_classes=args.classes, n=args.n, bc_ratio=args.rho,
                    sigma_u=args.sigma_u, sigma_b=args.sigma_b,
                    seed=args.seed, kind=args.kind)
    ds = generate(cfg)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples ({cfg.kind}, rho={cfg.bc_ratio}) to {args.out}")
    return 0


def cmd_train_biased(args) -> int:
    ds = load_dataset(args.data)
    cfg = TrainConfig(batch_size=args.batch_size, lr=args.lr, seed=args.seed)
    art = train_biased_classifier(ds, args.tau, args.t_bias, cfg)
    out = Path(args.out)
    save_model(art.params, out, extra={"t_bias": args.t_bias, "tau": args.tau,
                                       "n": len(ds), "num_classes": ds.num_classes})
    write_f64le(out / "confidences.f64le", art.confidences)
    write_f64le(out / "class_probs.f64le", amplifier_prob_table(art.params, ds.features))
    lo, hi = art.confidences.min(), art.confidences.max()
    print(f"amplified classifier trained {args.t_bias} epochs; "
          f"confidence range [{lo:.3g}, {hi:.3g}]; artifact in {args.out}")
    return 0


def _load_run_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_json(args.config)
    else:
        cfg = RunConfig(dataset=GenConfig())
    overrides = {}
    for name in ("scheme", "method", "gamma", "t_bias", "tau"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    if args.data is not None:
        overrides["dataset_path"] = args.data
        overrides["dataset"] = None
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seeds"] = [args.seed]
    return replace(cfg, **overrides) if overrides else cfg


def cmd_debias(args) -> int:
    cfg = _load_run_config(args)
    summary, _ = run_experiment(cfg)
    m = {key: {k: float("nan") if v is None else v for k, v in stats.items()}
         for key, stats in summary["metrics"].items()}  # None: not finite
    print(f"{cfg.scheme}/{cfg.method} over seeds {cfg.seeds}: "
          f"acc={m['test_acc']['mean']:.4f}±{m['test_acc']['std']:.4f} "
          f"bc={m['test_acc_bc']['mean']:.4f} ba={m['test_acc_ba']['mean']:.4f} "
          f"beta={m['beta']['mean']:.4f}")
    print(f"artifacts in {cfg.out_dir}")
    return 0


def cmd_oracle_check(args) -> int:
    from .causal import oracle_report
    report = oracle_report(seed=args.seed if args.seed is not None else 0)
    if args.out:
        write_json(Path(args.out) / "oracle_report.json", report)
    print(json.dumps(report, indent=2))
    return 0 if report["all_pass"] else 1


def cmd_vcae(args) -> int:
    from .vcae import latent_dump, train_vcae
    if not args.cap > 0:  # also rejects nan
        raise ConfigError(f"--cap must be > 0, got {args.cap}")
    ds = load_dataset(args.data)
    cfg = VcaeConfig(num_classes=ds.num_classes, dim_z=args.dim_z,
                     lambda0=args.lambda0, lambda1=args.lambda1,
                     lambda2=args.lambda2, hidden=(args.hidden,))
    tc = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                     lr=args.lr, seed=args.seed if args.seed is not None else 0)
    params, history = train_vcae(ds, cfg, tc)
    out = Path(args.out)
    rows = latent_dump(params, ds, cap=args.cap)
    weights = SampleWeights([row["weight"] for row in rows], provenance="vcae")
    header = list(rows[0].keys())
    write_csv(out / "latents.csv", header, [[row[k] for row in rows] for k in header])
    write_csv(out / "vcae_history.csv", ["epoch", "loss"],
              [[h[k] for h in history] for k in ("epoch", "loss")])
    write_weights_csv(out / "weights.csv", weights, ds.aligned)
    print(f"trained {tc.epochs} epochs, final loss {history[-1]['loss']:.4f}; "
          f"dumps in {args.out}")
    return 0


def _flag_list(text: str, kind: type, flag: str, what: str) -> list:
    """The comma-separated values of ``flag``, each parsed by ``kind``."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated {what}, got {text!r}") from None


def cmd_sweep(args) -> int:
    """--gamma is the axis when given, and --t-bias then one fixed value;
    otherwise --t-bias is the axis."""
    t_bias = None
    if args.t_bias_list is not None:
        t_bias = _flag_list(args.t_bias_list, int, "--t-bias", "integers")
    if args.gamma_list is not None:
        if t_bias is not None:
            if len(t_bias) != 1:
                raise ConfigError("with --gamma as the sweep axis, --t-bias "
                                  "takes one fixed value, not a list")
            args.t_bias = t_bias[0]  # overrides t_bias like debias --t-bias
        axis, values = "gamma", _flag_list(args.gamma_list, float, "--gamma", "numbers")
    elif t_bias is not None:
        axis, values = "t_bias", t_bias
    else:
        raise ConfigError("sweep needs an axis: --gamma, or --t-bias alone")
    cfg = _load_run_config(args)
    path = run_sweep(cfg, axis, values, jobs=args.jobs)
    print(f"sweep over {axis}={values} merged into {path}")
    return 0


def cmd_report(args) -> int:
    summary = aggregate_report(args.out)
    print(json.dumps(summary, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="debiaskit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic biased dataset")
    _add_gen_flags(p)
    p.add_argument("--seed", type=int, default=GenConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train-biased", help="train and freeze the amplified classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--t-bias", type=int, default=RunConfig.t_bias)
    p.add_argument("--tau", type=float, default=RunConfig.tau)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_biased)

    p = sub.add_parser("debias", help="run one debiasing experiment")
    _add_run_flags(p)
    p.add_argument("--gamma", type=float)
    p.add_argument("--t-bias", type=int)
    p.set_defaults(fn=cmd_debias)

    p = sub.add_parser("oracle-check", help="exact causal/equivalence checks as JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("vcae", help="train the clustering autoencoder and dump latents")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--dim-z", type=int, default=VcaeConfig.dim_z)
    p.add_argument("--lambda0", type=float, default=VcaeConfig.lambda0)
    p.add_argument("--lambda1", type=float, default=VcaeConfig.lambda1)
    p.add_argument("--lambda2", type=float, default=VcaeConfig.lambda2)
    p.add_argument("--hidden", type=int, default=VcaeConfig.hidden[0])
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--cap", type=float, default=VCAE_WEIGHT_CAP)
    p.set_defaults(fn=cmd_vcae)

    p = sub.add_parser("sweep", help="grid over gamma (t_bias fixed) or over "
                                     "t_bias, with merged CSV")
    _add_run_flags(p)
    p.add_argument("--gamma", dest="gamma_list",
                   help="the axis: comma-separated gamma values")
    p.add_argument("--t-bias", dest="t_bias_list",
                   help="the axis (comma-separated integers), or one fixed "
                        "value when --gamma is the axis")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="recompute the summary from metrics.csv")
    p.add_argument("--out", required=True, help="experiment output directory")
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, TrainingDiverged, GradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
