"""Command-line interface.

Drives the full reproduction workflow from the shell on the synthetic
task::

    python -m repro train      --model vgg16 --num-classes 10 --out base.npz
    python -m repro prune      --checkpoint base.npz --out pruned.npz
    python -m repro run        --checkpoint base.npz --run-dir runs/a
    python -m repro run        --run-dir runs/a --resume
    python -m repro profile    --checkpoint pruned.npz
    python -m repro compare    --checkpoint base.npz --methods l1,sss,random
    python -m repro specialize --checkpoint base.npz --classes 0,1 --out s.npz
    python -m repro serve      --model vgg16=pruned.npz --port 7071
    python -m repro verify     --quick

Every subcommand prints a short report; ``train``/``prune``/``specialize``
write checkpoints loadable by :mod:`repro.io`.
"""

from __future__ import annotations

import argparse
import copy
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-classes", type=int, default=10,
                        help="classes in the synthetic task (10 or 100 mirror CIFAR)")
    parser.add_argument("--image-size", type=int, default=12)
    parser.add_argument("--samples-per-class", type=int, default=40)
    parser.add_argument("--data-seed", type=int, default=0)


def _datasets(args):
    from .data import make_cifar_like
    return make_cifar_like(num_classes=args.num_classes,
                           image_size=args.image_size,
                           samples_per_class=args.samples_per_class,
                           seed=args.data_seed)


def _training(args):
    from .core import TrainingConfig
    return TrainingConfig(epochs=args.epochs, batch_size=args.batch_size,
                          lr=args.lr, momentum=0.9, weight_decay=5e-4,
                          lambda1=args.lambda1, lambda2=args.lambda2)


def _training_args(parser: argparse.ArgumentParser, epochs: int) -> None:
    parser.add_argument("--epochs", type=int, default=epochs)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--lambda1", type=float, default=1e-4,
                        help="L1 coefficient of the modified loss (Eq. 1)")
    parser.add_argument("--lambda2", type=float, default=1e-2,
                        help="orthogonality coefficient of the modified loss")


def _load_checkpoint(path: str):
    from .io import load_model
    model = load_model(path)
    return model, model.arch


def cmd_train(args) -> int:
    from .core import Trainer
    from .io import save_model
    from .models import build_model
    train, test = _datasets(args)
    model = build_model(args.model, num_classes=args.num_classes,
                        image_size=args.image_size, width=args.width,
                        seed=args.seed)
    print(f"{args.model}: {model.num_parameters():,} parameters")
    trainer = Trainer(model, train, test, _training(args))
    history = trainer.train(log=not args.quiet)
    save_model(model, args.out)
    print(f"final test accuracy: {history.final_test_accuracy:.4f}")
    print(f"checkpoint written to {args.out}")
    return 0


def _framework_config(args):
    from .core import FrameworkConfig, ImportanceConfig
    return FrameworkConfig(
        score_threshold=(args.threshold if args.threshold is not None
                         else 0.3 * args.num_classes),
        max_fraction_per_iteration=args.max_fraction,
        strategy=args.strategy,
        finetune_epochs=args.finetune_epochs,
        accuracy_drop_tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        importance=ImportanceConfig(
            images_per_class=args.images_per_class,
            tau=args.tau, tau_mode=args.tau_mode,
            tau_quantile=args.tau_quantile))


def _build_framework(args, model):
    from .core import ClassAwarePruningFramework
    train, test = _datasets(args)
    return ClassAwarePruningFramework(
        model, train, test, num_classes=args.num_classes,
        input_shape=(3, args.image_size, args.image_size),
        config=_framework_config(args), training=_training(args))


def _print_result(result, label: str) -> None:
    print(result.summary_row(label))
    print(f"stopped because: {result.termination or result.stop_reason}")


def cmd_prune(args) -> int:
    from .io import save_model
    model, arch = _load_checkpoint(args.checkpoint)
    args.num_classes = arch.get("num_classes", args.num_classes)
    args.image_size = arch.get("image_size", args.image_size)
    framework = _build_framework(args, model)
    result = framework.run(log=not args.quiet)
    _print_result(result, arch.get("name", "model"))
    save_model(result.model, args.out, arch=arch)
    print(f"pruned checkpoint written to {args.out}")
    return 0


def cmd_run(args) -> int:
    """Journaled (crash-resumable) variant of ``prune``."""
    from .io import save_model
    if args.resume:
        result, arch = _resume_run(args)
    else:
        if args.checkpoint is None:
            raise SystemExit("repro run: --checkpoint is required unless "
                             "--resume is given")
        model, arch = _load_checkpoint(args.checkpoint)
        args.num_classes = arch.get("num_classes", args.num_classes)
        args.image_size = arch.get("image_size", args.image_size)
        framework = _build_framework(args, model)
        result = framework.run(
            log=not args.quiet, run_dir=args.run_dir,
            meta={"image_size": args.image_size,
                  "samples_per_class": args.samples_per_class,
                  "data_seed": args.data_seed})
    _print_result(result, arch.get("name", "model"))
    if args.out:
        save_model(result.model, args.out, arch=arch)
        print(f"pruned checkpoint written to {args.out}")
    print(f"run journal at {args.run_dir}")
    return 0


def _resume_run(args):
    """Rebuild framework + datasets from the run journal, then resume."""
    from pathlib import Path

    from .core import (ClassAwarePruningFramework, FrameworkConfig,
                       ImportanceConfig, TrainingConfig)
    from .core.framework import ResumeError
    from .data import make_cifar_like
    from .io import load_model
    from .resilience import RunJournal, SentinelConfig
    from .resilience.journal import decode_payload

    run_dir = Path(args.run_dir)
    records = RunJournal.read(run_dir / "journal.jsonl")
    start = next((r for r in records if r.get("event") == "run_start"), None)
    if start is None:
        raise SystemExit(f"repro run: {run_dir} has no run_start record — "
                         "nothing to resume")
    payload = decode_payload(start)
    meta = payload.get("meta") or {}
    num_classes = int(payload["num_classes"])
    input_shape = tuple(payload["input_shape"])

    cfg_dict = dict(payload["config"])
    cfg_dict["importance"] = ImportanceConfig(**cfg_dict["importance"])
    cfg_dict["sentinel"] = (SentinelConfig(**cfg_dict["sentinel"])
                            if cfg_dict.get("sentinel") else None)
    tr_dict = dict(payload["training"])
    tr_dict["lr_milestones"] = tuple(tr_dict.get("lr_milestones", ()))
    # Journals of older versions also record the retired worker-pool
    # settings; the framework refuses any that used them (workers > 0).
    cfg_dict.pop("supervision", None)
    for key in ("workers", "grad_transport", "grad_bucket_kb"):
        tr_dict.pop(key, None)
    config = FrameworkConfig(**cfg_dict)
    training = TrainingConfig(**tr_dict)

    train, test = make_cifar_like(
        num_classes=num_classes,
        image_size=meta.get("image_size", args.image_size),
        samples_per_class=meta.get("samples_per_class",
                                   args.samples_per_class),
        seed=meta.get("data_seed", args.data_seed))
    model = load_model(run_dir / "checkpoints" / "baseline.npz",
                       input_shape=input_shape)
    framework = ClassAwarePruningFramework(
        model, train, test, num_classes=num_classes,
        input_shape=input_shape, config=config, training=training)
    try:
        result = framework.run(log=not args.quiet, resume_from=run_dir)
    except ResumeError as exc:
        raise SystemExit(f"repro run: {exc}") from exc
    return result, payload["arch"]


def cmd_profile(args) -> int:
    from .flops import profile_model
    model, arch = _load_checkpoint(args.checkpoint)
    size = arch.get("image_size", args.image_size)
    profile = profile_model(model, (3, size, size))
    print(profile.summary())
    print(f"\ntotal FLOPs: {profile.total_flops:,}")
    return 0


def cmd_compare(args) -> int:
    from .analysis import MethodComparison
    from .baselines import BaselineConfig, run_method
    from .core import evaluate_model
    model, arch = _load_checkpoint(args.checkpoint)
    args.num_classes = arch.get("num_classes", args.num_classes)
    args.image_size = arch.get("image_size", args.image_size)
    train, test = _datasets(args)
    _, original = evaluate_model(model, test)
    comparison = MethodComparison(arch.get("name", "model"),
                                  original_accuracy=original)
    config = BaselineConfig(target_ratio=args.target_ratio,
                            fraction_per_iteration=args.max_fraction,
                            finetune_epochs=args.finetune_epochs,
                            max_iterations=args.max_iterations)
    for name in args.methods.split(","):
        candidate = copy.deepcopy(model)
        result = run_method(name.strip(), candidate, train, test,
                            (3, args.image_size, args.image_size),
                            config, _training(args))
        comparison.add(result)
        print(result.row())
    print("\n" + comparison.table())
    return 0


def cmd_specialize(args) -> int:
    from .core import ImportanceConfig, SpecializationConfig, specialize
    from .io import save_model
    model, arch = _load_checkpoint(args.checkpoint)
    args.num_classes = arch.get("num_classes", args.num_classes)
    args.image_size = arch.get("image_size", args.image_size)
    train, test = _datasets(args)
    classes = [int(c) for c in args.classes.split(",")]
    result = specialize(
        model, train, test, num_classes=args.num_classes, classes=classes,
        input_shape=(3, args.image_size, args.image_size),
        config=SpecializationConfig(
            min_class_score=args.min_class_score,
            finetune_epochs=args.finetune_epochs,
            importance=ImportanceConfig(
                images_per_class=args.images_per_class,
                tau_mode="quantile", tau_quantile=args.tau_quantile)),
        training=_training(args))
    print(f"specialised to classes {classes}: accuracy {result.accuracy:.4f} "
          f"ratio {result.pruning_ratio * 100:.1f}% "
          f"flops_red {result.flops_reduction * 100:.1f}%")
    arch = dict(arch)
    arch["num_classes"] = len(classes)
    save_model(result.model, args.out, arch=arch)
    print(f"specialised checkpoint written to {args.out}")
    return 0


def cmd_infer_bench(args) -> int:
    from .infer.bench import (BENCH_MODELS, SMOKE_MODELS, format_table,
                              run_bench, write_bench)

    available = SMOKE_MODELS if args.smoke else BENCH_MODELS
    models = None
    if args.models:
        names = [m.strip() for m in args.models.split(",") if m.strip()]
        unknown = [m for m in names if m not in available]
        if unknown:
            print(f"unknown bench model(s): {', '.join(unknown)} "
                  f"(available: {', '.join(sorted(available))})")
            return 1
        models = {m: available[m] for m in names}
    batch_sizes = tuple(int(b) for b in args.batch_sizes.split(","))
    results = run_bench(models=models, batch_sizes=batch_sizes,
                        repeats=args.repeats, smoke=args.smoke,
                        seed=args.seed, quant=args.quant)
    print(format_table(results))
    if args.out:
        write_bench(results, args.out)
        print(f"results written to {args.out}")
    return 0


def cmd_serve(args) -> int:
    from .serve import (InferenceServer, ModelRegistry, ReplicaConfig,
                        ReplicaRouter, ReplicaSet, ReplicaSpec, ServeConfig,
                        SheddingConfig, restore_registry)

    if not args.model and not args.resume:
        print("serve needs --model and/or --resume")
        return 1
    deployments = []
    for item in args.model or []:
        ref, sep, checkpoint = item.partition("=")
        name, at, version = ref.partition("@")
        if not sep or not name or not checkpoint:
            print(f"--model expects name[@version]=checkpoint.npz, "
                  f"got {item!r}")
            return 1
        deployments.append((name, version if at else "v1", checkpoint))
    budget = args.p99_budget_ms if args.p99_budget_ms > 0 else None
    manifest_dir = args.manifest or args.resume
    registry = ModelRegistry(
        max_batch=args.max_batch,
        shedding=SheddingConfig(max_pending=args.max_pending,
                                p99_budget_ms=budget),
        manifest_dir=manifest_dir)
    with registry:
        if args.resume:
            report = restore_registry(registry, args.resume)
            print(report.summary())
            if not report.restored and not deployments:
                print("nothing restorable in the manifest and no --model "
                      "given; refusing to serve an empty registry")
                return 1
        for name, version, checkpoint in deployments:
            report = registry.deploy(name, version, checkpoint=checkpoint)
            print(f"deployed {name}@{version} from {checkpoint} "
                  f"(probe max|diff| {report.probe_max_abs_diff:.2e})")
        router = rset = None
        if args.replicas > 0:
            if not deployments:
                print("--replicas needs --model checkpoints to deploy "
                      "to the replica fleet")
                return 1
            if args.resume:
                print("note: --replicas serves only the --model specs; "
                      "manifest-restored models stay on the frontend")
            rset = ReplicaSet(ReplicaConfig(
                replicas=args.replicas,
                max_batch=args.max_batch,
                max_respawns=args.replica_respawns,
                hedge_after_ms=args.replica_hedge_ms
                if args.replica_hedge_ms > 0 else None,
                request_timeout_s=args.request_timeout))
            router = ReplicaRouter(rset, [
                ReplicaSpec(name, version, checkpoint=checkpoint)
                for name, version, checkpoint in deployments])
            print(f"replicated tier: {args.replicas} replicas, "
                  f"{len(deployments)} model(s)")
        try:
            server = InferenceServer(
                registry, ServeConfig(host=args.host, port=args.port,
                                      request_timeout_s=args.request_timeout,
                                      drain_grace_s=args.drain_grace),
                router=router)
            server.run_forever()
        finally:
            if rset is not None:
                rset.close()            # idempotent; server closes it too
    return 0


def cmd_serve_bench(args) -> int:
    from .serve.bench import _VARIANTS, format_table, run_bench, write_bench
    connections = tuple(int(c) for c in args.connections.split(","))
    variants = tuple(args.variant) if args.variant else _VARIANTS
    results = run_bench(smoke=args.smoke, seed=args.seed,
                        connections=connections,
                        requests_per_connection=args.requests,
                        max_batch=args.max_batch,
                        variants=variants,
                        replicas=args.replicas)
    print(format_table(results))
    if args.out:
        write_bench(results, args.out)
        print(f"results written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    from .verify.runner import main as verify_main
    forwarded = args.verify_args
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return verify_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Class-Aware Pruning (DATE 2024) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model with the modified loss")
    p_train.add_argument("--model", default="vgg16")
    p_train.add_argument("--width", type=float, default=0.25)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--quiet", action="store_true")
    _dataset_args(p_train)
    _training_args(p_train, epochs=30)
    p_train.set_defaults(func=cmd_train)

    def _prune_args(p):
        p.add_argument("--threshold", type=float, default=None,
                       help="score threshold (default: 0.3 x classes)")
        p.add_argument("--max-fraction", type=float, default=0.1)
        p.add_argument("--strategy", default="percentage+threshold",
                       choices=["percentage", "threshold",
                                "percentage+threshold"])
        p.add_argument("--finetune-epochs", type=int, default=5)
        p.add_argument("--tolerance", type=float, default=0.05)
        p.add_argument("--max-iterations", type=int, default=8)
        p.add_argument("--images-per-class", type=int, default=10)
        p.add_argument("--tau", type=float, default=1e-50)
        p.add_argument("--tau-mode", default="quantile",
                       choices=["absolute", "quantile"])
        p.add_argument("--tau-quantile", type=float, default=0.9)
        p.add_argument("--quiet", action="store_true")
        _dataset_args(p)
        _training_args(p, epochs=5)

    p_prune = sub.add_parser("prune", help="run the class-aware framework")
    p_prune.add_argument("--checkpoint", required=True)
    p_prune.add_argument("--out", required=True)
    _prune_args(p_prune)
    p_prune.set_defaults(func=cmd_prune)

    p_run = sub.add_parser(
        "run", help="journaled, crash-resumable variant of prune")
    p_run.add_argument("--run-dir", required=True,
                       help="directory for the journal + checkpoints")
    p_run.add_argument("--resume", action="store_true",
                       help="continue an interrupted run from its journal")
    p_run.add_argument("--checkpoint", default=None,
                       help="trained model to prune (fresh runs only)")
    p_run.add_argument("--out", default=None,
                       help="optionally export the final pruned checkpoint")
    _prune_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_profile = sub.add_parser("profile", help="print params/MACs per layer")
    p_profile.add_argument("--checkpoint", required=True)
    p_profile.add_argument("--image-size", type=int, default=12)
    p_profile.set_defaults(func=cmd_profile)

    p_compare = sub.add_parser("compare", help="run baseline methods")
    p_compare.add_argument("--checkpoint", required=True)
    p_compare.add_argument("--methods", default="l1,sss,random")
    p_compare.add_argument("--target-ratio", type=float, default=0.3)
    p_compare.add_argument("--max-fraction", type=float, default=0.12)
    p_compare.add_argument("--finetune-epochs", type=int, default=2)
    p_compare.add_argument("--max-iterations", type=int, default=8)
    _dataset_args(p_compare)
    _training_args(p_compare, epochs=2)
    p_compare.set_defaults(func=cmd_compare)

    p_spec = sub.add_parser("specialize",
                            help="specialise a model to a class subset")
    p_spec.add_argument("--checkpoint", required=True)
    p_spec.add_argument("--classes", required=True,
                        help="comma-separated retained class ids")
    p_spec.add_argument("--out", required=True)
    p_spec.add_argument("--min-class-score", type=float, default=0.3)
    p_spec.add_argument("--finetune-epochs", type=int, default=5)
    p_spec.add_argument("--images-per-class", type=int, default=10)
    p_spec.add_argument("--tau-quantile", type=float, default=0.9)
    _dataset_args(p_spec)
    _training_args(p_spec, epochs=5)
    p_spec.set_defaults(func=cmd_specialize)

    p_bench = sub.add_parser(
        "infer-bench", help="benchmark eager vs compiled inference")
    p_bench.add_argument("--models", default=None,
                         help="comma-separated subset of bench models")
    p_bench.add_argument("--batch-sizes", default="1,8,32")
    p_bench.add_argument("--repeats", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--smoke", action="store_true",
                         help="tiny models / few repeats (CI)")
    p_bench.add_argument("--quant", action="store_true",
                         help="extend the sweep to the int8 engine "
                              "({dense,pruned} x {fp32,int8} grid with "
                              "artifact sizes and top-1 agreement)")
    p_bench.add_argument("--out", default=None,
                         help="write results JSON to this path")
    p_bench.set_defaults(func=cmd_infer_bench)

    p_serve = sub.add_parser(
        "serve", help="serve checkpoints over the socket protocol "
                      "(JSON headers, raw float32 tensor bodies)")
    p_serve.add_argument("--model", action="append", default=None,
                         metavar="NAME[@VERSION]=CHECKPOINT",
                         help="deploy a checkpoint under a serving name; "
                              "repeatable for multi-model serving")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7071,
                         help="listen port (0 picks an ephemeral one)")
    p_serve.add_argument("--max-batch", type=int, default=32)
    p_serve.add_argument("--max-pending", type=int, default=64,
                         help="admitted-but-unfinished requests per model "
                              "before shedding with reason queue-full")
    p_serve.add_argument("--p99-budget-ms", type=float, default=200.0,
                         help="shed (reason slo) once recent p99 exceeds "
                              "this; <= 0 disables the SLO gate")
    p_serve.add_argument("--request-timeout", type=float, default=30.0,
                         help="seconds before an in-flight request is "
                              "cancelled and answered with a timeout")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds SIGTERM waits for in-flight "
                              "requests before closing the loop")
    p_serve.add_argument("--manifest", default=None, metavar="DIR",
                         help="journal every deploy to this directory so "
                              "'--resume DIR' can warm-restart the fleet")
    p_serve.add_argument("--resume", default=None, metavar="DIR",
                         help="redeploy every name@version journaled in "
                              "DIR's manifest (through probe validation) "
                              "before serving; implies --manifest DIR")
    p_serve.add_argument("--replicas", type=int, default=0,
                         help="run N replica worker processes behind the "
                              "health-probed router (0 = in-process "
                              "serving); each --model checkpoint deploys "
                              "to every replica")
    p_serve.add_argument("--replica-respawns", type=int, default=3,
                         help="total crashed-replica respawns before the "
                              "fleet degrades to in-process serving")
    p_serve.add_argument("--replica-hedge-ms", type=float, default=0.0,
                         help="hedge a straggling replica request onto a "
                              "second replica after this many ms "
                              "(<= 0 disables hedging)")
    p_serve.set_defaults(func=cmd_serve)

    p_sbench = sub.add_parser(
        "serve-bench",
        help="closed-loop serving benchmark: latency/throughput vs load")
    p_sbench.add_argument("--connections", default="1,4,16",
                          help="comma-separated offered-load sweep "
                               "(concurrent connections)")
    p_sbench.add_argument("--requests", type=int, default=40,
                          help="requests per connection at each sweep point")
    p_sbench.add_argument("--max-batch", type=int, default=16)
    p_sbench.add_argument("--variant", action="append", default=None,
                          choices=["dense", "pruned", "int8"],
                          help="serve only these variants (repeatable); "
                               "default benches dense, pruned and int8")
    p_sbench.add_argument("--seed", type=int, default=0)
    p_sbench.add_argument("--smoke", action="store_true",
                          help="tiny model / short sweep (CI); asserts the "
                               "zero-drop serving contract")
    p_sbench.add_argument("--replicas", type=int, default=0,
                          help="bench the replicated tier: N replica "
                               "processes behind the router (0 = the "
                               "in-process server)")
    p_sbench.add_argument("--out", default=None,
                          help="write results JSON to this path "
                               "(e.g. BENCH_serve.json)")
    p_sbench.set_defaults(func=cmd_serve_bench)

    p_verify = sub.add_parser(
        "verify", help="gradient fuzzing + pruning invariant checks")
    p_verify.add_argument("verify_args", nargs=argparse.REMAINDER,
                          help="arguments forwarded to python -m repro.verify")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse.REMAINDER cannot capture option-like tokens right after a
    # subcommand (`repro verify --quick`), so forward verify's arguments
    # before the main parse ever sees them.
    if argv[:1] == ["verify"]:
        from .verify.runner import main as verify_main
        forwarded = argv[1:]
        if forwarded and forwarded[0] == "--":
            forwarded = forwarded[1:]
        return verify_main(forwarded)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
