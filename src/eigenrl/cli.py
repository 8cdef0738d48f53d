"""Command-line entry point: run, verify, replay, gen-operator.

Exit codes: 0 success, 1 tolerance/divergence failure, 2 bad input
(arguments, config files, truncated traces, non-unitary bases), 3 runtime
failure.
The ``QRL_LOG`` environment variable sets the logging level.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, harness, linalg, protocol
from .environment import (
    env_bell,
    env_random,
    env_spin_x,
    finite_number,
    load_operator,
    save_operator,
)
from .errors import ConfigError, EigenrlError
from .linalg import MAX_DIM, MIN_DIM

log = logging.getLogger("eigenrl")


def _configure_logging() -> None:
    wanted = os.environ.get("QRL_LOG", "WARNING").upper()
    level = getattr(logging, wanted, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenrl",
        description="single-shot measurement-driven eigensolver experiments",
    )
    parser.add_argument("--version", action="version", version=f"eigenrl {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", required=True, help="experiment config (JSON)")
    run.add_argument("--out", help="output path (default: config stem + format)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--trace", help="also record repetition 0 as a replayable trace")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="check a learned basis against an operator")
    verify.add_argument("--operator", required=True, help="operator file (JSON)")
    verify.add_argument("--d-matrix", required=True, help="learned basis file (JSON)")
    verify.add_argument(
        "--tol", type=float, default=0.2, help="largest acceptable residual"
    )
    verify.set_defaults(func=cmd_verify)

    replay = sub.add_parser("replay", help="re-run a trace and check its final hash")
    replay.add_argument("--trace", required=True, help="trace file to replay")
    replay.add_argument("--d-matrix", help="write the replayed basis here (JSON)")
    replay.set_defaults(func=cmd_replay)

    gen = sub.add_parser("gen-operator", help="write an operator file")
    gen.add_argument("--kind", choices=("random", "spin-x", "bell"), default="random")
    gen.add_argument("--dim", type=int, help="dimension (random kind only)")
    gen.add_argument("--seed", type=int, default=0, help="draw seed (random kind only)")
    gen.add_argument("--tau", type=float, default=1.0, help="interaction time to store")
    gen.add_argument("--out", required=True, help="output path (JSON)")
    gen.set_defaults(func=cmd_gen_operator)
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    log.info("running %d repetitions at dim %d", config.repetitions, config.dim)
    result = harness.run_experiment(config)
    out = args.out
    if out is None:
        stem = os.path.splitext(os.path.basename(args.config))[0]
        out = f"{stem}.{args.format}"
    harness.write_results(result, out, fmt=args.format)
    log.info("results written to %s", out)
    if args.trace:
        final_hash = harness.record_trace(config, args.trace)
        log.info("trace written to %s (final basis %s)", args.trace, final_hash[:12])
    finals = ", ".join(f"{v:.6f}" for v in result.final_fidelities())
    print(f"final F = [{finals}], final W = {result.search_curve[-1]:.6f}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if finite_number(args.tol, "--tol") < 0.0:
        raise ConfigError(f"--tol must be >= 0, got {args.tol}")
    operator, _ = load_operator(args.operator)
    basis = harness.load_basis(args.d_matrix)
    if basis.shape != operator.shape:
        raise ConfigError(f"basis is {len(basis)}-dimensional, operator {len(operator)}")
    residual = harness.diag_residual(basis, operator)
    eig = linalg.eig_hermitian(operator)
    amps = np.abs(eig.eigenvectors.conj().T @ basis)
    fidelities = amps.max(axis=0)
    print(f"diag residual = {residual:.9f}")
    for j, value in enumerate(fidelities):
        print(f"F_{j} = {value:.9f}")
    if residual <= args.tol:
        return 0
    print(f"residual exceeds tolerance {args.tol}", file=sys.stderr)
    return 1


def cmd_replay(args: argparse.Namespace) -> int:
    header, records, recorded = protocol.read_trace(args.trace)
    basis = protocol.replay_basis(header["dim"], records)
    if args.d_matrix:
        harness.save_basis(args.d_matrix, basis)
        log.info("replayed basis written to %s", args.d_matrix)
    replayed = protocol.basis_hash(basis)
    if replayed == recorded:
        print(f"replay OK: {len(records)} iterations, basis {replayed[:12]}")
        return 0
    print(
        f"replay DIVERGED: recorded {recorded[:12]}, got {replayed[:12]}",
        file=sys.stderr,
    )
    return 1


def cmd_gen_operator(args: argparse.Namespace) -> int:
    finite_number(args.tau, "--tau")
    if args.kind == "random":
        if args.dim is None:
            raise ConfigError("gen-operator --kind random needs --dim")
        if not MIN_DIM <= args.dim <= MAX_DIM:
            raise ConfigError(f"--dim must lie in [{MIN_DIM}, {MAX_DIM}], got {args.dim}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        env = env_random(args.dim, args.tau, args.seed)
    elif args.kind == "spin-x":
        if args.dim not in (None, 2):
            raise ConfigError("spin-x is fixed at dim 2")
        env = env_spin_x(args.tau)
    else:
        if args.dim not in (None, 4):
            raise ConfigError("the Bell operator is fixed at dim 4")
        env = env_bell(args.tau)
    save_operator(args.out, env.operator, args.tau)
    eigenvalues = env.eigensystem_oracle().eigenvalues
    print(f"wrote {args.out}: dim {env.dim}, spectrum {np.round(eigenvalues, 6)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigenrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
