"""Command-line entry point: run, verify, replay, gen-operator.

Exit codes: 0 success, 1 tolerance/divergence failure, 2 bad input
(arguments, output paths that name an input or each other, a directory or a
missing directory, config, operator and basis files, truncated or malformed
traces, non-unitary bases), 3 runtime failure.
The ``QRL_LOG`` environment variable sets the logging level.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, harness, linalg, protocol, seeding
from .environment import (
    env_bell,
    env_random,
    env_spin_x,
    load_operator,
    save_operator,
)
from .errors import ConfigError, EigenrlError, finite_number

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


def _distinct(inputs: list[tuple[str, str | None]],
              outputs: list[tuple[str, str | None]]) -> None:
    """ConfigError, raised before any work, if an output is a directory or
    lies in one that does not exist, or if two of the ``(flag, path)``
    pairs, inputs or outputs, name the same file."""
    for flag, path in outputs:
        if path is None:
            continue
        if os.path.isdir(path):
            raise ConfigError(f"{flag} {path} is a directory")
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ConfigError(f"{flag} {path}: no directory {folder}")
    seen: dict[str, str] = {}
    for flag, path in (pair for pair in inputs + outputs if pair[1] is not None):
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{flag} {path} names the same file as {seen[real]}")
        seen[real] = flag


def cmd_run(args: argparse.Namespace) -> int:
    out = args.out
    if out is None:
        stem = os.path.splitext(os.path.basename(args.config))[0]
        out = f"{stem}.{args.format}"
    config = harness.load_config(args.config)
    _distinct([("--config", args.config), ("operator_file", config.operator_file)],
              [("--out", out), ("--trace", args.trace)])
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    log.info("running %d repetitions at dim %d", config.repetitions, config.dim)
    result = harness.run_experiment(config, trace=bool(args.trace))
    harness.write_results(result, out, fmt=args.format)
    log.info("results written to %s", out)
    if args.trace:
        final_hash = result.trace.write(args.trace)
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
    residual = float(linalg.diag_residual(basis[None], operator[None])[0])
    vconj = linalg.eig_hermitian(operator).eigenvectors.conj()
    fidelities = linalg.overlaps(vconj[None], np.arange(1), basis[None])[0].max(axis=0)
    print(f"diag residual = {residual:.9f}")
    for j, value in enumerate(fidelities):
        print(f"F_{j} = {value:.9f}")
    if residual <= args.tol:
        return 0
    print(f"residual exceeds tolerance {args.tol}", file=sys.stderr)
    return 1


def cmd_replay(args: argparse.Namespace) -> int:
    _distinct([("--trace", args.trace)], [("--d-matrix", args.d_matrix)])
    header, decisions, recorded = protocol.read_trace(args.trace)
    basis = protocol.replay_basis(header["dim"], decisions)
    if args.d_matrix:
        harness.save_basis(args.d_matrix, basis)
        log.info("replayed basis written to %s", args.d_matrix)
    replayed = protocol.basis_hash(basis)
    if replayed == recorded:
        print(f"replay OK: {len(decisions.stage)} iterations, basis {replayed[:12]}")
        return 0
    print(
        f"replay DIVERGED: recorded {recorded[:12]}, got {replayed[:12]}",
        file=sys.stderr,
    )
    return 1


def cmd_gen_operator(args: argparse.Namespace) -> int:
    seeding.require_seed(args.seed, "--seed")
    _distinct([], [("--out", args.out)])
    if args.kind == "random":
        if args.dim is None:
            raise ConfigError("gen-operator --kind random needs --dim")
        env = env_random(args.dim, args.tau, [args.seed])
    else:
        env = (env_spin_x if args.kind == "spin-x" else env_bell)(args.tau)
    if args.dim not in (None, env.dim):
        raise ConfigError(f"--dim {args.dim}, but the {args.kind} operator has dim {env.dim}")
    save_operator(args.out, env.operators[0], args.tau)
    eigenvalues = env.eigensystem.eigenvalues[0]
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
    except (EigenrlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # NumPy's names the allocation; a bare one says nothing
        print("error: ran out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
