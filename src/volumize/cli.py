"""Command-line front end.

    volumize theory [kind] --config c.txt --out dir --seed 7 [--check]
    volumize sweep          --config c.txt --out dir --seed 7 --workers 4 [--resume]
    volumize train          --config c.txt --out dir --seed 7 [--resume]
    volumize quantize       --config c.txt --out dir --seed 7
    volumize spectral       --config c.txt --out dir --seed 7

Exit codes: 0 success, 1 config/usage error, 2 runtime or numeric error
(out of memory included, as one `error: out of memory` line),
3 a `theory --check` run whose acceptance checks did not pass, 130 an
interrupt (SIGINT), reported as one `interrupted` line, and 143 a SIGTERM,
reported as one `terminated` line. Every run writes an
effective_config.txt echo next to its CSVs.
"""

import argparse
import signal
import sys

from . import runs
from .config import (QUANTIZE_SCHEMA, SPECTRAL_SCHEMA, SWEEP_SCHEMA,
                     THEORY_SCHEMA, TRAIN_SCHEMA, load_config)
from .errors import ConfigError, VolumizeError

THEORY_KINDS = THEORY_SCHEMA["kind"].choices
SCHEMAS = {"theory": THEORY_SCHEMA, "sweep": SWEEP_SCHEMA, "train": TRAIN_SCHEMA,
           "quantize": QUANTIZE_SCHEMA, "spectral": SPECTRAL_SCHEMA}


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2 (2 means a run
    # blew up at runtime here)
    def error(self, message):
        raise ConfigError(message)


def _seed(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= n < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="volumize",
                description="Wall-regularized training toolkit: theory "
                            "oracles, grid sweeps, quantization, and "
                            "spectral audits.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, workers=False, resume=False):
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="flat key=value config file (defaults apply without it)")
        sp.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (created if missing)")
        sp.add_argument("--seed", type=_seed, default=0, metavar="U64")
        if workers:
            sp.add_argument("--workers", type=int, default=1, metavar="N",
                            help="parallel cell workers")
        if resume:
            sp.add_argument("--resume", action="store_true",
                            help="skip/continue already-computed work in --out")

    sp = sub.add_parser(
        "theory", help="closed forms vs Monte-Carlo/flow oracles",
        description="Monte-Carlo grids (theorem1, fig4a, fig4b) run one process "
                    "per available CPU: the affinity mask, so taskset limits it, "
                    "capped by a cgroup CPU quota. Each estimate draws and "
                    "sums its samples in blocks of at most 2**16, so a process "
                    "holds a few MB whatever n_samples is. Output bytes never "
                    "depend on the CPU count.")
    sp.add_argument("kind", nargs="?", choices=THEORY_KINDS, default=None,
                    help="which table to produce (or set kind= in the config)")
    sp.add_argument("--check", action="store_true",
                    help="exit 3 unless all built-in checks pass")
    common(sp)

    sp = sub.add_parser("sweep", help="(v, alpha) grid sweep on synthetic blobs")
    common(sp, workers=True, resume=True)

    sp = sub.add_parser("train", help="single training run with checkpointing")
    common(sp, resume=True)

    sp = sub.add_parser("quantize", help="train with periodic wall rounding")
    common(sp)

    sp = sub.add_parser("spectral", help="contractive-walls training + bound audit")
    common(sp)
    return p


class _Terminated(BaseException):
    """Raised by main's SIGTERM handler; like KeyboardInterrupt, no
    `except Exception` stops it on its way to main."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    parser = build_parser()
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help lands here with code 0
            return int(exc.code or 0)
        # the positional theory kind overrides kind= in the config file
        kind = getattr(args, "kind", None)
        try:
            cfg = load_config(args.config, SCHEMAS[args.command],
                              {"kind": kind} if kind else None)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc

        if args.command == "theory":
            path, ok = runs.run_theory(cfg, args.out, args.seed)
            print(f"wrote {path}")
            if args.check:
                print("checks: " + ("pass" if ok else "FAIL"))
                return 0 if ok else 3
            return 0

        if args.command == "sweep":
            path = runs.run_sweep_cmd(cfg, args.out, args.seed,
                                      workers=args.workers, resume=args.resume)
            print(f"wrote {path}")
            return 0

        if args.command == "train":
            path, traj = runs.run_train(cfg, args.out, args.seed,
                                        resume=args.resume)
            print(f"wrote {path}")
            print(f"best={traj.best:.6f} last={traj.last:.6f} gap={traj.gap:.6f}")
            return 0

        if args.command == "quantize":
            path, float_acc, quant_acc = runs.run_quantize(cfg, args.out, args.seed)
            print(f"wrote {path}")
            print(f"float_test_acc={float_acc:.6f} quantized_test_acc={quant_acc:.6f}")
            return 0

        if args.command == "spectral":
            path, report = runs.run_spectral(cfg, args.out, args.seed)
            print(f"wrote {path}")
            print(f"smax_product={report.smax_product:.9f} "
                  f"empirical={report.empirical:.9f} ok={report.ok}")
            return 0

        raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VolumizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a config can ask for more than there is (flow_dim, say)
        print(f"error: out of memory{f' ({exc})' if str(exc) else ''}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("terminated", file=sys.stderr)
        return 143
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
