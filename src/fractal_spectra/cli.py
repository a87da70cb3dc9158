"""Command-line surface: spectrum, dos, renorm, verify.

Configs are JSON files (or builtin names: sierpinski, gamma_bar,
gamma_bar_semi, interval).  CSV output uses 17 significant digits so
identical invocations are byte-identical.  Exit codes: 0 ok, 1 verify
failures, 2 config errors (printed as "config error:") and other bad input
("input error:"), 3 numeric failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, FractalSpectraError
from .network import q_matrix
from .renorm import orbit
from .selfsim import assemble_measure, assemble_network
from .spectra import check_green_grid, dos_histogram, green_proxy, level_spectrum
FMT = "%.17g"


def _fmt(x):
    if isinstance(x, complex):
        if x.imag == 0:
            return FMT % x.real
        return f"{FMT % x.real}{'+' if x.imag >= 0 else '-'}{FMT % abs(x.imag)}j"
    return FMT % x


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args):
    cfg = load_config(args.config)
    rep = level_spectrum(cfg.structure, cfg.network, cfg.measure, args.level, args.bc)
    values, mult = (-rep.values[::-1], rep.mult[::-1]) if args.laplacian else (rep.values, rep.mult)
    lines = ["eigenvalue,multiplicity"]
    lines += [f"{_fmt(v)},{m}" for v, m in zip(values.tolist(), mult.tolist())]
    _emit(lines, args.csv)
    return 0


def cmd_dos(args):
    # The bins, grid and eps are checked before the level-n spectrum or form
    # is built, and the proxy is computed before anything is written.
    if args.bins < 1:
        raise ValueError("need at least one bin")
    if args.green:
        try:
            lo, hi, count = args.green.split(":")
            grid = np.linspace(float(lo), float(hi), int(count))
        except ValueError:
            raise ValueError("--green expects lo:hi:count")
        check_green_grid(grid, args.eps)
    cfg = load_config(args.config)
    reports = [
        level_spectrum(cfg.structure, cfg.network, cfg.measure, args.level, "neumann")
    ]
    edges, masses = dos_histogram(reports, cfg.structure.num_copies, args.bins)
    if args.green:
        q_n = assemble_network(cfg.structure, cfg.network, args.level).real
        b_n = assemble_measure(cfg.structure, cfg.measure, args.level)
        vals = green_proxy(
            q_n, b_n, grid, cfg.structure.num_copies, args.level, eps=args.eps
        )
        glines = ["lambda,green_proxy"]
        glines += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(grid, vals)]
    lines = ["bin_left,bin_right,mass"]
    for b in range(args.bins):
        lines.append(f"{_fmt(edges[b])},{_fmt(edges[b + 1])},{_fmt(masses[0][b])}")
    _emit(lines, args.csv)
    if args.green:
        _emit(glines, args.green_csv)
    return 0


def cmd_renorm(args):
    cfg = load_config(args.config)
    chart = cfg.chart
    if args.coords:
        if chart is None:
            raise ConfigError("--coords needs a chart in the config")
        coords = np.array([complex(c) for c in args.coords.split(",")])
        start = chart.matrix(coords)
    else:
        start = q_matrix(cfg.network)
    steps = orbit(start, cfg.structure, args.steps, chart)
    lines = ["step,defect,in_siegel,values"]
    for s_i, step in enumerate(steps, start=1):
        if args.frame:
            vals = ";".join(_fmt(z) for z in step.frame.columns.ravel())
        elif step.coords is not None:
            vals = ";".join(_fmt(z) for z in step.coords)
        elif step.q is not None:
            vals = ";".join(_fmt(z) for z in step.q.ravel())
        else:
            vals = "AtInfinity"
        lines.append(f"{s_i},{step.defect},{int(step.in_siegel_domain)},{vals}")
    _emit(lines, args.csv)
    return 0


def cmd_verify(args):
    from .verify import verify_config

    cfg = load_config(args.config)
    results = verify_config(cfg, args.suite)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fractal-spectra",
        description="Spectra and renormalization of self-similar lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues with multiplicities")
    p.add_argument("--config", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--bc", choices=["neumann", "dirichlet", "nd"], default="neumann")
    p.add_argument("--csv", default=None)
    p.add_argument("--laplacian", action="store_true",
                   help="flip sign so network forms report nonnegative spectra")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dos", help="density-of-states histogram")
    p.add_argument("--config", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--green", default=None, metavar="LO:HI:COUNT",
                   help="also emit the log-determinant proxy on this grid")
    p.add_argument("--green-csv", default=None)
    p.add_argument("--eps", type=float, default=1e-6,
                   help="imaginary offset for the proxy grid")
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("renorm", help="iterate the renormalization map")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--coords", default=None,
                   help="comma-separated chart coordinates of the start matrix")
    p.add_argument("--frame", action="store_true",
                   help="print frame entries instead of matrices/coordinates")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_renorm)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("--config", required=True)
    p.add_argument("--suite", choices=["identities", "degrees", "all"], default="all")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FractalSpectraError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
