"""Command-line surface.

Subcommands: simulate, analyze, cycles, synchro, expansion, contract, sweep.
Every run is deterministic in (config, seed): randomness flows through
counter-based Philox streams, and sweep cells derive their seeds as
blake2b(seed, cell-index) and run one after another in cell order.  The
`cycles` census steps all its samples as one lockstep batch.

Exit codes: 0 ok, 2 config error, 3 hypothesis violated, 4 numerical stall,
1 any other operation error, a failed allocation or a failed write under
--out included.  Exit 2 also covers a command line argparse cannot read (no
command, an unknown one or option, a missing --config, --samples abc), an
option the command does not read (for sweep, one its --cell does not read,
--seed aside) and option values no command can use: --samples or --max-iter
below 1, an --eta, --dt or --t-total that is not a finite positive number,
--dt or --t-total without the other, and a --t-total/--dt pair whose
trajectory (grid rows plus two per firing) passes 10**6 rows.  So does a sweep
--grid axis that is not PARAM:LO:HI:STEPS, names an unknown or repeated
parameter, has fewer than one step, or has a LO, HI or HI - LO that is not
finite, a sweep of more than 10**6 cells, and a simulate whose cum_time
passes the float range, named with its step before any output is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import _kernels
from . import contraction as contr
from . import cycles as cyc
from . import dynamics as dyn
from .config import Records, RunConfig, json_blocks, load_config, params_to_doc, row_texts, write_csv
from .errors import (
    HypothesisViolated,
    IfnetError,
    NoFixedPoint,
    NumericalStall,
    PreconditionFailed,
    RejectConfig,
)
from .params import network

# option -> (type, default)
OPTIONS = {"seed": (int, 0), "samples": (int, 1000), "eta": (float, 1e-6), "max_iter": (int, 2000),
           "dt": (float, None), "t_total": (float, None)}
# floors under --samples: `expansion` samples at least MIN_WITNESSES witness points, and
# `contract` checks at least MIN_METRIC_PAIRS pairs in its Lipschitz and adapted-metric steps
MIN_WITNESSES = 8
MIN_METRIC_PAIRS = 100
SAMPLES_HELP = {
    "expansion": f"witness points between c_star and theta, at least {MIN_WITNESSES}: a smaller value runs {MIN_WITNESSES}",
    "contract": (f"pairs per zone and absorption starts; the Lipschitz estimate and the adapted-metric "
                 f"check draw max({MIN_METRIC_PAIRS}, SAMPLES // 10) pairs"),
    "sweep": "handed to each cell; an expansion or contract cell raises it to that command's floor",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_options(given: dict) -> None:
    """Reject the given option values no command can use, and an option a sweep's
    --cell does not read (--seed aside: sweep derives the cell seeds from it)."""
    if given["command"] == "sweep":
        unread = [name for name in OPTIONS if name in given and name != "seed"
                  and name not in READS.get(given["cell"], OPTIONS)]
        if unread:
            raise RejectConfig(f"sweep --cell {given['cell']} does not read {_flag(unread[0])}")
    for name in ("samples", "max_iter"):
        if name in given and given[name] < 1:
            raise RejectConfig(f"{_flag(name)} must be at least 1, got {given[name]}")
    for name in ("eta", "dt", "t_total"):
        if name in given and not (math.isfinite(given[name]) and given[name] > 0):
            raise RejectConfig(f"{_flag(name)} must be a finite positive number, got {given[name]}")
    if ("dt" in given) != ("t_total" in given):
        raise RejectConfig("--dt and --t-total must be given together")
    if "dt" in given:
        dyn.grid_rows(given["dt"], given["t_total"])  # before anything is run or allocated


def _write_csv(opts, name: str, rows: int, header: list, columns) -> str:
    """Write `name` in --out, a chunk of rows at a time: columns(lo, hi) gives the
    text columns of rows lo..hi-1, one per header field."""
    write_csv(Path(opts.out) / name, Records(rows, lambda lo, hi: dict(zip(header, columns(lo, hi)))))
    return name


def _value_columns(values: np.ndarray) -> list:
    """The repr of each entry of a 2-D float array, column by column; each distinct
    value is formatted once."""
    texts = row_texts(values.ravel())
    return [texts[i::values.shape[1]] for i in range(values.shape[1])]


def _cycle_doc(entry: cyc.CensusEntry) -> dict:
    c = entry.cycle
    cert = None
    if c.certificate is not None:
        cert = {"lambda": c.certificate.lam, "ball_radius": c.certificate.ball_radius,
                "residual": c.certificate.residual}
    return {
        "period": c.period,
        "time_period": c.time_period,
        "points": c.points,
        "itinerary": [str(p) for p in c.itinerary],
        "min_margin": c.min_margin,
        "certificate": cert,
        "certified": c.certified,
        "basin_fraction": entry.basin_fraction,
    }


def cmd_analyze(cfg: RunConfig, opts) -> dict:
    params = cfg.params
    rep = params.hypotheses
    doc = {
        "config": params_to_doc(params),
        "constants": dataclasses.asdict(params.constants),
        "hypotheses": {
            "H3": rep.h3, "H4": rep.h4, "sync_size": rep.sync_size,
            "O_pairs": [[i + 1, j + 1] for i, j in contr.o_pairs(params)],
        },
        "neuron_classes": [k.value for k in params.kinds],
    }
    try:
        v0, x = dyn.antiphase_state(params)
        two = _kernels.run_orbit(params, dyn.as_state(params, v0), 2)[0][1]
        doc["antiphase"] = {
            "x": x, "point": v0,
            "residual": float(np.max(np.abs(two - v0))),
        }
    except PreconditionFailed:
        pass
    return doc


def cmd_simulate(cfg: RunConfig, opts) -> dict:
    params = cfg.params
    v0 = cfg.v0 if cfg.v0 is not None else np.zeros(params.n)
    steps = opts.max_iter
    states, fired, t_bars = _kernels.run_orbit(params, dyn.as_state(params, v0), steps)
    with np.errstate(over="ignore"):
        cum_time = np.cumsum(t_bars)
    if not np.isfinite(cum_time[-1]):  # every t_bar is at most T_max; an overflow stays in each later sum
        raise RejectConfig(f"cum_time overflows the float range at step {int(np.argmin(np.isfinite(cum_time)))}"
                           f" (gamma = {params.gamma!r})")
    names = [str(i + 1) for i in range(params.n)]

    def spike_cells(lo, hi):
        # shared by spikes.csv and the JSON rows; each distinct t_bar, firing set
        # and state of the chunk is formatted once
        return {"step": list(map(str, range(lo, hi))), "t_bar": row_texts(t_bars[lo:hi]),
                "cum_time": list(map(repr, cum_time[lo:hi].tolist())),
                "firing_set": row_texts(fired[lo:hi], lambda row: ";".join(itertools.compress(names, row))),
                "V_after": row_texts(states[lo:hi], lambda row: ";".join(map(repr, row)))}

    csv = None if opts.out is None else str(Path(opts.out) / "spikes.csv")
    doc = {"steps": steps, "v0": v0, "spikes": Records(steps, spike_cells, frozenset(("firing_set", "V_after")), csv)}
    if csv is not None:
        doc["spikes_csv"] = "spikes.csv"  # written with the JSON rows, by `main`
    if opts.dt is not None:
        times, values, post = dyn.sample_trajectory(params, v0, opts.dt, opts.t_total, (states, fired, t_bars))
        doc["trajectory_rows"] = len(times)
        if opts.out is not None:
            # most rows repeat their coordinates (an orbit that reaches 0;0;0 stays
            # there), so each distinct value of a chunk is formatted once
            header = ["t"] + [f"V{i + 1}" for i in range(params.n)] + ["post_spike"]
            doc["trajectory_csv"] = _write_csv(opts, "trajectory.csv", len(times), header, lambda lo, hi: [
                list(map(repr, times[lo:hi].tolist())), *_value_columns(values[lo:hi]),
                np.array(["0", "1"])[post[lo:hi]].tolist()])
    return doc


def cmd_cycles(cfg: RunConfig, opts) -> dict:
    report = cyc.cycle_census(
        cfg.params, sample_count=opts.samples, seed=opts.seed,
        max_iter=opts.max_iter, eta=opts.eta,
    )
    doc = {
        "samples": report.samples,
        "synchronized_fraction": report.synchronized_fraction,
        "grazing_fraction": report.grazing_fraction,
        "unresolved_fraction": report.unresolved_fraction,
        "cycles": [_cycle_doc(e) for e in report.entries],
    }
    if opts.out is not None:
        header = ["index"] + [f"V{i + 1}" for i in range(cfg.params.n)]
        for idx, entry in enumerate(report.entries):
            points = entry.cycle.points
            _write_csv(opts, f"cycle_{idx:02d}.csv", len(points), header,
                       lambda lo, hi: [list(map(str, range(lo, hi))), *_value_columns(points[lo:hi])])
    return doc


def cmd_synchro(cfg: RunConfig, opts) -> dict:
    return dataclasses.asdict(cyc.sync_test(cfg.params, sample_count=opts.samples, seed=opts.seed))


def cmd_expansion(cfg: RunConfig, opts) -> dict:
    params = cfg.params
    pairs = []
    witness_doc = None
    upper = np.triu_indices(params.n, 1)
    for i, j, o1, o2, o3 in zip(*(a.tolist() for a in (*upper, *params.o_conditions[:, upper[0], upper[1]]))):
        entry = {"pair": [i + 1, j + 1], "O1": o1, "O2": o2, "O3": o3}
        if o1 and o2 and o3:
            try:
                rep = contr.repeller(params, i, j)
                entry["repeller"] = {
                    "interval": list(rep.interval),
                    "fixed_point": rep.fixed_point,
                    "multiplier": rep.multiplier,
                }
            except (NoFixedPoint, PreconditionFailed) as exc:
                entry["repeller_error"] = str(exc)
            if witness_doc is None:
                witness_doc = _witness_sweep(params, i, max(MIN_WITNESSES, opts.samples))
                witness_doc["pair"] = [i + 1, j + 1]
        pairs.append(entry)
    return {"c_star": params.constants.c_star, "pairs": pairs, "witnesses": witness_doc}


def _witness_sweep(params, i, grid_points):
    """The expansion witness of each pair of neighbouring points of an even grid
    strictly inside (c_star, theta) on Gamma_i, all pairs in one batch."""
    xs = np.linspace(params.constants.c_star, params.theta, grid_points + 2)[1:-1]
    V = np.zeros((grid_points, params.n))
    V[:, i] = xs
    wit = contr.expansion_witness(params, i, V[:-1], V[1:])
    rows = [{"v_i": a, "w_i": b, "error": e} if e else
            {"v_i": a, "w_i": b, "ratio": r, "lower_bound": bound, "expanded": x}
            for a, b, e, r, bound, x in zip(xs[:-1].tolist(), xs[1:].tolist(), wit.error.tolist(),
                                            wit.ratio.tolist(), wit.lower_bound.tolist(), wit.expanded.tolist())]
    return {"gamma_index": i + 1, "rows": rows}


def cmd_contract(cfg: RunConfig, opts) -> dict:
    params = cfg.params
    c_bar = params.constants.c_bar
    zones = []
    for c in (0.0, c_bar / 4, c_bar / 2, 3 * c_bar / 4):
        rep = contr.verify_contraction(params, c, opts.samples, opts.seed)
        zones.append({
            "c": rep.c, "lambda_c": rep.lambda_c, "max_ratio": rep.max_ratio,
            "pairs": rep.pairs, "violations": len(rep.violations),
        })
    absorb = contr.absorption_check(params, opts.samples, opts.seed)
    pairs = max(MIN_METRIC_PAIRS, opts.samples // 10)
    est = contr.estimate_lipschitz_c(params, pairs, opts.seed + 1)
    metric = contr.adapted_metric_check(params, est, pairs, opts.seed + 2)
    return {
        "zones": zones,
        "absorption": dataclasses.asdict(absorb),
        "adapted_metric": {
            "c_hat": est.c_hat, "n0": est.n0, "mu_tilde": est.mu_tilde,
            "lambda": est.lam, "pairs_checked": metric.pairs_checked,
            "max_d_ratio": metric.max_d_ratio, "ok": metric.ok,
        },
    }


_GRID_PARAMS = ("beta", "gamma", "theta", "alpha", "H")
MAX_SWEEP_CELLS = 10**6  # cells one sweep may have: the product of its axes' steps


def _cell_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _parse_grid(axis: str):
    try:
        name, lo, hi, steps = axis.split(":")
        name = name.strip()
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise RejectConfig(f"bad --grid axis {axis!r}, expected PARAM:LO:HI:STEPS") from exc
    if name not in _GRID_PARAMS:
        raise RejectConfig(f"unknown grid parameter {name!r}, choose from {_GRID_PARAMS}")
    if steps < 1:
        raise RejectConfig("grid needs at least one step")
    if not math.isfinite(hi - lo):  # nan, inf, or bounds the float range cannot span: linspace gives nan
        raise RejectConfig(f"grid axis {axis!r} needs finite bounds less than the float range apart")
    return name, lo, hi, steps


def cmd_sweep(cfg: RunConfig, opts) -> dict:
    """Run --cell once per grid cell: the resolved network (beta = K/gamma for a
    "K" config) with all the cell's axis values set, validated once."""
    if not opts.grid:
        raise RejectConfig("sweep requires at least one --grid")
    if len(opts.grid) > 2:
        raise RejectConfig("sweep supports at most two --grid axes")
    if opts.cell not in COMMANDS or opts.cell == "sweep":
        raise RejectConfig(f"unknown cell command {opts.cell!r}")
    names, los, his, steps = zip(*(_parse_grid(g) for g in opts.grid))
    if len(set(names)) < len(names):
        raise RejectConfig("two --grid axes must name different parameters")
    if math.prod(steps) > MAX_SWEEP_CELLS:  # before linspace allocates the axes
        raise RejectConfig(f"the grid has more than {MAX_SWEEP_CELLS} cells")
    values = [np.linspace(*axis).tolist() for axis in zip(los, his, steps)]
    base = params_to_doc(cfg.params)
    cells = []
    for index, cell in enumerate(itertools.product(*values)):
        overrides = dict(zip(names, cell))
        entry = {"index": index, "overrides": overrides}
        doc = {**base, **overrides}
        if "H" in overrides:
            doc["H"] = np.full((cfg.params.n, cfg.params.n), overrides["H"])  # `network` zeroes the diagonal
        # cells report through the sweep document only
        cell_opts = argparse.Namespace(**{**vars(opts), "seed": _cell_seed(opts.seed, index), "out": None})
        try:
            entry["result"] = COMMANDS[opts.cell](RunConfig(network(**doc), cfg.v0), cell_opts)
            entry["status"] = "ok"
        except IfnetError as exc:
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        cells.append(entry)
    return {"cell_command": opts.cell, "grid": opts.grid, "cells": cells}


COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "cycles": cmd_cycles,
    "synchro": cmd_synchro,
    "expansion": cmd_expansion,
    "contract": cmd_contract,
    "sweep": cmd_sweep,
}
# the OPTIONS each command reads; sweep hands them all to its cells
READS = {"analyze": (), "simulate": ("max_iter", "dt", "t_total"),
         "cycles": ("seed", "samples", "eta", "max_iter"), "synchro": ("seed", "samples"),
         "expansion": ("samples",), "contract": ("seed", "samples"), "sweep": tuple(OPTIONS)}


class _Parser(argparse.ArgumentParser):
    """Raises RejectConfig on a bad command line (`main` turns it into exit 2 and
    one stderr line) where argparse would print its usage block and exit."""

    def error(self, message):
        raise RejectConfig(message)


@functools.cache  # built on first use, then kept: each parse gets a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ifnet", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        for opt in READS[name]:  # absent unless given, so _check_options sees what was given
            p.add_argument(_flag(opt), type=OPTIONS[opt][0], default=argparse.SUPPRESS,
                           help=SAMPLES_HELP.get(name) if opt == "samples" else None)
        if name == "sweep":
            p.add_argument("--grid", action="append", default=[],
                           help="PARAM:LO:HI:STEPS, repeat for a 2-D sweep")
            p.add_argument("--cell", default="analyze",
                           help="command to run per grid cell")
    return ap


def main(argv=None) -> int:
    try:
        given = vars(build_parser().parse_args(argv))
        _check_options(given)
        opts = argparse.Namespace(**{k: OPTIONS[k][1] for k in READS[given["command"]]} | given)
        cfg = load_config(opts.config)
        if opts.out is not None:
            Path(opts.out).mkdir(parents=True, exist_ok=True)
        doc = COMMANDS[opts.command](cfg, opts)
        if opts.out is None:
            sys.stdout.writelines(json_blocks(doc))
        else:  # stdout once every --out file is whole
            path = Path(opts.out) / f"{opts.command}.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(json_blocks(doc))
            with open(path, encoding="utf-8") as fh:
                while block := fh.read(1 << 20):
                    sys.stdout.write(block)
        if opts.command == "sweep":
            failed = sum(1 for c in doc["cells"] if c["status"] != "ok")
            if failed:
                print(f"{failed} sweep cell(s) failed", file=sys.stderr)
                return 1
        return 0
    except RejectConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except NumericalStall as exc:
        print(f"numerical stall: {exc}", file=sys.stderr)
        return 4
    except (IfnetError, MemoryError, OSError) as exc:  # OSError: --out cannot be written
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
