"""Command-line surface.

Subcommands: simulate, analyze, cycles, synchro, expansion, contract, sweep.
Every run is deterministic in (config, seed): randomness flows through
counter-based Philox streams, and sweep cells derive their seeds as
blake2b(seed, cell-index) and run one after another in cell order.  The
`cycles` census steps all its samples as one lockstep batch.

Exit codes: 0 ok, 2 config error, 3 hypothesis violated, 4 numerical stall,
1 any other operation error, a failed allocation or a failed write under
--out included.  Exit 2 also covers option values no command can use:
--samples or --max-iter below 1, a --tol, --eta, --dt or --t-total that is
not a finite positive number, --dt or --t-total without the other, and a
--t-total/--dt pair whose trajectory (grid rows plus two per firing) passes 10**6 rows.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .config import Records, RunConfig, dump_json, json_strings, load_config, params_to_doc, row_texts
from .errors import (
    HypothesisViolated,
    IfnetError,
    NoFixedPoint,
    NumericalStall,
    PreconditionFailed,
    RejectConfig,
)
from .params import network

DEFAULTS = dict(seed=0, samples=1000, eta=1e-6, tol=1e-12, max_iter=2000)


def _check_options(opts) -> None:
    """Reject option values no command can use."""
    for flag in ("samples", "max_iter"):
        value = getattr(opts, flag)
        if value < 1:
            raise RejectConfig(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
    for flag in ("tol", "eta", "dt", "t_total"):
        value = getattr(opts, flag)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise RejectConfig(f"--{flag.replace('_', '-')} must be a finite positive number, got {value}")
    if (opts.dt is None) != (opts.t_total is None):
        raise RejectConfig("--dt and --t-total must be given together")
    if opts.dt is not None:
        dyn.grid_rows(opts.dt, opts.t_total)  # before anything is run or allocated


def _write_csv(opts, name: str, header: list, rows) -> str:
    """Write a header and text rows, fields joined by "," (none needs quoting), as `name` in --out."""
    with open(Path(opts.out) / name, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(map(",".join, itertools.chain([header], rows))) + "\n")
    return name


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
        two = dyn.return_map(params, dyn.return_map(params, v0).state).state
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
    # One text column per field, shared by spikes.csv and the JSON rows (with
    # the strings quoted); each distinct t_bar, firing set and state is formatted once.
    names = [str(i + 1) for i in range(params.n)]
    columns = {"step": list(map(str, range(steps))), "t_bar": row_texts(t_bars),
               "cum_time": list(map(repr, np.cumsum(t_bars).tolist())),
               "firing_set": row_texts(fired, lambda row: ";".join(itertools.compress(names, row))),
               "V_after": row_texts(states, lambda row: ";".join(map(repr, row)))}
    doc = {"steps": steps, "v0": v0, "spikes": Records({
        **columns, "firing_set": json_strings(columns["firing_set"]),
        "V_after": json_strings(columns["V_after"])})}
    if opts.out is not None:
        doc["spikes_csv"] = _write_csv(opts, "spikes.csv", list(columns), zip(*columns.values()))
    if opts.dt is not None:
        times, values, post = dyn.sample_trajectory(params, v0, opts.dt, opts.t_total)
        doc["trajectory_rows"] = len(times)
        if opts.out is not None:
            header = ["t"] + [f"V{i + 1}" for i in range(params.n)] + ["post_spike"]
            grid_rows = zip(map(repr, times.tolist()), (",".join(map(repr, r)) for r in values.tolist()),
                            map(str, post.tolist()))
            doc["trajectory_csv"] = _write_csv(opts, "trajectory.csv", header, grid_rows)
    return doc


def cmd_cycles(cfg: RunConfig, opts) -> dict:
    report = cyc.cycle_census(
        cfg.params, sample_count=opts.samples, seed=opts.seed,
        max_iter=opts.max_iter, eta=opts.eta, tol=opts.tol,
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
            _write_csv(opts, f"cycle_{idx:02d}.csv", header,
                       ([str(j), *map(repr, pt)] for j, pt in enumerate(entry.cycle.points.tolist())))
    return doc


def cmd_synchro(cfg: RunConfig, opts) -> dict:
    rep = cyc.sync_test(cfg.params, sample_count=opts.samples, seed=opts.seed)
    return {
        "ok": rep.ok, "max_returns": rep.max_returns, "bound_p": rep.bound_p,
        "max_time": rep.max_time, "bound_t_trans": rep.bound_t_trans,
        "samples": rep.samples,
    }


def cmd_expansion(cfg: RunConfig, opts) -> dict:
    params = cfg.params
    pairs = []
    witness_doc = None
    for i in range(params.n):
        for j in range(i + 1, params.n):
            conds = contr.check_O_conditions(params, i, j)
            entry = {"pair": [i + 1, j + 1], "O1": conds[0], "O2": conds[1], "O3": conds[2]}
            if all(conds):
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
                    witness_doc = _witness_sweep(params, i, max(8, opts.samples))
                    witness_doc["pair"] = [i + 1, j + 1]
            pairs.append(entry)
    return {"c_star": params.constants.c_star, "pairs": pairs, "witnesses": witness_doc}


def _witness_sweep(params, i, grid_points):
    xs = np.linspace(params.constants.c_star, params.theta, grid_points + 2)[1:-1].tolist()
    rows = []
    for a, b in zip(xs, xs[1:]):
        v = np.zeros(params.n)
        w = np.zeros(params.n)
        v[i], w[i] = a, b
        try:
            wit = contr.expansion_witness(params, i, v, w)
        except PreconditionFailed as exc:
            rows.append({"v_i": a, "w_i": b, "error": str(exc)})
            continue
        rows.append({
            "v_i": a, "w_i": b, "ratio": wit.ratio,
            "lower_bound": wit.lower_bound, "expanded": wit.expanded,
        })
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
    est = contr.estimate_lipschitz_c(params, max(100, opts.samples // 10), opts.seed + 1)
    metric = contr.adapted_metric_check(params, est, max(100, opts.samples // 10), opts.seed + 2)
    return {
        "zones": zones,
        "absorption": {
            "max_steps_outside": absorb.max_steps_outside,
            "bound_p0_plus_1": absorb.bound_p0_plus_1,
            "post_entry_bound": absorb.post_entry_bound,
            "ok": absorb.ok,
        },
        "adapted_metric": {
            "c_hat": est.c_hat, "n0": est.n0, "mu_tilde": est.mu_tilde,
            "lambda": est.lam, "pairs_checked": metric.pairs_checked,
            "max_d_ratio": metric.max_d_ratio, "ok": metric.ok,
        },
    }


_GRID_PARAMS = ("beta", "gamma", "theta", "alpha", "H")


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
    return name, np.linspace(lo, hi, steps).tolist()


def cmd_sweep(cfg: RunConfig, opts) -> dict:
    """Run --cell once per grid cell: the resolved network (beta = K/gamma for a
    "K" config) with all the cell's axis values set, validated once."""
    if not opts.grid:
        raise RejectConfig("sweep requires at least one --grid")
    if len(opts.grid) > 2:
        raise RejectConfig("sweep supports at most two --grid axes")
    if opts.cell not in COMMANDS or opts.cell == "sweep":
        raise RejectConfig(f"unknown cell command {opts.cell!r}")
    names, values = zip(*(_parse_grid(g) for g in opts.grid))
    if len(set(names)) < len(names):
        raise RejectConfig("two --grid axes must name different parameters")
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ifnet", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
        p.add_argument("--samples", type=int, default=DEFAULTS["samples"])
        p.add_argument("--eta", type=float, default=DEFAULTS["eta"])
        p.add_argument("--tol", type=float, default=DEFAULTS["tol"])
        p.add_argument("--max-iter", type=int, default=DEFAULTS["max_iter"])
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-total", type=float, default=None)
        if name == "sweep":
            p.add_argument("--grid", action="append", default=[],
                           help="PARAM:LO:HI:STEPS, repeat for a 2-D sweep")
            p.add_argument("--cell", default="analyze",
                           help="command to run per grid cell")
    return ap


def main(argv=None) -> int:
    opts = build_parser().parse_args(argv)
    try:
        _check_options(opts)
        cfg = load_config(opts.config)
        if opts.out is not None:
            Path(opts.out).mkdir(parents=True, exist_ok=True)
        doc = COMMANDS[opts.command](cfg, opts)
        text = dump_json(doc)
        if opts.out is not None:
            (Path(opts.out) / f"{opts.command}.json").write_text(text, encoding="utf-8")
        sys.stdout.write(text)
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
