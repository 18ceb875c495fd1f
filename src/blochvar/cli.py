"""Command-line surface: bases, relation fuzzing, region scans, comparisons.

Subcommands
-----------
basis (alias: structure-consts)
    Serialize the su(N) generators and sparse f/d tensors as JSON or CSV.
verify
    Fuzz one relation over seeded random draws; exit 0 iff
    every check holds at the relation's tolerance.  The relation table
    and the engine that draws and checks it live in ``engine``.
region
    Monte-Carlo scan of a qubit variance region (pair or axis triple)
    with CSV and JSON artifacts plus slice summaries (pair scans only).
    Scans run on the batched engine, bit-identical to the per-state
    loop; a margin below its floor raises ``NumericsError`` (exit 1)
    and writes no report or artifact.
compare
    Tabulate the commutator baseline, both signs of the state-dependent
    bound, and the state-independent span for one (state, A, B) triple.

Where each usage rule lives, stated once:

- Every numeric range is an argparse type built by ``_closed_interval``,
  so its error names the flag: --dim 2..MAX_DIM (16) of ``basis`` and
  ``verify``, --samples 1..``regions.MAX_SAMPLES`` of ``verify`` and
  ``region``, seeds in [0, 2**64 - 1], --theta-ab in [0, pi], --grid in
  ``regions.GRID_RANGE``, --slice-da2 and --da2 in [0, 1].
- The N a relation allows is its ``Relation.dims`` in
  ``engine.RELATIONS``, checked by ``_cmd_verify`` before any draw.
- The region cell cap and the pair-only and pure-only rules are checked
  by ``_cmd_region``; output paths by ``_check_outputs``.
- The state and observable grammars are ``_parse_state`` and
  ``_parse_observable``, on the qubit basis; ``--state-seed K`` is
  ``--state seed:K``, and argparse takes exactly one of the two.

Exit codes: 0 success/holds, 1 relation violated beyond tolerance,
2 usage error.  Every report echoes its fully resolved configuration,
seed included; re-running an echoed configuration reproduces the
numbers bit for bit.  Sample i is always drawn from RNG stream i, so a
report does not depend on how many samples precede or follow it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import engine, relations
from .bloch import (
    Observable,
    QuantumState,
    completely_mixed,
    matrix_from_json,
    observable_from_bloch,
    observable_from_matrix,
    state_from_matrix,
    state_to_matrix,
)
from .errors import NotApplicable, UnphysicalState
from .regions import (
    GRID_RANGE,
    MAX_CELLS,
    MAX_SAMPLES,
    RegionScan,
    occupancy_cells,
    scan_pair,
    scan_triple,
    unit_pair,
)
from .relations import db_span_any_state, db_span_given_da2, robertson_bound, state_dependent_bound
from .sampling import ENGINE_CHUNK, SampleConfig, Xoshiro256pp, draw_pure
from .sun_basis import basis_for, max_algebra_residual
from .variance import variance_matrix

__all__ = ["main", "run", "build_parser"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VIOLATION = 1

# Largest --dim of basis and verify: the largest N the sparse su(N) build,
# its sparse closure check and verify's batched eigensolves are tested at.
# At N = 16 a process takes about 0.3 s and 48 MB for 20 appendix-c
# samples; 2,100 samples, eleven 192-row chunks, take 1.0-1.2 s and 52 MB
# for robertson and 4.1-4.8 s and 52 MB for appendix-c (import and run in
# a fresh interpreter, max RSS, 2 vCPU Xeon; 109 and 129 MB in 2,048-row
# chunks).
MAX_DIM = 16


def _closed_interval(lo, hi, hi_name: str, kind=float):
    """argparse type for a ``kind`` (float or int) in [lo, hi]; NaN is rejected."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
        if not lo <= value <= hi:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must lie in [{lo:g}, {hi_name}], got {text}")
        return value

    return parse


_theta_ab = _closed_interval(0.0, math.pi, "pi")  # axis angles
_unit_fraction = _closed_interval(0.0, 1.0, "1")  # squared variances of unit observables
_grid = _closed_interval(*GRID_RANGE, f"{GRID_RANGE[1]:g}")  # region cell sizes
_seed = _closed_interval(0, 2**64 - 1, "2**64 - 1", int)  # RNG seeds: unsigned 64-bit
_dim = _closed_interval(2, MAX_DIM, str(MAX_DIM), int)  # basis and verify dimensions
_samples = _closed_interval(1, MAX_SAMPLES, str(MAX_SAMPLES), int)  # verify and region draws


# ---------------------------------------------------------------------------
# input grammars


def _parse_triplet(text: str, what: str, parser) -> np.ndarray:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(",")
    if len(parts) != 3:
        parser.error(f"{what}: expected three comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        parser.error(f"{what}: could not parse {text!r}")


def _load_json_spec(spec: str, parser) -> dict:
    try:
        if spec.startswith("@"):
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(spec)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"could not read JSON matrix {spec!r}: {exc}")


# Overflowing input is rejected by the checks, not by numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def _parse_observable(spec: str, basis, parser) -> Observable:
    s = spec.strip()
    try:
        if s in ("sigma1", "sigma2", "sigma3"):
            return relations._qubit_axes()[int(s[-1]) - 1]
        if s.startswith("n:"):
            return observable_from_bloch(_parse_triplet(s[2:], "observable", parser), basis)
        if s.startswith("@") or s.startswith("{"):
            return observable_from_matrix(matrix_from_json(_load_json_spec(s, parser)), basis)
    except ValueError as exc:
        parser.error(f"bad observable {spec!r}: {exc}")
    parser.error(
        f"unrecognized observable {spec!r}; use sigma1|sigma2|sigma3, n:(x,y,z), "
        "an inline JSON object, or @file.json"
    )


@np.errstate(over="ignore", invalid="ignore")
def _parse_state(spec: str, basis, parser) -> QuantumState:
    s = spec.strip()
    try:
        if s == "mixed":
            return completely_mixed(basis)
        if s.startswith("pure:"):
            vec = _parse_triplet(s[5:], "state", parser)
            norm = float(np.linalg.norm(vec))
            if not 1e-12 <= norm < math.inf:  # an overflowing norm would give I/2
                parser.error("pure state direction must be nonzero, with a finite norm")
            return state_to_matrix(vec / norm, basis)
        if s.startswith("bloch:"):
            return state_to_matrix(_parse_triplet(s[6:], "state", parser), basis)
        if s.startswith("seed:"):
            return draw_pure(Xoshiro256pp(_seed(s[5:])), basis)
        if s.startswith("@") or s.startswith("{"):
            return state_from_matrix(matrix_from_json(_load_json_spec(s, parser)), basis)
    except (UnphysicalState, ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"bad state {spec!r}: {exc}")
    parser.error(
        f"unrecognized state {spec!r}; use mixed, pure:(x,y,z), bloch:(x,y,z), "
        "seed:K, an inline JSON object, or @file.json"
    )


# ---------------------------------------------------------------------------
# serialization helpers


def _rle(occupancy: np.ndarray) -> dict:
    # The runs from the occupied cells alone, with no grid-sized copy: an
    # occupied run ends wherever the next occupied cell is not adjacent in
    # flat order.  Only the first and last run can come out empty (grid
    # starting or ending occupied), and those are dropped.
    filled = np.flatnonzero(occupancy)
    breaks = np.flatnonzero(np.diff(filled) != 1)
    starts = np.concatenate([filled[:1], filled[breaks + 1]])
    ends = np.concatenate([filled[breaks], filled[-1:]]) + 1
    bounds = np.concatenate([[0], np.column_stack([starts, ends]).ravel(), [occupancy.size]])
    runs = np.diff(bounds)
    return {"first": int(filled.size > 0 and filled[0] == 0), "runs": runs[runs > 0].tolist()}


def _report(command: str, config: dict, results: list, worst, wall: float) -> dict:
    """The schema-1 report of ``verify``, ``region`` and ``compare``."""
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "worst_margin": worst,
        "wall_time_s": wall,
    }


def _write_report(report: dict, out: str | None) -> None:
    if out:
        # One write: json.dump would make a write for each token.
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
        print(f"report written to {out}")


def _spelled(values: np.ndarray, spell) -> tuple[np.ndarray, np.ndarray]:
    """The words of a float64 array at the cost of its distinct values.

    Each distinct bit pattern (so 0.0 and -0.0 stay apart) is spelled
    once, by ``spell`` on a list of floats: ``repr`` spells them as
    ``csv.writer`` does (``nan``, ``inf``), ``json.dumps`` as the JSON
    encoder does (``NaN``, ``Infinity``).  Returns the object array of
    words and, in the shape of ``values``, each value's index into it.
    """
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    words = spell(distinct.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(words, dtype=object), inverse.reshape(values.shape)


def _write_scan_csv(path: str, scan: RegionScan) -> None:
    # The bytes csv.writer(fh, lineterminator="\n") would write: every
    # field is an int or a float repr, none of which csv quotes.  Each
    # block of ENGINE_CHUNK rows is one format pass over its spelled
    # words and one write, so no string holds more than a block.
    line = "{}," * (len(scan.axes) + 2) + "{}\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["sample_index", "purity", *scan.axes, "margin"]) + "\n")
        for start in range(0, len(scan.margins), ENGINE_CHUNK):
            rows = slice(start, start + ENGINE_CHUNK)
            block = np.column_stack((scan.purities[rows], scan.samples[rows], scan.margins[rows]))
            words, cells = _spelled(block, repr)
            columns = words[cells].T.tolist()
            fh.write("".join(map(line.format, range(start, start + len(block)), *columns)))


def _write_json_rows(fh, values: np.ndarray) -> None:
    # Writes json.dumps(values.tolist()) for a (rows, k) float array,
    # spelling each distinct value once (the triple surface holds 1,900
    # to 6,000 distinct values among its 22,143 floats).  A block of
    # ENGINE_CHUNK rows is one join of its words, each followed by its
    # separator: ", " within a row, "], [" after it and "]]" after the
    # last.  No word is copied: bracketed copies of the words took 0.8 MB
    # more on the triple surface, and more time.
    if not len(values):
        fh.write("[]")
        return
    words, cells = _spelled(values, json.dumps)
    k = values.shape[1]
    separators = np.array([", "] * (k - 1) + ["], ["], dtype=object)
    fh.write("[[")
    for start in range(0, len(values), ENGINE_CHUNK):
        rows = cells[start : start + ENGINE_CHUNK]
        block = np.empty((len(rows), 2 * k), dtype=object)
        block[:, 0::2] = words[rows]
        block[:, 1::2] = separators
        if start + ENGINE_CHUNK >= len(values):
            block[-1, -1] = "]]"
        fh.write("".join(block.ravel().tolist()))


def _write_scan_json(path: str, scan: RegionScan, config: dict) -> None:
    # The bytes json.dump of the whole payload would write: the head fields
    # in one json.dumps (the C encoder; json.dump always runs the
    # pure-Python one), then the boundary through _write_json_rows.
    head = {
        "schema": SCHEMA_VERSION,
        "command": "region",
        "config": config,
        "axes": list(scan.axes),
        "grid": scan.grid,
        "n_cells": scan.n_cells,
        "theta_ab": scan.theta_ab,
        "occupancy_rle": _rle(scan.occupancy),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(head)[:-1] + ', "boundary": ')
        if scan.boundary is None:
            fh.write("null")
        else:
            _write_json_rows(fh, scan.boundary)
        fh.write("}\n")


# ---------------------------------------------------------------------------
# subcommand runners


def _cmd_basis(args, parser) -> tuple[int, dict]:
    start = time.perf_counter()
    basis = basis_for(args.dim)
    residual = max_algebra_residual(basis)
    payload: dict = {
        "schema": SCHEMA_VERSION,
        "command": "basis",
        "config": {"dim": args.dim, "format": args.format},
        "n_generators": basis.n_generators,
        "f": [[j, k, l, v] for (j, k, l), v in sorted(basis.f_tensor.items())],
        "d": [[j, k, l, v] for (j, k, l), v in sorted(basis.d_tensor.items())],
        "algebra_residual": residual,
    }
    if args.format == "json":
        payload["generators"] = [
            {"re": g.array.real.tolist(), "im": g.array.imag.tolist()}
            for g in basis.generators
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["kind,j,k,l,value"]
        lines += [f"{kind},{j},{k},{l},{v!r}" for kind in "fd" for j, k, l, v in payload[kind]]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"basis written to {args.out}")
    else:
        sys.stdout.write(text)
    payload["wall_time_s"] = time.perf_counter() - start
    print(
        f"basis dim={args.dim}: {basis.n_generators} generators, "
        f"{len(basis.f_tensor)} f entries, {len(basis.d_tensor)} d entries, "
        f"algebra residual {residual:.2e}",
        file=sys.stderr,
    )
    return EXIT_OK, payload


def _cmd_verify(args, parser) -> tuple[int, dict]:
    dims = engine.RELATIONS[args.relation].dims
    if dims is not None and args.dim not in dims:
        parser.error(
            f"relation {args.relation} is not defined for dim {args.dim} "
            f"(allowed: {', '.join(map(str, dims))})"
        )
    start = time.perf_counter()
    summary = engine.fuzz(args.relation, args.dim, args.samples, args.seed, args.theta_ab)
    wall = time.perf_counter() - start
    config = {
        "relation": args.relation,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "theta_ab": args.theta_ab,
        "threads": 1,  # schema-1 key: samples run on one thread
    }
    report = _report("verify", config, [summary], summary["worst_margin"], wall)
    _write_report(report, args.out)
    status = "PASS" if summary["holds"] else "FAIL"
    print(f"verify {args.relation} dim={args.dim} samples={args.samples} seed={args.seed}")
    print(
        f"  checks={summary['checks']} worst_margin={summary['worst_margin']:.3e} "
        f"max_abs_margin={summary['max_abs_margin']:.3e} "
        f"saturated={summary['saturated']} -> {status}"
    )
    return (EXIT_OK if summary["holds"] else EXIT_VIOLATION), report


def _cmd_region(args, parser) -> tuple[int, dict]:
    cells = occupancy_cells(args.grid, 2 if args.mode == "pair" else 3)
    if cells > MAX_CELLS:
        parser.error(
            f"--grid {args.grid:g} gives a {args.mode} scan {cells} occupancy cells, "
            f"above {MAX_CELLS}; use a coarser grid"
        )
    if args.mode == "triple" and args.ensemble != "pure":
        parser.error("triple scans are defined for pure ensembles only")
    if args.mode == "triple" and args.slice_da2 is not None:
        parser.error("--slice-da2 is defined for pair scans only")
    kind = "haar_pure" if args.ensemble == "pure" else "hs_mixed"
    ensemble = SampleConfig(seed=args.seed, dim=2, count=args.samples, kind=kind)
    basis = basis_for(2)
    start = time.perf_counter()
    if args.mode == "pair":
        a = relations._qubit_axes()[0]
        b = observable_from_bloch(
            np.array([math.cos(args.theta_ab), math.sin(args.theta_ab), 0.0]), basis
        )
        scan = scan_pair(a, b, ensemble, args.grid)
    else:
        scan = scan_triple(args.theta_ab, ensemble, args.grid)
    wall = time.perf_counter() - start
    config = {
        "mode": args.mode,
        "theta_ab": args.theta_ab,
        "samples": args.samples,
        "grid": args.grid,
        "seed": args.seed,
        "ensemble": args.ensemble,
        "threads": 1,  # schema-1 key: samples run on one thread
    }
    worst = float(scan.margins.min())
    result = {
        "axes": list(scan.axes),
        "count": int(scan.samples.shape[0]),
        "occupied_cells": int(np.count_nonzero(scan.occupancy)),
        "worst_margin": worst,
        "max_abs_margin": float(np.abs(scan.margins).max()),
    }
    report = _report("region", config, [result], worst, wall)
    print(
        f"region {args.mode} theta_ab={args.theta_ab} samples={args.samples} "
        f"grid={args.grid} seed={args.seed}"
    )
    print(
        f"  occupied_cells={result['occupied_cells']} "
        f"worst_margin={worst:.3e}"
    )
    if args.slice_da2 is not None:
        lo, hi, count = scan.slice_span(0, args.slice_da2)
        result["slice"] = {
            "da2": args.slice_da2,
            "db_min": lo,
            "db_max": hi,
            "count": count,
        }
        span = f"dB range [{lo:.4f}, {hi:.4f}] ({count} samples)" if count else "no samples"
        print(f"  slice dA2={args.slice_da2}: {span}")
    if scan.theta_ab <= 1e-12:
        diff = np.abs(np.sqrt(scan.samples[:, 1]) - np.sqrt(scan.samples[:, 0])).max()
        result["degenerate_line"] = float(diff)
        print(f"  degenerate axis pair: samples collapse onto dB = dA (max |dB-dA| = {diff:.2e})")
    if args.csv:
        _write_scan_csv(args.csv, scan)
        print(f"samples written to {args.csv}")
    if args.json:
        _write_scan_json(args.json, scan, config)
        print(f"occupancy written to {args.json}")
    _write_report(report, args.out)
    return EXIT_OK, report


def _cmd_compare(args, parser) -> tuple[int, dict]:
    basis = basis_for(2)
    a = _parse_observable(args.obs_a, basis, parser)
    b = _parse_observable(args.obs_b, basis, parser)
    spec = f"seed:{args.state_seed}" if args.state is None else args.state  # one grammar
    state = _parse_state(spec, basis, parser)
    start = time.perf_counter()

    def verdict_row(bound: str, v) -> dict:
        return {"bound": bound, "applicable": True, "lhs": v.lhs, "rhs": v.rhs, "margin": v.margin, "holds": v.holds}

    rows = [verdict_row("robertson", robertson_bound(a, b, state))]
    names = ("state_dependent_plus", "state_dependent_minus")
    try:
        rows += map(verdict_row, names, state_dependent_bound(a, b, state))
    except NotApplicable as exc:
        rows += [{"bound": name, "applicable": False, "reason": str(exc)} for name in names]
    margins = [row["margin"] for row in rows if row["applicable"]]

    if unit_pair(a, b):
        theta = math.acos(min(1.0, max(-1.0, float(a.a @ b.a))))
        folded = theta > math.pi / 2.0
        theta_f = math.pi - theta if folded else theta
        da2 = args.da2 if args.da2 is not None else variance_matrix(a, state)
        da2 = min(max(da2, 0.0), 1.0)
        span_given = db_span_given_da2(theta_f, da2)
        span_any = db_span_any_state(theta_f)
        rows.append(
            {
                "bound": "axis_angle_span",
                "applicable": True,
                "theta_ab": theta,
                "folded": folded,
                "da2": da2,
                "da2_source": "flag" if args.da2 is not None else "state",
                "span_db_given_da2": list(span_given),
                "span_db_any_state": list(span_any),
            }
        )
    else:
        rows.append(
            {
                "bound": "axis_angle_span",
                "applicable": False,
                "reason": "span form needs unit-norm observables",
            }
        )

    config = {"state": args.state, "state_seed": args.state_seed, "A": args.obs_a, "B": args.obs_b, "da2": args.da2}
    report = _report(
        "compare", config, rows, min(margins) if margins else None, time.perf_counter() - start
    )
    print(f"compare A={args.obs_a} B={args.obs_b} state={spec}")
    for row in rows:
        if not row["applicable"]:
            print(f"  {row['bound']:<24} not applicable: {row['reason']}")
        elif row["bound"] == "axis_angle_span":
            lo, hi = row["span_db_given_da2"]
            alo, ahi = row["span_db_any_state"]
            print(
                f"  {row['bound']:<24} theta_ab={row['theta_ab']:.6f} dA2={row['da2']:.6f} "
                f"dB in [{lo:.4f}, {hi:.4f}] given dA2; [{alo:.4f}, {ahi:.4f}] over all states"
            )
        else:
            print(
                f"  {row['bound']:<24} lhs={row['lhs']:.6f} rhs={row['rhs']:.6f} "
                f"margin={row['margin']:.3e} holds={row['holds']}"
            )
    _write_report(report, args.out)
    ok = all(row.get("holds", True) for row in rows if row["applicable"])
    return (EXIT_OK if ok else EXIT_VIOLATION), report


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochvar",
        description="Bloch-vector variance relations: bases, fuzzing, regions, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser(
        "basis",
        aliases=["structure-consts"],
        help="serialize su(N) generators and structure tensors",
    )
    p_basis.add_argument(
        "--dim", type=_dim, required=True, help=f"Hilbert-space dimension (2..{MAX_DIM})"
    )
    p_basis.add_argument("--format", choices=("json", "csv"), default="json")
    p_basis.add_argument("--out", default=None, help="output path (default: stdout)")

    p_verify = sub.add_parser("verify", help="fuzz one relation over seeded random draws")
    p_verify.add_argument("relation", choices=sorted(engine.RELATIONS))
    p_verify.add_argument("--dim", type=_dim, default=2)
    p_verify.add_argument("--samples", type=_samples, default=1000)
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument(
        "--theta-ab",
        type=_theta_ab,
        default=math.pi / 4.0,
        help="axis angle in radians (three-obs-equality only)",
    )
    p_verify.add_argument("--out", default=None, help="write the JSON report here")

    p_region = sub.add_parser("region", help="Monte-Carlo scan of a variance region")
    p_region.add_argument("mode", choices=("pair", "triple"))
    p_region.add_argument("--theta-ab", type=_theta_ab, required=True, help="axis angle in radians")
    p_region.add_argument("--samples", type=_samples, default=20000)
    p_region.add_argument("--grid", type=_grid, default=0.01)
    p_region.add_argument("--seed", type=_seed, default=0)
    p_region.add_argument("--ensemble", choices=("pure", "mixed"), default="pure")
    p_region.add_argument(
        "--slice-da2", type=_unit_fraction, default=None, help="report the dB span at this dA2 in [0, 1]"
    )
    p_region.add_argument("--csv", default=None, help="write per-sample CSV here")
    p_region.add_argument("--json", default=None, help="write occupancy JSON here")
    p_region.add_argument("--out", default=None, help="write the JSON report here")

    p_compare = sub.add_parser("compare", help="compare bounds for one (state, A, B) triple")
    state = p_compare.add_mutually_exclusive_group(required=True)
    state.add_argument("--state", default=None, help="mixed | pure:(x,y,z) | bloch:(x,y,z) | seed:K | @file | {json}")
    state.add_argument("--state-seed", type=_seed, default=None, help="Haar-random pure state from this seed")
    p_compare.add_argument("--A", dest="obs_a", required=True, help="sigma1|sigma2|sigma3 | n:(x,y,z) | @file | {json}")
    p_compare.add_argument("--B", dest="obs_b", required=True)
    p_compare.add_argument(
        "--da2", type=_unit_fraction, default=None, help="hypothetical dA2 in [0, 1] for the span column"
    )
    p_compare.add_argument("--out", default=None, help="write the JSON report here")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building it costs about 1 ms a call.
    return build_parser()


def _check_outputs(args, parser) -> None:
    # Checked before any work, so that a run that could not write its
    # results, or would write two to one file, exits 2 and writes nothing.
    flags = {}
    for flag in ("out", "csv", "json"):
        path = getattr(args, flag, None)
        if not path:
            continue
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path):
            parser.error(f"--{flag} {path!r} names a directory")
        if not os.path.isdir(directory):
            parser.error(f"--{flag} {path!r}: directory {directory!r} does not exist")
        other = flags.setdefault(os.path.realpath(path), flag)
        if other != flag:
            parser.error(f"--{flag} {path!r} names the file of --{other}")


def run(argv=None) -> tuple[int, dict]:
    """Parse and execute; returns (exit_code, report).

    Usage errors, an output path that cannot be written included, raise
    SystemExit(2) via argparse.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    _check_outputs(args, parser)
    if args.command in ("basis", "structure-consts"):
        return _cmd_basis(args, parser)
    if args.command == "verify":
        return _cmd_verify(args, parser)
    if args.command == "region":
        return _cmd_region(args, parser)
    return _cmd_compare(args, parser)


def main(argv=None) -> int:
    return run(argv)[0]


if __name__ == "__main__":
    sys.exit(main())
