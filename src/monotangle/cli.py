"""Command-line front end.

Subcommands: wclass-gen, tangle, ckw-check, sm-check, batch.

Exit codes are total: 0 success, 2 input error, 3 strong-monogamy
violation candidate (residual below -tolerance).  A failure that is not an
input error also exits 2, but its stderr line reads "internal error:",
followed by the traceback.
Primary outputs (state files, report JSON, batch CSV) are byte-identical
for identical command lines and seeds; wall-clock timings therefore go to
the human summary on stderr, and the manifest embedded in file outputs
carries duration_ms as null.

`batch --jobs J` (J > 1) deals its samples into min(rows, 4 J) strided
blocks, block k holding samples k, k + blocks, ..., and sends each block to
a pool of min(J, blocks) workers as one task; the rows are put back in
sample order, so the CSV equals the `--jobs 1` one byte for byte.  One block
runs in-process, with no pool.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shlex
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np

from . import __version__
from .monogamy import (
    DEFAULT_MAX_SM_QUBITS,
    DEFAULT_TOL_CLOSED,
    DEFAULT_TOL_ROOF,
    check_tolerance,
    ckw_residual,
    max_m3plus_term,
    sm_residual,
    sweep_foci,
)
from .qstate import InputError, haar_random_state, load_state, save_state
from .roof import RoofConfig
from .tangle import mixed_tangle_term, one_tangle
from .wclass import (
    WClassParams,
    params_from_dict,
    w_state_params,
    wclass_one_tangle,
    wclass_random,
    wclass_state,
    wclass_two_tangle,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VIOLATION = 3

_MAX_QUBITS_ENV = "MONOTANGLE_MAX_QUBITS"


def _qubit_cap(n: int) -> int:
    """The SM qubit cap, checked against an n-qubit hierarchy.

    Read only where a hierarchy is capped, so that commands and modes that
    apply no cap never fail on the variable.
    """
    raw = os.environ.get(_MAX_QUBITS_ENV)
    if raw is None:
        cap = DEFAULT_MAX_SM_QUBITS
    else:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise InputError(
                f"{_MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if n > cap:
        raise InputError(f"{n} qubits exceeds the cap of {cap}; set "
                         f"{_MAX_QUBITS_ENV} to override")
    return cap


def _manifest(seed: int, config: RoofConfig, input_path=None, output_path=None):
    return {
        "tool": "monotangle",
        "version": __version__,
        "command": shlex.join(sys.argv[1:]),
        "seed": int(seed),
        "roof_config": config.to_json_dict(),
        "input": str(input_path) if input_path else None,
        "output": str(output_path) if output_path else None,
        "duration_ms": None,
    }


def _write_text(text: str, out_path) -> None:
    """Write a primary output to `out_path`, or to stdout when it is None."""
    if out_path is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from exc


def _dump_json(payload: dict, out_path) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _summary(message: str) -> None:
    click.echo(message, err=True)


def _sci(x: float) -> str:
    return f"{x:.2e}"


def _roof_options(f):
    f = click.option("--seed", type=int, default=0, show_default=True,
                     help="Seed for roof restarts (and sampling where noted).")(f)
    f = click.option("--restarts", type=int, default=32, show_default=True,
                     help="Roof search starting points.")(f)
    f = click.option("--padding", type=int, default=2, show_default=True,
                     help="Extra decomposition members beyond the rank.")(f)
    return f


def _tol_options(f):
    f = click.option("--tol-roof", type=float, default=DEFAULT_TOL_ROOF,
                     show_default=True,
                     help="Zero/saturation tolerance for roof-backed terms.")(f)
    f = click.option("--tol-closed", type=float, default=DEFAULT_TOL_CLOSED,
                     show_default=True,
                     help="Saturation tolerance for closed-form arithmetic.")(f)
    return f


def _run(body):
    """Run a command body under the total exit-code contract."""
    try:
        return body()
    except InputError as exc:
        _summary(f"error: {exc}")
        sys.exit(EXIT_INPUT)
    except click.exceptions.Exit:
        raise
    except Exception as exc:  # contract allows no other codes
        _summary(f"internal error: {type(exc).__name__}: {exc}")
        click.echo(traceback.format_exc(), err=True, nl=False)
        sys.exit(EXIT_INPUT)


def _build_params(n, use_w, seed, coeffs) -> WClassParams:
    if coeffs is not None:
        try:
            with open(coeffs, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read coefficient file {coeffs}: {exc}") from exc
        return params_from_dict(data)
    if n is None:
        raise InputError("need --n with --w/--seed, or --coeffs FILE")
    if use_w:
        return w_state_params(n)
    if seed is None:
        raise InputError("need one of --w, --seed, or --coeffs")
    return wclass_random(n, seed)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="monotangle")
def main():
    """Tangle hierarchies and monogamy-inequality checks for multi-qubit states."""


@main.command("wclass-gen")
@click.option("--n", type=int, default=None, help="Number of qubits.")
@click.option("--w", "use_w", is_flag=True, help="Use the symmetric W state.")
@click.option("--seed", type=int, default=None,
              help="Draw random coefficients with this seed.")
@click.option("--coeffs", type=click.Path(), default=None,
              help="Read explicit coefficients from a JSON file.")
@click.option("--out", type=click.Path(), default=None,
              help="State file to write (default wclass_n<N>.json).")
def cmd_wclass_gen(n, use_w, seed, coeffs, out):
    """Generate a generalized W-class state file and echo its analytic tangles."""

    def body():
        params = _build_params(n, use_w, seed, coeffs)
        state = wclass_state(params)
        path = out or f"wclass_n{params.num_qubits}.json"
        save_state(state, path)
        click.echo(f"wrote {path} ({params.num_qubits} qubits)")
        click.echo(f"one-tangle (hub 1): {_sci(wclass_one_tangle(params).value)}")
        for j in range(2, params.num_qubits + 1):
            click.echo(
                f"two-tangle (1,{j}):  {_sci(wclass_two_tangle(params, j).value)}"
            )

    _run(body)


def _parse_partners(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise InputError(f"bad partner list {raw!r}") from exc


def _level_name(m: int) -> str:
    names = {1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
             7: "seven"}
    return f"{names.get(m, str(m))}-tangle"


@main.command("tangle")
@click.argument("state_file", type=click.Path())
@click.option("--focus", type=int, default=1, show_default=True)
@click.option("--partners", type=str, default=None,
              help="Comma-separated partner labels for a single reduction.")
@_roof_options
@click.option("--out", type=click.Path(), default=None)
def cmd_tangle(state_file, focus, partners, seed, restarts, padding, out):
    """Tangle values of a state file: single reduction or full hierarchy."""

    def body():
        t0 = time.perf_counter()
        state = load_state(state_file)
        n = state.num_qubits
        config = RoofConfig(seed=seed, restarts=restarts, padding=padding)
        payload = {
            "manifest": _manifest(seed, config, state_file, out),
            "focus": focus,
            "num_qubits": n,
        }
        if partners is not None:
            term = mixed_tangle_term(state, focus, _parse_partners(partners),
                                     config)
            payload["mode"] = "reduction"
            payload["term"] = term.to_json_dict()
            payload["converged"] = term.converged
            _summary(f"{_level_name(term.m)} {list(term.partners)}: "
                     f"{_sci(term.value)}")
        elif n == 2:
            tau = one_tangle(state, focus).value
            payload["mode"] = "hierarchy"
            payload["one_tangle"] = tau
            payload["terms"] = []
            payload["n_tangle"] = tau
            payload["converged"] = True
            _summary(f"two-tangle: {_sci(tau)}")
        else:
            report = sm_residual(state, focus, config,
                                 max_qubits=_qubit_cap(n))
            payload["mode"] = "hierarchy"
            payload["one_tangle"] = report.one_tangle
            payload["terms"] = [t.to_json_dict() for t in report.terms]
            payload["n_tangle"] = report.sm_residual
            payload["converged"] = report.converged
            _summary(f"one-tangle (hub {focus}): {_sci(report.one_tangle)}")
            for term in report.terms:
                _summary(f"{_level_name(term.m)} {list(term.partners)}: "
                         f"{_sci(term.value)}")
            _summary(f"{_level_name(n)} (full state): {_sci(report.sm_residual)}")
        _dump_json(payload, out)
        _summary(f"done in {1e3 * (time.perf_counter() - t0):.0f} ms")

    _run(body)


@main.command("ckw-check")
@click.argument("state_file", type=click.Path())
@click.option("--focus", type=int, default=1, show_default=True)
@click.option("--tol-closed", type=float, default=DEFAULT_TOL_CLOSED,
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_ckw_check(state_file, focus, tol_closed, out):
    """CKW residual of a state file (closed-form two-tangles only)."""

    def body():
        check_tolerance("tol_closed", tol_closed)
        state = load_state(state_file)
        residual = ckw_residual(state, focus)
        config = RoofConfig()
        payload = {
            "manifest": _manifest(0, config, state_file, out),
            "focus": focus,
            "num_qubits": state.num_qubits,
            "one_tangle": one_tangle(state, focus).value,
            "ckw_residual": residual,
            "saturated_ckw": abs(residual) <= tol_closed,
        }
        _dump_json(payload, out)
        _summary(f"CKW residual (hub {focus}): {_sci(residual)} "
                 f"saturated={payload['saturated_ckw']}")
        if residual < -tol_closed:
            _summary("CKW residual is negative beyond tolerance: "
                     "violation candidate")
            sys.exit(EXIT_VIOLATION)

    _run(body)


@main.command("sm-check")
@click.argument("state_file", type=click.Path(), required=False)
@click.option("--wclass", "use_wclass", is_flag=True,
              help="Build a W-class state instead of reading a file.")
@click.option("--n", type=int, default=None)
@click.option("--w", "use_w", is_flag=True)
@click.option("--coeffs", type=click.Path(), default=None)
@click.option("--focus", type=int, default=1, show_default=True)
@click.option("--sweep-foci", "sweep_foci_", is_flag=True,
              help="Evaluate once per hub choice.")
@_roof_options
@_tol_options
@click.option("--out", type=click.Path(), default=None)
def cmd_sm_check(state_file, use_wclass, n, use_w, coeffs, focus, sweep_foci_,
                 seed, restarts, padding, tol_roof, tol_closed, out):
    """Strong-monogamy check of a state file or a generated W-class state."""

    def body():
        t0 = time.perf_counter()
        if use_wclass:
            params = _build_params(n, use_w, seed, coeffs)
            state = wclass_state(params)
            source = "wclass"
        elif state_file is not None:
            state = load_state(state_file)
            source = state_file
        else:
            raise InputError("need a STATE_FILE argument or --wclass")
        cap = _qubit_cap(state.num_qubits)
        config = RoofConfig(seed=seed, restarts=restarts, padding=padding)
        kwargs = dict(tol_closed=tol_closed, tol_roof=tol_roof,
                      max_qubits=cap)
        if sweep_foci_:
            reports = sweep_foci(state, config, **kwargs)
        else:
            reports = [sm_residual(state, focus, config, **kwargs)]
        payload = {
            "manifest": _manifest(
                seed, config, None if use_wclass else state_file, out),
            "source": source,
            "reports": [r.to_json_dict() for r in reports],
        }
        _dump_json(payload, out)
        for report in reports:
            _summary(
                f"focus {report.focus}: sm_residual {_sci(report.sm_residual)} "
                f"ckw_residual {_sci(report.ckw_residual)} "
                f"saturated_sm={report.saturated_sm} "
                f"converged={report.converged}"
            )
        _summary(f"done in {1e3 * (time.perf_counter() - t0):.0f} ms")
        if any(r.sm_violation for r in reports):
            _summary("SM residual is negative beyond tolerance: "
                     "violation candidate")
            sys.exit(EXIT_VIOLATION)

    _run(body)


# ---------------------------------------------------------------------------
# batch


def _parse_n_range(raw: str) -> list[int]:
    raw = raw.strip()
    if ".." in raw:
        lo_s, hi_s = raw.split("..", 1)
    else:
        lo_s = hi_s = raw
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise InputError(f"bad qubit range {raw!r}; use N or LO..HI") from exc
    if lo > hi:
        raise InputError(f"empty qubit range {raw!r}")
    return list(range(lo, hi + 1))


def _sample_seed(global_seed: int, n: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=global_seed, spawn_key=(n, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _batch_block(block: tuple) -> list[list]:
    """CSV rows of one block of batch samples, in the order of its keys.

    `block` is `(keys, settings)`: `keys` lists the block's `(n, index)`
    samples, and `settings`, shared by every row and sent once per block,
    is `(family, global_seed, config, cap, tol_closed, tol_roof, timing)`.
    Each sample's seed is derived here, so that a pool worker rather than
    the parent spends the `SeedSequence` work.
    """
    keys, (family, global_seed, config, cap, tol_closed, tol_roof,
           timing) = block
    rows = []
    for n, index in keys:
        sample_seed = _sample_seed(global_seed, n, index)
        if family == "wclass":
            state = wclass_state(wclass_random(n, sample_seed))
        else:
            state = haar_random_state(n, sample_seed)
        t0 = time.perf_counter()
        report = sm_residual(state, 1, config, max_qubits=cap,
                             tol_closed=tol_closed, tol_roof=tol_roof)
        elapsed_ms = 1e3 * (time.perf_counter() - t0)
        runtime = int(round(elapsed_ms)) if timing else 0
        rows.append([n, index, sample_seed,
                     repr(report.ckw_residual), repr(report.sm_residual),
                     repr(max_m3plus_term(report)), runtime])
    return rows


@main.command("batch")
@click.option("--family", type=click.Choice(["wclass", "haar"]), required=True)
@click.option("--n", "n_range", type=str, required=True,
              help="Qubit count or range, e.g. 4 or 3..5.")
@click.option("--samples", type=int, required=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--timing/--no-timing", default=False, show_default=True,
              help="Record wall-clock runtime_ms per row "
                   "(breaks byte-for-byte reproducibility).")
@_roof_options
@_tol_options
@click.option("--out", type=click.Path(), default=None,
              help="CSV path (default stdout).")
def cmd_batch(family, n_range, samples, jobs, timing, seed, restarts, padding,
              tol_roof, tol_closed, out):
    """Evaluate residuals over sampled states and emit one CSV row each."""

    def body():
        if samples < 1:
            raise InputError(f"samples must be >= 1, got {samples}")
        if jobs < 1:
            raise InputError(f"jobs must be >= 1, got {jobs}")
        check_tolerance("tol_closed", tol_closed)
        check_tolerance("tol_roof", tol_roof)
        ns = _parse_n_range(n_range)
        if ns[0] < 3:
            raise InputError("batch families need n >= 3")
        cap = _qubit_cap(ns[-1])
        config = RoofConfig(seed=seed, restarts=restarts, padding=padding)
        keys = [(n, i) for n in ns for i in range(samples)]
        # strided blocks: each block mixes every n of the range, so their
        # costs stay level; one block (no pool) when jobs == 1
        blocks = min(len(keys), 4 * jobs) if jobs > 1 else 1
        settings = (family, seed, config, cap, tol_closed, tol_roof, timing)
        work = [(keys[k::blocks], settings) for k in range(blocks)]
        t0 = time.perf_counter()
        if blocks > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, blocks)) as pool:
                results = list(pool.map(_batch_block, work))
        else:
            results = [_batch_block(work[0])]
        rows = [None] * len(keys)
        for k, block_rows in enumerate(results):
            rows[k::blocks] = block_rows
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["n", "sample", "seed", "ckw_residual", "sm_residual",
                         "max_m3plus_term", "runtime_ms"])
        writer.writerows(rows)
        _write_text(buffer.getvalue(), out)
        _summary(f"{len(rows)} rows in "
                 f"{1e3 * (time.perf_counter() - t0):.0f} ms")

    _run(body)


if __name__ == "__main__":
    main()
