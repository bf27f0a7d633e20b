"""Command-line surface.

Subcommands: ``gen`` (matrix generators), ``check`` (classification and
pair certificates), ``report`` (pair invariants), ``realize`` (construct a
pair for a divisor vector), ``sweep`` (realization tables and randomized
property campaigns), ``verify`` (the identity suite).

Exit codes are a stable contract: 0 success, 1 input error, 2 usage error,
3 invariant/oracle violation, 4 verify-suite failure.  ``sweep --mode
random`` works in stacked chunks of at most ``STACK_ENTRIES`` matrix
entries, in sample order.  Each row has a generator keyed by ``(seed,
sample)``; one ``random_conjugate_forms`` call (the sampler shared with
the library) draws the forms of a chunk, each generator then draws its
row's left-invariance phases, and one ``pair_reports`` call reports the
chunk.  ``--jobs`` is accepted and has no effect, so with a fixed seed
the output is byte-identical across runs and across ``--jobs`` settings.
Each subcommand's arguments are defined once, by its builder in
``_COMMANDS``.  ``build_parser`` returns a fresh full tree; ``main``
parses with one tree per process, built on its first call.  argparse
measures the terminal only when it formats a help text or a usage
message, so one tree prints what a fresh one would at any width.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .errors import HadinvError, OracleMismatch
from .hadamard import (
    DpwForm,
    FourierSpec,
    are_conjugate,
    clock_vec,
    comma_list,
    decompose_dpw,
    diag_times,
    fourier,
    fourier_tensor,
    is_hadamard,
    perm_phase_certificate,
    realize_forms,
    require_forms,
    shift_vec,
)
from .invariants import (
    ENTROPY_TOL,
    InvariantReport,
    _checked_entropies,
    pair_report,
    pair_reports,
    random_conjugate_forms,
    realization_sweep,
    realized_reports,
    stack_chunks,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, classify
from .serialize import (
    dpw_to_obj,
    dumps,
    index_to_obj,
    load_matrix,
    matrix_to_obj,
    pairs,
    report_to_obj,
    subgroup_to_obj,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_VERIFY = 4


def _tolerance(args) -> ToleranceConfig:
    return DEFAULT_TOL if args.tolerance is None else ToleranceConfig(eps_entry=args.tolerance)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _common_flags(sub: argparse.ArgumentParser, format_default: str | None = None) -> None:
    """``--tolerance``, and ``--format`` with the default ``format_default`` unless that is None."""
    sub.add_argument("--tolerance", type=float, default=None, help="override eps_entry")
    if format_default is not None:
        sub.add_argument("--format", choices=("json", "text"), default=format_default)


def cmd_gen(args, tol: ToleranceConfig) -> int:
    spec = FourierSpec.parse(args.spec)
    if args.kind == "fourier":
        if len(spec.orders) != 1:
            raise HadinvError("--kind fourier needs a single-factor --spec")
        matrix = fourier(spec.orders[0])
    elif args.kind == "fourier-tensor":
        matrix = fourier_tensor(spec)
    elif args.kind in ("diag", "shift"):
        if args.k is None:
            raise HadinvError(f"--kind {args.kind} needs --k")
        k = comma_list(args.k, int, HadinvError, "--k")
        if len(k) != len(spec.orders):
            raise HadinvError(f"--k must list one power per factor of {spec.orders}")
        matrix = clock_vec(spec, k) if args.kind == "diag" else shift_vec(spec, k)
    else:  # dpw
        if args.perm is None or args.phases is None:
            raise HadinvError("--kind dpw needs --perm and --phases")
        perm = comma_list(args.perm, int, HadinvError, "--perm")
        phases = comma_list(args.phases, complex, HadinvError, "--phases")
        form = DpwForm(spec=spec, perm=perm, phases=phases, tol=tol)
        matrix = form.realize()
    _write(dumps(matrix_to_obj(matrix)), args.out)
    return EXIT_OK


def cmd_check(args, tol: ToleranceConfig) -> int:
    if len(args.paths) > 2:
        raise HadinvError("check takes one matrix (classification) or two (pair certificates)")
    mats = [load_matrix(path) for path in args.paths]
    spec = FourierSpec.parse(args.spec) if args.spec else None
    if spec is not None:
        spec.require_dim(*mats)

    if len(mats) == 1:
        m = mats[0]
        flags = classify(m, tol)
        obj = {
            "dim": int(m.shape[0]),
            "hadamard": is_hadamard(m, tol),
            "class": asdict(flags),
            "dpw": None,
        }
        if spec is not None:
            try:
                obj["dpw"] = dpw_to_obj(decompose_dpw(m, spec, tol))
            except HadinvError:
                obj["dpw"] = None
    else:
        u, v = mats
        cert = perm_phase_certificate(u, v, tol)
        conjugate = None
        if spec is not None:
            try:
                conjugate = are_conjugate(u, v, spec, tol)
            except HadinvError:
                conjugate = None
        obj = {
            "dim": int(u.shape[0]),
            "hadamard": [is_hadamard(u, tol), is_hadamard(v, tol)],
            "equivalent": cert is not None,
            "certificate": None
            if cert is None
            else {
                "perm": [int(p) for p in cert[0]],
                "phases": pairs(cert[1]),
            },
            "conjugate": conjugate,
        }
    _write(dumps(obj), args.out)
    return EXIT_OK


def _report_text(report) -> str:
    lines = [
        f"N: {report.n}",
        f"spec: {','.join(str(n) for n in report.spec)}",
        f"distinct: {str(report.distinct).lower()}",
        f"conjugate: {str(report.conjugate).lower()}",
        f"dimA: {report.dim_a}",
        "subgroup: "
        + (
            "absent"
            if report.subgroup is None
            else "; ".join(",".join(str(x) for x in m) for m in report.subgroup.sorted_members())
        ),
        f"index: {report.index}",
        f"relcomm_dims: {report.relcomm_dims}",
        f"vertex: {str(report.vertex).lower()}",
        f"entropy_h: {report.entropy_h:.6f}",
        f"entropy_upper: {report.entropy_upper:.6f}",
        f"certified: {str(report.certified).lower()}",
        "flags: " + (",".join(report.flags) if report.flags else "-"),
    ]
    return "\n".join(lines) + "\n"


def cmd_report(args, tol: ToleranceConfig) -> int:
    spec = FourierSpec.parse(args.spec)
    u = load_matrix(args.path_u)
    v = load_matrix(args.path_v)
    report = pair_report(u, v, spec, tol)
    if args.format == "json":
        _write(dumps(report_to_obj(report)), args.out)
    else:
        _write(_report_text(report), args.out)
    return EXIT_OK


def cmd_realize(args, tol: ToleranceConfig) -> int:
    spec = FourierSpec.parse(args.spec)
    divisor_vec = comma_list(args.divisors, int, HadinvError, "--divisors")
    ((u, v, report),) = realized_reports(spec, [divisor_vec], tol)
    obj = {
        "spec": list(spec.orders),
        "divisors": list(divisor_vec),
        "subgroup": subgroup_to_obj(report.subgroup),
        "index": index_to_obj(report.index),
        "u": matrix_to_obj(u),
        "v": matrix_to_obj(v),
    }
    if args.out_u:
        _write(dumps(matrix_to_obj(u)), args.out_u)
    if args.out_v:
        _write(dumps(matrix_to_obj(v)), args.out_v)
    _write(dumps(obj), args.out)
    return EXIT_OK


def _invariant_fields(report: InvariantReport) -> dict:
    """The invariant fields of a sweep row, in either mode."""
    return {
        "dimA": report.dim_a,
        "index": index_to_obj(report.index),
        "entropy_h": report.entropy_h,
        "entropy_upper": report.entropy_upper,
        "gap": report.entropy_upper - report.entropy_h,
    }


def _sweep_realize_rows(spec: FourierSpec, tol: ToleranceConfig) -> list[dict]:
    return [
        {"divisors": list(divisor_vec), **_invariant_fields(report), "violations": []}
        for divisor_vec, report in realization_sweep(spec, tol)
    ]


def _random_row(
    sample: int,
    perm: list[int],
    phases_u: list[list[float]],
    phases_v: list[list[float]],
    report: InvariantReport | OracleMismatch,
    misses: tuple[bool, bool],
) -> dict:
    row: dict = {"sample": sample, "perm": perm, "phases_u": phases_u, "phases_v": phases_v}
    if isinstance(report, OracleMismatch):
        row.update({"dimA": None, "index": None, "entropy_h": None, "entropy_upper": None, "gap": None})
        row["violations"] = [f"oracle-mismatch: {report}"]
        return row

    row.update(_invariant_fields(report))
    violations: list[str] = []
    if "subgroup-not-closed" in report.flags:
        violations.append("subgroup-not-closed")
    symmetry_miss, left_miss = misses
    if symmetry_miss:
        violations.append("entropy-symmetry")
    if left_miss:
        violations.append("entropy-left-invariance")
    row["violations"] = violations
    return row


def _random_draws(spec: FourierSpec, seed: int, samples: range) -> tuple[np.ndarray, ...]:
    """The rows ``samples`` as stacks ``(perms, phases_u, phases_v, extra)``: the forms, then the left-invariance phases."""
    # per-row generator keyed by (seed, sample): a row depends on nothing else
    rngs = [np.random.default_rng([seed, sample]) for sample in samples]
    perms, phases_u, phases_v = random_conjugate_forms(spec, rngs)
    angles = np.empty((len(rngs), spec.dim))
    for angle, rng in zip(angles, rngs):
        rng.random(out=angle)
    return perms, phases_u, phases_v, np.exp(2j * np.pi * angles)


def _sweep_random_rows(spec: FourierSpec, seed: int, samples: int, tol: ToleranceConfig) -> list[dict]:
    n = spec.dim
    eps = tol.eps_entry
    rows = []
    for start, chunk in stack_chunks(range(samples), n):
        perms, phases_u, phases_v, extra = _random_draws(spec, seed, chunk)
        # the checks of DpwForm, once for the chunk; |extra| = 1 keeps the stacks below unitary
        require_forms(perms, np.stack([phases_u, phases_v, extra]), tol)
        us = realize_forms(perms, phases_u, spec)
        vs = realize_forms(perms, phases_v, spec)
        reports = pair_reports(us, vs, spec, tol)
        for report in reports:
            if isinstance(report, HadinvError) and not isinstance(report, OracleMismatch):
                raise report

        # the entropy's symmetry and left invariance, on the rows with a report; pair_reports
        # has checked us and vs unitary, so only the doubly stochastic check runs again
        done = [k for k, report in enumerate(reports) if isinstance(report, InvariantReport)]
        h = np.array([reports[k].entropy_h for k in done])
        us, vs, extra = us[done], vs[done], extra[done]
        symmetry = np.abs(_checked_entropies(vs, us, eps) - h) > ENTROPY_TOL
        left = np.abs(_checked_entropies(diag_times(extra, us), diag_times(extra, vs), eps) - h) > ENTROPY_TOL
        misses = dict(zip(done, zip(symmetry.tolist(), left.tolist())))

        lists = (perms.tolist(), pairs(phases_u), pairs(phases_v))
        for k, (perm, row_u, row_v) in enumerate(zip(*lists)):
            rows.append(_random_row(start + k, perm, row_u, row_v, reports[k], misses.get(k, (False, False))))
    return rows


def _fixed6(x: float) -> str:
    """Six decimals; a value that rounds to zero prints as ``0.000000``, never ``-0.000000``."""
    text = f"{x:.6f}"
    return text[1:] if text == "-0.000000" else text


def _sweep_text(rows: list[dict], total_violations: int) -> str:
    lines = []
    for row in rows:
        key = (
            f"divisors={','.join(str(d) for d in row['divisors'])}"
            if "divisors" in row
            else f"sample={row['sample']}"
        )
        if row.get("dimA") is None:
            lines.append(f"{key} FAILED {';'.join(row['violations'])}")
            continue
        index = Fraction(row["index"]["num"], row["index"]["den"])
        lines.append(
            f"{key} dimA={row['dimA']} index={index} "
            f"h={_fixed6(row['entropy_h'])} bound={_fixed6(row['entropy_upper'])} "
            f"gap={_fixed6(row['gap'])} violations={len(row['violations'])}"
        )
    lines.append(f"rows={len(rows)} violations={total_violations}")
    return "\n".join(lines) + "\n"


def cmd_sweep(args, tol: ToleranceConfig) -> int:
    spec = FourierSpec.parse(args.spec)
    if args.mode == "realize":
        rows = _sweep_realize_rows(spec, tol)
    else:
        if args.seed is None:
            print("usage error: --mode random needs --seed", file=sys.stderr)
            return EXIT_USAGE
        if args.seed < 0:  # numpy's own message would not name the flag
            raise HadinvError(f"--seed must be non-negative, got {args.seed}")
        if args.samples < 1:  # no row would be checked and the sweep would pass vacuously
            raise HadinvError(f"--samples must be at least 1, got {args.samples}")
        rows = _sweep_random_rows(spec, args.seed, args.samples, tol)

    total_violations = sum(len(row["violations"]) for row in rows)
    if args.format == "json":
        obj = {
            "spec": list(spec.orders),
            "mode": args.mode,
            "rows": rows,
            "violations": total_violations,
        }
        if args.mode == "random":
            obj["seed"] = args.seed
            obj["samples"] = args.samples
        _write(dumps(obj), args.out)
    else:
        _write(_sweep_text(rows, total_violations), args.out)
    return EXIT_VIOLATION if total_violations else EXIT_OK


def cmd_verify(args, tol: ToleranceConfig) -> int:
    gamma_orders = comma_list(args.gamma_orders, int, HadinvError, "--gamma-orders")
    results = run_verification(max_order=args.max_order, gamma_orders=gamma_orders, tol=tol)
    if args.format == "json":
        obj = [
            {"name": r.name, "passed": r.passed, "max_err": r.max_err, "detail": r.detail}
            for r in results
        ]
        _write(dumps(obj), args.out)
    else:
        _write("".join(r.line() + "\n" for r in results), args.out)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"verify failed: {failed[0].name}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--spec", required=True, help="factor orders, e.g. 2,3")
    gen.add_argument(
        "--kind",
        required=True,
        choices=("fourier", "fourier-tensor", "diag", "shift", "dpw"),
    )
    gen.add_argument("--k", default=None, help="power per factor for diag/shift, e.g. 1,2")
    gen.add_argument("--perm", default=None, help="permutation images for dpw, e.g. 0,2,1,3")
    gen.add_argument("--phases", default=None, help="unit phases for dpw, e.g. 1,1j,-1,-1j")
    gen.add_argument("--out", default=None)
    _common_flags(gen)


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("paths", nargs="+", help="one or two matrix JSON files")
    check.add_argument("--spec", default=None)
    check.add_argument("--out", default=None)
    _common_flags(check)


def _report_arguments(report: argparse.ArgumentParser) -> None:
    report.add_argument("path_u")
    report.add_argument("path_v")
    report.add_argument("--spec", required=True)
    report.add_argument("--out", default=None)
    _common_flags(report, "json")


def _realize_arguments(realize: argparse.ArgumentParser) -> None:
    realize.add_argument("--spec", required=True)
    realize.add_argument("--divisors", required=True, help="one divisor per factor, e.g. 2,1")
    realize.add_argument("--out", default=None)
    realize.add_argument("--out-u", default=None)
    realize.add_argument("--out-v", default=None)
    _common_flags(realize)


def _sweep_arguments(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--spec", required=True)
    sweep.add_argument("--mode", choices=("realize", "random"), default="realize")
    sweep.add_argument("--samples", type=int, default=50)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--jobs", type=int, default=None, help="accepted for compatibility; no effect")
    sweep.add_argument("--out", default=None)
    _common_flags(sweep, "json")


def _verify_arguments(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("--max-order", type=int, default=12)
    verify.add_argument("--gamma-orders", default="2,3,4")
    verify.add_argument("--out", default=None)
    _common_flags(verify, "text")


# name -> (help, argument builder, handler), in the order the usage lists them
_COMMANDS = {
    "gen": ("generate a matrix and emit matrix JSON", _gen_arguments, cmd_gen),
    "check": ("classify matrices / certify pair relations", _check_arguments, cmd_check),
    "report": ("full invariant report for a pair", _report_arguments, cmd_report),
    "realize": ("construct a pair for a divisor vector", _realize_arguments, cmd_realize),
    "sweep": ("realization table or randomized campaign", _sweep_arguments, cmd_sweep),
    "verify": ("run the structural identity suite", _verify_arguments, cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh full parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="hadinv",
        description="Invariants of pairs of complex Hadamard matrices over Fourier tensor specs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, func) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        add_arguments(sub)
        sub.set_defaults(func=func)
    return parser


# parse_args keeps no state between calls: each gets a fresh Namespace, and no action appends or counts
_parser = functools.cache(build_parser)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the process's one full tree."""
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        tol = _tolerance(args)
        return args.func(args, tol)
    except OracleMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (HadinvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())
