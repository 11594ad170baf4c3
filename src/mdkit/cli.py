"""Batch entry point: build objects, run verification suites, emit reports.

Reports are deterministic JSON on stdout (same config, byte-identical
output), a short human summary goes to stderr, and the exit code is 0 when
every check passes, 1 when some verification fails, 2 on configuration or
usage errors.  An optional CSV summary of the per-check records can be
written alongside.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .complexes import (
    FreeZpComplex,
    build_en_zp,
    check_free_action,
    coindex_bounds,
    homology_euler_consistent,
    reduced_homology,
)
from .finite import (
    FiniteSystem,
    embed_into_universal,
    marker_search,
    random_metric,
    verify_marker,
    verify_marker_transfer,
)
from .meandim import (
    Cover,
    cover_D,
    cover_ord,
    face_lattice,
    headline_pipeline,
    interval_lattice,
    select_time_division,
)
from .shiftspace import (
    check_membership,
    count_periodic_sft,
    count_periodic_sft_bruteforce,
    gap_space,
    periodic_witness,
    sample_gap_window,
    seq_to_json,
    verify_conjugacy_diagram,
)
from .torus import frac_from_str, frac_to_str
from .tower import (
    AnchorTable,
    TowerSpec,
    level_gap,
    tower_aperiodicity_report,
    verify_section_identity,
    verify_section_range,
)


def _check(name: str, statement: str, ok: bool, witness=None) -> dict:
    return {
        "name": name,
        "statement": statement,
        "verdict": "pass" if ok else "fail",
        "witness": witness,
    }


def _report(command: str, config: dict, checks: list[dict]) -> dict:
    failures = sum(1 for c in checks if c["verdict"] != "pass")
    return {
        "toolkit": f"mdkit {__version__}",
        "command": command,
        "config": config,
        "checks": checks,
        "summary": {
            "verdict": "pass" if failures == 0 else "fail",
            "checks": len(checks),
            "failures": failures,
        },
    }


def _parse_window(text: str) -> tuple[int, int]:
    """--window A:B denotes the half-open integer interval [A, B)."""
    lo_text, hi_text = text.split(":")
    lo, hi = int(lo_text), int(hi_text)
    if hi <= lo:
        raise ValueError("window must be a nonempty half-open interval A:B")
    return lo, hi


def _parse_system(text: str) -> FiniteSystem:
    """Generator shorthand "cycles:3,5" or a path to a FiniteSystem JSON file."""
    if text.startswith("cycles:"):
        lengths = [int(part) for part in text.split(":", 1)[1].split(",")]
        return FiniteSystem.from_cycle_lengths(lengths)
    with open(text, encoding="utf-8") as handle:
        return FiniteSystem.from_json(json.load(handle))


def _parse_complex(text: str) -> FreeZpComplex:
    """Generator shorthand "en-zp:p=3,n=2" or a path to a complex JSON file."""
    if text.startswith("en-zp:"):
        params = dict(part.split("=") for part in text.split(":", 1)[1].split(","))
        for key in ("p", "n"):
            if key not in params:
                raise ValueError(f"complex shorthand {text!r} lacks the parameter {key}=")
        return build_en_zp(int(params["p"]), int(params["n"]))
    with open(text, encoding="utf-8") as handle:
        return FreeZpComplex.from_json(json.load(handle))


# ---------------------------------------------------------------------------
# Runners


def _run_tower_verify(args) -> dict:
    m = args.m
    if m < 2:
        raise ValueError("tower verify needs --m >= 2: it samples windows of level m - 1 >= 1")
    delta = frac_from_str(args.delta)
    lo, hi = _parse_window(args.window)
    length = hi - lo
    rng = random.Random(args.seed)
    checks: list[dict] = []
    identity_failures = 0
    range_failures = 0
    partition_totals = {"base_block": 0, "upper_tail": 0, "lower_tail": 0}
    for idx in range(args.samples):
        window = sample_gap_window(args.N, level_gap(m - 1), delta, lo, length, rng)
        if args.anchors == "zero":
            anchor = AnchorTable.zeros(args.N)
        else:
            anchor = AnchorTable.random(args.N, m, rng)
        ident = verify_section_identity(m, anchor, window)
        if not ident.passed:
            identity_failures += 1
        rng_report = verify_section_range(m, anchor, window, delta)
        if not rng_report.passed:
            range_failures += 1
        for key, value in rng_report.partition_counts.items():
            partition_totals[key] += value
    checks.append(
        _check(
            "section-identity",
            "factor composed with section is the identity, exactly, on the full overlap",
            identity_failures == 0,
            {"samples": args.samples, "failures": identity_failures},
        )
    )
    checks.append(
        _check(
            "section-range",
            "the section of a valid window satisfies the next level's gap constraint",
            range_failures == 0,
            {"samples": args.samples, "failures": range_failures},
        )
    )
    checks.append(
        _check(
            "range-case-partitions",
            "checkable section outputs split into base block, upper tail, lower tail",
            True,
            partition_totals,
        )
    )
    config = {
        "m": m,
        "N": args.N,
        "delta": frac_to_str(delta),
        "window": [lo, hi],
        "samples": args.samples,
        "seed": args.seed,
        "anchors": args.anchors,
    }
    return _report("tower verify", config, checks)


def _run_tower_aperiodicity(args) -> dict:
    delta = frac_from_str(args.delta)
    spec = TowerSpec(dim=args.N, delta=delta, m_max=args.m_max)
    report = tower_aperiodicity_report(spec, args.p_max)
    checks = [
        _check(
            f"prime-{cert['prime']}",
            cert["statement"],
            cert["verified"],
            {k: v for k, v in cert.items() if k not in ("statement",)},
        )
        for cert in report.certificates
    ]
    config = {
        "m_max": args.m_max,
        "N": args.N,
        "delta": frac_to_str(delta),
        "p_max": args.p_max,
    }
    return _report("tower aperiodicity", config, checks)


def _run_shift_count_periodic(args) -> dict:
    forbidden = frozenset(args.forbidden.split(","))
    checks = []
    for n in range(1, args.n_max + 1):
        count = count_periodic_sft(forbidden, n)
        brute = count_periodic_sft_bruteforce(forbidden, n)
        checks.append(
            _check(
                f"count-n{n:02d}",
                "transfer-matrix count equals exhaustive circular enumeration",
                count == brute,
                {"n": n, "count": count, "bruteforce": brute},
            )
        )
    config = {"forbidden": sorted(forbidden), "n_max": args.n_max}
    return _report("shift count-periodic", config, checks)


def _run_shift_conjugacy(args) -> dict:
    delta = frac_from_str(args.delta)
    report = verify_conjugacy_diagram(
        args.N, args.m, delta, args.p, args.samples, args.seed
    )
    checks = [
        _check(ident.name, ident.statement, ident.ok, {"checked": ident.checked})
        for ident in report.identities
    ]
    config = {
        "p": args.p,
        "m": args.m,
        "k": report.k,
        "N": args.N,
        "delta": frac_to_str(delta),
        "samples": args.samples,
        "seed": args.seed,
    }
    return _report("shift conjugacy", config, checks)


def _run_shift_witness(args) -> dict:
    delta = frac_from_str(args.delta)
    witness = periodic_witness(args.N, args.m, delta, args.p)
    membership = check_membership(gap_space(args.N, args.m, delta), witness)
    checks = [
        _check(
            "witness-membership",
            "the explicit periodic point satisfies the gap constraint at every residue",
            membership.passed,
            {"witness": seq_to_json(witness)},
        )
    ]
    config = {
        "p": args.p,
        "m": args.m,
        "N": args.N,
        "delta": frac_to_str(delta),
    }
    return _report("shift witness", config, checks)


def _run_complex_en_zp(args) -> dict:
    complex_ = build_en_zp(args.p, args.n)
    checks = [
        _check(
            "free-action",
            "no nontrivial power of the action fixes a simplex setwise",
            check_free_action(complex_),
        ),
        _check(
            "dimension",
            "the standard level-n free complex is n-dimensional",
            complex_.dimension() == args.n,
            {"dimension": complex_.dimension()},
        ),
    ]
    for k in range(args.n):
        group = reduced_homology(complex_, k)
        checks.append(
            _check(
                f"homology-deg{k}",
                "reduced homology vanishes below the top degree",
                group.is_trivial(),
                group.to_json(),
            )
        )
    checks.append(
        _check(
            "euler-consistency",
            "the alternating simplex count equals one plus the alternating homology ranks",
            homology_euler_consistent(complex_),
            {"euler": complex_.euler_characteristic()},
        )
    )
    config = {"p": args.p, "n": args.n}
    return _report("complex en-zp", config, checks)


def _run_complex_coindex(args) -> dict:
    complex_ = _parse_complex(args.complex)
    bound = coindex_bounds(complex_, args.n_max)
    checks = [
        _check(
            "coindex-bounds",
            "lower bound witnessed by an explicit equivariant map; upper bound is the dimension",
            bound.upper is None or bound.lower <= bound.upper,
            bound.to_json(),
        )
    ]
    config = {"complex": args.complex, "n_max": args.n_max}
    return _report("complex coindex", config, checks)


def _run_markers_search(args) -> dict:
    system = _parse_system(args.system)
    cert = marker_search(system, args.N)
    ok = True
    if cert.found:
        ok, _ = verify_marker(system, cert.subset, args.N)
    checks = [
        _check(
            "marker-search",
            "search completed; any returned subset re-verified independently",
            ok,
            cert.to_json(system),
        )
    ]
    config = {"system": args.system, "N": args.N}
    return _report("markers search", config, checks)


def _run_markers_transfer(args) -> dict:
    system = _parse_system(args.system)
    report = verify_marker_transfer(system, args.n, args.N)
    checks = [
        _check(
            "forward",
            "a base marker placed at phase zero is a marker of the clock extension",
            report.forward["ok"],
            {"detail": report.forward["detail"]},
        ),
        _check(
            "backward",
            "every extension marker projects to a marker of the phase-zero power subsystem",
            report.backward["ok"],
            {"detail": report.backward["detail"]},
        ),
    ]
    config = {"system": args.system, "n": args.n, "N": args.N}
    return _report("markers transfer", config, checks)


def _run_embed(args) -> dict:
    system = _parse_system(args.system)
    if args.metric is not None:
        if args.metric.startswith("uniform:"):
            value = frac_from_str(args.metric.split(":", 1)[1])
            metric = tuple(
                tuple(Fraction(0) if i == j else value for j in range(system.size))
                for i in range(system.size)
            )
        elif args.metric.startswith("random:"):
            rng = random.Random(int(args.metric.split(":", 1)[1]))
            metric = random_metric(rng, system.size)
        else:
            with open(args.metric, encoding="utf-8") as handle:
                rows = json.load(handle)
            metric = tuple(tuple(frac_from_str(d) for d in row) for row in rows)
        system = FiniteSystem(system.points, system.perm, metric)
    report = embed_into_universal(system, frac_from_str(args.epsilon))
    checks = [
        _check(
            "embedding-collisions",
            "image collisions happen only below epsilon",
            report.embedding.collision_ok,
            {"n_coords": report.n_coords, "scale": frac_to_str(report.embedding.scale)},
        ),
        _check(
            "delta-positive",
            "the realized gap threshold is strictly positive",
            report.delta > 0,
            {"delta": frac_to_str(report.delta)},
        ),
        _check(
            "membership",
            "every unrolled orbit satisfies the gap-1 constraint at the realized threshold",
            report.membership_ok,
        ),
        _check(
            "equivariance",
            "the orbit map intertwines the dynamics with the shift",
            report.equivariance_ok,
        ),
    ]
    config = {
        "system": args.system,
        "metric": args.metric,
        "epsilon": args.epsilon,
    }
    return _report("embed", config, checks)


def _run_mdim_D(args) -> dict:
    if args.model == "interval":
        lattice = interval_lattice()
    elif args.model.startswith("en-zp:"):
        lattice = face_lattice(_parse_complex(args.model))
    else:
        raise ValueError(f"unknown lattice model {args.model!r}")
    if args.cover == "stars":
        if args.model == "interval":
            members = (frozenset({"v0", "e"}), frozenset({"v1", "e"}))
        else:
            vertices = sorted({c[0] for c in lattice.atoms if len(c) == 1})
            members = tuple(
                frozenset(c for c in lattice.atoms if v in c) for v in vertices
            )
        cover = Cover(members)
    elif args.cover == "trivial":
        cover = Cover((lattice.ground,))
    else:
        with open(args.cover, encoding="utf-8") as handle:
            data = json.load(handle)
        cover = Cover(tuple(frozenset(map(_json_atom, m)) for m in data))
    value = cover_D(lattice, cover, cap=args.cap)
    checks = [
        _check(
            "cover-D",
            "exact minimum order over refining covers by lattice opens",
            True,
            {"D": value, "ord": cover_ord(cover)},
        )
    ]
    config = {"model": args.model, "cover": args.cover, "cap": args.cap}
    return _report("mdim D", config, checks)


def _json_atom(atom):
    if isinstance(atom, list):
        return tuple(atom)
    return atom


def _run_mdim_pipeline(args) -> dict:
    width = args.N
    if args.eta is not None:
        eta = frac_from_str(args.eta)
        n = select_time_division(width, eta)
    else:
        eta = None
        n = args.time_division
    bound = headline_pipeline(width, args.levels, n)
    checks = [
        _check(
            "pipeline-bound",
            "ambient bound through inverse limit and clock division gives [0, N/n]",
            bound.lower == 0 and bound.upper == Fraction(width, n),
            bound.to_json(),
        )
    ]
    if eta is not None:
        checks.append(
            _check(
                "eta-selection",
                "the selected clock division drives the upper bound strictly below eta",
                Fraction(width, n) < eta,
                {"eta": frac_to_str(eta), "n": n, "upper": frac_to_str(Fraction(width, n))},
            )
        )
    config = {
        "N": width,
        "levels": args.levels,
        "time_division": n,
        "eta": args.eta,
    }
    return _report("mdim pipeline", config, checks)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _default_seed() -> int:
    return int(os.environ.get("MDKIT_SEED", "0"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdkit",
        description=(
            "Exact-rational verification suites for torus-alphabet subshifts, "
            "factor/section towers, free prime-order complexes, markers, and "
            "mean-dimension bounds."
        ),
    )
    parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write a CSV summary of the checks",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    tower = groups.add_parser("tower", help="factor/section tower suites")
    tower_sub = tower.add_subparsers(dest="action", required=True)
    tv = tower_sub.add_parser("verify", help="section identity and range checks")
    tv.add_argument("--m", type=int, required=True, help="tower level (>= 2)")
    tv.add_argument("--N", type=int, default=1, help="alphabet dimension")
    tv.add_argument("--delta", default="1/2", help="distance threshold, e.g. 1/2")
    tv.add_argument(
        "--window",
        required=True,
        help="half-open index interval A:B for the sampled input windows",
    )
    tv.add_argument("--samples", type=int, default=20)
    tv.add_argument("--seed", type=int, default=None)
    tv.add_argument("--anchors", choices=["zero", "random"], default="zero")
    tv.set_defaults(runner=_run_tower_verify)
    ta = tower_sub.add_parser("aperiodicity", help="per-prime period certificates")
    ta.add_argument("--m-max", dest="m_max", type=int, required=True)
    ta.add_argument("--N", type=int, default=1)
    ta.add_argument("--delta", default="1/2")
    ta.add_argument("--p-max", dest="p_max", type=int, required=True)
    ta.set_defaults(runner=_run_tower_aperiodicity)

    shift_group = groups.add_parser("shift", help="sequence-space suites")
    shift_sub = shift_group.add_subparsers(dest="action", required=True)
    sc = shift_sub.add_parser("count-periodic", help="binary SFT periodic counts")
    sc.add_argument("--n-max", dest="n_max", type=int, default=14)
    sc.add_argument("--forbidden", default="000,111")
    sc.set_defaults(runner=_run_shift_count_periodic)
    sj = shift_sub.add_parser("conjugacy", help="index-dilation conjugacy diagram")
    sj.add_argument("--p", type=int, required=True)
    sj.add_argument("--m", type=int, required=True)
    sj.add_argument("--N", type=int, default=1)
    sj.add_argument("--delta", default="1/2")
    sj.add_argument("--samples", type=int, default=20)
    sj.add_argument("--seed", type=int, default=None)
    sj.set_defaults(runner=_run_shift_conjugacy)
    sw = shift_sub.add_parser("witness", help="explicit periodic gap-space point")
    sw.add_argument("--p", type=int, required=True)
    sw.add_argument("--m", type=int, required=True)
    sw.add_argument("--N", type=int, default=1)
    sw.add_argument("--delta", default="1/2")
    sw.set_defaults(runner=_run_shift_witness)

    complex_group = groups.add_parser("complex", help="free complex suites")
    complex_sub = complex_group.add_subparsers(dest="action", required=True)
    ce = complex_sub.add_parser("en-zp", help="standard free complex battery")
    ce.add_argument("--p", type=int, required=True)
    ce.add_argument("--n", type=int, required=True)
    ce.set_defaults(runner=_run_complex_en_zp)
    cc = complex_sub.add_parser("coindex", help="sound coindex interval")
    cc.add_argument(
        "--complex",
        required=True,
        help='shorthand "en-zp:p=3,n=2" or a complex JSON file',
    )
    cc.add_argument("--n-max", dest="n_max", type=int, default=2)
    cc.set_defaults(runner=_run_complex_coindex)

    markers = groups.add_parser("markers", help="marker search and transfer")
    markers_sub = markers.add_subparsers(dest="action", required=True)
    ms = markers_sub.add_parser(
        "search", help="find a marker or name the cycle that rules one out"
    )
    ms.add_argument(
        "--system",
        required=True,
        help='shorthand "cycles:3,5" or a FiniteSystem JSON file',
    )
    ms.add_argument("--N", type=int, required=True)
    ms.set_defaults(runner=_run_markers_search)
    mt = markers_sub.add_parser("transfer", help="two-way clock-extension transfer")
    mt.add_argument("--system", required=True)
    mt.add_argument("--n", type=int, required=True)
    mt.add_argument("--N", type=int, required=True)
    mt.set_defaults(runner=_run_markers_transfer)

    embed = groups.add_parser("embed", help="metric system into the gap-1 space")
    embed.add_argument("--system", required=True)
    embed.add_argument(
        "--metric",
        default=None,
        help='"uniform:1/4", "random:<seed>", or a JSON distance matrix file',
    )
    embed.add_argument("--epsilon", required=True)
    embed.set_defaults(runner=_run_embed, group="embed", action=None)

    mdim = groups.add_parser("mdim", help="cover calculus and bound pipeline")
    mdim_sub = mdim.add_subparsers(dest="action", required=True)
    md = mdim_sub.add_parser("D", help="exact refinement order of a cover")
    md.add_argument("--model", default="interval", help='"interval" or "en-zp:p=2,n=1"')
    md.add_argument("--cover", default="stars", help='"stars", "trivial", or a JSON file')
    md.add_argument("--cap", type=int, default=1 << 16)
    md.set_defaults(runner=_run_mdim_D)
    mp = mdim_sub.add_parser("pipeline", help="headline interval arithmetic")
    mp.add_argument("--N", type=int, required=True)
    mp.add_argument("--levels", type=int, default=5)
    mp.add_argument("--time-division", dest="time_division", type=int, default=1)
    mp.add_argument("--eta", default=None, help="pick the clock division from a target")
    mp.set_defaults(runner=_run_mdim_pipeline)

    # accept --csv after the subcommand too; SUPPRESS keeps a root-level value
    for leaf in (tv, ta, sc, sj, sw, ce, cc, ms, mt, embed, md, mp):
        leaf.add_argument(
            "--csv", metavar="PATH", default=argparse.SUPPRESS,
            help="also write a CSV summary of the checks",
        )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    try:
        report = args.runner(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"mdkit: error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    for check in report["checks"]:
        print(f"{check['name']}: {check['verdict']}", file=sys.stderr)
    print(f"summary: {report['summary']['verdict']}", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "verdict", "witness"])
            for check in report["checks"]:
                writer.writerow(
                    [check["name"], check["verdict"], json.dumps(check["witness"], sort_keys=True)]
                )
    return 0 if report["summary"]["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
