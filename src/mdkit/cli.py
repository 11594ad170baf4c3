"""Batch entry point: build objects, run verification suites, emit reports.

Reports are deterministic JSON on stdout (same config, byte-identical
output), a short human summary goes to stderr, and the exit code is 0 when
every check passes, 1 when some verification fails, 2 on configuration or
usage errors and on a stdout closed before the report is written.  An
optional CSV summary of the per-check records can be written alongside.  A
report's ``config`` holds every option of its command as parsed
(``--delta 2/4`` reads "1/2"), plus what the run worked out from them, such
as the conjugacy's k; its ``command`` is the command's words.

Every command and its options are declared once, in ``_COMMANDS``.  A
command costs well under a millisecond, so ``main`` reads its options by one
walk over argv against its leaf's option table, looked up by its leading
words ("tower verify", ..., "embed") and built from the command's row on
first use: 2-4 us per command (Python 3.11.7, 2-CPU x86-64 VM).  The walk
reads plain ``--opt value`` and ``--opt=value`` options only; anything else,
help and every usage error among them, goes to the argparse tree that
``build_parser`` builds from the same table.  Before Python 3.13 the
indented report is written by a private one-pass writer instead of
``json.dumps``, whose indenting encoder is pure Python there.  The walk gives
the tree's namespaces and the writer ``json.dumps``'s text, byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import random
import stat
import sys
from fractions import Fraction

from . import __version__
from .complexes import (
    FreeZpComplex,
    build_en_zp,
    check_free_action,
    coindex_bounds,
    homology_euler_consistent,
    reduced_homology_groups,
)
from .finite import (
    FiniteSystem,
    Metric,
    _validate_metric,
    check_embed_size,
    check_search_size,
    check_transfer_size,
    embed_into_universal,
    marker_search,
    metric_from_json,
    random_metric,
    verify_marker_transfer,
)
from .meandim import (
    MAX_COVER_NODES,
    Cover,
    SearchCapExceeded,
    cover_D,
    cover_ord,
    face_lattice,
    headline_pipeline,
    interval_lattice,
    select_time_division,
    star_cover,
)
from .shiftspace import (
    check_membership,
    count_periodic_sft,
    count_periodic_sft_bruteforce,
    gap_space,
    periodic_set_empty,
    periodic_witness,
    sample_gap_window,
    seq_to_json,
    verify_conjugacy_diagram,
)
from .torus import _shown, frac_from_str, frac_to_str
from .tower import (
    check_verify_size,
    random_anchor,
    tower_aperiodicity_report,
    verify_section,
    zero_anchor,
)


def _check(name: str, statement: str, ok: bool, witness=None) -> dict:
    return {
        "name": name,
        "statement": statement,
        "verdict": "pass" if ok else "fail",
        "witness": witness,
    }


def _report(args: argparse.Namespace, checks: list[dict], **parsed) -> dict:
    """The report of a leaf's run: ``config`` holds every option of the leaf
    by its dest, with ``parsed`` giving the values the runner parsed or
    worked out in place of the text given, and ``command`` is the leaf's words."""
    words = (args.group,) if args.action is None else (args.group, args.action)
    config = {dest: getattr(args, dest) for dest in _leaf_table(words)[2]}
    config.update(parsed)
    failures = sum(1 for c in checks if c["verdict"] != "pass")
    return {
        "toolkit": f"mdkit {__version__}",
        "command": " ".join(words),
        "config": config,
        "checks": checks,
        "summary": {
            "verdict": "pass" if failures == 0 else "fail",
            "checks": len(checks),
            "failures": failures,
        },
    }


def _int(text: str) -> int:
    """An integer option's value; argparse would echo a plain ValueError's text whole."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"integer {_shown(text)} is not read") from None


def _parse_window(text: str) -> tuple[int, int]:
    """--window A:B denotes the half-open integer interval [A, B)."""
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"window {_shown(text)} is not of the form A:B with integers A and B") from None
    if hi <= lo:
        raise ValueError("window must be a nonempty half-open interval A:B")
    return lo, hi


def _parse_system(text: str, check_size) -> FiniteSystem:
    """Generator shorthand "cycles:3,5" or a path to a FiniteSystem JSON file,
    its metric only shape-checked (``embed`` checks it itself); ``check_size``
    refuses a point count, a shorthand's before any point is built."""
    if text.startswith("cycles:"):
        try:
            lengths = [int(part) for part in text.split(":", 1)[1].split(",")]
        except ValueError:
            raise ValueError(
                f"system shorthand {_shown(text)} is not of the form cycles:L1,L2,... "
                "with integer cycle lengths"
            ) from None
        if min(lengths) < 1:
            raise ValueError("cycle lengths must be >= 1")
        check_size(sum(lengths))
        return FiniteSystem.from_cycle_lengths(lengths)
    system = FiniteSystem.from_json(_read_json(text))
    check_size(system.size)
    return system


def _parse_complex(text: str) -> FreeZpComplex:
    """Generator shorthand "en-zp:p=3,n=2", built valid, or a path to a
    complex JSON file, validated by ``FreeZpComplex.from_json``."""
    if text.startswith("en-zp:"):
        try:
            parts = [part.split("=") for part in text.split(":", 1)[1].split(",")]
            params = {key: int(value) for key, value in parts}
            if len(parts) != 2 or set(params) != {"p", "n"}:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"complex shorthand {_shown(text)} is not of the form en-zp:p=P,n=N with integers"
            ) from None
        return build_en_zp(params["p"], params["n"])
    return FreeZpComplex.from_json(_read_json(text))


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            reason = exc
        except UnicodeDecodeError:
            reason = "it is not UTF-8 text"
        except ValueError:  # a plain ValueError: an integer over Python's digit limit
            reason = "an integer is too long"
    raise ValueError(f"JSON file {_shown(path)} is not read: {reason}")


# ---------------------------------------------------------------------------
# Runners


def _run_tower_verify(args) -> dict:
    m = args.m
    if m < 2:
        raise ValueError("tower verify needs --m >= 2: it samples windows of level m - 1 >= 1")
    if args.samples < 1:
        raise ValueError("tower verify needs --samples >= 1: zero samples would check nothing")
    if args.N < 1:
        # refused before any size product: zero_anchor repeats a tuple N times
        raise ValueError(
            "tower verify needs --N >= 1: the alphabet dimension must be positive, "
            f"got {_shown(args.N)}"
        )
    delta = frac_from_str(args.delta)
    lo, hi = _parse_window(args.window)
    plan = check_verify_size(m, lo, hi, args.samples, args.N)
    rng = random.Random(args.seed)
    identity_failures = range_failures = 0
    partition_totals = {"base_block": 0, "upper_tail": 0, "lower_tail": 0}
    zero = zero_anchor(args.N, m)
    for _ in range(args.samples):
        window = sample_gap_window(args.N, plan.stride, delta, lo, hi - lo, rng)
        head = zero if args.anchors == "zero" else random_anchor(args.N, m, rng)
        report = verify_section(m, head, window, delta)
        identity_failures += bool(report.identity_failures)
        range_failures += bool(report.range_failures)
        for key, value in report.partition_counts.items():
            partition_totals[key] += value
    checks = [
        _check(
            "section-identity",
            "factor composed with section is the identity, exactly, on the full overlap",
            identity_failures == 0,
            {"samples": args.samples, "failures": identity_failures},
        ),
        _check(
            "section-range",
            "the section of a valid window satisfies the next level's gap constraint",
            range_failures == 0,
            {"samples": args.samples, "failures": range_failures},
        ),
        _check(
            "range-case-partitions",
            "checkable section outputs split into base block, upper tail, lower tail",
            True,
            partition_totals,
        ),
    ]
    return _report(args, checks, delta=frac_to_str(delta), window=[lo, hi])


def _run_tower_aperiodicity(args) -> dict:
    delta = frac_from_str(args.delta)
    checks = [
        # the statement is the check's own field; the rest of the fresh record is its witness
        _check(f"prime-{cert['prime']}", cert.pop("statement"), cert["verified"], cert)
        for cert in tower_aperiodicity_report(args.N, delta, args.m_max, args.p_max)
    ]
    return _report(args, checks, delta=frac_to_str(delta))


def _run_shift_count_periodic(args) -> dict:
    if args.n_max < 1:
        raise ValueError("shift count-periodic needs --n-max >= 1: a smaller bound would check nothing")
    forbidden = frozenset(args.forbidden.split(","))
    counts = count_periodic_sft(forbidden, args.n_max)
    brutes = count_periodic_sft_bruteforce(forbidden, args.n_max)
    checks = [
        _check(
            f"count-n{n:02d}",
            "transfer-matrix count equals exhaustive circular enumeration",
            count == brute,
            {"n": n, "count": count, "bruteforce": brute},
        )
        for n, (count, brute) in enumerate(zip(counts, brutes), 1)
    ]
    return _report(args, checks, forbidden=sorted(forbidden))


def _run_shift_conjugacy(args) -> dict:
    delta = frac_from_str(args.delta)
    k, identities = verify_conjugacy_diagram(args.N, args.m, delta, args.p, args.samples, args.seed)
    checks = [
        _check(
            ident.name,
            ident.statement,
            ident.ok,
            {"checked": ident.checked, **({"failures": list(ident.failures)} if ident.failures else {})},
        )
        for ident in identities
    ]
    return _report(args, checks, delta=frac_to_str(delta), k=k)


def _run_shift_witness(args) -> dict:
    delta = frac_from_str(args.delta)
    found = periodic_witness(args.N, args.m, delta, args.p)
    if found.witness is None:
        # checked by the rule's interval form, not by the comparison that decided it
        statement = f"{found.statement}: the gap space has no period-{args.p} point"
        check = _check("no-periodic-point", statement, periodic_set_empty(args.N, args.m, delta, args.p))
    else:
        membership = check_membership(gap_space(args.N, args.m, delta), found.witness)
        check = _check(
            "witness-membership",
            "the explicit periodic point satisfies the gap constraint at every residue",
            membership.passed,
            {"witness": seq_to_json(found.witness)},
        )
    return _report(args, [check], delta=frac_to_str(delta))


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
    groups = reduced_homology_groups(complex_)
    for k, group in enumerate(groups[: args.n]):
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
            homology_euler_consistent(complex_, groups),
            {"euler": complex_.euler_characteristic()},
        )
    )
    return _report(args, checks)


def _run_complex_coindex(args) -> dict:
    if args.n_max < 0:
        raise ValueError("complex coindex needs --n-max >= 0: a smaller bound would search nothing")
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
    return _report(args, checks)


def _run_markers_search(args) -> dict:
    system = _parse_system(args.system, check_search_size)
    # a search whose subset fails its verifier raises instead of returning
    cert = marker_search(system, args.N)
    checks = [
        _check(
            "marker-search",
            "search completed; any returned subset re-verified independently",
            True,
            cert.to_json(system),
        )
    ]
    return _report(args, checks)


def _run_markers_transfer(args) -> dict:
    system = _parse_system(args.system, lambda size: check_transfer_size(size, args.n))
    forward, backward = verify_marker_transfer(system, args.n, args.N)
    violations = backward.get("violations")
    checks = [
        _check(
            "forward",
            "a base marker placed at phase zero is a marker of the clock extension",
            forward["ok"],
            {"detail": forward["detail"]},
        ),
        _check(
            "backward",
            "every extension marker projects to a marker of the phase-zero power subsystem",
            backward["ok"],
            {"detail": backward["detail"], **({"violations": violations} if violations else {})},
        ),
    ]
    return _report(args, checks)


def _parse_metric(text: str, size: int) -> Metric:
    """Shorthand "uniform:1/4" or "random:<seed>", or a path to a JSON
    distance matrix.  A random table is a metric by construction (see
    ``random_metric``); a uniform table is one exactly when it has fewer
    than two points or a nonnegative value, since then v <= v + v; a file
    is validated here."""
    if text.startswith("random:"):
        try:
            seed = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"metric shorthand {_shown(text)} is not of the form random:<seed> "
                "with an integer seed"
            ) from None
        return random_metric(random.Random(seed), size)
    if text.startswith("uniform:"):
        value = frac_from_str(text.split(":", 1)[1])
        if size >= 2 and value < 0:
            raise ValueError("metric must be nonnegative")
        k = value.numerator
        rows = tuple(tuple(0 if i == j else k for j in range(size)) for i in range(size))
        return Metric(rows, value.denominator)
    metric = metric_from_json(_read_json(text))
    _validate_metric(metric, size)
    return metric


def _run_embed(args) -> dict:
    epsilon = frac_from_str(args.epsilon)
    # the size is refused before any metric value is checked, and --metric
    # replaces a system file's metric
    system = _parse_system(args.system, check_embed_size)
    if args.metric is not None:
        metric = _parse_metric(args.metric, system.size)
        system = FiniteSystem(system.points, system.perm, metric)
    elif system.metric is not None:
        _validate_metric(system.metric, system.size)
    report = embed_into_universal(system, epsilon)
    checks = [
        _check(
            "embedding-collisions",
            "image collisions happen only below epsilon",
            report.embedding.collision_ok,
            {"n_coords": report.embedding.n_coords, "scale": frac_to_str(report.embedding.scale)},
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
    return _report(args, checks)


def _run_mdim_D(args) -> dict:
    if args.cap < 1:
        raise ValueError("--cap must be >= 1")
    if args.model == "interval":
        lattice = interval_lattice()
    elif args.model.startswith("en-zp:"):
        lattice = face_lattice(_parse_complex(args.model))
    else:
        raise ValueError(f"unknown lattice model {_shown(args.model)}")
    if args.cover == "stars":
        cover = star_cover(lattice)
    elif args.cover == "trivial":
        cover = Cover((lattice.ground,))
    else:
        cover = _load_cover(args.cover)
    value = cover_D(lattice, cover, cap=args.cap)
    checks = [
        _check(
            "cover-D",
            "exact minimum order over refining covers by lattice opens",
            True,
            {"D": value, "ord": cover_ord(cover)},
        )
    ]
    return _report(args, checks)


def _load_cover(path: str) -> Cover:
    data = _read_json(path)
    if isinstance(data, list) and all(isinstance(m, list) for m in data):
        try:
            return Cover(tuple(frozenset(map(_json_atom, m)) for m in data))
        except TypeError:  # an atom that stays unhashable, such as a JSON object
            pass
    raise ValueError(f"cover file {_shown(path)} must hold a JSON list of atom lists")


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
    bound = headline_pipeline(width, n)
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
    return _report(args, checks, time_division=n)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


_REQUIRED = object()

_CSV_HELP = "also write a CSV summary of the checks"

# the help of each group of two-word commands
_GROUPS = {
    "tower": "factor/section tower suites",
    "shift": "sequence-space suites",
    "complex": "free complex suites",
    "markers": "marker search and transfer",
    "mdim": "cover calculus and bound pipeline",
}

# Every command, keyed by the words that select it, in the order help lists
# them: its runner, its help, and each option as (flag, type or a tuple of
# choices, default or _REQUIRED, help).  An option's dest is its flag's name,
# as argparse derives it: "--m-max" is m_max.  ``build_parser`` builds the
# parser tree from these rows and ``_leaf_table`` each leaf's option table,
# so a command and its options are declared here once.
_COMMANDS = {
    ("tower", "verify"): (_run_tower_verify, "section identity and range checks",
        ("--m", _int, _REQUIRED, "tower level (>= 2)"),
        ("--N", _int, 1, "alphabet dimension"),
        ("--delta", str, "1/2", "distance threshold, e.g. 1/2"),
        ("--window", str, _REQUIRED, "half-open index interval A:B for the sampled input windows"),
        ("--samples", _int, 20, None),
        ("--seed", _int, 0, None),
        ("--anchors", ("zero", "random"), "zero", None)),
    ("tower", "aperiodicity"): (_run_tower_aperiodicity, "per-prime period certificates",
        ("--m-max", _int, _REQUIRED, None),
        ("--N", _int, 1, None),
        ("--delta", str, "1/2", None),
        ("--p-max", _int, _REQUIRED, None)),
    ("shift", "count-periodic"): (_run_shift_count_periodic, "binary SFT periodic counts",
        ("--n-max", _int, 14, None),
        ("--forbidden", str, "000,111", None)),
    ("shift", "conjugacy"): (_run_shift_conjugacy, "index-dilation conjugacy diagram",
        ("--p", _int, _REQUIRED, None),
        ("--m", _int, _REQUIRED, None),
        ("--N", _int, 1, None),
        ("--delta", str, "1/2", None),
        ("--samples", _int, 20, None),
        ("--seed", _int, 0, None)),
    ("shift", "witness"): (_run_shift_witness, "explicit periodic gap-space point",
        ("--p", _int, _REQUIRED, None),
        ("--m", _int, _REQUIRED, None),
        ("--N", _int, 1, None),
        ("--delta", str, "1/2", None)),
    ("complex", "en-zp"): (_run_complex_en_zp, "standard free complex battery",
        ("--p", _int, _REQUIRED, None),
        ("--n", _int, _REQUIRED, None)),
    ("complex", "coindex"): (_run_complex_coindex, "sound coindex interval",
        ("--complex", str, _REQUIRED, 'shorthand "en-zp:p=3,n=2" or a complex JSON file'),
        ("--n-max", _int, 2, None)),
    ("markers", "search"): (_run_markers_search, "find a marker or name the cycle that rules one out",
        ("--system", str, _REQUIRED, 'shorthand "cycles:3,5" or a FiniteSystem JSON file'),
        ("--N", _int, _REQUIRED, None)),
    ("markers", "transfer"): (_run_markers_transfer, "two-way clock-extension transfer",
        ("--system", str, _REQUIRED, None),
        ("--n", _int, _REQUIRED, None),
        ("--N", _int, _REQUIRED, None)),
    ("embed",): (_run_embed, "metric system into the gap-1 space",
        ("--system", str, _REQUIRED, None),
        ("--metric", str, None, '"uniform:1/4", "random:<seed>", or a JSON distance matrix file'),
        ("--epsilon", str, _REQUIRED, None)),
    ("mdim", "D"): (_run_mdim_D, "exact refinement order of a cover",
        ("--model", str, "interval", '"interval" or "en-zp:p=2,n=1"'),
        ("--cover", str, "stars", '"stars", "trivial", or a JSON file'),
        ("--cap", _int, MAX_COVER_NODES, None)),
    ("mdim", "pipeline"): (_run_mdim_pipeline, "headline interval arithmetic",
        ("--N", _int, _REQUIRED, None),
        ("--time-division", _int, 1, None),
        ("--eta", str, None, "pick the clock division from a target")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree of ``_COMMANDS``, built on first use and shared by
    later calls.  It parses the argv the leaf walk leaves, and prints every
    help text and usage error."""
    parser = argparse.ArgumentParser(
        prog="mdkit",
        description=(
            "Exact-rational verification suites for torus-alphabet subshifts, "
            "factor/section towers, free prime-order complexes, markers, and "
            "mean-dimension bounds."
        ),
    )
    parser.add_argument("--csv", metavar="PATH", default=None, help=_CSV_HELP)
    groups = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for words, (runner, text, *options) in _COMMANDS.items():
        if len(words) == 1:
            leaf = groups.add_parser(words[0], help=text)
            leaf.set_defaults(action=None)
        else:
            if words[0] not in actions:
                group = groups.add_parser(words[0], help=_GROUPS[words[0]])
                actions[words[0]] = group.add_subparsers(dest="action", required=True)
            leaf = actions[words[0]].add_parser(words[1], help=text)
        for flag, kind, default, option_help in options:
            choices = kind if isinstance(kind, tuple) else None
            leaf.add_argument(
                flag, type=None if choices else kind, choices=choices, required=default is _REQUIRED,
                default=None if default is _REQUIRED else default, help=option_help,
            )
        # accept --csv after the leaf too; SUPPRESS keeps a root-level value
        leaf.add_argument("--csv", metavar="PATH", default=argparse.SUPPRESS, help=_CSV_HELP)
        leaf.set_defaults(runner=runner)
    return parser


@functools.cache
def _leaf_table(words: tuple[str, ...]) -> tuple[dict[str, tuple], dict, tuple[str, ...]]:
    """The option table of the leaf ``words`` names, from its row of
    ``_COMMANDS``: each option by flag as (dest, type, choices), --csv among
    them; the namespace the parser tree builds before any option is read,
    with _REQUIRED in place of the None a required option starts as; and the
    dests of the leaf's own options."""
    runner, _, *rows = _COMMANDS[words]
    options, defaults = {"--csv": ("csv", None, None)}, {}
    for flag, kind, default, _ in rows:
        dest = flag[2:].replace("-", "_")
        options[flag] = (dest, None, kind) if isinstance(kind, tuple) else (dest, kind, None)
        defaults[dest] = default
    action = words[1] if len(words) > 1 else None
    namespace = {"csv": None, "group": words[0], "action": action, **defaults, "runner": runner}
    return options, namespace, tuple(defaults)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives, by the leaf where it can."""
    args = _parse_at_leaf(argv)
    return build_parser().parse_args(argv) if args is None else args


def _parse_at_leaf(argv: list[str]) -> argparse.Namespace | None:
    """The tree's namespace for ``argv``, read from its leaf's option table.

    Only plain single-value options are read, as ``--opt value`` (a value
    that does not start with "-") or ``--opt=value`` (a nonempty value other
    than "--", which argparse reads as no value before 3.13), each checked by
    its type and choices; a repeated option keeps its last value.  Anything
    else gives None and the tree parses argv, printing its own help or error:
    argv naming no leaf (--csv before the group, -h), -h or "--", an unknown
    or abbreviated option, a bad value or a missing required option.
    """
    words = tuple(argv[:2])
    if words not in _COMMANDS:
        words = words[:1]
        if words not in _COMMANDS:
            return None
    options, namespace, _ = _leaf_table(words)
    values = dict(namespace)
    rest = iter(argv[len(words):])
    for arg in rest:
        if arg in options:
            option, value = arg, next(rest, None)
            if value is None or value.startswith("-"):
                return None
        else:
            option, _, value = arg.partition("=")
            if option not in options or value in ("", "--"):
                return None
        dest, type_, choices = options[option]
        if type_ is not None:
            try:
                value = type_(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return None if _REQUIRED in values.values() else argparse.Namespace(**values)


# ---------------------------------------------------------------------------
# Report output


_escape = json.encoder.encode_basestring_ascii


def _indented_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, written in one pass.

    Before Python 3.13 the C encoder cannot indent, so ``json.dumps`` runs
    its pure-Python encoder, a chain of generators.  This writer appends to
    one list and escapes strings with the same C function ``json`` uses.  It
    takes str keys, str, int, bool, None, list, tuple and dict only; anything
    else, a float or a ``Fraction`` among them, raises TypeError.
    """
    parts: list[str] = []
    _write_json(value, parts, "\n")
    return "".join(parts)


def _write_json(value, parts: list[str], newline: str) -> None:
    if isinstance(value, str):
        parts.append(_escape(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(separator)
            parts.append(_escape(key))
            parts.append(": ")
            _write_json(value[key], parts, inner)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _closed_stdout(lost: str) -> int:
    """Exit 2 for a stdout whose reader is gone: fd 1 goes to os.devnull, so
    the flush at exit prints nothing, and one line names what was lost."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    print(f"mdkit: error: stdout was closed before the {lost} was written", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit:
        # help is printed to a buffered stdout: flushed here, a closed reader
        # gets the one line a report gets, not the exit-time flush's error
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            return _closed_stdout("help")
        raise
    try:
        report = args.runner(args)
        # opened before the report is printed, so a path that fails to open
        # prints no report
        summary = open(args.csv, "w", newline="", encoding="utf-8") if args.csv else None
    except (ValueError, SearchCapExceeded, OSError) as exc:
        reason = exc
        if isinstance(exc, OSError) and exc.filename is not None:
            # a path may hold 4,096 bytes: name it cut short
            reason = f"{exc.strerror}: {_shown(exc.filename)}"
        print(f"mdkit: error: {reason}", file=sys.stderr)
        return 2
    with summary or contextlib.nullcontext():
        # from 3.13 the C encoder indents, and is faster than the writer there
        if sys.version_info >= (3, 13):
            text = json.dumps(report, sort_keys=True, indent=2)
        else:
            text = _indented_json(report)
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            if summary is not None:
                # no report, so no summary: a regular file opened for it goes;
                # a device or pipe such as /dev/null is only closed
                regular = stat.S_ISREG(os.fstat(summary.fileno()).st_mode)
                summary.close()
                if regular:
                    with contextlib.suppress(OSError):
                        os.remove(args.csv)
            return _closed_stdout("report")
        for check in report["checks"]:
            print(f"{check['name']}: {check['verdict']}", file=sys.stderr)
        print(f"summary: {report['summary']['verdict']}", file=sys.stderr)
        if summary is not None:
            writer = csv.writer(summary)
            writer.writerow(["name", "verdict", "witness"])
            for check in report["checks"]:
                writer.writerow(
                    [check["name"], check["verdict"], json.dumps(check["witness"], sort_keys=True)]
                )
    return 0 if report["summary"]["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
