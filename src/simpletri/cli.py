"""Command line interface.

Exit codes are a stable scripting contract: 0 accept, 1 reject (or oracle
disagreement), 2 input error.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import ParseError, SimpleTriError
from .graphs import find_pattern, fulfills_c4_rule
from .io import _natural, emit_representation, load_graph, load_order
from .oracles import (
    DEFAULT_LIMIT,
    all_transitive_complements_extend,
    geometric_search_realization,
    has_alternating_transitive_pair,
)
from .orders import (
    Anticycle,
    build_interval_representation,
    enumerate_linear_extensions,
    recognize_linear_interval_order,
)
from .patterns import APEX_PATTERNS
from .recognition import (
    apex_ordering,
    check_apex_ordering,
    least_apex_ordering,
    realize,
    rejection_certificates,
)
# bench/tracing.py wraps these three cli names, which no command calls
from .oracles import exact_triangle_intersection, random_triangle_pair  # noqa: F401
from .recognition import recognize  # noqa: F401

REJECT_MESSAGE = "not a simple-triangle graph"


def _parse_ordering(text: str, n: int) -> tuple[int, ...]:
    try:
        parts = text.split(",") if text.strip() else ()  # only whitespace: the empty ordering
        ordering = tuple(_natural(part.strip()) for part in parts)
    except ValueError:
        raise ParseError(f"ordering {text!r} is not a comma-separated int list") from None
    if sorted(ordering) != list(range(n)):
        wrong = (f"is not a permutation of 0..{n - 1}" if n
                 else "must be empty: the input has no elements")
        raise ParseError(f"ordering {text!r} {wrong}")
    return ordering


def _emit(say, label: str, seq: Sequence[int]) -> None:
    say(f"{label}: " + " ".join(str(v) for v in seq))


def _say_intervals(say, rep) -> None:
    say(
        "intervals: "
        + " ".join(f"{v}:[{lo},{hi}]" for v, (lo, hi) in enumerate(rep.intervals))
    )


def _say_anticycle(say, ac: Anticycle) -> None:
    _emit(say, "anticycle a", ac.a)
    _emit(say, "anticycle b", ac.b)


def cmd_recognize(args, say) -> int:
    g = load_graph(args.graph)
    ordering = least_apex_ordering(g)
    if ordering is None:
        say(REJECT_MESSAGE)
        if args.witness:
            for prefix, name, verts in rejection_certificates(g):
                say(
                    "rejected prefix "
                    + ",".join(map(str, prefix))
                    + f": {name} witness "
                    + ",".join(map(str, verts))
                )
        return 1
    say(" ".join(str(v) for v in ordering))
    return 0


def cmd_represent(args, say) -> int:
    g = load_graph(args.graph)
    ordering = apex_ordering(g)
    if ordering is None:
        say(REJECT_MESSAGE)
        return 1
    document = emit_representation(realize(g, ordering), args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        sys.stdout.write(document if document.endswith("\n") else document + "\n")
    return 0


def cmd_check_ordering(args, say) -> int:
    g = load_graph(args.graph)
    ordering = _parse_ordering(args.ordering, g.n)
    accepted = check_apex_ordering(g, ordering)
    # only a rejected ordering is scanned, for its witnesses: an apex ordering
    # meets the C4 rule, whose two patterns contain p2 and p1
    witnesses = {
        name: None if accepted else find_pattern(g, ordering, pat) for name, pat in APEX_PATTERNS
    }
    say(f"cocomparability: {'yes' if witnesses['cpc'] is None else 'no'}")
    say(f"C4 rule: {'yes' if accepted or fulfills_c4_rule(g, ordering) else 'no'}")
    for name, witness in witnesses.items():
        say(f"{name}: " + ("none" if witness is None else ",".join(map(str, witness))))
    say(f"apex ordering: {'yes' if accepted else 'no'}")
    return 0 if accepted else 1


def cmd_order_recognize(args, say) -> int:
    p = load_order(args.order)
    result = recognize_linear_interval_order(p)
    if result is None:
        say("not a linear-interval order")
        first = next(enumerate_linear_extensions(p))
        _emit(say, "witness extension", first)
        # an Anticycle: a rejected order has a 4-anticycle in every extension
        _say_anticycle(say, build_interval_representation(p, first))
        return 1
    ext, rep = result
    _emit(say, "extension", ext)
    _say_intervals(say, rep)
    return 0


def cmd_order_intervals(args, say) -> int:
    p = load_order(args.order)
    ext = _parse_ordering(args.extension, p.n)
    result = build_interval_representation(p, ext)
    if isinstance(result, Anticycle):
        say("no interval representation for this extension")
        _say_anticycle(say, result)
        return 1
    _say_intervals(say, result)
    return 0


def cmd_oracle_verify(args, say) -> int:
    """Report the recognizer and the three oracles on the input graph, and
    agree only if each oracle answers as the recognizer's verdict implies."""
    g = load_graph(args.graph)
    # first, so that a graph over the limit fails before a line is printed
    oracle_rep = geometric_search_realization(g, limit=args.limit)
    ordering = apex_ordering(g)
    rec = None if ordering is None else realize(g, ordering)
    say(f"recognize: {'accept' if rec is not None else 'reject'}")
    say(f"geometric search: {'realizable' if oracle_rep else 'none'}")
    agree = (rec is None) == (oracle_rep is None)
    pair = has_alternating_transitive_pair(g, limit=args.limit)
    say(f"alternating/transitive pair: {'yes' if pair else 'no'}")
    agree = agree and pair == (rec is not None)
    if rec is not None:
        extend = all_transitive_complements_extend(g, limit=args.limit)
        say(f"complement orientations extend: {'yes' if extend else 'no'}")
        agree = agree and extend
    say("agreement: " + ("ok" if agree else "MISMATCH"))
    return 0 if agree else 1


# The command tree, as (help, arguments, handler or table of sub-commands),
# where arguments maps space-separated flags to ``add_argument`` keywords.  It
# both builds the parser and dispatches, through the ``handler`` default.
ROOT = ("Recognize simple-triangle graphs and linear-interval orders.", {
    "--limit": dict(type=int, default=DEFAULT_LIMIT, help="oracle size cap"),
    "--quiet": dict(action="store_true", help="suppress output"),
}, {
    "recognize": ("test a graph file", {
        "graph": {}, "--witness": dict(action="store_true", help="print pruning certificates"),
    }, cmd_recognize),
    "represent": ("recognize and emit a representation", {
        "graph": {},
        "-o --output": dict(default=None),
        "--format": dict(choices=("structured", "svg"), default="structured"),
    }, cmd_represent),
    "check-ordering": ("evaluate one vertex ordering", {
        "graph": {}, "ordering": dict(help="comma-separated vertex list"),
    }, cmd_check_ordering),
    "order": ("partial order commands", {}, {
        "recognize": ("linear-interval order test", {"order": {}}, cmd_order_recognize),
        "intervals": ("interval construction for one extension", {
            "order": {}, "extension": dict(help="comma-separated element list"),
        }, cmd_order_intervals),
    }),
    "oracle": ("brute-force cross checks", {}, {
        "verify": ("compare recognizer with the oracles", {"graph": {}}, cmd_oracle_verify),
    }),
})


def _add_command(
    parser: argparse.ArgumentParser, command: tuple, dest: str, argv: Sequence[str]
) -> None:
    """Add ``command``'s arguments and sub-commands to ``parser``.

    Only the sub-command that ``argv`` selects is built when the tokens
    before it are ``command``'s options, spelt in full, and their values;
    otherwise (no command, ``-h``, an abbreviation, ``--``) all of them are,
    so that help and ``invalid choice`` errors list every one.  A narrowed
    level names every choice in its metavar, so its usage line reads as the
    full one's.
    """
    _, arguments, run = command
    for flags, options in arguments.items():
        parser.add_argument(*flags.split(), **options)
    if not isinstance(run, dict):
        parser.set_defaults(handler=run)
        return
    i = 0
    while i < len(argv) and argv[i].split("=")[0] in arguments:
        i += 1 if "=" in argv[i] or arguments[argv[i]].get("action") == "store_true" else 2
    narrow = i < len(argv) and argv[i] in run
    sub = parser.add_subparsers(
        dest=dest, required=True, metavar="{" + ",".join(run) + "}" if narrow else None
    )
    for name in argv[i : i + 1] if narrow else run:
        child = sub.add_parser(name, help=run[name][0])
        _add_command(child, run[name], "subcommand", argv[i + 1 :] if narrow else ())


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(prog="simpletri", description=ROOT[0])
    _add_command(parser, ROOT, "command", argv)
    args = parser.parse_args(argv)

    def say(message: str) -> None:
        if not args.quiet:
            print(message)

    try:
        return args.handler(args, say)
    except (SimpleTriError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
