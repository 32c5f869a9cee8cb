"""Command-line front end.

Subcommands: validate, graph, derivative, supp, jacquet, aubert,
det-formula, gl-det-formula.  Input is a JSON file path, "-" for stdin, or
inline JSON (text starting with "{" or "[").  Output is deterministic:
identical inputs produce byte-identical output.  The JSON outputs of
det-formula, gl-det-formula and jacquet are streamed one term at a time.

Exit codes: 0 success; 1 domain error (the message names the violated
clause); 2 I/O or parse error, reported as "input error: ..." when the input
cannot be read, decoded or parsed, or does not fit the schema, and as
"output error: ..." when standard output cannot be written (a closed pipe, a
full disk); 3 internal error, any other failure, reported as
"internal error: <type>: <message>".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .datum import LadderDatum


class InputError(Exception):
    """The input could not be read, decoded as UTF-8 or parsed as JSON."""


def _read_input(source: str) -> Any:
    try:
        if source.lstrip().startswith(("{", "[")):
            text = source
        elif source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        # bytes that are not UTF-8 reach argv, and stdin under a C locale, as lone surrogates
        text.encode("utf-8")
        return json.loads(text)
    except RecursionError as exc:
        raise InputError("JSON nested too deeply") from exc
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8, bad JSON, huge integers
        raise InputError(str(exc)) from exc


def _emit(data: Any) -> None:
    sys.stdout.write(json.dumps(data, indent=2, sort_keys=True))
    sys.stdout.write("\n")


def _load_datum(source: str) -> LadderDatum:
    from .jsonio import datum_from_json

    return datum_from_json(_read_input(source))


def _pick_rho(d: LadderDatum, requested: str | None) -> str:
    from .core import LadderError

    if requested is not None:
        d.block(requested)
        return requested
    if len(d.blocks) == 1:
        return d.blocks[0].rho.id
    if not d.blocks:
        raise LadderError("datum has no labels")
    raise LadderError("datum has several labels; pass --rho to choose one")


def cmd_validate(args: argparse.Namespace) -> None:
    from .core import LadderError
    from .datum import validate_datum
    from .jsonio import datum_to_json

    d = _load_datum(args.input)
    rank = validate_datum(d)
    if args.expect_rank is not None and rank != args.expect_rank:
        raise LadderError(f"[rank-mismatch]: computed rank {rank}, expected {args.expect_rank}")
    _emit({"ok": True, "group": d.group.value, "rank": rank, "datum": datum_to_json(d)})


def cmd_graph(args: argparse.Namespace) -> None:
    from .datum import validate_datum
    from .graph import build_graph
    from . import render

    d = _load_datum(args.input)
    validate_datum(d)
    blocks = [d.block(args.rho)] if args.rho else list(d.blocks)
    chunks = []
    for b in blocks:
        g = build_graph(b)
        if args.format == "dot":
            chunks.append(render.dot_graph(g))
        else:
            chunks.append(f"label {b.rho.id}:\n{render.ascii_graph(g)}")
    sys.stdout.write("\n\n".join(chunks) + "\n")


def cmd_derivative(args: argparse.Namespace) -> None:
    from .datum import validate_datum
    from .graph import derivative
    from .jsonio import datum_to_json, halfint_from_json

    d = _load_datum(args.input)
    validate_datum(d)
    rho = _pick_rho(d, args.rho)
    result = derivative(d, rho, halfint_from_json(args.x, "--x"))
    if result is None:
        _emit({"zero": True})
    else:
        _emit({"zero": False, "datum": datum_to_json(result)})


def cmd_supp(args: argparse.Namespace) -> None:
    from .graph import supp_ladder

    d = _load_datum(args.input)
    s = supp_ladder(d)
    if args.format == "text":
        from .render import render_support

        sys.stdout.write(render_support(s) + "\n")
    else:
        from .jsonio import support_to_json

        _emit(support_to_json(s))


def cmd_jacquet(args: argparse.Namespace) -> None:
    # no two drops merge, so --raw prints what the merged expansion prints
    d = _load_datum(args.input)
    rho = _pick_rho(d, args.rho)
    if args.format == "text":
        from .graph import jacquet_expansion
        from .render import render_jacquet_term

        for t in jacquet_expansion(d, rho):
            if args.k is None or t.gl_size == args.k:
                sys.stdout.write(render_jacquet_term(t) + "\n")
    else:
        from .graph import jacquet_rows
        from .jsonio import write_jacquet_rows

        rests, rows = jacquet_rows(d, rho)
        if args.k is not None:
            rows = [row for row in rows if row[0] == args.k]
        write_jacquet_rows(rests, rows, sys.stdout)


def cmd_aubert(args: argparse.Namespace) -> None:
    from .datum import langlands_data_of, standard_module_of
    from .graph import aubert_dual
    from . import jsonio

    d = _load_datum(args.input)
    dual = aubert_dual(d)
    data = langlands_data_of(dual)
    _emit(
        {
            "datum": jsonio.datum_to_json(dual),
            "langlands": {
                "segments": [jsonio.segment_to_json(s) for s in data.segments],
                "tempered": jsonio.tempered_to_json(data.tempered),
            },
            "standard_module": jsonio.module_to_json(standard_module_of(dual)),
        }
    )


def cmd_det_formula(args: argparse.Namespace) -> None:
    from .formula import determinantal_formula, expansion_rows, sigma_table
    from .jsonio import write_module_rows

    d = _load_datum(args.input)
    if args.format == "json":
        write_module_rows(d.group, *expansion_rows(d, projected=not args.raw), sys.stdout)
        return
    from . import render  # only the text forms load it

    if args.format == "table":
        sys.stdout.write(render.render_table(sigma_table(d)) + "\n")
    else:
        sys.stdout.write(render.render_element(determinantal_formula(d, projected=not args.raw)) + "\n")


def cmd_gl_det_formula(args: argparse.Namespace) -> None:
    from .jsonio import gl_ladder_from_json

    ladder = gl_ladder_from_json(_read_input(args.input))
    if args.format == "text":
        from .formula import gl_determinantal_formula
        from .render import render_gl_combination

        sys.stdout.write(render_gl_combination(gl_determinantal_formula(ladder)) + "\n")
    else:
        from .formula import gl_rows
        from .jsonio import write_gl_rows

        write_gl_rows(ladder.rho, gl_rows(ladder), sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderrep",
        description="Combinatorics of ladder representations of split odd "
        "orthogonal and symplectic p-adic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="JSON file path, '-' for stdin, or inline JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("validate", cmd_validate, "check a datum and report its rank")
    p.add_argument("--expect-rank", type=int, default=None)

    p = add("graph", cmd_graph, "render the colored graph of each block")
    p.add_argument("--rho", default=None, help="label id (default: all blocks)")
    p.add_argument("--format", choices=["ascii", "dot"], default="ascii")

    p = add("derivative", cmd_derivative, "derivative at a cuspidal twist")
    p.add_argument("--rho", default=None, help="label id (default: the unique label)")
    p.add_argument("--x", required=True, help="exponent, e.g. 2 or -3/2")

    p = add("supp", cmd_supp, "cuspidal support of the ladder representation")
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = add("jacquet", cmd_jacquet, "full Jacquet expansion along one label")
    p.add_argument("--rho", default=None)
    p.add_argument("--k", type=int, default=None, help="keep only GL size k terms")
    p.add_argument("--raw", action="store_true", help="one term per tuple (no two merge: the same output)")
    p.add_argument("--format", choices=["json", "text"], default="json")

    add("aubert", cmd_aubert, "dual datum and its Langlands data")

    p = add("det-formula", cmd_det_formula, "signed standard-module expansion")
    p.add_argument("--raw", action="store_true", help="skip the support projection")
    p.add_argument("--format", choices=["json", "text", "table"], default="json")

    p = add("gl-det-formula", cmd_gl_det_formula, "general-linear ladder expansion")
    p.add_argument("--format", choices=["json", "text"], default="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    from .core import LadderError
    from .jsonio import SchemaError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
        sys.stdout.flush()  # a write error surfaces here, not at exit
    except LadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reading raises InputError, so this is a failed write
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
