"""Command-line surface: generation, ring arithmetic, ideal tooling,
element classification, chain reports, and the verification suite.

Identical arguments (and seed) always produce byte-identical output: a
command reads only its command line and the files it names.
``main`` is the whole pipeline.  It resolves every input from outside
the program (the ideal spec, then the sequence files, then the window),
calls the command with the resolved values, and renders and writes the
result once: ``--out`` gets exactly the bytes stdout would get, for
every command including ``verify-paper``.  Only the command that argv
names gets its arguments in the parser, and the commands that run
``zoo``, ``ideals``, ``structure`` or ``verify`` import it, so no other
command loads it.  Every integer from outside the program, in an option or
an ideal spec, is an optional sign and ASCII digits
(``seqfile.is_decimal``); ``int`` alone would also take underscores,
whitespace and other scripts' digits.
"""

from __future__ import annotations

import argparse
import sys

from . import seqfile
from .ring import EXACT, FLOAT, NotDivisibleWitness, try_divide

COMPUTE_ERROR = 1
VERIFY_FAILURE = 3

DEFAULT_N = 256
DEFAULT_SEED = 0
MODES = (EXACT, FLOAT)
# the most digits in an integer read or written, in place of Python's 4300;
# conversion is quadratic: 0.08 s to read, 0.2 s to write (2-vCPU Xeon, 3.11)
MAX_DIGITS = 100_000


def integer(text: str) -> int:
    """An integer option: an optional sign and ASCII digits.  argparse
    reports any other text as an ``invalid integer value``."""
    if not seqfile.is_decimal(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_ideal_spec(text: str) -> IdealSpec:
    """Parse a compact spec string.

    Grammar: ``maximal`` | ``I:n`` | ``K:n`` | ``P:m`` | ``P:m,k`` |
    ``J:p1,p2,...`` (allow mode) | ``J:~p1,p2,...`` (complement mode),
    with whitespace allowed around each number.
    """
    from .ideals import IdealSpec

    text = text.strip()
    if text == "maximal":
        return IdealSpec.maximal()
    if ":" not in text:
        raise ValueError(f"cannot parse ideal spec {text!r}")
    tag, _, body = text.partition(":")
    tag = tag.strip().upper()
    if tag not in ("I", "K", "P", "J"):
        raise ValueError(f"unknown ideal family {tag!r}")
    body = body.strip()
    complement = tag == "J" and body.startswith("~")
    parts = [x.strip() for x in (body[1:] if complement else body).split(",")]
    if not all(map(seqfile.is_decimal, parts)) or tag in ("I", "K") and len(parts) > 1:
        raise ValueError(f"cannot parse ideal spec {text!r}")
    nums = [int(x) for x in parts]
    if tag == "I":
        return IdealSpec.norm_floor(nums[0])
    if tag == "K":
        return IdealSpec.prime_tail(nums[0])
    if tag == "J":
        return IdealSpec.prime_products(tuple(nums), complement=complement)
    if len(nums) == 1:
        return IdealSpec.coprime_vanishing(nums[0])
    if len(nums) == 2:
        return IdealSpec.gcd_count(nums[0], nums[1])
    raise ValueError("P takes one parameter (P:m) or two (P:m,k)")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command, where only the command that ``argv``
    names, and ideal's subcommand that it names, gets its arguments: a
    process builds none of the others, whose names and help lines alone
    make the usage, the help and the errors of the levels above.  With
    ``argv`` None, every command gets its arguments."""
    # the top level and ideal take no option with a value, so their
    # commands are argv's first two words that are not options
    words = None if argv is None else [a for a in argv if not a.startswith("-")][:2]
    parser = argparse.ArgumentParser(
        prog="dirichlet",
        description="Exact arithmetic in the ring of arithmetical functions "
        "under Dirichlet convolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, help_text, level=0):
        """The subparser ``name``, and whether to give it its arguments."""
        p = subparsers.add_parser(name, help=help_text)
        return p, words is None or words[level:level + 1] == [name]

    def add_common(p, func, files=(), window=False):
        for name in files:
            p.add_argument(name)
        if window:
            p.add_argument("--n", type=integer, default=None, help="window length")
        p.add_argument("--format", choices=seqfile.FORMATS, default="json")
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(func=func, files=files)

    def add_chain(subparsers, help_text, level):
        p, chosen = command(subparsers, "chain", help_text, level)
        if chosen:
            from .ideals import CHAIN_FAMILIES
            p.add_argument("family", choices=CHAIN_FAMILIES)
            p.add_argument("--length", type=integer, default=4)
            p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
            add_common(p, _cmd_chain, window=True)

    p, chosen = command(sub, "gen", "generate a named arithmetical function")
    if chosen:
        from .zoo import FUNCTION_TAGS
        p.add_argument("tag", choices=FUNCTION_TAGS)
        p.add_argument("--param", type=integer, default=None,
                       help="parameter for delta (the support point) or "
                            "p_adic_valuation (the prime)")
        p.add_argument("--mode", choices=MODES, default=None,
                       help="request a scalar mode (exact functions can be "
                            "converted to float, not the reverse)")
        p.add_argument("--name", default=None, help="name stored in the output")
        add_common(p, _cmd_gen, window=True)

    for name, help_text, func, files in (
        ("conv", "Dirichlet convolution of two sequence files", _cmd_conv, ("left", "right")),
        ("inv", "convolution inverse of a sequence file", _cmd_inv, ("file",)),
        ("norm", "least index with a nonzero value", _cmd_norm, ("file",)),
        ("divide", "exact division: divide H by F on the window", _cmd_divide, ("dividend", "divisor")),
        ("classify", "unit/maximal status, norm, atom certificate", _cmd_classify, ("file",)),
    ):
        p, chosen = command(sub, name, help_text)
        if chosen:
            add_common(p, func, files)

    p_ideal, chosen = command(sub, "ideal", "ideal-family tooling")
    if chosen:
        ideal_sub = p_ideal.add_subparsers(dest="ideal_command", required=True)

        p, chosen = command(ideal_sub, "member", "membership oracle", 1)
        if chosen:
            p.add_argument("spec", help="e.g. P:6, P:6,1, I:5, K:3, J:2,3, J:~2,3, maximal")
            add_common(p, _cmd_ideal_member, ("file",))

        p, chosen = command(ideal_sub, "quotient", "quotient by the indicator at a prime", 1)
        if chosen:
            p.add_argument("prime", type=integer)
            add_common(p, _cmd_ideal_quotient, ("file",))

        p, chosen = command(ideal_sub, "decompose", "split a member of P_m over its generators", 1)
        if chosen:
            p.add_argument("modulus", type=integer)
            add_common(p, _cmd_ideal_decompose, ("file",))

        add_chain(ideal_sub, "build a chain with separator witnesses", 1)

        p, chosen = command(ideal_sub, "probe", "randomized primality refutation search", 1)
        if chosen:
            p.add_argument("spec")
            p.add_argument("--trials", type=integer, default=100)
            p.add_argument("--seed", type=integer, default=DEFAULT_SEED)
            add_common(p, _cmd_ideal_probe, window=True)

    add_chain(sub, "alias for 'ideal chain'", 0)

    p, chosen = command(sub, "verify-paper",
                        "run the full property-verification suite and print a report")
    if chosen:
        p.add_argument("--n", type=integer, default=None)
        p.add_argument("--seed", type=integer, default=DEFAULT_SEED)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_verify, files=())

    return parser


# command bodies ------------------------------------------------------------
# Each takes the parsed arguments and then the inputs ``main`` resolved for
# it: the ideal spec, the name and function of each sequence file, the
# window.  Each returns a (function, name) pair, a dict, or finished text
# for ``seqfile.render``, and none reads or writes anything itself;
# verify-paper pairs its report with its exit status.  A dict embeds a
# sequence as a (function, name) pair, which ``seqfile.dumps`` writes.


def _window(args) -> int:
    """The --n window, else DEFAULT_N.  No list can be indexed past
    sys.maxsize, so a larger window is refused here."""
    n = DEFAULT_N if args.n is None else args.n
    if n > sys.maxsize:
        raise ValueError(f"--n must be at most {sys.maxsize}, not {n}")
    return n


def _cmd_gen(args, n):
    from . import zoo
    f = zoo.generate(args.tag, n, args.param)
    if args.mode == FLOAT and f.mode == EXACT:
        f = f.to_float()
    elif args.mode == EXACT and f.mode == FLOAT:
        raise ValueError(f"{args.tag} has irrational values; exact mode is impossible")
    name = args.tag if args.param is None else f"{args.tag}({args.param})"
    return f, name if args.name is None else args.name


def _cmd_conv(args, name_a, a, name_b, b):
    return a.convolve(b), f"{name_a}*{name_b}"


def _cmd_inv(args, name, f):
    return f.invert(), f"{name}^-1"


def _cmd_norm(args, _, f):
    value = f.norm()
    if args.format == "json":
        return {"norm": value}
    return ("zero-function" if value is None else str(value)) + "\n"


def _cmd_divide(args, name_h, h, name_f, f):
    result = try_divide(h, f)
    if isinstance(result, NotDivisibleWitness):
        return {"divisible": False, "index": result.index, "note": result.note}
    return result, f"{name_h}/{name_f}"


def _cmd_classify(args, _, f):
    from .structure import classify
    return classify(f).to_dict()


def _cmd_ideal_member(args, spec, _, f):
    from .ideals import member
    return member(spec, f).to_dict()


def _cmd_ideal_quotient(args, name, f):
    from .ideals import principal_quotient
    return principal_quotient(args.prime, f), f"{name}/delta_{args.prime}"


def _cmd_ideal_decompose(args, name, f):
    from .ideals import decompose_coprime_vanishing
    dec = decompose_coprime_vanishing(args.modulus, f)
    matches = dec.reconstruction() == f
    if args.format != "json":
        return (f"m = {dec.m}\ngenerators at {list(dec.generator_points)}\n"
                f"reconstruction matches: {matches}\n")
    return {
        "name": name,
        "m": dec.m,
        "generator_points": list(dec.generator_points),
        "cofactors": [
            (g, f"cofactor_delta_{q}") for q, g in zip(dec.generator_points, dec.cofactors)
        ],
        "reconstruction_matches": matches,
    }


def _cmd_chain(args, n):
    from .ideals import chain
    report = chain(args.family, args.length, n)
    if args.dot:  # a DOT digraph whose edges point small -> large
        return "".join(["digraph chain {\n  rankdir=LR;\n"]
                       + [f'  "{spec}";\n' for spec in report.specs]
                       + [f'  "{link.smaller}" -> "{link.larger}" [label="{link.separator_label}"];\n'
                          for link in report.links] + ["}\n"])
    if args.format != "json":
        return "".join([f"family: {report.family}\n"] + [
            f"{link.smaller.label()} < {link.larger.label()}  (separator {link.separator_label})\n"
            for link in report.links])
    return {
        "family": report.family,
        "specs": [s.label() for s in report.specs],
        "links": [{"smaller": link.smaller.label(), "larger": link.larger.label(),
                   "separator": link.separator_label} for link in report.links],
    }


def _cmd_ideal_probe(args, spec, n):
    from .ideals import probe_prime
    verdict = probe_prime(spec, args.trials, args.seed, n)
    obj = verdict.to_dict()
    if verdict.elements and args.format == "json":
        obj["witness_pair"] = [(f, f"witness_{i}") for i, f in enumerate(verdict.elements)]
    return obj


def _cmd_verify(args, n):
    from . import verify
    results = verify.run_all(n, args.seed)
    status = 0 if all(r.passed for r in results) else VERIFY_FAILURE
    return verify.render_report(results, n, args.seed), status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        # resolve the inputs from outside the program in the order the
        # commands check them: spec, sequence files, window
        inputs = [parse_ideal_spec(args.spec)] if "spec" in args else []
        for name in args.files:
            inputs += seqfile.load(getattr(args, name))
        if "n" in args:
            inputs.append(_window(args))
        result, status = args.func(args, *inputs), 0
        if args.func is _cmd_verify:
            result, status = result
        text = seqfile.render(result, getattr(args, "format", None))
        if args.out:
            seqfile.write(text, args.out)
        else:
            sys.stdout.write(text)
        return status
    except (ValueError, OSError, IndexError, OverflowError) as exc:
        # Python's advice on its digit limit names a call, not an option
        message, advice, _ = str(exc).partition("Exceeds the limit")
        if advice:
            message += f"an integer has more than {MAX_DIGITS} decimal digits, the most read or written"
        print(f"error: {message}", file=sys.stderr)
        return COMPUTE_ERROR
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return COMPUTE_ERROR
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
