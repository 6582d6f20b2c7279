"""Batch command-line entry point: load JSON documents, run checks and
constructions, emit text or JSON reports.

Exit codes: 0 all checks passed, 1 a counterexample was found, 2 input or
validation error (bad documents, zero-object violations, non-finite monads,
blow-up guard, a search stopped at its cap).  Reports echo the command,
seed and tool version and are byte-stable for a fixed config, inputs and
seed (modulo the timing field).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import __version__
from .algebras import check_em_algebra, free_algebra
from .chains import (anamorphism, build_initial_chain, build_terminal_chain,
                     check_cone_coincidence, check_projection_morphisms, colim_to_lim,
                     density_map, distance)
from .compair import check_commuting, search_commuting_sigma
from .errors import BarrlabError, DomainMismatch, InputError, SearchCapReached
from .finset import carrier
from .jsonio import (distinct_entries, dump_series, load_algebra, load_automaton,
                     load_candidate, load_distlaw_em, load_distlaw_kl, load_functor,
                     load_group, load_monad, load_sequence, load_series, resolve_key,
                     standard_alphabet)
from .lifting import check_distlaw_em, check_distlaw_kl, gset_distlaws, lift_algebra
from .monads import check_monad_laws
from .reports import LawReport, table_failures
from .series import behavior, cauchy_limit_series, series_distance, word_strings


@dataclass
class Report:
    config: dict
    result: dict
    passed: bool
    timing_ms: float

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "config": self.config,
            "passed": self.passed,
            "result": self.result,
            "timing_ms": self.timing_ms,
        }

    def render_text(self) -> str:
        lines = [f"barrlab {__version__} :: {self.config['command']} "
                 f"(seed {self.config['seed']})"]
        if isinstance(self.result, dict) and "checks" in self.result:
            lines.extend(_law_report_lines(self.result, indent=2))
        else:
            lines.extend(_text_lines(self.result, indent=2))
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'} "
                     f"({self.timing_ms:.1f} ms)")
        return "\n".join(lines)


def _law_report_lines(doc: dict, indent=0) -> list[str]:
    pad = " " * indent
    lines = [f"{pad}{doc.get('subject', 'checks')}"]
    tally: dict[str, dict[str, int]] = {}
    for check in doc["checks"]:
        law = check["law"]
        tally.setdefault(law, {"pass": 0, "fail": 0, "skipped": 0})
        tally[law][check["status"]] += 1
    for law, counts in tally.items():
        bits = [f"{counts['pass']} pass"]
        if counts["fail"]:
            bits.append(f"{counts['fail']} FAIL")
        if counts["skipped"]:
            bits.append(f"{counts['skipped']} skipped")
        lines.append(f"{pad}  {law:<24} {', '.join(bits)}")
    for check in doc["checks"]:
        if check["status"] == "fail":
            lines.append(f"{pad}  counterexample [{check['law']} @ "
                         f"{check['instance']}]: "
                         f"{_compact(check.get('counterexample'))}")
        elif check["status"] == "skipped":
            lines.append(f"{pad}  skipped [{check['law']} @ {check['instance']}]: "
                         f"{check.get('detail', '')}")
    return lines


def _text_lines(value, indent=0, key=None):
    pad = " " * indent
    if key is None:
        label = ""
    elif key == "":
        label = '"": '
    else:
        label = f"{key}: "
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key else []
        for k, v in value.items():
            lines.extend(_text_lines(v, indent + 2 if key else indent, k))
        return lines
    if isinstance(value, list) and value and isinstance(value[0], dict):
        lines = [f"{pad}{key}:"] if key else []
        for item in value:
            lines.extend(_text_lines(item, indent + 2))
            lines.append(f"{pad}  -")
        return lines[:-1] if lines and lines[-1].endswith("-") else lines
    return [f"{pad}{label}{_compact(value)}"]


# `--format json` is json.dumps(report, default=str): compact, one line.
# Element keys and the text format's values are written by one C encoder
# with the same settings, built once here, where a json.dumps call per value
# would build a fresh one each time.
_COMPACT = c_make_encoder(None, str, encode_basestring_ascii, None, ": ", ", ",
                          False, False, True)


def _compact(value) -> str:
    """value as json.dumps(value, default=str) writes it."""
    return "".join(_COMPACT(value, 0))


def _load_doc(arg: str, what: str):
    """CLI inputs are either inline shorthands, inline JSON, or file paths."""
    arg = arg.strip()
    if arg.startswith("{") or arg.startswith("["):
        try:
            return json.loads(arg)
        except json.JSONDecodeError as exc:
            raise InputError(f"{what}: invalid inline JSON: {exc}") from None
    if arg.endswith(".json"):
        try:
            with open(arg, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise InputError(f"{what}: file not found: {arg}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"{what}: {arg}: invalid JSON: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            # A directory, a file that cannot be opened, or bytes that are
            # not UTF-8.
            raise InputError(f"{what}: cannot read {arg}: {exc}") from None
    return arg


def _report_result(report: LawReport) -> tuple[dict, bool]:
    return report.to_json(), report.passed


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (result dict, passed flag)


def cmd_check_monad(args) -> tuple[dict, bool]:
    M = load_monad(_load_doc(args.monad, "monad"))
    return _report_result(check_monad_laws(M, args.max_size))


def cmd_check_algebra(args):
    alg = load_algebra(_load_doc(args.algebra, "algebra"))
    return _report_result(check_em_algebra(alg.monad, alg))


def cmd_check_distlaw(args):
    rest = list(args.args)
    direction = rest.pop(0) if rest and rest[0] in ("em", "kl") else "em"
    if len(rest) != 1:
        raise InputError("usage: check-distlaw [em|kl] LAW")
    doc = _load_doc(rest[0], "law")
    if direction == "em":
        return _report_result(check_distlaw_em(load_distlaw_em(doc), args.max_size))
    return _report_result(check_distlaw_kl(load_distlaw_kl(doc), args.max_size))


def cmd_lift(args):
    law = load_distlaw_em(_load_doc(args.law, "law"))
    alg = load_algebra(_load_doc(args.algebra, "algebra"))
    lifted = lift_algebra(law, alg)
    # The structure is tabulated once: the recheck reads the same table.
    recheck = check_em_algebra(law.M, lifted)
    return {
        "carrier": lifted.carrier.name,
        "size": len(lifted.carrier),
        "structure": {_compact(x): y for x, y in lifted.structure().pairs()},
        "algebra_laws": recheck.to_json(),
    }, recheck.passed


def cmd_diff_liftings(args):
    name = args.gset.strip()
    if name.startswith("gset-"):
        name = name[len("gset-"):]
    group = load_group(_load_doc(name, "group"))
    law_mult, law_conj = gset_distlaws(group)
    base = free_algebra(law_mult.M, carrier(1))
    lifted_mult = lift_algebra(law_mult, base)
    lifted_conj = lift_algebra(law_conj, base)
    t_mult, t_conj = lifted_mult.structure(), lifted_conj.structure()
    witness = next(table_failures({}, t_mult.dom.elements.__getitem__, t_mult.cod,
                                  t_mult.positions, t_conj.positions, ("mult_law", "conj_law")),
                   None)
    return {
        "group": group.name,
        "liftings_differ": witness is not None,
        "witness": witness,
        "laws_pass": {
            "mult": check_distlaw_em(law_mult, args.max_size).passed,
            "conj": check_distlaw_em(law_conj, args.max_size).passed,
        },
    }, True


def cmd_chain(args):
    H = load_functor(_load_doc(args.functor, "functor"))
    chain = build_terminal_chain(H, args.depth)
    result = {
        "functor": str(H),
        "depth": chain.depth,
        "level_sizes": [len(chain.level(n)) for n in range(chain.depth + 1)],
    }
    if args.mode == "inspect" and args.level is not None:
        lvl = chain.level(args.level)
        result["level"] = args.level
        result["elements"] = lvl.elements
    return result, True


def _state(aut, text: str):
    """The state --state names, read as the automaton document's keys are:
    as JSON when that names a state, else as its label."""
    try:
        return resolve_key(text, aut.states, "--state")
    except InputError:
        raise InputError(f"state {text!r} not in the automaton") from None


def cmd_anamorphism(args):
    aut = load_automaton(_load_doc(args.automaton, "automaton"))
    C, xi = aut.as_coalgebra()
    state = _state(aut, args.state)
    # Only the leg at --level is read, so the chain stops there.
    chain = build_terminal_chain(aut.H, max(args.level, 0))
    leg = anamorphism(C, xi, args.level, chain)[-1]
    return {"state": state, "level": args.level, "element": leg(state)}, True


def cmd_behavior(args):
    aut = load_automaton(_load_doc(args.automaton, "automaton"))
    return dump_series(behavior(aut, _state(aut, args.state), args.depth)), True


def cmd_distance(args):
    left = load_series(_load_doc(args.left, "left"), "left")
    right = load_series(_load_doc(args.right, "right"), "right")
    return series_distance(left, right).to_json(), True


def cmd_limit(args):
    polys, modulus = load_sequence(_load_doc(args.sequence, "sequence"), args.depth)
    limit = cauchy_limit_series(polys, args.depth, modulus=modulus)
    return dump_series(limit), True


def cmd_density(args):
    # The chain is built to --depth + 1: the point lives at --depth, its
    # approximant one level up, and the distance probes no further.
    if not 0 <= args.n <= args.depth:
        raise InputError(f"--n must be in 0..{args.depth} (--depth), got {args.n}")
    if args.probe_depth > args.depth + 1:
        raise InputError(f"--probe-depth must be <= {args.depth + 1} (--depth + 1), "
                         f"got {args.probe_depth}")
    source = args.law or args.functor
    if source is None:
        raise InputError("density needs --functor SHORTHAND or --law DOC")
    law = load_distlaw_em(_load_doc(source, "law"))
    chain = build_terminal_chain(law.H, args.depth + 1)
    ic = build_initial_chain(law, chain)
    rng = random.Random(args.seed)
    x = colim_to_lim(ic, rng.choice(chain.level(args.depth).elements), args.depth)
    n = args.n
    y = density_map(ic, x, n)
    projections_match = y.rep(n) == x.rep(n)
    dist = distance(x, y, args.probe_depth)
    ok = projections_match and dist.leq_pow(n)
    return {
        "level": n,
        "point": x.rep(args.depth),
        "approximant": y.rep(args.depth),
        "projection_matches": projections_match,
        "distance": dist.to_json(),
        "bound": f"2^-{n}",
    }, ok


def cmd_lemma(args):
    if args.levels < 0:
        raise InputError(f"--levels must be >= 0, got {args.levels}")
    law = load_distlaw_em(_load_doc(args.law, "law"))
    chain = build_terminal_chain(law.H, args.levels + 1)
    check = check_cone_coincidence if args.command == "lemma1" else check_projection_morphisms
    return _report_result(check(law, chain, args.levels))


def cmd_commute_check(args):
    cand = load_candidate(_load_doc(args.candidate, "candidate"))
    law = load_distlaw_em(_load_doc(args.law, "law")) if args.law else None
    return _report_result(check_commuting(cand, law, args.max_size))


def cmd_commute_search(args):
    T = load_functor(_load_doc(args.T, "T"), "T")
    H = load_functor(_load_doc(args.H, "H"), "H")
    law = load_distlaw_em(_load_doc(args.law, "law"))
    if law.H != H:
        raise DomainMismatch("distributive law is for a different functor")
    status, cand, tried = search_commuting_sigma(T, law, args.max_size, cap=args.search_cap)
    if status == "unknown":
        raise SearchCapReached(f"commute search stopped at --search-cap {args.search_cap} "
                               f"with tried = {tried} and no verdict")
    result = {"status": status, "tried": tried}
    if cand is not None:
        result["sigma"] = {
            f"X{n}": {_compact(x): y for x, y in cand.sigma.component(carrier(n)).pairs()}
            for n in range(args.max_size + 1)
        }
    return result, status == "found"


def cmd_words(args):
    letters = standard_alphabet(1)
    if args.alphabet is not None:
        entries = args.alphabet.split(",")
        if "" in entries:
            raise InputError(f"--alphabet: empty letter in {args.alphabet!r}")
        letters = distinct_entries(entries, "--alphabet", "letter")
    words = word_strings(letters, args.depth)
    return {"alphabet": list(letters), "depth": args.depth,
            "count": len(words), "words": words}, True


# ---------------------------------------------------------------------------
# Parser


# The flags every subcommand takes, after its mode if it has one:
# (flag, whether it is a bound that must be >= 0, argparse options).  The
# report's config echoes each of them but --format, in this order.
COMMON_FLAGS = (
    ("--max-size", True, {"type": int, "default": 3}),
    ("--depth", True, {"type": int, "default": 8}),
    ("--probe-depth", True, {"type": int, "default": None}),
    ("--search-cap", True, {"type": int, "default": 10**5}),
    ("--format", False, {"choices": ("text", "json"), "default": "text"}),
    ("--seed", False, {"type": int, "default": 0}),
)

_REQUIRED = {"required": True}
_LEMMA = (cmd_lemma, [("--law", _REQUIRED), ("--levels", {"type": int, "default": 3})])

# Each subcommand, in `--help` order: its handler and its own arguments, or,
# for a command with modes, a table of modes in the same form.
COMMANDS = {
    "check-monad": (cmd_check_monad, [("monad", {})]),
    "check-algebra": (cmd_check_algebra, [("algebra", {})]),
    "check-distlaw": (cmd_check_distlaw, [
        ("args", {"nargs": "+", "metavar": "[em|kl] LAW",
                  "help": "optional direction (default em) and the law document"})]),
    "lift": (cmd_lift, [("law", {}), ("algebra", {})]),
    "diff-liftings": (cmd_diff_liftings, [
        ("gset", {"help": "a group shorthand, e.g. gset-s3 or s3"})]),
    "chain": (cmd_chain, [("mode", {"choices": ("build", "inspect")}),
                          ("--functor", _REQUIRED), ("--level", {"type": int, "default": None})]),
    "anamorphism": (cmd_anamorphism, [("--automaton", _REQUIRED), ("--state", _REQUIRED),
                                      ("--level", {"type": int, "required": True})]),
    "behavior": (cmd_behavior, [("--automaton", _REQUIRED), ("--state", _REQUIRED)]),
    "distance": (cmd_distance, [("--left", _REQUIRED), ("--right", _REQUIRED)]),
    "limit": (cmd_limit, [("--sequence", _REQUIRED)]),
    "density": (cmd_density, [
        ("--functor", {"default": None, "help": "a law shorthand such as moore:z2:1letter"}),
        ("--law", {"default": None}), ("--n", {"type": int, "required": True})]),
    "lemma1": _LEMMA,
    "lemma2": _LEMMA,
    "commute": {
        "check": (cmd_commute_check, [("candidate", {}), ("--law", {"default": None})]),
        "search": (cmd_commute_search, [("--T", _REQUIRED), ("--H", _REQUIRED),
                                        ("--law", _REQUIRED)]),
    },
    "words": (cmd_words, [("--alphabet", {"default": None, "help": "comma-separated letters"})]),
}


class _FlagBeforeMode(argparse.Action):
    """A common flag given to `commute` before its mode: a usage error that
    names the flag, since flags follow the mode."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} is given before the mode; flags follow the "
                     f"mode, as in: commute check|search ... {option_string} VALUE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrlab",
        description="Exhaustive checks and constructions for monads, "
                    "distributive laws, chains and weighted automata.")
    common = argparse.ArgumentParser(add_help=False)
    for flag, _bound, options in COMMON_FLAGS:
        common.add_argument(flag, **options)

    def add(subparsers, name, fn, arguments):
        p = subparsers.add_parser(name, parents=[common])
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(fn=fn)

    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        if isinstance(spec, tuple):
            add(sub, name, *spec)
            continue
        p = sub.add_parser(name)
        for flag, _bound, _options in COMMON_FLAGS:
            p.add_argument(flag, action=_FlagBeforeMode, dest=argparse.SUPPRESS,
                           default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        modes = p.add_subparsers(dest="mode", required=True)
        for mode, (fn, arguments) in spec.items():
            add(modes, mode, fn, arguments)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call to `main`."""
    return build_parser()


def _config(argv: list[str], args) -> dict:
    """The report's echo of the run: the command line, then every common
    flag but --format."""
    config = {"command": " ".join(argv)}
    for flag, _bound, _options in COMMON_FLAGS:
        if flag != "--format":
            config[_dest(flag)] = getattr(args, _dest(flag))
    return config


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _error(exc: BarrlabError, config: dict, fmt: str) -> int:
    """Print the error payload of exc and return its exit code, 2."""
    if fmt == "json":
        print(json.dumps({"version": __version__, "config": config,
                          "error": type(exc).__name__, "message": str(exc)}, default=str))
    else:
        print(f"barrlab {__version__} :: {config['command']}")
        print(f"error [{type(exc).__name__}]: {exc}")
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    if args.probe_depth is None:
        args.probe_depth = args.depth
    config = _config(argv, args)
    started = time.perf_counter()
    # Loading, the command and rendering: each reads or writes nested
    # documents and elements recursively.
    try:
        for flag, bound, _options in COMMON_FLAGS:
            value = getattr(args, _dest(flag))
            if bound and value < 0:
                raise InputError(f"{flag} must be >= 0, got {value}")
        result, passed = args.fn(args)
        report = Report(config, result, passed, (time.perf_counter() - started) * 1000)
        out = (json.dumps(report.to_json(), default=str) if args.format == "json"
               else report.render_text())
    except BarrlabError as exc:
        return _error(exc, config, args.format)
    except RecursionError:
        return _error(InputError("the input or the result nests too deeply "
                                 "(Python's recursion limit)"), config, args.format)
    print(out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
