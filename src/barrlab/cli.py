"""Batch command-line entry point: load JSON documents, run checks and
constructions, emit text or JSON reports.

Exit codes: 0 all checks passed, 1 a counterexample was found, 2 input or
validation error (bad documents, zero-object violations, non-finite monads,
blow-up guard).  Reports echo the command, seed and tool version and are
byte-stable for a fixed config, inputs and seed (modulo the timing field).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .algebras import check_em_algebra, free_algebra
from .chains import (build_initial_chain, build_terminal_chain, check_cone_coincidence,
                     check_projection_morphisms, colim_to_lim, density_map, distance)
from .compair import check_commuting, initial_words, search_commuting_sigma
from .errors import BarrlabError, InputError
from .finset import FinSet, carrier
from .jsonio import (dump_series, encode_element, load_algebra, load_automaton,
                     load_candidate, load_distlaw_em, load_distlaw_kl, load_functor,
                     load_monad, load_polynomial, load_series, standard_alphabet)
from .lifting import check_distlaw_em, check_distlaw_kl, gset_distlaws, lift_algebra
from .monads import check_monad_laws
from .reports import LawReport
from .series import behavior, cauchy_limit_series, series_distance


@dataclass
class RunConfig:
    command: str
    max_size: int = 3
    depth: int = 8
    probe_depth: int | None = None
    search_cap: int = 10**5
    fmt: str = "text"
    seed: int = 0
    jobs: int = 1
    inputs: dict = field(default_factory=dict)

    @property
    def probe(self) -> int:
        return self.depth if self.probe_depth is None else self.probe_depth

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "max_size": self.max_size,
            "depth": self.depth,
            "probe_depth": self.probe,
            "search_cap": self.search_cap,
            "seed": self.seed,
            "jobs": self.jobs,
            "inputs": self.inputs,
        }


@dataclass
class Report:
    config: RunConfig
    result: dict
    passed: bool
    timing_ms: float

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.to_json(),
            "passed": self.passed,
            "result": self.result,
            "timing_ms": self.timing_ms,
        }

    def render_text(self) -> str:
        lines = [f"barrlab {__version__} :: {self.config.command} "
                 f"(seed {self.config.seed})"]
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
                         f"{json.dumps(check.get('counterexample'), default=str)}")
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
    return [f"{pad}{label}{json.dumps(value, default=str)}"]


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
            with open(arg) as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise InputError(f"{what}: file not found: {arg}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"{what}: {arg}: invalid JSON: {exc}") from None
    return arg


def _report_result(report: LawReport) -> tuple[dict, bool]:
    return report.to_json(), report.passed


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (result dict, passed flag)


def cmd_check_monad(cfg: RunConfig, args) -> tuple[dict, bool]:
    M = load_monad(_load_doc(args.monad, "monad"))
    return _report_result(check_monad_laws(M, cfg.max_size))


def cmd_check_algebra(cfg, args):
    alg = load_algebra(_load_doc(args.algebra, "algebra"))
    return _report_result(check_em_algebra(alg.monad, alg))


def cmd_check_distlaw(cfg, args):
    rest = list(args.args)
    direction = rest.pop(0) if rest and rest[0] in ("em", "kl") else "em"
    if len(rest) != 1:
        raise InputError("usage: check-distlaw [em|kl] LAW")
    doc = _load_doc(rest[0], "law")
    if direction == "em":
        return _report_result(check_distlaw_em(load_distlaw_em(doc), cfg.max_size))
    return _report_result(check_distlaw_kl(load_distlaw_kl(doc), cfg.max_size))


def cmd_lift(cfg, args):
    law = load_distlaw_em(_load_doc(args.law, "law"))
    alg = load_algebra(_load_doc(args.algebra, "algebra"))
    lifted = lift_algebra(law, alg)
    table = lifted.structure()
    recheck = check_em_algebra(law.M, lifted)
    return {
        "carrier": lifted.carrier.name,
        "size": len(lifted.carrier),
        "structure": {json.dumps(encode_element(x)): encode_element(y)
                      for x, y in table.pairs()},
        "algebra_laws": recheck.to_json(),
    }, recheck.passed


def cmd_diff_liftings(cfg, args):
    from .jsonio import load_group

    name = args.gset.strip()
    if name.startswith("gset-"):
        name = name[len("gset-"):]
    group = load_group(_load_doc(name, "group"))
    law_mult, law_conj = gset_distlaws(group)
    base = free_algebra(law_mult.M, carrier(1))
    lifted_mult = lift_algebra(law_mult, base)
    lifted_conj = lift_algebra(law_conj, base)
    t_mult, t_conj = lifted_mult.structure(), lifted_conj.structure()
    witness = None
    for el in t_mult.dom:
        if t_mult(el) != t_conj(el):
            witness = {"element": encode_element(el),
                       "mult_law": encode_element(t_mult(el)),
                       "conj_law": encode_element(t_conj(el))}
            break
    return {
        "group": group.name,
        "liftings_differ": witness is not None,
        "witness": witness,
        "laws_pass": {
            "mult": check_distlaw_em(law_mult, cfg.max_size).passed,
            "conj": check_distlaw_em(law_conj, cfg.max_size).passed,
        },
    }, True


def cmd_chain(cfg, args):
    H = load_functor(_load_doc(args.functor, "functor"))
    chain = build_terminal_chain(H, cfg.depth)
    result = {
        "functor": str(H),
        "depth": chain.depth,
        "level_sizes": [len(chain.level(n)) for n in range(chain.depth + 1)],
    }
    if args.mode == "inspect" and args.level is not None:
        lvl = chain.level(args.level)
        result["level"] = args.level
        result["elements"] = [encode_element(e) for e in lvl]
    return result, True


def cmd_anamorphism(cfg, args):
    from .chains import anamorphism

    aut = load_automaton(_load_doc(args.automaton, "automaton"))
    C, xi = aut.as_coalgebra()
    chain = build_terminal_chain(aut.functor(), max(args.level, cfg.depth))
    leg = anamorphism(C, xi, args.level, chain)
    state = args.state
    if state not in C:
        raise InputError(f"state {state!r} not in the automaton")
    return {"state": state, "level": args.level,
            "element": encode_element(leg(state))}, True


def cmd_behavior(cfg, args):
    aut = load_automaton(_load_doc(args.automaton, "automaton"))
    if args.state not in aut.states:
        raise InputError(f"state {args.state!r} not in the automaton")
    return dump_series(behavior(aut, args.state, cfg.depth)), True


def cmd_distance(cfg, args):
    left = load_series(_load_doc(args.left, "left series"))
    right = load_series(_load_doc(args.right, "right series"))
    return series_distance(left, right).to_json(), True


def cmd_limit(cfg, args):
    doc = _load_doc(args.sequence, "sequence")
    if not isinstance(doc, dict) or "polynomials" not in doc:
        raise InputError("sequence document needs a 'polynomials' array")
    polys = [load_polynomial(p, path=f"polynomials[{i}]")
             for i, p in enumerate(doc["polynomials"])]
    modulus = doc.get("modulus")
    limit = cauchy_limit_series(polys, cfg.depth, modulus=modulus)
    return dump_series(limit), True


def cmd_density(cfg, args):
    source = args.law or args.functor
    if source is None:
        raise InputError("density needs --functor SHORTHAND or --law DOC")
    law = load_distlaw_em(_load_doc(source, "law"))
    chain = build_terminal_chain(law.H, cfg.depth + 1)
    ic = build_initial_chain(law, chain)
    rng = random.Random(cfg.seed)
    x = colim_to_lim(ic, rng.choice(chain.level(cfg.depth).elements), cfg.depth)
    n = args.n
    y = density_map(ic, x, n)
    projections_match = y.rep(n) == x.rep(n)
    dist = distance(x, y, cfg.probe)
    ok = projections_match and dist.leq_pow(n)
    return {
        "level": n,
        "point": encode_element(x.rep(cfg.depth)),
        "approximant": encode_element(y.rep(cfg.depth)),
        "projection_matches": projections_match,
        "distance": dist.to_json(),
        "bound": f"2^-{n}",
    }, ok


def cmd_lemma(cfg, args):
    law = load_distlaw_em(_load_doc(args.law, "law"))
    depth = args.levels if args.levels is not None else 3
    chain = build_terminal_chain(law.H, depth + 1)
    if args.which == "lemma1":
        return _report_result(check_cone_coincidence(law, chain, depth))
    return _report_result(check_projection_morphisms(law, chain, depth))


def cmd_commute(cfg, args):
    if args.mode == "check":
        cand = load_candidate(_load_doc(args.candidate, "candidate"))
        law = load_distlaw_em(_load_doc(args.law, "law")) if args.law else None
        report = check_commuting(cand, law, cfg.max_size)
        return _report_result(report)
    T = load_functor(_load_doc(args.T, "T"))
    H = load_functor(_load_doc(args.H, "H"))
    law = load_distlaw_em(_load_doc(args.law, "law"))
    status, cand, tried = search_commuting_sigma(T, H, law.M, law, cfg.max_size,
                                                 cap=cfg.search_cap)
    result = {"status": status, "tried": tried}
    if cand is not None:
        result["sigma"] = {
            f"X{n}": {json.dumps(encode_element(x)): encode_element(y)
                      for x, y in cand.component(carrier(n)).pairs()}
            for n in range(cfg.max_size + 1)
        }
    return result, status == "found"


def cmd_words(cfg, args):
    letters = tuple(args.alphabet.split(",")) if args.alphabet else standard_alphabet(1)
    words = initial_words(FinSet("A", letters), cfg.depth)
    return {"alphabet": list(letters), "depth": cfg.depth,
            "count": len(words),
            "words": ["".join(map(str, w)) for w in words]}, True


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrlab",
        description="Exhaustive checks and constructions for monads, "
                    "distributive laws, chains and weighted automata.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-size", type=int, default=3)
    common.add_argument("--depth", type=int, default=8)
    common.add_argument("--probe-depth", type=int, default=None)
    common.add_argument("--search-cap", type=int, default=10**5)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--jobs", type=int, default=1)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-monad", parents=[common])
    p.add_argument("monad")
    p.set_defaults(fn=cmd_check_monad)

    p = sub.add_parser("check-algebra", parents=[common])
    p.add_argument("algebra")
    p.set_defaults(fn=cmd_check_algebra)

    p = sub.add_parser("check-distlaw", parents=[common])
    p.add_argument("args", nargs="+", metavar="[em|kl] LAW",
                   help="optional direction (default em) and the law document")
    p.set_defaults(fn=cmd_check_distlaw)

    p = sub.add_parser("lift", parents=[common])
    p.add_argument("law")
    p.add_argument("algebra")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("diff-liftings", parents=[common])
    p.add_argument("gset", help="a group shorthand, e.g. gset-s3 or s3")
    p.set_defaults(fn=cmd_diff_liftings)

    p = sub.add_parser("chain", parents=[common])
    p.add_argument("mode", choices=("build", "inspect"))
    p.add_argument("--functor", required=True)
    p.add_argument("--level", type=int, default=None)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("anamorphism", parents=[common])
    p.add_argument("--automaton", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(fn=cmd_anamorphism)

    p = sub.add_parser("behavior", parents=[common])
    p.add_argument("--automaton", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(fn=cmd_behavior)

    p = sub.add_parser("distance", parents=[common])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("limit", parents=[common])
    p.add_argument("--sequence", required=True)
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("density", parents=[common])
    p.add_argument("--functor", default=None,
                   help="a law shorthand such as moore:z2:1letter")
    p.add_argument("--law", default=None)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_density)

    for which in ("lemma1", "lemma2"):
        p = sub.add_parser(which, parents=[common])
        p.add_argument("--law", required=True)
        p.add_argument("--levels", type=int, default=3)
        p.set_defaults(fn=cmd_lemma, which=which)

    p = sub.add_parser("commute", parents=[common])
    modes = p.add_subparsers(dest="mode", required=True)
    pc = modes.add_parser("check", parents=[common])
    pc.add_argument("candidate")
    pc.add_argument("--law", default=None)
    pc.set_defaults(fn=cmd_commute, mode="check")
    ps = modes.add_parser("search", parents=[common])
    ps.add_argument("--T", required=True)
    ps.add_argument("--H", required=True)
    ps.add_argument("--law", required=True)
    ps.set_defaults(fn=cmd_commute, mode="search")

    p = sub.add_parser("words", parents=[common])
    p.add_argument("--alphabet", default=None, help="comma-separated letters")
    p.set_defaults(fn=cmd_words)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=" ".join(argv),
        max_size=args.max_size,
        depth=args.depth,
        probe_depth=args.probe_depth,
        search_cap=args.search_cap,
        fmt=args.format,
        seed=args.seed,
        jobs=args.jobs,
    )
    started = time.perf_counter()
    try:
        for flag, value in (("--max-size", cfg.max_size), ("--depth", cfg.depth),
                            ("--probe-depth", cfg.probe), ("--search-cap", cfg.search_cap)):
            if value < 0:
                raise InputError(f"{flag} must be >= 0, got {value}")
        result, passed = args.fn(cfg, args)
    except BarrlabError as exc:
        payload = {
            "version": __version__,
            "config": cfg.to_json(),
            "error": type(exc).__name__,
            "message": str(exc),
        }
        if cfg.fmt == "json":
            print(json.dumps(payload, indent=2, default=str))
        else:
            print(f"barrlab {__version__} :: {cfg.command}")
            print(f"error [{type(exc).__name__}]: {exc}")
        return 2
    report = Report(cfg, result, passed, (time.perf_counter() - started) * 1000)
    if cfg.fmt == "json":
        print(json.dumps(report.to_json(), indent=2, default=str))
    else:
        print(report.render_text())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
