"""Batch command line front end.

Commands are pure functions of their inputs plus the on-disk cache;
rerunning with a warm cache produces byte-identical output.  Exit codes:
0 success, 1 usage or input errors, 2 when a verification command found a
counterexample.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import RepstabError, ParseError, LawViolation, UsageError
from . import serialize


def parse_object_spec(text, family=None, scale=16):
    """A presented object from a fixture name or a JSON file path.

    Fixtures: misc-a(p), misc-b, e(G), s(G), c(G), t(1), unit.
    """
    from .groups import trivial_group
    from .families import parse_group_spec, all_abelian, cyclic_family
    from .presentations import (torsion_example_a, torsion_example_b,
                                unit_object, BuiltinObject,
                                builtin_to_presentation)
    t = text.strip()
    # os.path.exists is False on any OSError, a name too long among them
    if t.endswith(".json") or os.path.exists(t):
        import json
        try:
            with open(t) as fh:
                blob = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read object file {t!r}: "
                             f"{exc.strerror}") from exc
        except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"object file {t!r} is not JSON: {exc}") from exc
        return serialize.presentation_from_json(blob)
    name, paren, arg = t.partition("(")
    if paren:
        if not arg.endswith(")"):
            raise ParseError(f"unclosed parenthesis in object spec {text!r}")
        arg = arg[:-1]
    if name == "misc-a":
        try:
            return torsion_example_a(int(arg) if arg else 3, family)
        except ValueError as exc:
            raise ParseError(f"misc-a needs a prime, got {text!r}") from exc
    if name == "misc-b" and not paren:
        return torsion_example_b(family)
    if name == "unit" and not paren:
        return unit_object(family or all_abelian(2))
    if name in ("e", "s", "c", "t") and paren:
        g = parse_group_spec(arg) if arg not in ("", "1") else trivial_group()
        fam = family or (cyclic_family(g.p if not g.is_trivial() else 2)
                         if name == "t" else
                         all_abelian(g.p if not g.is_trivial() else 2))
        kind = {"e": "e", "s": "s_triv", "c": "c", "t": "t_triv"}[name]
        return builtin_to_presentation(
            BuiltinObject(kind, fam, group=g), scale)
    raise ParseError(f"unknown object spec {text!r}")


def _emit(args, payload, csv_text=None):
    if args.format == "csv" and csv_text is not None:
        text = csv_text
    else:
        text = serialize.dumps(payload)
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file {args.out!r}: "
                             f"{exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _disk_cache(args):
    from .cache import DiskCache
    return DiskCache(args.cache) if args.cache else DiskCache()


def _cached(args, compute, command, *parts):
    from .cache import cache_key
    key = cache_key(command, *parts)
    cache = _disk_cache(args)
    got = cache.get(key)
    if got is None:
        got = compute()
        cache.put(key, got)
    return got


# ---------------------------------------------------------------------------
# commands


def cmd_decompose(args):
    from .families import parse_family_spec, parse_group_spec
    fam = parse_family_spec(args.family)
    g = parse_group_spec(args.g)
    h = parse_group_spec(args.h)

    def compute():
        from . import monoidal
        decompose = (monoidal.tensor_decompose
                     if args.command == "decompose-tensor"
                     else monoidal.hom_decompose)
        return serialize.decomposition_to_json(decompose(g, h, fam), fam)

    _emit(args, _cached(args, compute, args.command, fam.key(), g.key(),
                        h.key()))
    return 0


def cmd_eval(args):
    from .families import parse_family_spec, parse_group_spec
    from .presentations import evaluate
    fam = parse_family_spec(args.family) if args.family else None
    x = parse_object_spec(args.object, fam, args.scale)
    g = parse_group_spec(args.group)
    sp = evaluate(x, g)
    _emit(args, serialize.based_space_to_json(sp))
    return 0


def cmd_resolve(args):
    from .families import parse_family_spec
    from .resolutions import resolution
    fam = parse_family_spec(args.family) if args.family else None
    x = parse_object_spec(args.object, fam, args.scale)
    levels = resolution(x, args.bound, args.depth, minimal=args.minimal)
    payload = {"bound": args.bound, "minimal": args.minimal,
               "levels": [{"index": lv.index,
                           "generators": [g.key() for g in lv.generators]}
                          for lv in levels]}
    _emit(args, payload)
    return 0


def cmd_torsion(args):
    from .families import parse_family_spec, parse_group_spec
    from .presentations import restrict_presentation
    from .towers import tower_for_family
    from .stability import torsion_subspace
    fam = parse_family_spec(args.family) if args.family else None
    x = parse_object_spec(args.object, fam, args.scale)
    g = parse_group_spec(args.group)
    tower_fam = parse_family_spec(args.tower)
    tower = tower_for_family(tower_fam)
    if x.family.key() != tower_fam.key() and tower_fam.downward_closed:
        x = restrict_presentation(x, tower_fam)
    space, exhausted = torsion_subspace(x, g, tower,
                                        max_stage=args.max_stage)
    _emit(args, {"torsion_dim": space.dim, "exhausted": exhausted})
    return 0


def cmd_stability_scan(args):
    from .families import parse_family_spec
    from .stability import stability_scan
    fam = parse_family_spec(args.family) if args.family else None
    x = parse_object_spec(args.object, fam, args.scale)
    rfam = parse_family_spec(args.restrict)
    rep = stability_scan(x, rfam, args.max_rank)
    _emit(args, rep.to_json_dict(),
          csv_text=serialize.stability_csv(rep.table))
    return 0


def cmd_tau_scan(args):
    from .families import parse_family_spec
    from .stability import central_stability_degree
    fam = parse_family_spec(args.family) if args.family else None
    x = parse_object_spec(args.object, fam, args.scale)
    rep = central_stability_degree(x, args.bound)
    csv_n = rep.thresholds.get("degree")
    _emit(args, rep.to_json_dict(),
          csv_text=serialize.stability_csv(rep.table, tau_col=csv_n))
    return 0


def cmd_omega(args):
    from .families import parse_family_spec
    from .stability import omega_order
    fam = parse_family_spec(args.family)
    x = parse_object_spec(args.object, fam, args.scale)
    est = omega_order(x, args.n, fam, args.max_rank)
    _emit(args, est.to_json_dict())
    return 0


def cmd_wqo_check(args):
    from . import config
    from .wqo import dagger, compose_check, _surjections, _law_check_count
    size = args.size
    # the sweeps below walk this many candidates (the composition sweep
    # stops at size 4 and costs a constant)
    config.check_candidates(
        _law_check_count(size, config.MAX_EPI_CANDIDATES), what="wqo-check")
    failures = []
    checked = 0

    def monotone(values, k):
        # a law violation here was already recorded by the first sweep
        try:
            return dagger(values, k)[1]
        except LawViolation:
            return False

    for m in range(1, size + 1):
        for k in range(1, m + 1):
            for values in _surjections(m, k):
                checked += 1
                try:
                    dagger(values, k)
                except LawViolation as exc:
                    failures.append(f"dagger law at {values}: {exc}")
    for m in range(1, min(size, 4) + 1):
        for k in range(1, m + 1):
            for j in range(1, k + 1):
                for phi in _surjections(m, k):
                    if not monotone(phi, k):
                        continue
                    for psi in _surjections(k, j):
                        if not monotone(psi, j):
                            continue
                        checked += 1
                        try:
                            compose_check(phi, psi)
                        except LawViolation:
                            failures.append(f"composition at {phi},{psi}")
    # rigidity: only the identity is a monotone-section self-surjection
    from itertools import permutations
    for m in range(1, size + 1):
        for perm in permutations(range(m)):
            if monotone(perm, m) and perm != tuple(range(m)):
                failures.append(f"rigidity broken by {perm}")
        checked += 1
    payload = {"checked": checked, "ok": not failures,
               "failures": failures[:10]}
    _emit(args, payload)
    return 0 if not failures else 2


def cmd_framing_factor(args):
    from .families import parse_group_spec
    from .wqo import Framing, factor_framing, ols, is_tautological
    target = parse_group_spec(args.target)
    try:
        domain = ols(*(int(v) for v in args.labels.split(",")))
        assignment = tuple(tuple(int(v) for v in chunk.split(","))
                           if chunk.strip() else ()
                           for chunk in args.assign.split(";"))
    except ValueError as exc:
        raise ParseError(f"bad framing --labels {args.labels!r} --assign "
                         f"{args.assign!r}: {exc}") from exc
    f = Framing(domain, target, assignment)
    mor, taut = factor_framing(f)
    payload = {
        "morphism_values": list(mor.values),
        "tautological": {
            "labels": list(taut.domain.labels),
            "assignment": [list(e) for e in taut.assignment],
            "is_tautological": is_tautological(taut),
        },
    }
    _emit(args, payload)
    return 0


def cmd_cache_info(args):
    cache = _disk_cache(args)
    entries = cache.entries()
    payload = {"directory": str(cache.directory),
               "entries": [{"key": k, "bytes": s} for k, s in entries]}
    csv_text = "key,bytes\n" + "".join(f"{k},{s}\n" for k, s in entries)
    _emit(args, payload, csv_text=csv_text)
    return 0


# ---------------------------------------------------------------------------


def _at_least(least):
    """argparse type: an integer of at least `least`, so that no count
    leaves a command nothing to compute."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return value
    return count


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise UsageError, so they are
    reported as typed JSON like every other refusal."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(
        prog="repstab",
        description="exact computations with families of abelian p-groups")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--cache", default=None,
                        help="cache directory (REPSTAB_CACHE overrides)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--out", default=None,
                        help="output file (default stdout)")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: _Parser(
                                parents=[shared], **kw))

    def common(p, with_family=True):
        if with_family:
            p.add_argument("--family", default=None)
        p.add_argument("--scale", type=_at_least(1), default=16,
                       help="presentation scale for builtin fixtures")

    for name in ("decompose-tensor", "decompose-hom"):
        p = sub.add_parser(name)
        p.add_argument("--g", required=True)
        p.add_argument("--h", required=True)
        p.add_argument("--family", required=True)
        p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("eval")
    p.add_argument("--object", required=True)
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("resolve")
    p.add_argument("--object", required=True)
    p.add_argument("--bound", type=_at_least(1), required=True)
    p.add_argument("--depth", type=_at_least(0), default=8)
    p.add_argument("--minimal", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("torsion")
    p.add_argument("--object", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--tower", required=True)
    p.add_argument("--max-stage", type=_at_least(0), default=6)
    common(p)
    p.set_defaults(fn=cmd_torsion)

    p = sub.add_parser("stability-scan")
    p.add_argument("--object", required=True)
    p.add_argument("--restrict", required=True)
    p.add_argument("--max-rank", type=_at_least(0), default=4)
    common(p)
    p.set_defaults(fn=cmd_stability_scan)

    p = sub.add_parser("tau-scan")
    p.add_argument("--object", required=True)
    p.add_argument("--bound", type=_at_least(1), required=True)
    common(p)
    p.set_defaults(fn=cmd_tau_scan)

    p = sub.add_parser("omega")
    p.add_argument("--object", required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--max-rank", type=_at_least(0), default=5)
    p.add_argument("--scale", type=_at_least(1), default=16)
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("wqo-check")
    p.add_argument("--size", type=_at_least(1), default=5)
    p.set_defaults(fn=cmd_wqo_check)

    p = sub.add_parser("framing-factor")
    p.add_argument("--target", required=True)
    p.add_argument("--labels", required=True,
                   help="comma separated label list, e.g. 1,1")
    p.add_argument("--assign", required=True,
                   help="semicolon separated coordinate tuples, e.g. 1;0")
    p.set_defaults(fn=cmd_framing_factor)

    p = sub.add_parser("cache-info")
    p.set_defaults(fn=cmd_cache_info)
    return ap


def main(argv=None):
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:   # --help
            return 1 if exc.code else 0
        return args.fn(args)
    except RepstabError as exc:
        sys.stderr.write(serialize.dumps(
            {"error": exc.code, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
