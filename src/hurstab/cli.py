"""Command-line front end: configuration, result cache, report emission.

Exit codes: 0 success, 2 assertion failure, 3 resource refusal,
64 usage error, 65 validation error, 74 cache IO error.

`homology` is `stability` without the cache and without exit code 2.

Every flag is declared once, in COMMANDS: the canonical `--flag value`
argv is read straight from that table, and any other argv (help,
`--version`, errors, abbreviations, `--flag=value`, `--config`) goes to
the argparse parser built from it, which is imported only then.

Braid words are serialized as signed integer lists, e.g. [1, -2, 1]
for sigma_1 sigma_2^-1 sigma_1, with the LEFTMOST letter acting LAST
(letters compose as left actions, rightmost first).  Reports embed the
fully resolved configuration and the code version, carry no timestamps,
and are byte-identical across reruns; the cache never changes a single
output byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from . import coeffsys as cs
from . import cost
from . import experiments as xp
from . import homology as hm
from . import monodromy as md
from .braid import BraidError, orbits, refuse_orbit_range
from .groups import (FAMILIES, ClassSet, FiniteGroup, GroupError,
                     conjugacy_closure)
from .intmat import is_int
from .resolution import ResolutionError

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64
EXIT_VALIDATION = 65
EXIT_IO = 74

MODEL_VERSION = __version__


class UsageError(ValueError):
    pass


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _json(text, what):
    try:
        return json.loads(text)
    except ValueError as e:
        raise UsageError(f"{what} is not valid JSON: {e}") from None


def parse_group(spec):
    """sym:N | cyclic:N | dihedral:N | quaternion | @file.json | JSON."""
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            return FiniteGroup.from_json(_json(fh.read(), "group file"))
    if spec.startswith("{"):
        return FiniteGroup.from_json(_json(spec, "group spec"))
    if spec == "quaternion":
        return FiniteGroup.quaternion()
    if ":" in spec:
        family, _, n = spec.partition(":")
        family = "symmetric" if family == "sym" else family
        if family in FAMILIES:
            return FAMILIES[family](_int(n, "group order"))
    raise UsageError(f"cannot parse group spec {spec!r}")


def _element_by_name(group, name):
    if name.isdigit() or (name.startswith("-") and name[1:].isdigit()):
        idx = int(name)
        if not 0 <= idx < group.order:
            raise UsageError(f"element index {idx} out of range")
        return idx
    if name == "transposition":
        candidates = [
            i for i, nm in enumerate(group.element_names) if nm.count("(") == 1
            and len(nm.split()) == 2
        ]
        if candidates:
            return candidates[0]
    if group.element_names and name in group.element_names:
        return group.element_names.index(name)
    raise UsageError(f"unknown element name {name!r} for group {group.name}")


def stabiliser_of(group, classes, name):
    """The named stabilising element, else the first element of the class."""
    return _element_by_name(group, name) if name else classes.elements[0]


def parse_class(spec, group):
    """rep:<element> | elems:[i,...] | JSON per the groups schema."""
    if spec.startswith("{"):
        return ClassSet.from_json(_json(spec, "class spec"), group)
    if spec.startswith("rep:"):
        return conjugacy_closure({_element_by_name(group, spec[4:])}, group)
    if spec.startswith("elems:"):
        elems = _json(spec[6:], "class spec")
        if not isinstance(elems, list) or not all(map(is_int, elems)):
            raise UsageError(
                f"elems: needs a JSON list of integers, got {spec[6:]!r}")
        return ClassSet(group, tuple(sorted(set(elems))))
    raise UsageError(f"cannot parse class spec {spec!r}")


def require_group_class(args):
    if not getattr(args, "group", None) or not getattr(args, "class_spec", None):
        raise UsageError("--group and --class are required (flags or --config)")


def require_counts(args, *names):
    """Refuse a negative value of a count flag with exit 64."""
    for name in names:
        if getattr(args, name) < 0:
            raise UsageError(f"need --{name.replace('_', '-')} >= 0")


def require_one_worker(args):
    """``--workers`` stays for scripts that pass it; every command runs
    in one process, so any value but 1 is a usage error."""
    if args.workers != 1:
        raise UsageError(f"--workers accepts only 1, got {args.workers}")


def resolve_grid(args, classes):
    """Fill in the desk-scale default grid when flags are omitted:
    i_max = 2, k_max = 9 for a singleton class; i_max = 1, k_max = 6 for
    |c| <= 3; larger classes need explicit flags."""
    if args.kmax is None:
        if len(classes) == 1:
            args.kmax = 9
        elif len(classes) <= 3:
            args.kmax = 6
        else:
            raise UsageError("--kmax is required when |c| > 3")
    if args.imax is None:
        args.imax = 2 if len(classes) == 1 else 1
    if args.imax < 0 or args.kmax < 1:
        raise UsageError("need --imax >= 0 and --kmax >= 1")


def parse_k_range(spec):
    """'3' -> range(3, 4); '1..4' -> range(1, 5)."""
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        lo, hi = _int(lo, "k"), _int(hi, "k")
        if lo < 1 or hi < lo:
            raise UsageError(f"bad k range {spec!r}")
        return range(lo, hi + 1)
    k = _int(spec, "k")
    if k < 1:
        raise UsageError("k must be >= 1")
    return range(k, k + 1)


# ---------------------------------------------------------------------------
# cache


class ResultCache:
    """Write-once JSON cache keyed by content hash; corrupted entries
    are detected by checksum and recomputed."""

    def __init__(self, root, enabled=True):
        self.root = root
        self.enabled = enabled

    @staticmethod
    def default_root():
        env = os.environ.get("HURSTAB_CACHE")
        if env:
            return env
        base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
        return os.path.join(base, "hurstab")

    def _path(self, key):
        return os.path.join(self.root, f"{key}.json")

    @staticmethod
    def key_of(payload):
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def get(self, key):
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                wrapped = json.load(fh)
            if self.key_of(wrapped["payload"]) != wrapped["checksum"]:
                return None
            return wrapped["payload"]
        except (OSError, ValueError, KeyError):
            return None

    def put(self, key, payload):
        if not self.enabled:
            return
        path = self._path(key)
        if os.path.exists(path) and self.get(key) is not None:
            return  # write-once
        os.makedirs(self.root, exist_ok=True)
        wrapped = {"checksum": self.key_of(payload), "payload": payload}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            # json.dump always runs the pure-Python encoder; dumps is C
            fh.write(json.dumps(wrapped, sort_keys=True))
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# report emission


def emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def render_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def resolved_config(args, keys):
    cfg = {"version": MODEL_VERSION}
    for key in keys:
        cfg[key] = getattr(args, key, None)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_orbits(args):
    require_group_class(args)
    group = parse_group(args.group)
    classes = parse_class(args.class_spec, group)
    ks = parse_k_range(args.k)
    require_one_worker(args)
    # refuse the whole range before enumerating any k
    refuse_orbit_range(classes, ks)
    rows = ["k\torbits\tsizes"]
    payload = {}
    for k in ks:
        part = orbits(classes, k)
        rows.append(f"{k}\t{len(part)}\t{','.join(map(str, part.sizes))}")
        payload[str(k)] = {"count": len(part), "sizes": part.sizes}
    if args.format == "json":
        doc = {
            "config": resolved_config(args, ["group", "class_spec", "k"]),
            "orbits": payload,
        }
        emit(render_json(doc), args.out)
    else:
        emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


GRID_CONFIG = ["group", "class_spec", "stabiliser", "imax", "kmax", "coeff"]


def cmd_grid(args):
    """`homology` and `stability`: the same grid.  Only `stability`
    reads and writes the cache, records it in the config block, and
    exits 2 on a violated asserted range."""
    stability = args.command == "stability"
    require_group_class(args)
    group = parse_group(args.group)
    classes = parse_class(args.class_spec, group)
    g_hat = stabiliser_of(group, classes, args.stabiliser)
    coeff = hm.Coeff.parse(args.coeff)
    resolve_grid(args, classes)
    require_one_worker(args)
    if stability:
        cache = ResultCache(args.cache_dir or ResultCache.default_root(),
                            enabled=args.cache)
    else:
        cache = ResultCache(None, enabled=False)
    key = ResultCache.key_of(
        {
            "kind": "stability",
            "table": [list(r) for r in group.table],
            "class": list(classes.elements),
            "g_hat": g_hat,
            "imax": args.imax,
            "kmax": args.kmax,
            "coeff": str(coeff),
            "version": MODEL_VERSION,
        }
    )
    report_json = cache.get(key)
    if report_json is None:
        report_json = xp.stability_table(
            group,
            classes,
            g_hat,
            i_max=args.imax,
            k_max=args.kmax,
            coeff=coeff,
        ).to_json()
        cache.put(key, report_json)
    config = resolved_config(
        args, GRID_CONFIG + ["cache"] if stability else GRID_CONFIG)
    if args.format == "json":
        emit(render_json({"config": config, "report": report_json}), args.out)
    else:
        emit(_tsv_from_report_json(report_json), args.out)
    violated = report_json["asserted"] and not report_json["assertion_passed"]
    return EXIT_ASSERTION if stability and violated else EXIT_OK


def _tsv_from_report_json(rj):
    lines = ["k\ti\thomology\tmap_iso\tmap_surj\tmap_inj\tmap_split"]
    for key in sorted(rj["cells"], key=lambda s: tuple(map(int, s.split(",")))):
        k, i = key.split(",")
        cell = rj["cells"][key]
        group = hm.HomologyGroup(cell["free"], tuple(cell["torsion"]))
        mp = rj["maps"].get(key)
        flags = (
            [str(mp["iso"]), str(mp["surj"]), str(mp["inj"]), str(mp["split"])]
            if mp
            else ["-", "-", "-", "-"]
        )
        lines.append(
            "\t".join([k, i, xp.cell_str(group, rj["coeff"])] + flags)
        )
    return "\n".join(lines) + "\n"


def cmd_degree(args):
    require_counts(args, "kmax", "cutoff")
    if args.system:
        with open(args.system, encoding="utf-8") as fh:
            spec = _json(fh.read(), "system file")
        system = _system_from_json(spec, args.kmax)
    else:
        if not args.group or not args.class_spec:
            raise UsageError("degree needs either --system or --group/--class")
        group = parse_group(args.group)
        classes = parse_class(args.class_spec, group)
        g_hat = stabiliser_of(group, classes, args.stabiliser)
        system = cs.build_hurwitz_system(group, classes, g_hat, args.kmax)
    report = cs.degree(system, args.cutoff)
    if args.format == "tsv":
        lines = ["delta_step\tranks"]
        for step, ranks in enumerate(report.delta_ranks):
            lines.append(f"{step}\t{','.join(map(str, ranks))}")
        lines.append(f"degree\t{report.value}")
        emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    doc = {
        "config": resolved_config(
            args, ["group", "class_spec", "stabiliser", "kmax", "cutoff"]
        ),
        "system": system.to_json(),
        "degree": report.to_json(),
    }
    emit(render_json(doc), args.out)
    return EXIT_OK


def _system_from_json(spec, k_max):
    """Synthetic Kunneth system from JSON graded ranks and optional
    automorphism matrices."""
    try:
        HY = cs.GradedModule.from_rank_list(spec.get("HY", [1]))
        HZ = cs.GradedModule.from_rank_list(spec["HZ"])
        cZ = {int(d): M for d, M in spec.get("cZ", {}).items()}
        i = spec["i"]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise cs.CoeffSystemError(f"malformed system spec: {e!r}") from None
    return cs.build_kunneth_system(HY, HZ, i, k_max, cZ=cZ or None)


def cmd_monodromy_check(args):
    require_counts(args, "samples")
    if args.model:
        with open(args.model, encoding="utf-8") as fh:
            spec = _json(fh.read(), "model file")
        if not isinstance(spec, dict) or "group" not in spec:
            raise md.MonodromyError("model spec needs a 'group'")
        group = FiniteGroup.from_json(spec["group"])
        model = md.MonodromyModel.from_json(spec, group)
    else:
        group = FiniteGroup.cyclic(2)
        model = md.MonodromyModel(
            group=group,
            states=3,
            action=((0, 1, 2), (0, 2, 1)),
            sign=(1, -1),
            reflection=(0, 2, 1),
        )
    checks, failures = md.check_model(model, args.samples)
    doc = {
        "config": resolved_config(args, ["model", "seed", "samples"]),
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }
    emit(render_json(doc), args.out)
    return EXIT_OK if not failures else EXIT_ASSERTION


def cmd_selftest(args):
    """Direct oracle checks of the documented examples; exit 0 iff all
    hold."""
    from .braid import BraidWord, HurwitzTuple, hurwitz_act, total_product

    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    s3 = FiniteGroup.symmetric(3)
    names = s3.element_names
    i12, i13, i23 = (names.index(x) for x in ("(1 2)", "(1 3)", "(2 3)"))
    check("mul-(12)(13)", names[s3.mul(i12, i13)] == "(1 3 2)")
    check("identity-law", all(s3.mul(0, g) == g for g in s3.elements()))
    check("inverse-law", all(s3.mul(g, s3.inv(g)) == 0 for g in s3.elements()))
    c = conjugacy_closure({i12}, s3)
    check("closure-(12)", set(c.elements) == {i12, i13, i23})
    check("closure-identity",
          conjugacy_closure({0}, s3).elements == (0,))
    z4 = FiniteGroup.cyclic(4)
    check("closure-abelian", conjugacy_closure({1}, z4).elements == (1,))
    check("central-abelian", conjugacy_closure({1}, z4).is_central())
    check("central-transpositions", not c.is_central())
    check("inversion-closed", c.is_inversion_closed())
    check("inversion-z3",
          not conjugacy_closure({1}, FiniteGroup.cyclic(3)).is_inversion_closed())
    check("generates", c.generates())
    check("generates-identity",
          not conjugacy_closure({0}, s3).generates())
    check("generates-z4", conjugacy_closure({1}, z4).generates())
    t = HurwitzTuple(c, (i12, i13))
    moved = hurwitz_act(BraidWord.from_signed(2, [1]), t)
    check("hurwitz-move", moved.entries == (i23, i12))
    back = hurwitz_act(BraidWord.from_signed(2, [-1]), moved)
    check("hurwitz-inverse", back.entries == t.entries)
    check("hurwitz-empty",
          hurwitz_act(BraidWord(2, ()), t).entries == t.entries)
    check("total-product", total_product(t) == total_product(moved))
    part1 = orbits(c, 1)
    part2 = orbits(c, 2)
    check("orbits-k1", len(part1) == 3)
    check("orbits-k2", len(part2) == 5)
    snf = hm.smith_normal_form({0: {0: 2, 1: 4}, 1: {0: 6, 1: 8}}, (2, 2))
    check("snf-example", snf.invariant_factors == [2, 4])
    check("snf-identity", hm.smith_normal_form(
        {0: {0: 1}, 1: {1: 1}}, (2, 2)).invariant_factors == [1, 1])
    check("snf-zero", hm.smith_normal_form({}, (1, 1)).invariant_factors == [])
    check("split-z1z", hm.is_split_injective([0], [0], [[1]]))
    check("split-z2z", not hm.is_split_injective([0], [0], [[2]]))
    check("split-torsion", not hm.is_split_injective([2], [4], [[2]]))
    doc = {
        "config": {"version": MODEL_VERSION},
        "failures": failures,
        "passed": not failures,
    }
    emit(render_json(doc), args.out)
    return EXIT_OK if not failures else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# argument wiring
#
# Each command's flags are declared once, as (option, add_argument
# keywords), in COMMANDS: name -> (help, flags, handler).  read_canonical
# reads the canonical argv straight from it; build_parser builds the
# argparse parser that handles every other argv from it too.

COMMON_FLAGS = (
    ("--config", {"help": "JSON file of flag defaults; explicit flags win"}),
    ("--group", {"help": "sym:N | cyclic:N | dihedral:N | quaternion | JSON"}),
    ("--class", {"dest": "class_spec", "help": "rep:<elt> | elems:[...] | JSON"}),
    ("--out", {"help": "output path (default stdout)"}),
    ("--format", {"choices": ("tsv", "json"), "default": "tsv"}),
    ("--workers", {"type": int, "default": 1,
                   "help": "accepted for existing scripts; only 1"}),
)
GRID_FLAGS = COMMON_FLAGS + (
    ("--stabiliser", {}),
    ("--kmax", {"type": int,
                "help": "default: 9 when |c| = 1, 6 when |c| <= 3"}),
    ("--imax", {"type": int,
                "help": "default: 2 when |c| = 1, 1 when |c| <= 3"}),
    ("--coeff", {"default": "Z", "help": "Z | Q | Fp:<p>"}),
)
COMMANDS = {
    "orbits": ("Hurwitz orbit counts", COMMON_FLAGS + (
        ("--k", {"required": True, "help": "single k or range a..b"}),
    ), cmd_orbits),
    "homology": ("homology grid without cache", GRID_FLAGS, cmd_grid),
    "stability": ("stability report with assertions", GRID_FLAGS + (
        ("--cache", {"action": "store_true", "default": True}),
        ("--no-cache", {"dest": "cache", "action": "store_false"}),
        ("--cache-dir", {}),
    ), cmd_grid),
    "degree": ("degree of a coefficient system", (
        ("--config", {}),
        ("--group", {}),
        ("--class", {"dest": "class_spec"}),
        ("--stabiliser", {}),
        ("--system", {"help": "JSON file for a synthetic system "
                              "(overrides --group)"}),
        ("--kmax", {"type": int, "required": True}),
        ("--cutoff", {"type": int, "default": 4}),
        ("--out", {}),
        ("--format", {"choices": ("tsv", "json"), "default": "json"}),
    ), cmd_degree),
    "monodromy-check": ("labeled-injection validation", (
        ("--model", {"help": "JSON model file"}),
        ("--samples", {"type": int, "default": 1000}),
        ("--seed", {"type": int, "default": 0}),
        ("--out", {}),
    ), cmd_monodromy_check),
    "selftest": ("run the documented oracle checks", (
        ("--out", {}),
    ), cmd_selftest),
}


def read_canonical(argv):
    """The namespace argparse gives ``argv``, read straight from COMMANDS
    when ``argv`` is canonical, else None.  Canonical: a command, then
    exact flags of it (not ``-h``, ``--help`` or ``--config``), a store
    flag without a value and every other flag with one value that does
    not start with ``-``, converts by its ``type`` and is one of its
    ``choices``, and every required flag given.  A repeated flag keeps
    its last value, as in argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, flags, fn = COMMANDS[argv[0]]
    args = {"command": argv[0], "fn": fn}
    specs = {}
    for option, kw in flags:
        dest = kw.get("dest") or option[2:].replace("-", "_")
        # flags sharing a dest take the first one's default, as in argparse
        args.setdefault(dest, kw.get("default"))
        if option != "--config":
            specs[option] = dest, kw
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in specs:
            return None
        dest, kw = specs[token]
        given.add(token)
        if "action" in kw:
            args[dest] = kw["action"] == "store_true"
            continue
        value = next(tokens, "-")  # so a missing value declines too
        if value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
        args[dest] = value
    if any(kw.get("required") and option not in given for option, kw in flags):
        return None
    return SimpleNamespace(**args)


def build_parser():
    import argparse

    ap = argparse.ArgumentParser(
        prog="hurstab",
        description=(
            "Exact homology of Hurwitz spaces and twisted braid-group "
            "homology, with homological-stability verdicts."
        ),
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, flags, fn) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for option, kw in flags:
            p.add_argument(option, **kw)
        p.set_defaults(fn=fn)
    ap._subcommands = sub.choices
    return ap


PATH_KEYS = ("out", "cache_dir", "system")


def _apply_config(path, parser):
    """Install the JSON config at ``path`` as defaults of the subcommand's
    parser (subparsers parse into a fresh namespace), so explicit flags
    win.  A value is read as its text on the command line would be, a
    number, list or object as its JSON text; ``cache`` takes a JSON
    boolean and a file flag (PATH_KEYS) a string.  Null values and keys
    the subcommand lacks are ignored."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError(f"--config {path} must hold a JSON object")
    actions = {a.dest: a for a in parser._actions}
    for key, value in raw.items():
        action = actions.get({"class": "class_spec"}.get(key, key.replace("-", "_")))
        if action is None or value is None:
            continue
        if action.nargs == 0 or action.dest in PATH_KEYS:
            ok = isinstance(value, bool if action.nargs == 0 else str)
        else:
            try:
                text = value if isinstance(value, str) else json.dumps(value)
                value = (action.type or str)(text)
                ok = not action.choices or value in action.choices
            except ValueError:
                ok = False
        if not ok:
            raise UsageError(f"--config {key}: invalid value {json.dumps(value)}")
        parser.set_defaults(**{action.dest: value})


def parse_argv(argv):
    """The parsed namespace: read directly when ``argv`` is canonical,
    else by argparse, with the ``--config`` file's defaults applied."""
    args = read_canonical(argv)
    if args is None:
        ap = build_parser()
        args = _parse_command(ap, argv)
        if getattr(args, "config", None) is not None:
            _apply_config(args.config, ap._subcommands[args.command])
            args = _parse_command(ap, argv)
    return args


def _parse_command(ap, argv):
    """``ap.parse_args(argv)``, reporting unknown tokens by the command."""
    args, extra = ap.parse_known_args(argv)
    if extra:
        ap._subcommands[args.command].error(
            f"unrecognized arguments: {' '.join(extra)}")
    return args


def run(argv):
    try:
        args = parse_argv(argv)
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (GroupError, BraidError, ResolutionError, hm.HomologyError,
            cs.CoeffSystemError, md.MonodromyError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except cost.ResourceRefusal as e:
        print(f"resource refusal: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
