"""Command dispatch for the fermirep tool.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
or an operator file or manifest that reading refuses.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .. import fock
from ..errors import CapacityError
from . import matfile

# the commands import liealg, schwinger, verify and expr: each pays for its own
if TYPE_CHECKING:
    from .. import liealg, schwinger, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

GROUPS = ("un-standard", "un-nonstandard", "ucnm", "mixed")


def _rebuild_family(manifest: dict) -> Callable[[], liealg.GeneratorSet]:
    """The builder of the generator set a manifest names, refused before any
    allocation unless the set has one member per listed generator and the
    dimension its variant needs: the mode count, or C(modes, particles); a
    mixed manifest needs an xi and a pairing as mixed_rep takes them."""
    from .. import liealg, schwinger
    family, size = manifest.get("family"), len(manifest["generators"])
    fields = family if isinstance(family, dict) else {}
    name, dim = fields.get("name"), fields.get("dim")
    if name == "generalized_gell_mann" and type(dim) is int:
        count, build = dim * dim - 1, lambda: liealg.generalized_gell_mann(dim)
    elif name == "gell_mann":
        dim, count, build = 3, 8, liealg.gell_mann
    elif name == "spin1":
        dim, count, build = 3, 3, liealg.spin1_matrices
    else:
        raise ValueError(f"unknown generator family {family!r}")
    if count != size:
        raise ValueError(f"family {family!r} has {count} generators, the manifest lists {size}")
    variant, modes, m = manifest["variant"], manifest["modes"], manifest.get("particles")
    if variant in ("standard", "nssfr") and dim != modes:
        raise ValueError(f"family {family!r} acts on {dim} modes, the manifest says {modes}")
    if variant in ("ucnm", "mixed") and not (m and 0 < m < modes and math.comb(modes, m) == dim):
        raise ValueError(f"family {family!r} is {dim} x {dim}, not sector {m} of {modes} modes")
    if variant not in ("standard", "nssfr", "ucnm", "mixed"):
        raise ValueError(f"variant {variant!r} is not one that build writes")
    xi, pairing = manifest.get("xi"), manifest.get("pairing")
    if variant == "mixed" and (xi not in ([0, 1], [1, 0], [1, 1]) or pairing not in schwinger.PAIRINGS):
        raise ValueError(f"mixed manifest needs xi and a pairing in {schwinger.PAIRINGS}, "
                         f"got {xi!r} and {pairing!r}")
    return build


def build_variant(
    group: str,
    n: int,
    m: int | None,
    xi: tuple[int, int] | None,
    pairing: str = "conjugate",
):
    """The requested representation as consecutive parts plus its generator
    set: a standard one's parts are formed as the iteration reaches them,
    any other is one part.  The mode count is checked before the set is built."""
    from .. import liealg, schwinger
    fock._require_modes(n)
    if group in ("un-standard", "un-nonstandard"):
        gens = liealg.generalized_gell_mann(n)
        family = {"name": "generalized_gell_mann", "dim": n}
        if group == "un-standard":
            parts = schwinger.standard_parts(gens, n)
        else:
            parts = [schwinger.nssfr_un(gens, n)]
        return parts, gens, family
    if m is None:
        raise ValueError(f"group {group!r} requires --m")
    if not 1 <= m <= n - 1:
        raise ValueError(f"--m must be in [1, {n - 1}] for group {group!r}")
    k = fock.sector_dimension(n, m)
    gens = liealg.generalized_gell_mann(k)
    family = {"name": "generalized_gell_mann", "dim": k}
    if group == "ucnm":
        parts = [schwinger.rep_ucnm(gens, n, m)]
    else:
        parts = [schwinger.mixed_rep(gens, n, m, *(xi or (1, 1)), pairing)]
    return parts, gens, family


def representation_report(
    rep: schwinger.RepresentationResult, gens: liealg.GeneratorSet, tol: float,
) -> verify.VerificationReport:
    """verify.representation_checks of a built representation."""
    from .. import verify
    return verify.representation_checks(rep, gens, tol)


def cmd_build(args) -> int:
    mixed = args.group == "mixed"
    xi = tuple(1 if w is None else w for w in (args.xi_minus, args.xi_plus)) if mixed else None
    parts, _gens, family = build_variant(args.group, args.n, args.m, xi, args.pairing or "conjugate")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    generators = []
    # each part's files are written as the part is formed, then it is dropped
    for part in parts:
        meta = part.meta
        # the fields every file and the manifest open with, in this order
        xi = list(meta.xi) if meta.xi else None
        head = {"variant": meta.variant, "modes": meta.modes, "particles": meta.particles, "xi": xi}
        # only a mixed representation has a second generator set to record
        pairing = {"pairing": meta.pairing} if meta.pairing else {}
        for label, op in zip(meta.labels, part):
            idx = len(generators) + 1
            fname = f"generator_{idx:03d}.json"
            metadata = {**head, "index": idx, "label": label, "family": family, **pairing}
            matfile.write_operator(out / fname, op, metadata)
            generators.append({"label": label, "file": fname})
    manifest = {**head, "family": family, **pairing, "generators": generators}
    matfile.write_manifest(out / "manifest.json", manifest)
    print(f"wrote {len(generators)} generator files to {out}")
    return EXIT_OK


# verify --from reads a build in parts of at least this many stored entries,
# each dropped once checked: 18 parts of 7 or 8 generators at n = 12 standard,
# where it peaks at 38.0 MB RSS (37.6 at 2^13, 39.6 at 2^15, 46.6 read whole)
# in the CPU time of a whole read; at 2^13 it took 9 % more (2-vCPU VM, fresh
# processes, 30 alternating runs)
_PART_ENTRIES = 1 << 14


def _load_built(dirpath: Path):
    """The representation a build wrote, as consecutive parts of at least
    _PART_ENTRIES stored entries read when the iteration reaches them, and
    its generator set; a mixed one's meta carries the manifest's pairing."""
    from .. import schwinger
    manifest_path = dirpath / "manifest.json"
    manifest = matfile.read_manifest(manifest_path)
    items, modes = manifest["generators"], manifest["modes"]
    try:
        build = _rebuild_family(manifest)
    except ValueError as err:
        raise matfile.MatfileError(f"{manifest_path}: {err}") from None

    meta = schwinger.RepMeta(
        variant=manifest["variant"],
        modes=modes,
        particles=manifest.get("particles"),
        labels=tuple(item["label"] for item in items),
        xi=tuple(manifest["xi"]) if manifest.get("xi") else None,
        pairing=manifest.get("pairing"),
    )
    paths = [dirpath / item["file"] for item in items]

    def parts():
        ops, stored, start = [], 0, 0
        for path in paths:
            op, _meta = matfile.read_operator(path)
            if op.modes != modes:
                raise matfile.MatfileError(f"{path}: {op.modes} modes, the manifest says {modes!r}")
            ops.append(op)
            stored += op.mat.nnz
            if stored >= _PART_ENTRIES or start + len(ops) == len(items):
                labels = meta.labels[start:start + len(ops)]
                part = schwinger.RepresentationResult.from_ops(ops, replace(meta, labels=labels))
                ops, stored, start = [], 0, start + len(ops)
                yield part

    for path in paths:  # a missing file is refused before the family is built
        path.stat()
    return parts(), build()


def cmd_verify(args) -> int:
    from .. import verify
    if args.from_dir:
        rep, gens = _load_built(Path(args.from_dir))
        report = representation_report(rep, gens, args.tol)
    else:
        if args.n_max is None:
            raise ValueError("either --n-max or --from is required")
        report = verify.run_suite(args.n_max, args.tol)
    if args.report:
        path = Path(args.report)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            (report.write_json if args.format == "json" else report.write_text)(fh)
    print(
        f"{len(report)} checks, {report.failed_count()} failed, "
        f"max residual {report.max_residual():.3e}"
    )
    for c in report.failed(limit=20):
        print(f"FAIL {c.name} residual={c.residual:.3e}")
    return EXIT_OK if report.overall else EXIT_CHECK_FAILED


def cmd_table(args) -> int:
    import numpy as np

    from .. import liealg, schwinger
    if args.what == "selective":
        if args.m is None:
            raise ValueError("table selective requires --m")
        poly = schwinger.selective_function(args.n, args.m)
        print(poly)
        return EXIT_OK
    # su(n)'s 5n^3 - 9n^2 - 2n + 6 records, sorted by (i, j, l), peak held twice (as
    # chunks, then joined): reserved untouched first, what cannot be held is refused at once
    np.empty(max(0, 2 * (5 * args.n**3 - 9 * args.n**2 - 2 * args.n + 6)), liealg.RECORD_DTYPE)
    rec = liealg.generalized_gell_mann(args.n).constants.c
    # coefficients printed in the convention [G_i, G_j] = 2i f_ijk G_k
    f = rec["value"] / 2j
    upper = (rec["i"] < rec["j"]) & (abs(f) > 1e-12)
    for i, j, l, v in zip(rec["i"][upper], rec["j"][upper], rec["l"][upper], f[upper]):
        print(f"f[{i + 1},{j + 1},{l + 1}] = {v.real:.12g}")
    print(f"{int(upper.sum())} nonzero entries (i < j)")
    return EXIT_OK


def _format_complex(v: complex) -> str:
    if v.imag == 0:
        return f"{v.real:g}"
    if v.real == 0:
        return f"{v.imag:g}i"
    return f"{v.real:g}{v.imag:+g}i"


def cmd_eval(args) -> int:
    from . import expr as expr_mod
    try:
        tree = expr_mod.parse_expression(args.expression)
        op = expr_mod.evaluate(tree, args.n)
    except expr_mod.ExprError as err:
        print(f"parse error: {err.annotate(args.expression)}", file=sys.stderr)
        return EXIT_USAGE
    if args.check:
        reference, _meta = matfile.read_operator(Path(args.check))
        if reference.modes != op.modes:
            raise ValueError(
                f"reference acts on {reference.modes} modes, expression on {op.modes}"
            )
        diff = op.diff_max(reference)
        print(f"max difference vs {args.check}: {diff:.3e}")
        return EXIT_OK if diff <= args.tol else EXIT_CHECK_FAILED
    if args.out:
        metadata = {
            "variant": "expression",
            "modes": args.n,
            "expression": expr_mod.to_source(tree),
        }
        matfile.write_operator(Path(args.out), op, metadata)
        print(f"wrote {args.out}")
        return EXIT_OK
    dense = op.to_dense()
    if op.dim <= 32:
        for row in dense:
            print("  ".join(_format_complex(complex(v)) for v in row))
    else:
        for (r, c), v in sorted(op.entries().items()):
            print(f"({r}, {c}) {_format_complex(v)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermirep",
        description=(
            "Build exact fermionic-mode representations of unitary algebras, "
            "verify their algebraic identities, and evaluate operator expressions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a representation and export it")
    p_build.add_argument("group", choices=GROUPS)
    p_build.add_argument("--n", type=int, required=True, help="mode count")
    p_build.add_argument("--m", type=int, help="particle-number sector (ucnm, mixed)")
    p_build.add_argument("--xi-minus", type=int, choices=(0, 1), help="mixed only (default 1)")
    p_build.add_argument("--xi-plus", type=int, choices=(0, 1), help="mixed only (default 1)")
    p_build.add_argument(
        "--pairing",
        help="mixed only: second set on sector n - m is the conjugate set (default) or the same set",
    )
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run the identity suite or check built files")
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.add_argument("--report", default=None, help="write the report here")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument(
        "--from", dest="from_dir", default=None,
        help="verify a directory produced by build instead of running the suite",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="print selective polynomials or structure constants")
    p_table.add_argument("what", choices=("selective", "structure"))
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--m", type=int, default=None)
    p_table.set_defaults(func=cmd_table)

    p_eval = sub.add_parser("eval", help="evaluate a typed operator expression")
    # optional only to argparse: _parse_args requires it, and takes one that
    # starts with '-', such as -a(1), which argparse leaves over as an option
    p_eval.add_argument("expression", nargs="?")
    p_eval.add_argument("--n", type=int, required=True, help="mode count")
    p_eval.add_argument("--out", default=None, help="write the matrix as JSON")
    p_eval.add_argument("--check", default=None, help="compare against an operator file")
    p_eval.add_argument("--tol", type=float, default=0.0)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    args, extra = parser.parse_known_args(argv)
    if args.command == "eval" and args.expression is None:
        if not extra:
            parser.error("eval: the following arguments are required: expression")
        args.expression, extra = extra[0], extra[1:]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if not 0 <= getattr(args, "tol", 0) < math.inf:
        parser.error(f"argument --tol: must be a finite number of at least 0, got {args.tol}")
    # an option the command would drop is refused, not ignored
    unused, user = [], ""
    if args.command == "build":
        unused = ["m"] * (args.group in ("un-standard", "un-nonstandard"))
        unused += ["xi_minus", "xi_plus", "pairing"] * (args.group != "mixed")
        user = f"group {args.group}"
    elif args.command == "table" and args.what == "structure":
        unused, user = ["m"], "table structure"
    elif args.command == "verify" and args.from_dir:
        unused, user = ["n_max"], "verify --from"
    elif args.command == "eval" and args.check:
        unused, user = ["out"], "eval --check"
    for name in (name for name in unused if getattr(args, name) is not None):
        parser.error(f"argument --{name.replace('_', '-')}: {user} does not use it")
    return args


def main(argv=None) -> int:
    # Move the import heap (numpy and the CLI: ~21.5k objects) to the permanent
    # generation, so the full collection at interpreter exit skips it and
    # the OS reclaims it with the process, not one object at a time.  The
    # modules a command imports after this add about 1k objects at most.
    gc.freeze()
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except matfile.MatfileError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (CapacityError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as err:
        # a request too large for this machine, such as the generator array
        # of a huge family, refused where it is allocated
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
