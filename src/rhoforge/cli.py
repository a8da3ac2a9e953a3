"""Command-line verification pipelines and report emission.

Every subcommand assembles a JSON report: command echo, inputs, input
digest, named checks with pass/fail/info status, library version, and
wall clock.  Reports are written atomically and are byte-identical
across runs with the same inputs, apart from the timing field.

``inputs`` records the arguments; an input file appears as the sha256
and size of its bytes, not as a copy.  Both digests come from the
interpreter's built-in SHA-256 (``_sha2``, ``_sha256`` before 3.12), as
``random`` takes its ``_sha512``, and match ``sha256sum``.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error
(bad arguments, a malformed or unreadable input file, an unwritable
output path, a ``rho-sweep`` row whose rho or bound overflows a float),
3 resource cap exceeded.

Importing this module loads only the cell cap (``cap``) of the package.
Every layer is imported by the handlers that use it: the bounding
layers (``groups``, ``bar``, ``polytopes``, ``towers``) by
``bound-chain``, ``verify-polytope`` and ``constants`` (``towers``
loads the pure-Python ``smith`` only to count a holonomy subgroup too
large for the cell cap), and ``delta``, ``lens`` and ``hyperbolize`` by
the commands that build complexes or sweep rho.  So ``bound-chain``,
``verify-polytope`` and ``rho-sweep`` run without loading numpy, and no
command that loads numpy compiles or runs the bounding stack,
``constants`` aside (it needs ``catalan_number``).  Those imports name
the package absolutely: inside a function a relative import looks up
``__spec__.parent``, a Python property, on every call, which doubles its
cost of about a microsecond.  No command loads ``hashlib``, which maps
OpenSSL's libcrypto (about 3.5 MB of peak memory); it is the digests'
fallback only, for an interpreter built without its own SHA-256.

Reports are emitted as ``json.dumps(report, indent=2)`` would write
them, by ``_dumps``, which takes only the types reports hold: a table of
flat rows (``rho-sweep``'s 1,997 at the benchmark's size) in one call of
json's C encoder, anything else value by value.  A sweep with fewer
rows than ``rho_polynomial``'s d + 1 nodes takes each row from its own
power sum, so a short sweep at large d does not pay for the
interpolation.

``main`` runs each command, from its handler to the report write, with
the cyclic garbage collector paused, then restores the collector's state
whether the command returned or raised; the result is printed after.  A
command allocates tens of thousands of short-lived containers (face
tuples, the reduction's boundary dicts, parsed JSON, report rows), all
acyclic and freed by reference counting, which the collector would
otherwise scan to no end.  The one cycle a command leaves is a group and
the elements it interns, freed at the next collection.  Library calls do
not touch the collector.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .cap import ResourceCapError, cell_cap

try:  # the interpreter's own SHA-256, not OpenSSL's (see above)
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    from .delta import DeltaComplex, HomologySummary
    from .groups import FiniteAbelianGroup


class UsageError(Exception):
    pass


# -- report plumbing --------------------------------------------------


def _jsonable(obj):
    from fractions import Fraction

    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return obj.numerator
        return {"num": obj.numerator, "den": obj.denominator}
    raise TypeError(f"not serializable: {type(obj).__name__}")


_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_SPECIALS.get(text, text)


_encode_str = json.encoder.encode_basestring_ascii

# The text of a scalar, by its exact type.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_FLAT = frozenset(_SCALAR_TEXT)


def _table_brackets(rows) -> str | None:
    """The brackets of the rows if ``rows`` is a table, else None.

    A table's rows are all non-empty dicts with str keys, or all
    non-empty lists, and hold only scalars of ``_FLAT`` types: such a
    row has no bracket outside its strings, and json never writes a raw
    newline inside a string.
    """
    kinds = set(map(type, rows))
    if kinds == {dict}:
        # one set of every row's keys, filled from the dicts' stored hashes
        if not {str}.issuperset(map(type, set().union(*rows))):
            return None
        brackets, cells = "{}", map(dict.values, rows)
    elif kinds == {list}:
        brackets, cells = "[]", rows
    else:
        return None
    for row in cells:
        if not row or not _FLAT.issuperset(map(type, row)):
            return None
    return brackets


def _emit(obj, indent: str, out: list) -> None:
    """Append the text of ``obj``, nested at ``indent``, to ``out``."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        out.append(text(obj))
    elif type(obj) is dict:
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        lead = "{\n" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(lead + _encode_str(key) + ": ")
            _emit(value, inner, out)
            lead = sep
        out.append("\n" + indent + "}")
    elif type(obj) is list:
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        brackets = type(obj[0]) in (dict, list) and _table_brackets(obj)
        if brackets:
            # one C-encoder call; its only raw newlines are the separators
            cell = inner + "  "
            opening, closing = brackets
            text = json.dumps(obj, check_circular=False,
                              separators=(",\n" + cell, ": "))
            out.append("[\n" + inner + opening + "\n" + cell)
            out.append(text[2:-2].replace(
                closing + ",\n" + cell + opening,
                "\n" + inner + closing + ",\n" + inner + opening + "\n" + cell,
            ))
            out.append("\n" + inner + closing + "\n" + indent + "]")
            return
        sep = ",\n" + inner
        lead = "[\n" + inner
        for value in obj:
            out.append(lead)
            _emit(value, inner, out)
            lead = sep
        out.append("\n" + indent + "]")
    else:
        _emit(_jsonable(obj), indent, out)


def _dumps(report) -> str:
    """``json.dumps(report, indent=2, default=_jsonable)``, byte for byte.

    Any ``indent`` sends json to its pure-Python encoder; this writes the
    same text directly, for what reports hold: dicts with str keys,
    lists, str, int, float, bool and None of exact type, and Fractions,
    written as ``_jsonable`` gives them.  Any other key or value is a
    TypeError.  Reports are trees, so there is no circular-reference
    check.

    A table (see ``_table_brackets``), the rho-sweep's rows or a level of
    face lists, is one call of json's C encoder with the cell indentation
    in its item separator; its rows are then opened by one replacement
    of the row boundary, and appended as one piece.
    """
    out: list[str] = []
    _emit(report, "", out)
    return "".join(out)


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    A path that cannot be written is a usage error naming ``path`` and
    the reason, never the temporary file; no temporary file is left.
    """
    import tempfile

    target = os.path.abspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=".rhoforge-", suffix=".tmp"
        )
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
        tmp = None
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _check(name: str, ok=None, **values) -> dict:
    status = "info" if ok is None else ("pass" if ok else "fail")
    return {"name": name, "status": status, "values": values}


def _assemble(command, inputs, checks, extra, t0) -> dict:
    digest = sha256(
        json.dumps(inputs, sort_keys=True).encode()
    ).hexdigest()
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    report = {
        "command": command,
        "inputs": inputs,
        "inputs_digest": digest,
        "version": __version__,
        "status": "fail" if failed else "pass",
        "failed_checks": failed,
        "checks": checks,
    }
    if extra:
        report.update(extra)
    report["elapsed_s"] = round(time.monotonic() - t0, 6)
    return report


# -- shared input loading ---------------------------------------------


def _load_file(path: str, build, missing: str, invalid: str):
    """``build`` applied to the JSON object in ``path``, and its digest.

    The file's bytes are read once, parsed, and hashed for the report's
    ``inputs``.  A key ``build`` misses becomes the usage error
    "<missing> without key ...", a value it rejects "<invalid>: ...".
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise UsageError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    try:
        built = build(data)
    except KeyError as exc:
        raise UsageError(f"{missing} without key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{invalid}: {exc}") from None
    digest = {"sha256": sha256(raw).hexdigest(), "bytes": len(raw)}
    return built, digest


def _parse_group(text: str) -> FiniteAbelianGroup:
    from rhoforge.groups import FiniteAbelianGroup

    try:
        moduli = [int(p) for p in text.split(",") if p.strip()]
        if not moduli:
            raise ValueError("no moduli")
        return FiniteAbelianGroup(moduli)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad group {text!r}: {exc}") from None


def _group_from_field(field) -> FiniteAbelianGroup:
    """A cycle file's group: a list of moduli, or ``{"moduli": [...]}``."""
    from rhoforge.groups import FiniteAbelianGroup

    if isinstance(field, list):
        return FiniteAbelianGroup(field)
    if not isinstance(field, dict):
        raise TypeError(
            f'group is {field!r}, not a list of moduli or an object with '
            '"moduli"'
        )
    return FiniteAbelianGroup.from_json(field)


def _octagon(args):
    """The first generator of ``--group`` and the inputs of --octagon."""
    if not args.group:
        raise UsageError("--octagon needs --group")
    group = _parse_group(args.group)
    g = group.element([1] + [0] * (len(group.moduli) - 1))
    return g, {"octagon": True, "group": group.to_json()}


def _load_cycle(args):
    """Cells for bound-chain: a JSON file or the built-in octagon.

    Files carry {"group": ..., "cells": [{"gen": ..., "sign": ...}]} for
    an explicit decomposition, or {"group": ..., "degree": ...,
    "terms": ...} for a collapsed chain whose terms expand by |coef|.
    Either form needs degree >= 1, and explicit cells must be nonempty
    and of one degree; a file that breaks this is a usage error.
    """
    if args.octagon and args.cycle:
        raise UsageError("pass either --cycle or --octagon, not both")
    if args.octagon:
        from rhoforge.polytopes import octagon_cells

        g, inputs = _octagon(args)
        return octagon_cells(g, g, g, g), inputs
    if not args.cycle:
        raise UsageError("need --cycle FILE or --octagon")
    flag_group = _parse_group(args.group) if args.group else None

    def build(data):
        from rhoforge.bar import BarChain
        from rhoforge.polytopes import cells_from_json, decomposition_degree

        if "group" in data:
            group = _group_from_field(data["group"])
            if flag_group is not None and group.moduli != flag_group.moduli:
                raise UsageError("--group disagrees with the cycle file")
        elif flag_group is not None:
            group = flag_group
        else:
            raise UsageError("cycle file has no group; pass --group")
        if "cells" in data:
            payload = cells_from_json(group, data["cells"])
            # bounding_chain sorts the cells; only their degree is read here
            degree = decomposition_degree(payload)
        elif "terms" in data:
            payload = BarChain.from_json(group, data)
            degree = payload.degree
        else:
            raise UsageError("cycle file needs 'cells' or 'terms'")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return group, payload

    (group, payload), digest = _load_file(
        args.cycle, build, "cycle file entry", "bad cycle file entry"
    )
    return payload, {"cycle": digest, "group": group.to_json()}


def _builtin_complex(spec: str) -> DeltaComplex:
    from rhoforge.delta import boundary_simplex, ngon, simplex

    name, _, rest = spec.partition(":")
    try:
        if name == "ngon":
            return ngon(int(rest))
        if name == "simplex":
            return simplex(int(rest))
        if name == "boundary-simplex":
            return boundary_simplex(int(rest))
        if name == "lens":
            from rhoforge.lens import LensSpec, lens_complex

            parts = rest.split(",")
            if len(parts) != 2:
                raise UsageError(f"bad builtin {spec!r}: lens needs N,D")
            n, d = map(int, parts)
            return lens_complex(LensSpec(n, d))
    except ValueError as exc:  # LensError included
        raise UsageError(f"bad builtin {spec!r}: {exc}") from None
    raise UsageError(
        f"unknown builtin {name!r}; use ngon:N, simplex:N, "
        "boundary-simplex:N, or lens:N,D"
    )


def _load_complex(args):
    if args.builtin and args.complex:
        raise UsageError("pass either --complex or --builtin, not both")
    if args.builtin:
        return _builtin_complex(args.builtin), {"builtin": args.builtin}
    if args.complex:
        from rhoforge.delta import DeltaComplex

        K, digest = _load_file(
            args.complex, DeltaComplex.from_json, "complex file",
            "invalid complex",
        )
        return K, {"complex": digest}
    raise UsageError("need --complex FILE or --builtin NAME")


def _homology_payload(H: HomologySummary) -> dict:
    return {
        "betti": list(H.betti),
        "torsion": [list(t) for t in H.torsion],
        "groups": [H.group(q) for q in range(len(H.betti))],
    }


# -- subcommands ------------------------------------------------------


def _cmd_bound_chain(args):
    from rhoforge.polytopes import NotACycleError
    from rhoforge.towers import bounding_chain

    payload, inputs = _load_cycle(args)
    checks = []
    extra = {}
    try:
        result = bounding_chain(payload)
    except NotACycleError as exc:
        checks.append(_check("input-is-cycle", False, error=str(exc)))
        return inputs, checks, extra
    checks.append(_check("input-is-cycle", True))
    checks.append(
        _check(
            "boundary-identity",
            result.verified,
            multiplicity=result.multiplicity,
        )
    )
    checks.append(
        _check(
            "complexity-bound",
            result.complexity <= result.bound,
            complexity=result.complexity,
            bound=result.bound,
        )
    )
    extra["bounding"] = {
        "multiplicity": result.multiplicity,
        "cells": result.cells,
        "complexity": result.complexity,
        "bound": result.bound,
        "polytopes": [
            {
                "cells": p.cells,
                "pair_count": p.pair_count,
                "copies": p.copies,
                "heights": list(p.heights),
            }
            for p in result.polytopes
        ],
    }
    return inputs, checks, extra


def _cmd_verify_polytope(args):
    from rhoforge.polytopes import (
        ColoredPolytope,
        ColoringError,
        NotACycleError,
        octagon_polytope,
    )

    if args.octagon and args.polytope:
        raise UsageError("pass either --polytope or --octagon, not both")
    if args.octagon:
        g, inputs = _octagon(args)
        P = octagon_polytope(g, g, g, g)
    elif args.polytope:
        P, digest = _load_file(
            args.polytope, ColoredPolytope.from_json, "polytope file",
            "invalid polytope",
        )
        if args.group and _parse_group(args.group).moduli != P.group.moduli:
            raise UsageError("--group disagrees with the polytope file")
        inputs = {"polytope": digest}
    else:
        raise UsageError("need --polytope FILE or --octagon")
    # one propagation decides the coloring and gives the labeling
    try:
        labeling = P.endow(P.group.identity)
    except ColoringError:
        checks = [_check("coloring", False)]
    else:
        checks = [
            _check("coloring", True),
            _check("endowment-consistent", labeling.check()),
        ]
    try:
        pairs = P.boundary_pairs()
        checks.append(_check("boundary-pairs", None, count=len(pairs)))
    except NotACycleError:
        checks.append(_check("boundary-pairs", None, count=None,
                             note="chain is not a cycle"))
    extra = {
        "polytope": {
            "degree": P.degree,
            "cells": len(P.cells),
            "gluings": len(P.gluings),
            "vertices": P.vertex_count,
        }
    }
    return inputs, checks, extra


def _cmd_homology(args):
    K, inputs = _load_complex(args)
    extra = {
        "f_vector": list(K.f_vector()),
        "euler": K.euler(),
        "homology": _homology_payload(K.homology()),
    }
    return inputs, [], extra


def _cmd_torsion(args):
    K, inputs = _load_complex(args)
    dets = [K.laplacian_pseudodet(q) for q in range(max(K.dim, 0) + 1)]
    extra = {
        "pseudodeterminants": dets,
        "torsion": K.laplacian_torsion(),
    }
    return inputs, [], extra


def _cmd_fvector(args):
    K, inputs = _load_complex(args)
    extra = {
        "f_vector": list(K.f_vector()),
        "total": K.total_cells(),
        "euler": K.euler(),
        "dim": K.dim,
    }
    return inputs, [], extra


def _cmd_hyperbolize(args):
    from rhoforge.hyperbolize import (
        hyperbolized_simplex,
        hyperbolized_sphere,
        z_comparison_table,
    )

    n = args.dim
    if n not in (1, 2, 3):
        raise UsageError("--dim must be 1, 2, or 3")
    inputs = {"dim": n}
    stage = hyperbolized_simplex(n)
    checks = []
    extra = {
        "stage_counts": list(stage.complex.f_vector()),
        "z_table": z_comparison_table(),
    }
    if n <= 2:
        K = hyperbolized_sphere(n, stage).complex
        H = K.homology()
        f = K.f_vector()
        extra["sphere"] = {
            "f_vector": list(f),
            "euler": K.euler(),
            "homology": _homology_payload(H),
        }
        extra["complex"] = K.to_json()
        if n == 1:
            checks.append(
                _check(
                    "circle",
                    f == (6, 6) and H.betti == (1, 1),
                    f_vector=list(f),
                )
            )
        else:
            use = [0] * K.n_cells(1)
            for cell in K.faces[2]:
                for f in cell:
                    use[f] += 1
            checks.append(
                _check(
                    "closed-surface",
                    all(u == 2 for u in use),
                )
            )
            checks.append(
                _check(
                    "triangle-count",
                    K.n_cells(2) == 288,
                    triangles=K.n_cells(2),
                )
            )
            checks.append(
                _check(
                    "orientable-torsion-free",
                    H.betti[0] == 1
                    and H.betti[2] == 1
                    and all(not t for t in H.torsion),
                    betti=list(H.betti),
                )
            )
    return inputs, checks, extra


def _cmd_lens(args):
    from rhoforge.lens import LensError, LensSpec, lens_complex, lens_count

    try:
        spec = LensSpec(args.n, args.d)
        K = lens_complex(spec)
    except LensError as exc:
        raise UsageError(str(exc)) from None
    H = K.homology()
    f = K.f_vector()
    top = lens_count(spec).top
    checks = [
        _check("top-count", f[-1] == top, top=f[-1], expected=top),
        _check("euler-zero", K.euler() == 0, euler=K.euler()),
    ]
    if spec.d == 1:
        checks.append(_check("circle", H.betti == (1, 1)))
    else:
        checks.append(
            _check(
                "fundamental-torsion",
                H.betti[1] == 0 and H.torsion[1] == (spec.n,),
                h1_torsion=list(H.torsion[1]),
            )
        )
    inputs = {"N": spec.n, "d": spec.d}
    extra = {
        "f_vector": list(f),
        "total": sum(f),
        "homology": _homology_payload(H),
    }
    return inputs, checks, extra


def _cmd_rho_sweep(args):
    from rhoforge.lens import LensError, LensSpec, rho_lower_bound_check

    if args.stop < args.start:
        raise UsageError("--to must be at least --from")
    rows = []
    gated_failures = []
    # fewer rows than rho_polynomial's d + 1 nodes: each by its power sum
    by_power_sum = args.stop - args.start + 1 < args.d + 1
    for n in range(args.start, args.stop + 1):
        try:
            # the first row's LensSpec checks (N, d); later rows only raise N
            res = rho_lower_bound_check(LensSpec(n, args.d), by_power_sum)
        except LensError as exc:
            raise UsageError(str(exc)) from None
        except OverflowError:
            raise UsageError(
                f"rho or (N/pi)^d at (N, d) = ({n}, {args.d}) does not "
                "fit in a float"
            ) from None
        rows.append(
            {
                "N": n,
                "rho": res.rho,
                "lower_bound": res.bound,
                "pass": res.holds,
                "status": res.status,
            }
        )
        if res.status != "out_of_hypothesis" and not res.holds:
            gated_failures.append(n)
    checks = [
        _check(
            "bound-holds-in-hypothesis",
            not gated_failures,
            failures=gated_failures,
        )
    ]
    if args.csv:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["N", "rho", "lower_bound", "pass"])
        for row in rows:
            writer.writerow(
                [
                    row["N"],
                    repr(row["rho"]),
                    repr(row["lower_bound"]),
                    str(row["pass"]).lower(),
                ]
            )
        _atomic_write(args.csv, buf.getvalue())
    inputs = {"d": args.d, "from": args.start, "to": args.stop}
    extra = {"rows": rows}
    return inputs, checks, extra


def _cmd_constants(args):
    from rhoforge.hyperbolize import (
        thm12_constant,
        z_comparison_table,
        z_formula,
    )
    from rhoforge.lens import (
        divisor_count,
        homotopy_invariant_count,
        invariant_count,
    )
    from rhoforge.towers import catalan_number

    catalan = [catalan_number(k) for k in range(1, 6)]
    checks = [
        _check("z-4", z_formula(4) == 1728, value=z_formula(4)),
        _check(
            "thm12-k1",
            thm12_constant(1) == 2764800,
            value=thm12_constant(1),
        ),
        _check(
            "catalan",
            catalan == [1, 2, 5, 14, 42],
            values=catalan,
        ),
        _check(
            "invariant-counts",
            invariant_count(5, 7) == 2
            and invariant_count(6, 7) == 3
            and divisor_count(6) == 4
            and homotopy_invariant_count(6, 7) == 3,
        ),
    ]
    extra = {
        "z_table": z_comparison_table(),
        "thm12": {str(k): thm12_constant(k) for k in (1, 2)},
        "catalan": catalan,
    }
    return {}, checks, extra


# -- parser and dispatch ----------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once and reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="rhoforge",
        description="verification pipelines for colored-polytope bounding "
        "chains, lens quotients, and hyperbolized complexes",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--report", help="write the JSON report here (atomic)"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "bound-chain",
        parents=[common],
        help="build and verify a bounding chain for a cycle",
    )
    p.add_argument("--group", help="comma-separated moduli, e.g. 2 or 2,2")
    p.add_argument("--cycle", help="cycle JSON (cells or terms)")
    p.add_argument(
        "--octagon",
        action="store_true",
        help="use the built-in octagon decomposition with all four "
        "letters the first generator",
    )
    p.set_defaults(handler=_cmd_bound_chain)

    p = sub.add_parser(
        "verify-polytope",
        parents=[common],
        help="check coloring and endowment of a colored polytope",
    )
    p.add_argument("--polytope", help="polytope JSON file")
    p.add_argument(
        "--group", help="group moduli for --octagon, or of the --polytope file"
    )
    p.add_argument("--octagon", action="store_true")
    p.set_defaults(handler=_cmd_verify_polytope)

    for name, handler in (
        ("homology", _cmd_homology),
        ("torsion", _cmd_torsion),
        ("fvector", _cmd_fvector),
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--complex", help="complex JSON file")
        p.add_argument(
            "--builtin",
            help="ngon:N, simplex:N, boundary-simplex:N, or lens:N,D",
        )
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "hyperbolize",
        parents=[common],
        help="build a hyperbolization stage and its sphere",
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", dest="report", help="same as --report")
    p.set_defaults(handler=_cmd_hyperbolize)

    p = sub.add_parser("lens", parents=[common])
    p.add_argument("--N", dest="n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_lens)

    p = sub.add_parser("rho-sweep", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--from", dest="start", type=int, default=3)
    p.add_argument("--to", dest="stop", type=int, default=50)
    p.add_argument("--csv", help="write N,rho,lower_bound,pass rows here")
    p.set_defaults(handler=_cmd_rho_sweep)

    p = sub.add_parser("constants", parents=[common])
    p.set_defaults(handler=_cmd_constants)
    return parser


def main(argv=None) -> int:
    """Run one command line; returns the exit code.

    Arguments are parsed with the collector as the caller left it; the
    command, up to its report write, then runs with it paused (see the
    module docstring), and it is re-enabled afterwards only if it was
    enabled on entry.
    """
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        cell_cap()  # every construction reads it through require_cells
    except ValueError as exc:
        print(f"rhoforge: {exc}", file=sys.stderr)
        return 2
    collecting = gc.isenabled()
    gc.disable()
    try:
        inputs, checks, extra = args.handler(args)
        report = _assemble(args.subcommand, inputs, checks, extra, t0)
        try:
            text = _dumps(report)
        except ValueError:  # str() of an int past the interpreter's limit
            raise UsageError(
                "the report holds an integer too long to write (more than "
                f"{sys.get_int_max_str_digits()} digits)"
            ) from None
        if args.report:
            _atomic_write(args.report, text + "\n")
    except (UsageError, OSError) as exc:  # OSError: an input we cannot read
        print(f"rhoforge: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"rhoforge: resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()
    code = 0 if report["status"] == "pass" else 1
    try:
        if args.report:
            print(f"{report['status']}: report written to {args.report}")
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head``): stdout goes to devnull, so
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
