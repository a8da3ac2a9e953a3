"""Every function in the library is reached by some command, or is named
here with the reason it stays.

The commands below cover every subcommand on every kind of input.  They
run in-process under a profile hook that records each function entered
in ``src/rhoforge``; every ``def`` there must be entered or sit on one
of the allowlists below.  A function that no path uses then shows up as a failure of
this test, not at the next review of the library's surface.
"""

import ast
import json
import os
import sys
from pathlib import Path

import pytest

import rhoforge
from rhoforge import cli, lens
from rhoforge.cli import main
from rhoforge.groups import FiniteAbelianGroup
from rhoforge.polytopes import octagon_cells, octagon_polytope

# spelled as the modules' code objects spell their file names
SRC = Path(rhoforge.__file__).parent
DATA = Path(__file__).resolve().parents[1] / "bench" / "data"

# Not entered by any command below, by module and qualified name, in
# three lists.  Each says why its names stay in the library.
BENCH_LOOKUPS = {
    # looked up by name in bench/spans.py, which wraps them wherever they
    # are bound; they can move only with the trace spine of ROADMAP item 1.
    # The helpers only they call come with them.
    "delta": {
        "DeltaComplex.boundary_matrix", "DeltaComplex.laplacian",
        "DeltaComplex._dense_boundary", "FreeAction.validate", "quotient",
        "join", "join.face", "_join_halves",
    },
    "towers": {"tower", "_covering_step", "_shift_ref", "_pair_labels_agree"},
}
REFERENCES = {
    # reference implementations the tests check the library against:
    # exact determinants
    "smith": {"bareiss_determinant"},
}
API = {
    # public names that no command calls, not all of them documented.
    # Each stays for a reason of its own: the package's lazy lookups; the
    # chain, group and polytope protocols (dunders, JSON round-trips, and
    # conveniences over a value's own fields such as ``BarChain.single``
    # and ``GroupElement.is_identity``); names the README documents
    # (``point``, ``rho_atiyah_bott``); names an open ROADMAP item gives
    # a path (``cone``, ``rho_exact``, ``thm13_lower``,
    # ``BarChain.normalize``); ``VertexLabeling.translate``, the
    # reference a test checks ``endow`` against; and the lens and
    # theorem constants.  Four went off the command paths when those
    # stopped repeating work:
    # ``BarChain.is_zero`` (assembly checks the cycle from its face
    # index), ``GroupElement.__pow__`` (the holonomy subgroup grows by
    # cosets, not by |G| powers), ``ColoredPolytope.check_coloring``
    # (verify-polytope takes the verdict from its one ``endow``) and
    # ``ColoredPolytope.vertex_class`` (face labels are read from
    # ``VertexLabeling.cell_labels``)
    "__init__": {"__getattr__", "__dir__"},
    "bar": {
        "BarChain.__hash__", "BarChain.__repr__", "BarChain.is_cycle",
        "BarChain.is_zero", "BarChain.normalize", "BarChain.single",
        "BarChain.support_size", "BarChain.to_json",
    },
    "delta": {
        "DeltaComplex.__repr__", "HomologySummary.__str__", "cone", "point",
    },
    "groups": {
        "FiniteAbelianGroup.__eq__", "FiniteAbelianGroup.__hash__",
        "FiniteAbelianGroup.__iter__", "FiniteAbelianGroup.__repr__",
        "FiniteAbelianGroup.element_from_json", "FiniteAbelianGroup.exponent",
        "GroupElement.__bool__", "GroupElement.__eq__", "GroupElement.__ge__",
        "GroupElement.__gt__", "GroupElement.__le__", "GroupElement.__lt__",
        "GroupElement.__pow__", "GroupElement.__repr__",
        "GroupElement.is_identity", "GroupElement.order",
        "GroupElement.to_json", "cyclic",
    },
    "hyperbolize": {"relhyp_count"},
    "lens": {
        "LensSpec.dim", "RhoBoundResult.__bool__", "growth_exponent",
        "rho_atiyah_bott", "rho_exact", "thm13_lower",
    },
    "polytopes": {
        "ColoredPolytope.__repr__", "ColoredPolytope.chain",
        "ColoredPolytope.check_coloring",
        "ColoredPolytope.to_json", "ColoredPolytope.vertex_class",
        "VertexLabeling.translate",
    },
    "towers": {
        "Thm11Constant.__str__", "Thm11Constant.coefficient",
        "thm11_constant",
    },
}


def defined_functions():
    """(module, qualified name) -> (file, first line) of every def in
    the library; the first line is a decorator's where there is one, as
    in the function's code object."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    found[path.stem, name] = (str(path), first)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def commands(tmp_path):
    """The command lines run under the hook, their input files written
    before it starts.  Each is (argv, expected exit code or exception)."""
    g3 = FiniteAbelianGroup([3]).element([1])
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({
        "group": [3],
        "cells": [
            {"gen": [list(e.residues) for e in c.gen], "sign": c.sign}
            for c in octagon_cells(g3, g3, g3, g3)
        ],
    }))
    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps(
        {"group": [3], **octagon_polytope(g3, g3, g3, g3).chain().to_json()}
    ))
    g2 = FiniteAbelianGroup([2]).element([1])
    polytope = tmp_path / "polytope.json"
    polytope.write_text(json.dumps(octagon_polytope(g2, g2, g2, g2).to_json()))
    # level 1 is not a list: an invalid complex, and exit 2
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"vertices": 2, "faces": [[], 5]}))
    # a cell that is not an object, and a gluing that is not a pair: the
    # readers' failure paths name them, and exit 2
    bad_cells = tmp_path / "bad-cells.json"
    bad_cells.write_text(json.dumps({"group": [3], "cells": [[1, 2]]}))
    bad_gluings = tmp_path / "bad-gluings.json"
    bad_gluings.write_text(json.dumps(
        {**octagon_polytope(g2, g2, g2, g2).to_json(), "gluings": [[0, 1]]}
    ))
    report = str(tmp_path / "report.json")
    return [
        (["bound-chain", "--octagon", "--group", "2", "--report", report], 0),
        (["bound-chain", "--octagon", "--group", "3,3"], 0),
        (["bound-chain", "--cycle", str(cells)], 0),
        (["bound-chain", "--cycle", str(terms)], 0),
        (["bound-chain", "--cycle", str(bad_cells)], 2),
        # |G| * |C| over the cap: |H| is counted before H is built, exit 3
        (["bound-chain", "--octagon", "--group", "99999999999"], 3),
        (["verify-polytope", "--octagon", "--group", "5"], 0),
        (["verify-polytope", "--polytope", str(polytope)], 0),
        (["verify-polytope", "--polytope", str(bad_gluings)], 2),
        (["homology", "--builtin", "ngon:6"], 0),
        (["homology", "--builtin", "lens:4,4"], 0),
        (["homology", "--complex", str(DATA / "x3.json")], 0),
        (["homology", "--complex", str(DATA / "y2.json")], 0),
        (["homology", "--complex", str(malformed)], 2),
        (["fvector", "--builtin", "simplex:3"], 0),
        (["fvector", "--builtin", "boundary-simplex:3"], 0),
        (["torsion", "--builtin", "lens:8,3"], 0),
        (["torsion", "--builtin", "lens:4,4"], OverflowError),
        (["hyperbolize", "--dim", "1"], 0),
        (["hyperbolize", "--dim", "2"], 0),
        (["hyperbolize", "--dim", "3", "--out", report], 0),
        (["lens", "--N", "5", "--d", "3"], 0),
        (["rho-sweep", "--d", "2", "--from", "3", "--to", "50"], 0),
        (["rho-sweep", "--d", "6", "--from", "4", "--to", "50",
          "--csv", str(tmp_path / "rho.csv")], 1),
        (["constants"], 0),
    ]


def entered_functions(runs):
    """(file, first line) of every library function the runs enter."""
    # entered only on a cold cache, so start every one cold
    cli._build_parser.cache_clear()
    lens.rho_polynomial.cache_clear()
    src = os.path.join(SRC, "")
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv, expected in runs:
            if isinstance(expected, int):
                assert main(argv) == expected, argv
            else:
                with pytest.raises(expected):
                    main(argv)
    finally:
        sys.setprofile(previous)
    return entered


def test_every_function_is_entered_or_allowed(tmp_path):
    defined = defined_functions()
    entered = entered_functions(commands(tmp_path))
    unentered = {
        key for key, where in defined.items() if where not in entered
    }
    allowed = {
        (module, name)
        for lists in (BENCH_LOOKUPS, REFERENCES, API)
        for module, names in lists.items()
        for name in names
    }
    assert sorted(unentered - allowed) == []
    # an allowed name that is gone or now entered leaves the list
    assert sorted(allowed - unentered) == []
