"""The package root: its exports, resolved on first use, and what each
command loads at start-up."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rhoforge
from rhoforge.cli import main

# the root's exports, in order, as they stood when every one was imported
# eagerly
EXPORTS = [
    "FiniteAbelianGroup", "GroupElement", "GroupMismatchError", "cyclic",
    "BarChain", "bar_to_hom", "gen_boundary", "hom_to_bar",
    "SmithResult", "bareiss_determinant", "smith_normal_form",
    "ColoredCell", "ColoredPolytope", "ColoringError", "NotACycleError",
    "PolytopeError", "VertexLabeling", "assemble_polytopes", "octagon_cells",
    "octagon_chain", "octagon_polytope",
    "BoundingResult", "ResourceCapError", "Tower", "bounding_chain",
    "catalan_number", "cylinder", "cylinder_cell", "lemma_bound",
    "thm11_constant", "tower",
    "DeltaComplex", "DeltaComplexError", "FreeAction", "HomologySummary",
    "barycentric", "boundary_simplex", "circle", "cone", "join",
    "keyed_complex", "ngon", "point", "prism", "quotient", "simplex",
    "ComplexOverSimplex", "OverSimplexError", "construction_count",
    "degree_structure", "fiber_product", "hyperbolized_simplex",
    "hyperbolized_sphere", "relhyp_count", "simplex_over_itself",
    "thm12_constant", "williams", "z_comparison_table", "z_formula",
    "LensError", "LensSpec", "divisor_count", "growth_exponent",
    "homotopy_invariant_count", "invariant_count", "lens_complex",
    "lens_count", "rho_atiyah_bott", "rho_exact", "rho_lower_bound_check",
    "rho_polynomial", "thm13_lower",
]


class TestLazyRoot:
    def test_all_is_pinned(self):
        assert len(EXPORTS) == 72
        assert rhoforge.__all__ == EXPORTS

    @pytest.mark.parametrize("name", EXPORTS)
    def test_name_is_its_submodules_object(self, name):
        module = importlib.import_module(f"rhoforge.{rhoforge._EXPORTS[name]}")
        assert getattr(rhoforge, name) is getattr(module, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from rhoforge import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert all(namespace[name] is getattr(rhoforge, name) for name in EXPORTS)

    def test_dir_lists_every_name(self):
        assert set(EXPORTS) <= set(dir(rhoforge))
        assert "__version__" in dir(rhoforge)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rhoforge.no_such_name
        assert not hasattr(rhoforge, "no_such_name")

    def test_submodule_import(self):
        from rhoforge import delta

        assert delta is sys.modules["rhoforge.delta"]
        assert delta.DeltaComplex is rhoforge.DeltaComplex


# One interpreter runs the bounding and sweep commands, records which
# modules they loaded, then runs a homology command after them.
STARTUP = """
import contextlib, io, json, sys
from rhoforge.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())

codes = [
    run("bound-chain", "--octagon", "--group", "5")[0],
    run("verify-polytope", "--octagon", "--group", "5")[0],
    run("bound-chain", "--cycle", sys.argv[1])[0],
    run("rho-sweep", "--d", "6", "--from", "4", "--to", "50")[0],
]
loaded = sorted(m for m in ("numpy", "rhoforge.delta", "rhoforge.hyperbolize")
                if m in sys.modules)
code, report = run("homology", "--builtin", "lens:4,4")
print(json.dumps({"codes": codes, "loaded": loaded, "homology": [code, report],
                  "numpy_after": "numpy" in sys.modules}))
"""


def test_bounding_commands_start_without_numpy(tmp_path, capsys):
    # the octagon decomposition over Z/2, as explicit cells
    cycle = tmp_path / "octagon-2.json"
    cycle.write_text(json.dumps({
        "group": [2],
        "cells": [
            {"gen": [[1], [1]], "sign": 1}, {"gen": [[0], [1]], "sign": 1},
            {"gen": [[0], [1]], "sign": -1}, {"gen": [[1], [1]], "sign": -1},
            {"gen": [[0], [1]], "sign": -1}, {"gen": [[1], [0]], "sign": 1},
        ],
    }))
    src = str(Path(rhoforge.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP, str(cycle)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # rho-sweep --d 6 exits 1: its bound fails at N = 4 and 5
    assert out["codes"] == [0, 0, 0, 1]
    assert out["loaded"] == []
    code, report = out["homology"]
    assert main(["homology", "--builtin", "lens:4,4"]) == code == 0
    expected = json.loads(capsys.readouterr().out)
    del report["elapsed_s"], expected["elapsed_s"]
    assert report == expected
    assert report["homology"]["torsion"][1] == [4]
    assert out["numpy_after"]
