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
# eagerly, but for ResourceCapError, which moved from towers to cap, and
# for two aliases that were deleted: octagon_chain and cylinder_cell
EXPORTS = [
    "FiniteAbelianGroup", "GroupElement", "GroupMismatchError", "cyclic",
    "BarChain", "bar_to_hom", "gen_boundary", "hom_to_bar",
    "SmithResult", "bareiss_determinant", "smith_normal_form",
    "ColoredCell", "ColoredPolytope", "ColoringError", "NotACycleError",
    "PolytopeError", "VertexLabeling", "assemble_polytopes", "octagon_cells",
    "octagon_polytope",
    "ResourceCapError",
    "BoundingResult", "Tower", "bounding_chain", "catalan_number",
    "cylinder", "lemma_bound", "thm11_constant", "tower",
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
        assert len(EXPORTS) == 70
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
# modules they loaded, then runs a homology command after them.  No
# command loads hashlib, which maps OpenSSL's libcrypto: the report
# digests come from the interpreter's built-in SHA-256.
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
loaded = sorted(m for m in ("numpy", "rhoforge.delta", "rhoforge.hyperbolize",
                            "rhoforge.smith", "_hashlib", "hashlib")
                if m in sys.modules)
code, report = run("homology", "--builtin", "lens:4,4")
after = sorted(m for m in ("numpy", "_hashlib", "hashlib") if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded, "homology": [code, report],
                  "after": after}))
"""


def fresh(script, *args, **env):
    """Run ``script`` in a new interpreter that imports the package from
    this checkout; its completed process."""
    src = str(Path(rhoforge.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, **env),
    )


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
    proc = fresh(STARTUP, str(cycle))
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
    assert out["after"] == ["numpy"]


# A tower whose |G| * |C| is over the cap counts its holonomy subgroup
# with the Smith normal form, which is pure Python.
HUGE_GROUP = """
import sys
from rhoforge.cli import main

code = main(["bound-chain", "--octagon", "--group", "99999999999"])
print(code, sorted(m for m in ("numpy", "rhoforge.smith", "_hashlib", "hashlib")
                   if m in sys.modules))
"""


def test_huge_group_refusal_loads_no_numpy():
    # the default cap, set as it is
    proc = fresh(HUGE_GROUP, RHOFORGE_CELL_CAP="10000000")
    assert proc.stdout == "3 ['rhoforge.smith']\n"
    assert proc.stderr == (
        "rhoforge: resource cap exceeded: tower needs 599999999994 cells, "
        "cap is 10000000\n"
    )


# An interpreter without a built-in SHA-256 (neither _sha2 nor _sha256
# imports) takes hashlib's, which gives the same digests.
NO_BUILTIN_SHA256 = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from rhoforge.cli import sha256
print(sha256(b"rhoforge").hexdigest(), "_hashlib" in sys.modules)
"""


def test_digests_fall_back_to_hashlib():
    import hashlib

    proc = fresh(NO_BUILTIN_SHA256)
    assert proc.stdout == hashlib.sha256(b"rhoforge").hexdigest() + " True\n", (
        proc.stderr
    )


BOUNDING_LAYERS = (
    "rhoforge.bar", "rhoforge.groups", "rhoforge.polytopes", "rhoforge.towers",
)
NUMPY_COMMANDS = [
    ["homology", "--builtin", "lens:4,4"],
    ["torsion", "--builtin", "lens:3,2"],
    ["fvector", "--builtin", "ngon:5"],
    ["lens", "--N", "5", "--d", "2"],
    ["rho-sweep", "--d", "6", "--from", "4", "--to", "50"],
    ["hyperbolize", "--dim", "2"],
]

# One interpreter imports the CLI module, records what that loaded, then
# runs every command that needs numpy and records which of the bounding
# layers and hashlib's modules were loaded after them.
NUMPY_STARTUP = """
import contextlib, io, json, sys
import rhoforge.cli

package = sorted(m for m in sys.modules if m.split(".")[0] == "rhoforge")
stdlib = sorted(m for m in ("numpy", "fractions", "csv", "_hashlib", "hashlib")
                if m in sys.modules)
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rhoforge.cli.main(argv)
    runs.append([code, json.loads(out.getvalue())])
print(json.dumps({"package": package, "stdlib": stdlib, "runs": runs,
                  "loaded": [m for m in json.loads(sys.argv[2])
                             if m in sys.modules]}))
"""


def test_numpy_commands_load_no_bounding_layer(capsys):
    proc = fresh(
        NUMPY_STARTUP, json.dumps(NUMPY_COMMANDS),
        json.dumps(BOUNDING_LAYERS + ("_hashlib", "hashlib")),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["package"] == ["rhoforge", "rhoforge.cap", "rhoforge.cli"]
    assert out["stdlib"] == []
    assert out["loaded"] == []
    for argv, (code, report) in zip(NUMPY_COMMANDS, out["runs"]):
        assert main(argv) == code, argv
        expected = json.loads(capsys.readouterr().out)
        del report["elapsed_s"], expected["elapsed_s"]
        assert report == expected, argv
    # rho-sweep --d 6 exits 1: its bound fails at N = 4 and 5
    assert [code for code, _ in out["runs"]] == [0, 0, 0, 0, 1, 0]


SIMPLE_BUILTINS = """
import contextlib, io, sys
from rhoforge.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["fvector", "--builtin", "ngon:5"]),
             main(["homology", "--builtin", "boundary-simplex:3"])]
print(codes, sorted(m for m in ("rhoforge.lens", "fractions") if m in sys.modules))
"""


def test_simple_builtins_load_no_lens_layer():
    # only lens:N,D builtins need the lens layer, and with it fractions
    proc = fresh(SIMPLE_BUILTINS)
    assert proc.stdout == "[0, 0] []\n", proc.stderr


CAPPED = """
import sys
from rhoforge.cli import main

code = main(["lens", "--N", "20", "--d", "3"])
print(code, "rhoforge.towers" in sys.modules)
"""


def test_cap_is_one_class_everywhere():
    from rhoforge import cap, towers

    assert rhoforge.ResourceCapError is cap.ResourceCapError
    assert cap.ResourceCapError is towers.ResourceCapError
    # the lens builder raises the class the CLI catches, without towers
    proc = fresh(CAPPED, RHOFORGE_CELL_CAP="1000")
    assert proc.stdout == "3 False\n"
    assert proc.stderr == (
        "rhoforge: resource cap exceeded: lens complex (20, 3) needs 3446 "
        "cells, cap is 1000\n"
    )
