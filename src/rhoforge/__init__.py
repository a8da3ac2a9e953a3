"""Chains over finite abelian groups, glued polytopes, bounding-chain
towers, triangulated complexes, hyperbolized fibrations, and lens-space
trigonometric invariants.

Every public name is resolved on first use (PEP 562): ``import
rhoforge`` loads no submodule, and a name loads its own submodule and
what that imports.  ``rhoforge.bounding_chain`` loads ``towers`` with
the ``groups``, ``bar``, ``polytopes`` and ``cap`` layers under it and
never numpy, which only ``delta``, ``lens_complex`` and ``hyperbolize``
need; ``rhoforge.ResourceCapError`` loads ``cap`` alone.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in export order
_EXPORTS = {
    name: module
    for module, names in [
        ("groups", "FiniteAbelianGroup GroupElement GroupMismatchError cyclic"),
        ("bar", "BarChain bar_to_hom gen_boundary hom_to_bar"),
        ("smith", "SmithResult bareiss_determinant smith_normal_form"),
        (
            "polytopes",
            "ColoredCell ColoredPolytope ColoringError NotACycleError "
            "PolytopeError VertexLabeling assemble_polytopes octagon_cells "
            "octagon_polytope",
        ),
        ("cap", "ResourceCapError"),
        (
            "towers",
            "BoundingResult Tower bounding_chain catalan_number cylinder "
            "lemma_bound thm11_constant tower",
        ),
        (
            "delta",
            "DeltaComplex DeltaComplexError FreeAction HomologySummary "
            "barycentric boundary_simplex circle cone join keyed_complex ngon "
            "point prism quotient simplex",
        ),
        (
            "hyperbolize",
            "ComplexOverSimplex OverSimplexError construction_count "
            "degree_structure fiber_product hyperbolized_simplex "
            "hyperbolized_sphere relhyp_count simplex_over_itself "
            "thm12_constant williams z_comparison_table z_formula",
        ),
        (
            "lens",
            "LensError LensSpec divisor_count growth_exponent "
            "homotopy_invariant_count invariant_count lens_complex lens_count "
            "rho_atiyah_bott rho_exact rho_lower_bound_check rho_polynomial "
            "thm13_lower",
        ),
    ]
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
