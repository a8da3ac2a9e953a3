"""The benchmark's workloads: operation lists, seeded inputs, oracles.

Each workload is a fixed list of CLI operations.  One pass runs the list
once, in order, through ``rhoforge.cli.main``.  The program only ever
sees the files written by the workload's input generator, which draws a
fresh isomorphic input for every pass from the workload seed, so the
same seed gives the same sequence of inputs.

Every operation pins its exit code and its key values.  ``check``
returns True when the parsed report carries the pinned values.  Why each
operation is in its workload is its ``why``; why each workload exists is
in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

DATA = Path(__file__).resolve().parent / "data"

Report = dict
PassInputs = dict


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]  # "{key}" entries are filled from the pass inputs
    exit_code: int
    check: Callable[[Report, PassInputs], bool]
    why: str
    # Name of the exception a known, still unfixed defect raises.  It is
    # counted as failed but does not make the run incorrect; any other
    # exception does.
    known_error: str | None = None

    def args(self, inputs: PassInputs) -> list[str]:
        return [a.format(**inputs) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # (seed, work directory) -> one input set per pass; the seed is
    # anything random.Random accepts.
    inputs: Callable[[int | str, Path], Iterator[PassInputs]]


def _passed(r: Report) -> bool:
    return r["status"] == "pass" and not r["failed_checks"]


# -- bounding ---------------------------------------------------------

# The images of the first generator that a pass draws from, per group,
# with the complexity of the bounding chain each one yields today.
# Automorphisms do not preserve the residue order that assembly and
# towers sort by, so most of them change the chain found and the work
# done: on Z/3 the image 2 gives complexity 162 instead of 216, on Z/4
# the image 3 gives 512 instead of 768, and on Z/5 the images 1 and 2
# give 2000 with different call counts.  Each group therefore draws only
# from images whose traced call and size counts are all equal (checked
# in bench/tests), so every pass does the same work: the generator
# itself on Z/2, Z/3 and Z/4, the images 3 and 4 on Z/5 and every image
# on Z/2xZ/2.
OCTAGON_IMAGES: dict[str, dict[tuple[int, ...], int]] = {
    "2": {(1,): 32},
    "3": {(1,): 216},
    "4": {(1,): 768},
    "5": {(3,): 1250, (4,): 1250},
    "2,2": {(1, 0): 512, (0, 1): 512, (1, 1): 512},
}


def _key(group: str) -> str:
    return group.replace(",", "_")


def octagon_cycle(moduli: list[int], x: tuple[int, ...]) -> dict:
    """Cycle file of the six-triangle octagon with all four letters x.

    Same cells as ``rhoforge.octagon_cells(a, b, c, d)``: ab = a + b and
    bd^-1 = b - d, written out in residues so the input does not depend
    on the code under test.
    """

    def add(u, v, s=1):
        return [(p + s * q) % m for p, q, m in zip(u, v, moduli)]

    a = b = c = d = list(x)
    ab, bd = add(a, b), add(b, d, -1)
    cells = [
        ((a, b), 1),
        ((ab, c), 1),
        ((ab, c), -1),
        ((b, a), -1),
        ((bd, d), -1),
        ((d, bd), 1),
    ]
    return {
        "group": moduli,
        "cells": [{"gen": [list(g) for g in gen], "sign": s} for gen, s in cells],
    }


def _write_json(path: Path, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
    return str(path)


def bounding_inputs(seed: int | str, workdir: Path) -> Iterator[PassInputs]:
    """Per pass and group, a seeded draw from the group's images."""
    rng = random.Random(seed)
    while True:
        out: PassInputs = {}
        for group, images in OCTAGON_IMAGES.items():
            image = rng.choice(sorted(images))
            moduli = [int(m) for m in group.split(",")]
            path = workdir / f"octagon-{_key(group)}.json"
            out[f"cycle_{_key(group)}"] = _write_json(
                path, octagon_cycle(moduli, image)
            )
            out[f"image_{_key(group)}"] = image
        yield out


def _bound_chain_check(group: str) -> Callable[[Report, PassInputs], bool]:
    order = math.prod(int(m) for m in group.split(","))

    def check(r: Report, inputs: PassInputs) -> bool:
        b = r["bounding"]
        image = inputs[f"image_{_key(group)}"]
        return (
            _passed(r)
            and b["multiplicity"] == order**4
            and b["complexity"] == OCTAGON_IMAGES[group][image]
        )

    return check


def _bound_chain(group: str, why: str) -> Op:
    return Op(
        f"bound-chain:{group}",
        ("bound-chain", "--cycle", "{cycle_%s}" % _key(group)),
        0,
        _bound_chain_check(group),
        why,
    )


BOUNDING = Workload(
    "bounding",
    (
        _bound_chain("2", "smallest tower (16 copies): per-operation overhead"),
        _bound_chain("3", "81 copies of the next cyclic group"),
        _bound_chain("4", "256 copies of a cyclic group"),
        _bound_chain(
            "5",
            "625 copies, the largest tower: towers, endow and the "
            "cylinder sum",
        ),
        _bound_chain("2,2", "256 copies of a non-cyclic group of order 4"),
        Op(
            "verify-polytope:5",
            ("verify-polytope", "--octagon", "--group", "5"),
            0,
            lambda r, _: _passed(r)
            and [c["status"] for c in r["checks"]] == ["pass", "pass", "info"]
            and r["checks"][2]["values"]["count"] == 4
            and r["polytope"]["vertices"] == 8,
            "a 1-10 ms operation: coloring and endow on one polytope",
        ),
    ),
    bounding_inputs,
)


# -- homology and invariants: relabeled Delta-complexes ---------------


def load_fixture(name: str) -> dict:
    with open(DATA / f"{name}.json") as fh:
        return json.load(fh)


def relabel(data: dict, rng: random.Random) -> dict:
    """The same Delta-complex with the cells of every dimension permuted.

    Face order inside a cell is kept, so the face maps are unchanged up
    to the renumbering and the homology is the same.
    """
    levels = [data["vertices"]] + [len(level) for level in data["faces"]]
    perms = [rng.sample(range(n), n) for n in levels]
    faces = []
    for q, level in enumerate(data["faces"], start=1):
        new = [None] * len(level)
        below = perms[q - 1]
        for c, cell in enumerate(level):
            new[perms[q][c]] = [below[f] for f in cell]
        faces.append(new)
    return {"vertices": data["vertices"], "faces": faces}


def _relabeled_inputs(name: str) -> Callable[[int | str, Path], Iterator[PassInputs]]:
    """Per pass, a fresh seeded relabeling of one fixture complex."""

    def inputs(seed: int | str, workdir: Path) -> Iterator[PassInputs]:
        rng = random.Random(seed)
        base = load_fixture(name)
        path = workdir / f"{name}.json"
        while True:
            yield {name: _write_json(path, relabel(base, rng))}

    return inputs


def _homology_check(f_vector, betti, torsion):
    return lambda r, _: (
        r["f_vector"] == f_vector
        and r["homology"]["betti"] == betti
        and r["homology"]["torsion"] == torsion
    )


X3_F = [200, 1396, 2016, 864]

HOMOLOGY_OPS = (
    Op(
        "homology:X3",
        ("homology", "--complex", "{x3}"),
        0,
        _homology_check(X3_F, [1, 46, 1, 0], [[], [], [], []]),
        "the largest SNF here (d2 of X3); each pass relabels the cells, "
        "so pivot choice meets a new cell order",
    ),
    Op(
        "homology:lens4,4",
        ("homology", "--builtin", "lens:4,4"),
        0,
        _homology_check(
            [4, 28, 112, 280, 448, 448, 256, 64],
            [1, 0, 0, 0, 0, 0, 0, 1],
            [[], [4], [], [4], [], [4], [], []],
        ),
        "torsion Z/4 in degrees 1, 3, 5: SNF with non-unit pivots",
    ),
    Op(
        "homology:lens8,3",
        ("homology", "--builtin", "lens:8,3"),
        0,
        _homology_check(
            [3, 27, 112, 216, 192, 64],
            [1, 0, 0, 0, 0, 1],
            [[], [8], [], [8], [], []],
        ),
        "a smaller lens SNF after a join and quotient build",
    ),
    Op(
        "hyperbolize:2",
        ("hyperbolize", "--dim", "2"),
        0,
        lambda r, _: _passed(r)
        and r["stage_counts"] == [12, 24, 12]
        and r["sphere"]["f_vector"] == [100, 432, 288]
        and r["sphere"]["homology"]["betti"] == [1, 46, 1],
        "fiber products and the 288-triangle surface with its homology",
    ),
    Op(
        "hyperbolize:3",
        ("hyperbolize", "--dim", "3"),
        0,
        lambda r, _: _passed(r) and r["stage_counts"] == X3_F,
        "builds X3 itself: prism and barycentric builders, no SNF",
    ),
)


def _torsion_check(count: int, torsion: float | None = None):
    return lambda r, _: len(r["pseudodeterminants"]) == count and (
        torsion is None or math.isclose(r["torsion"], torsion, rel_tol=1e-6)
    )


INVARIANT_OPS = (
    Op(
        "lens:20,2",
        ("lens", "--N", "20", "--d", "2"),
        0,
        lambda r, _: _passed(r)
        and r["f_vector"] == [2, 22, 40, 20]
        and r["homology"]["torsion"][1] == [20],
        "FreeAction.validate is about 90% of the build (ROADMAP 2)",
    ),
    Op(
        "fvector:lens8,3",
        ("fvector", "--builtin", "lens:8,3"),
        0,
        lambda r, _: r["f_vector"] == [3, 27, 112, 216, 192, 64]
        and r["euler"] == 0,
        "construction only: join, quotient and validate, no SNF",
    ),
    Op(
        "rho-sweep:6",
        ("rho-sweep", "--d", "6", "--from", "4", "--to", "2000"),
        1,
        lambda r, _: r["checks"][0]["values"]["failures"] == [4, 5]
        and len(r["rows"]) == 1997,
        "1997 float cotangent sums; exact rho (ROADMAP 5) would show "
        "here as a cost. Exit 1 with failures [4, 5] is the right answer",
    ),
    Op(
        "torsion:lens8,3",
        ("torsion", "--builtin", "lens:8,3"),
        0,
        _torsion_check(6, 3 / 64),
        "dense Laplacians and eigvalsh on a lens space",
    ),
    Op(
        "torsion:Y2",
        ("torsion", "--complex", "{y2}"),
        0,
        _torsion_check(3, 2.048517274028442e-18),
        "pseudodeterminants of a relabeled surface read from a file",
    ),
    Op(
        "torsion:lens4,4",
        ("torsion", "--builtin", "lens:4,4"),
        0,
        _torsion_check(8),
        "raises OverflowError in laplacian_pseudodet today; kept so the "
        "known defect stays counted until exact pseudodeterminants land",
        known_error="OverflowError",
    ),
)

HOMOLOGY = Workload("homology", HOMOLOGY_OPS, _relabeled_inputs("x3"))
INVARIANTS = Workload("invariants", INVARIANT_OPS, _relabeled_inputs("y2"))

WORKLOADS = {w.name: w for w in (BOUNDING, HOMOLOGY, INVARIANTS)}
