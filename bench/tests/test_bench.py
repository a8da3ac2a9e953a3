"""Tests of the benchmark itself.

    python -m pytest -q bench/tests

The layer tests run every workload once through ``run.py --trace 1``
(two passes each, about 15 s in all).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

from rhoforge import DeltaComplex, FiniteAbelianGroup, octagon_cells  # noqa: E402
from rhoforge import cli, delta, lens, towers  # noqa: E402
from rhoforge.groups import GroupElement  # noqa: E402
from rhoforge.hyperbolize import hyperbolized_simplex, hyperbolized_sphere  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def traced():
    """Layer metrics and result of one short traced run per workload."""
    out = {}
    for name in workloads.WORKLOADS:
        proc = _bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        result["values"] = {k: v["value"] for k, v in result["metrics"].items()}
        out[name] = result
    return out


# Per workload, the metrics that must be nonzero where the layer dominates.
NONZERO = {
    "bounding": [
        "groups.mul_calls", "bar.boundary_calls", "bar.add_calls",
        "bar.add_terms_copied", "polytopes.assemble_s", "polytopes.build_cells",
        "polytopes.endow_calls", "polytopes.endow_vertices", "towers.tower_cells",
        "towers.covering_steps", "towers.cylinder_cells", "towers.cylinder_terms",
        "towers.bounding_chain_s", "cli.self_s", "cli.report_bytes",
    ],
    "homology": [
        "smith.snf_calls", "smith.snf_nnz", "smith.snf_max_nnz", "smith.snf_rank",
        "delta.build_cells", "delta.boundary_matrix_s", "delta.homology_s",
        "hyperbolize.stage_s", "hyperbolize.sphere_s",
        "hyperbolize.fiber_product_s", "cli.self_s", "cli.report_bytes",
    ],
    "invariants": [
        "lens.complex_s", "lens.rho_s", "delta.validate_s", "delta.quotient_s",
        "delta.join_s", "delta.pdet_s", "delta.eigvalsh_s", "delta.eigvalsh_dim",
        "cli.self_s", "cli.report_bytes",
    ],
}

DOMINANT = {
    "bounding": ("towers", "polytopes"),
    "homology": ("smith",),
    "invariants": ("lens", "delta"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_layer_counts_where_it_dominates(traced, name):
    values = traced[name]["values"]
    assert set(values) == {m["name"] for m in _spec()["per_layer"]}
    for metric in NONZERO[name]:
        assert values[metric] > 0, metric
    assert values["trace.coverage_pct"] >= 90.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_predicted_layer_dominates(traced, name):
    values = traced[name]["values"]
    # smith has only snf spans, so its self time is snf_s
    layer_s = {
        layer: values["smith.snf_s" if layer == "smith" else f"{layer}.self_s"]
        for layer in ("bar", "polytopes", "towers", "smith", "delta",
                      "hyperbolize", "lens", "cli")
    }
    predicted = sum(layer_s[layer] for layer in DOMINANT[name])
    assert predicted > 0.5 * sum(layer_s.values())


def test_pinned_counts(traced):
    bounding = traced["bounding"]
    assert bounding["values"]["towers.verify_calls"] == 10  # twice per bound-chain
    invariants = traced["invariants"]
    assert invariants["values"]["lens.rho_calls"] == 1997
    # the lens:4,4 torsion overflow, once per pass
    assert invariants["values"]["delta.pdet_errors"] == 1
    assert invariants["values"]["cli.op_errors"] == 1
    assert invariants["correct"] is True
    assert invariants["failed"] * len(workloads.INVARIANTS.ops) == invariants["attempted"]
    for name in ("bounding", "homology"):
        assert traced[name]["failed"] == 0 and traced[name]["correct"] is True


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_lists_every_metric():
    spec = _spec()
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [m[0] for m in METRICS] + ["trace.coverage_pct", "trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_patches_every_lookup_and_restores_it():
    looked_up = [
        (cli, "bounding_chain"), (cli, "lens_complex"),
        (cli, "hyperbolized_simplex"), (cli, "hyperbolized_sphere"),
        (cli, "rho_lower_bound_check"), (delta, "smith_normal_form"),
        (lens, "quotient"), (lens, "join"), (towers, "assemble_polytopes"),
        (cli, "main"), (np.linalg, "eigvalsh"),
    ]
    methods = [
        (GroupElement, "__mul__"), (towers.BoundingResult, "verified"),
        (delta.DeltaComplex, "__init__"), (delta.FreeAction, "validate"),
    ]
    before = [getattr(ns, k) for ns, k in looked_up]
    before += [owner.__dict__[k] for owner, k in methods]
    tracer = Tracer()
    tracer.install()
    try:
        during = [getattr(ns, k) for ns, k in looked_up]
        during += [owner.__dict__[k] for owner, k in methods]
        assert all(a is not b for a, b in zip(before, during))
        G = FiniteAbelianGroup([3])
        G.element([1]) * G.element([2])
        assert tracer.counts["groups.mul.calls"] == 1
    finally:
        tracer.uninstall()
    after = [getattr(ns, k) for ns, k in looked_up]
    after += [owner.__dict__[k] for owner, k in methods]
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ("cli.main", 0.0, 10.0, -1),
        ("smith.snf", 1.0, 4.0, 0),
        ("delta.build", 5.0, 6.0, 0),
    ]
    total, own = tracer.durations()
    assert total["cli.main"] == 10.0
    assert own["cli.main"] == 6.0
    assert own["smith.snf"] == 3.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(tmp_path, name):
    def draw(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        gen = workloads.WORKLOADS[name].inputs(seed, d)
        out = []
        for _ in range(4):
            inputs = next(gen)
            out.append(
                {
                    k: Path(v).read_text() if isinstance(v, str) else v
                    for k, v in inputs.items()
                }
            )
        return out

    assert draw(1, "a") == draw(1, "b")
    assert draw(1, "c") != draw(2, "d")


def _traced_counts(path: Path) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        worker._run_op(cli, ["bound-chain", "--cycle", str(path)])
    finally:
        tracer.uninstall()
    return dict(tracer.counts)


@pytest.mark.parametrize("group", ["5", "2,2"])
def test_drawn_images_do_the_same_work(tmp_path, group):
    moduli = [int(m) for m in group.split(",")]
    counts = []
    for i, image in enumerate(sorted(workloads.OCTAGON_IMAGES[group])):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(workloads.octagon_cycle(moduli, image)))
        counts.append(_traced_counts(path))
    assert counts[0]["groups.mul.calls"] > 0
    assert all(c == counts[0] for c in counts)


def test_bounding_draws_every_image(tmp_path):
    gen = workloads.bounding_inputs(5, tmp_path)
    seen = {next(gen)["image_2_2"] for _ in range(30)}
    assert seen == set(workloads.OCTAGON_IMAGES["2,2"])


def test_octagon_cycle_matches_library():
    for group, images in workloads.OCTAGON_IMAGES.items():
        moduli = [int(m) for m in group.split(",")]
        G = FiniteAbelianGroup(moduli)
        for image in images:
            x = G.element(image)
            expected = [
                {"gen": [list(e.residues) for e in c.gen], "sign": c.sign}
                for c in octagon_cells(x, x, x, x)
            ]
            assert workloads.octagon_cycle(moduli, image)["cells"] == expected


def test_fixtures_are_valid_complexes_of_the_right_size():
    x3 = DeltaComplex.from_json(workloads.load_fixture("x3"))
    y2 = DeltaComplex.from_json(workloads.load_fixture("y2"))
    assert x3.f_vector() == hyperbolized_simplex(3).complex.f_vector()
    assert y2.f_vector() == hyperbolized_sphere(2).complex.f_vector()


def test_relabel_keeps_homology():
    data = workloads.relabel(workloads.load_fixture("y2"), random.Random(7))
    assert data != workloads.load_fixture("y2")
    H = DeltaComplex.from_json(data).homology()
    assert H.betti == (1, 46, 1)


def test_oracle_rejects_wrong_values(tmp_path):
    ops = {op.name: op for w in workloads.WORKLOADS.values() for op in w.ops}
    inputs = next(workloads.bounding_inputs(1, tmp_path))
    image = inputs["image_5"]
    report = {
        "status": "pass",
        "failed_checks": [],
        "bounding": {
            "multiplicity": 625,
            "complexity": workloads.OCTAGON_IMAGES["5"][image],
        },
    }
    assert ops["bound-chain:5"].check(report, inputs)
    report["bounding"]["complexity"] += 1
    assert not ops["bound-chain:5"].check(report, inputs)

    homology = {
        "f_vector": workloads.X3_F,
        "homology": {"betti": [1, 46, 1, 0], "torsion": [[], [], [], []]},
    }
    assert ops["homology:X3"].check(homology, {})
    homology["homology"]["betti"] = [1, 45, 1, 0]
    assert not ops["homology:X3"].check(homology, {})

    sweep = {
        "checks": [{"values": {"failures": [4]}}],
        "rows": [None] * 1997,
    }
    assert not ops["rho-sweep:6"].check(sweep, {})


def test_tail_percentile():
    assert run.tail([float(x) for x in range(20, 0, -1)]) == (10.0, 100.0 * 9 / 19)
    assert run.tail([float(x) for x in range(11)]) == (0.0, 0.0)
    assert run.tail([float(x) for x in range(10)]) == (None, None)


class _RaisingCli:
    def __init__(self, exc):
        self.exc = exc

    def main(self, argv):
        raise self.exc


def _tally(op, exc) -> worker.Tally:
    tally = worker.Tally()
    worker.run_pass(_RaisingCli(exc), [op], {"x3": "x3.json"}, tally)
    return tally


def test_unexpected_exception_makes_the_run_incorrect():
    ops = {op.name: op for w in workloads.WORKLOADS.values() for op in w.ops}
    known = ops["torsion:lens4,4"]
    tally = _tally(known, OverflowError("math range error"))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert run.result(vars(tally), {})["correct"] is True

    for op, exc in [(known, ValueError("boom")), (ops["homology:X3"], OverflowError())]:
        tally = _tally(op, exc)
        assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
        assert run.result(vars(tally), {})["correct"] is False


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _bench("--workload", "bounding", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["passes"] == run.SEGMENTS
    assert len(details["setup_samples_s"]) == (run.SEGMENTS + 1) * run.SETUP_PROBES + run.SEGMENTS


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bounding",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
