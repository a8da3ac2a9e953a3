"""End-to-end runs of the command-line interface."""

import csv
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rhoforge import cli, lens, towers
from rhoforge.cli import main
from rhoforge.delta import DeltaComplex
from rhoforge.groups import FiniteAbelianGroup
from rhoforge.lens import LensSpec
from rhoforge.bar import BarChain
from rhoforge.polytopes import (
    ColoredCell,
    ColoredPolytope,
    as_cells,
    octagon_cells,
    octagon_chain,
    octagon_polytope,
)


def run(*argv):
    return main(list(argv))


def json_text(payload):
    return json.dumps(payload, indent=2, default=cli._jsonable)


def load(path):
    with open(path) as fh:
        return json.load(fh)


class TestBoundChain:
    def test_octagon_mod2(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run(
            "bound-chain", "--group", "2", "--octagon",
            "--report", str(out),
        )
        assert rc == 0
        report = load(out)
        assert report["status"] == "pass"
        assert report["bounding"]["multiplicity"] == 16
        names = {c["name"]: c["status"] for c in report["checks"]}
        assert names["boundary-identity"] == "pass"
        assert names["complexity-bound"] == "pass"

    def test_octagon_mod6_within_default_cap(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run(
            "bound-chain", "--group", "6", "--octagon",
            "--report", str(out),
        )
        assert rc == 0
        report = load(out)
        assert report["status"] == "pass"
        assert report["bounding"]["multiplicity"] == 1296
        assert report["bounding"]["complexity"] == 4320
        names = {c["name"]: c["status"] for c in report["checks"]}
        assert names == {
            "input-is-cycle": "pass",
            "boundary-identity": "pass",
            "complexity-bound": "pass",
        }

    @pytest.mark.parametrize(
        "group, multiplicity, complexity",
        [("3,3", 6561, 17496), ("2,2,2", 4096, 8192), ("7", 2401, 8232)],
    )
    def test_octagon_over_larger_groups(
        self, capsys, group, multiplicity, complexity
    ):
        # towers of 39,366, 24,576 and 14,406 cells, none of them built
        assert run("bound-chain", "--group", group, "--octagon") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert report["bounding"]["multiplicity"] == multiplicity
        assert report["bounding"]["complexity"] == complexity

    def test_cycle_file_mod3(self, tmp_path):
        G = FiniteAbelianGroup([3])
        g = G.element([1])
        cells = octagon_cells(g, g, g, g)
        payload = {
            "group": G.to_json(),
            "cells": [
                {
                    "gen": [list(e.residues) for e in cell.gen],
                    "sign": cell.sign,
                }
                for cell in cells
            ],
        }
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        rc = run("bound-chain", "--cycle", str(src), "--report", str(out))
        assert rc == 0
        assert load(out)["bounding"]["multiplicity"] == 81

    def test_cycle_file_cells_are_sorted_once(self, tmp_path, monkeypatch):
        # loading reads the degree only; bounding_chain normalises the cells
        G = FiniteAbelianGroup([3])
        g = G.element([1])
        payload = {
            "group": G.to_json(),
            "cells": [
                {"gen": [list(e.residues) for e in cell.gen], "sign": cell.sign}
                for cell in octagon_cells(g, g, g, g)
            ],
        }
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps(payload))
        calls = []

        def counted(C):
            calls.append(len(C))
            return as_cells(C)

        monkeypatch.setattr(towers, "as_cells", counted)
        monkeypatch.setattr(cli, "as_cells", counted, raising=False)
        assert run("bound-chain", "--cycle", str(src)) == 0
        assert calls == [6]

    def test_collapsed_terms_input(self, tmp_path, capsys):
        payload = {
            "group": [4],
            "degree": 1,
            "terms": [{"gen": [[1]], "coef": 1}],
        }
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps(payload))
        rc = run("bound-chain", "--cycle", str(src))
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounding"]["multiplicity"] == 4

    def test_non_cycle_fails(self, tmp_path):
        payload = {
            "group": [2],
            "cells": [{"gen": [[1], [1]], "sign": 1}],
        }
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        rc = run("bound-chain", "--cycle", str(src), "--report", str(out))
        assert rc == 1
        report = load(out)
        assert report["status"] == "fail"
        assert report["failed_checks"] == ["input-is-cycle"]

    def test_octagon_without_group_is_usage_error(self, capsys):
        assert run("bound-chain", "--octagon") == 2
        assert "group" in capsys.readouterr().err

    def test_group_mismatch_rejected(self, tmp_path, capsys):
        payload = {"group": [3], "cells": [{"gen": [[1], [1]], "sign": 1}]}
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps(payload))
        assert run("bound-chain", "--group", "2", "--cycle", str(src)) == 2

    def test_cell_cap_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "5")
        rc = run("bound-chain", "--group", "3", "--octagon")
        assert rc == 3
        assert "resource cap" in capsys.readouterr().err

    def test_huge_group_refused_before_its_subgroup_is_built(
        self, monkeypatch, capsys
    ):
        # |H| * |C| is counted from a Smith normal form, not by listing H
        monkeypatch.delenv("RHOFORGE_CELL_CAP", raising=False)
        assert run("bound-chain", "--octagon", "--group", "99999999999") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "rhoforge: resource cap exceeded: "
            "tower needs 599999999994 cells, cap is 10000000\n"
        )

    def test_boundary_of_u_computed_once(self, monkeypatch, capsys):
        # the identity is decided inside bounding_chain and stored; the
        # handler's read of verified computes nothing, and assembly
        # checks the cycle from its face index, with no boundary pass
        degrees = []
        boundary = BarChain.boundary

        def counted(chain):
            degrees.append(chain.degree)
            return boundary(chain)

        monkeypatch.setattr(BarChain, "boundary", counted)
        assert run("bound-chain", "--octagon", "--group", "3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][1] == {
            "name": "boundary-identity",
            "status": "pass",
            "values": {"multiplicity": 81},
        }
        assert degrees == [3]

    def test_terms_expansion_counts_against_cap(
        self, tmp_path, monkeypatch, capsys
    ):
        # the Z/3 octagon chain times 400 is 800 cells before any tower
        g = FiniteAbelianGroup([3]).element([1])
        chain = 400 * octagon_chain(g, g, g, g)
        assert chain.complexity() == 800
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps({"group": [3], **chain.to_json()}))
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "100")
        assert run("bound-chain", "--cycle", str(src)) == 3
        err = capsys.readouterr().err
        assert "cell decomposition needs 800 cells, cap is 100" in err

    def test_report_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("bound-chain", "--group", "2", "--octagon", "--report", str(a))
        run("bound-chain", "--group", "2", "--octagon", "--report", str(b))
        ra, rb = load(a), load(b)
        ra.pop("elapsed_s")
        rb.pop("elapsed_s")
        assert ra == rb


class TestVerifyPolytope:
    def test_octagon_builtin(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run(
            "verify-polytope", "--group", "2,2", "--octagon",
            "--report", str(out),
        )
        assert rc == 0
        report = load(out)
        names = {c["name"]: c for c in report["checks"]}
        assert names["coloring"]["status"] == "pass"
        assert names["endowment-consistent"]["status"] == "pass"
        assert names["boundary-pairs"]["values"]["count"] == 4

    def test_polytope_file(self, tmp_path):
        G = FiniteAbelianGroup([5])
        g = G.element([1])
        P = octagon_polytope(g, g * g, g ** 3, g)
        src = tmp_path / "p.json"
        src.write_text(json.dumps(P.to_json()))
        assert run("verify-polytope", "--polytope", str(src)) == 0

    def test_non_colorable_polytope(self, tmp_path, capsys):
        # two triangles glued along both matching faces force g*g = e; the
        # one endow call gives the verdict, and no endowment is checked
        G = FiniteAbelianGroup([3])
        g = G.element([1])
        P = ColoredPolytope(
            G, 2, [ColoredCell((g, g), 1), ColoredCell((g, g), -1)],
            [((0, 0), (1, 2)), ((0, 2), (1, 0))],
        )
        src = tmp_path / "p.json"
        src.write_text(json.dumps(P.to_json()))
        assert run("verify-polytope", "--polytope", str(src)) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failed_checks"] == ["coloring"]
        assert report["checks"] == [
            {"name": "coloring", "status": "fail", "values": {}},
            {"name": "boundary-pairs", "status": "info", "values": {"count": 1}},
        ]

    def test_group_disagreeing_with_the_file(self, tmp_path, capsys):
        g = FiniteAbelianGroup([2]).element([1])
        src = tmp_path / "p2.json"
        src.write_text(json.dumps(octagon_polytope(g, g, g, g).to_json()))
        assert run("verify-polytope", "--group", "2", "--polytope", str(src)) == 0
        capsys.readouterr()
        assert run("verify-polytope", "--group", "5", "--polytope", str(src)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "rhoforge: --group disagrees with the polytope file\n"
        )

    @pytest.mark.parametrize("command", ["bound-chain", "verify-polytope"])
    def test_labeling_bfs_runs_once_per_polytope(
        self, command, monkeypatch, capsys
    ):
        # components and identity labels come from one BFS at
        # construction; endow and check_coloring read what it stored
        built, labeled = [], []
        init = ColoredPolytope.__init__
        label = ColoredPolytope._label_components

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_label(self):
            labeled.append(self)
            label(self)

        monkeypatch.setattr(ColoredPolytope, "__init__", counted_init)
        monkeypatch.setattr(ColoredPolytope, "_label_components", counted_label)
        assert run(command, "--octagon", "--group", "5") == 0
        assert built and labeled == built


class TestComplexCommands:
    def test_homology_builtin(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(
            "homology", "--builtin", "lens:5,2", "--report", str(out)
        ) == 0
        H = load(out)["homology"]
        assert H["betti"] == [1, 0, 0, 1]
        assert H["torsion"][1] == [5]

    def test_homology_from_file(self, tmp_path, capsys):
        from rhoforge.delta import boundary_simplex

        src = tmp_path / "k.json"
        src.write_text(json.dumps(boundary_simplex(3).to_json()))
        assert run("homology", "--complex", str(src)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["homology"]["betti"] == [1, 0, 1]

    def test_torsion(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(
            "torsion", "--builtin", "ngon:5", "--report", str(out)
        ) == 0
        report = load(out)
        assert abs(report["torsion"] - 25.0) < 1e-6

    def test_torsion_solves_one_gram_per_boundary_map(self, monkeypatch):
        # lens:8,3 has f = (3, 27, 112, 216, 192, 64): one eigensolve per
        # boundary map, of the smaller Gram matrix
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert run("torsion", "--builtin", "lens:8,3") == 0
        f = [3, 27, 112, 216, 192, 64]
        assert shapes == [(min(f[q - 1], f[q]),) * 2 for q in range(1, 6)]

    def test_fvector(self, capsys):
        assert run("fvector", "--builtin", "simplex:3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f_vector"] == [4, 6, 4, 1]
        assert report["euler"] == 1

    def test_homology_lens_5_4(self, capsys):
        assert run("homology", "--builtin", "lens:5,4") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f_vector"] == [4, 34, 160, 455, 800, 850, 500, 125]
        H = report["homology"]
        assert H["betti"] == [1, 0, 0, 0, 0, 0, 0, 1]
        assert H["torsion"] == [[], [5], [], [5], [], [5], [], []]

    def test_bad_builtin(self, capsys):
        assert run("homology", "--builtin", "torus:3") == 2
        assert run("homology", "--builtin", "lens:2,2") == 2
        assert run("homology") == 2
        capsys.readouterr()
        for spec in ("lens:4", "lens:4,4,4"):
            assert run("homology", "--builtin", spec) == 2
            err = capsys.readouterr().err
            assert f"bad builtin {spec!r}: lens needs N,D" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("lens", "--N", "5", "--d", "2"),
            ("homology", "--builtin", "lens:5,2"),
            ("hyperbolize", "--dim", "2"),
        ],
    )
    def test_homology_computed_once(self, monkeypatch, capsys, argv):
        calls = []
        homology = DeltaComplex.homology

        def counted(K):
            calls.append(K)
            return homology(K)

        monkeypatch.setattr(DeltaComplex, "homology", counted)
        assert run(*argv) == 0
        assert len(calls) == 1


class TestInputDigest:
    """A report records each input file by the sha256 and size of its bytes."""

    @pytest.mark.parametrize("command, flag, source", [
        pytest.param("fvector", "--complex", "triangle",
                     id="fvector---complex"),
        pytest.param("bound-chain", "--cycle", "cycle", id="bound-chain---cycle"),
        pytest.param("verify-polytope", "--polytope", "octagon",
                     id="verify-polytope---polytope"),
        # a large (>64 KiB) file, against hashlib as the oracle
        pytest.param("fvector", "--complex", "lens:13,3",
                     id="fvector---complex-over-64KiB"),
    ])
    def test_file_inputs(self, tmp_path, capsys, command, flag, source):
        g = FiniteAbelianGroup([3]).element([1])
        data = {
            "triangle": lambda: {"vertices": 3,
                                 "faces": [[[1, 0], [2, 1], [0, 2]]]},
            "cycle": lambda: {"group": [4], "degree": 1,
                              "terms": [{"gen": [[1]], "coef": 1}]},
            "octagon": lambda: octagon_polytope(g, g, g, g).to_json(),
            "lens:13,3": lambda: lens.lens_complex(LensSpec(13, 3)).to_json(),
        }[source]()
        src = tmp_path / "in.json"
        src.write_text(json.dumps(data, indent=1))
        assert run(command, flag, str(src)) == 0
        report = json.loads(capsys.readouterr().out)
        raw = src.read_bytes()  # indented: not the bytes of the parsed object
        assert (len(raw) > 65536) == (source == "lens:13,3")
        # hashlib, the digests' old source, is the oracle for both
        assert report["inputs"][flag[2:]] == {
            "sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw),
        }
        canonical = json.dumps(report["inputs"], sort_keys=True).encode()
        assert report["inputs_digest"] == hashlib.sha256(canonical).hexdigest()


class TestHyperbolize:
    def test_dim1(self, capsys):
        assert run("hyperbolize", "--dim", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sphere"]["f_vector"] == [6, 6]

    def test_dim2_report(self, tmp_path):
        out = tmp_path / "y2.json"
        assert run("hyperbolize", "--dim", "2", "--out", str(out)) == 0
        report = load(out)
        assert report["sphere"]["f_vector"] == [100, 432, 288]
        assert report["sphere"]["euler"] == -44
        names = {c["name"]: c["status"] for c in report["checks"]}
        assert names["closed-surface"] == "pass"
        assert names["triangle-count"] == "pass"
        assert names["orientable-torsion-free"] == "pass"
        table = {row["n"]: row for row in report["z_table"]}
        assert table[4]["z_formula"] == 1728
        assert table[4]["ratio"] == 240
        # the emitted complex is loadable
        assert len(report["complex"]["faces"]) == 2

    def test_dim3_counts(self, capsys):
        assert run("hyperbolize", "--dim", "3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stage_counts"] == [200, 1396, 2016, 864]
        assert "sphere" not in report

    def test_dim_out_of_range(self, capsys):
        assert run("hyperbolize", "--dim", "4") == 2


class TestLens:
    def test_report(self, tmp_path):
        out = tmp_path / "lens.json"
        assert run(
            "lens", "--N", "7", "--d", "3", "--report", str(out)
        ) == 0
        report = load(out)
        assert report["f_vector"][-1] == 49
        assert report["status"] == "pass"

    def test_n2_usage_error(self, capsys):
        assert run("lens", "--N", "2", "--d", "2") == 2


class TestRhoSweep:
    def test_d2_all_pass(self, tmp_path):
        out = tmp_path / "rho.csv"
        rep = tmp_path / "rho.json"
        rc = run(
            "rho-sweep", "--d", "2", "--from", "3", "--to", "50",
            "--csv", str(out), "--report", str(rep),
        )
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "rho", "lower_bound", "pass"]
        assert len(rows) == 49
        # N=3 sits outside the hypothesis and does not gate the exit
        assert rows[1][0] == "3" and rows[1][3] == "false"
        assert all(r[3] == "true" for r in rows[2:])

    def test_d4_reports_failures(self, tmp_path):
        rep = tmp_path / "rho.json"
        rc = run(
            "rho-sweep", "--d", "4", "--from", "4", "--to", "10",
            "--report", str(rep),
        )
        assert rc == 1
        report = load(rep)
        check = report["checks"][0]
        assert check["values"]["failures"] == [4]

    def test_bad_range(self, capsys):
        assert run("rho-sweep", "--d", "2", "--from", "9", "--to", "3") == 2

    def test_exact_rows(self, tmp_path):
        rep = tmp_path / "rho.json"
        rc = run(
            "rho-sweep", "--d", "6", "--from", "4", "--to", "6",
            "--report", str(rep),
        )
        assert rc == 1
        rows = load(rep)["rows"]
        assert [r["rho"] for r in rows[:2]] == [2.0, 13.6]
        assert [r["status"] for r in rows] == ["ok"] * 3
        assert [r["pass"] for r in rows] == [False, False, True]

    def test_undecided_rows_gate_the_exit(self, tmp_path, wide_pi_bracket):
        rep = tmp_path / "rho.json"
        rc = run(
            "rho-sweep", "--d", "2", "--from", "4", "--to", "6",
            "--report", str(rep),
        )
        assert rc == 1
        report = load(rep)
        assert report["checks"][0]["values"]["failures"] == [4, 5, 6]
        assert {r["status"] for r in report["rows"]} == {"undecided"}
        assert not any(r["pass"] for r in report["rows"])

    @pytest.mark.parametrize("d", range(2, 13, 2))
    def test_short_sweeps_take_rows_from_power_sums(self, d, capsys):
        # d rows are fewer than rho_polynomial's d + 1 nodes; d + 2 are not
        def rows(stop):
            run("rho-sweep", "--d", str(d), "--from", "3", "--to", str(stop))
            report = capsys.readouterr().out
            return report[report.index('"rows"'):report.index('"elapsed_s"')]

        lens.rho_polynomial.cache_clear()
        short = rows(2 + d)
        assert lens.rho_polynomial.cache_info().currsize == 0
        long = rows(4 + d)
        assert lens.rho_polynomial.cache_info().currsize == 1
        # byte for byte: the short rows, up to the last one's closing
        # brace, open the long rows
        assert long.startswith(short[: short.rindex("}")])
        for n in range(2, 60):
            spec = LensSpec(n, d)
            assert lens.rho_lower_bound_check(spec, by_power_sum=True) == (
                lens.rho_lower_bound_check(spec)
            ), n

    def test_short_sweep_at_large_d(self, capsys):
        lens.rho_polynomial.cache_clear()
        assert run("rho-sweep", "--d", "500", "--from", "3", "--to", "5") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["values"]["failures"] == [4, 5]
        assert [r["status"] for r in report["rows"]] == (
            ["out_of_hypothesis", "ok", "ok"]
        )
        assert report["rows"][1]["rho"] == 2.0
        assert lens.rho_polynomial.cache_info().currsize == 0

    def test_overflow_exits_2(self, tmp_path, capsys):
        rep = tmp_path / "rho.json"
        rc = run(
            "rho-sweep", "--d", "120", "--from", "1990", "--to", "1991",
            "--report", str(rep),
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not rep.exists()
        assert captured.err == (
            "rhoforge: rho or (N/pi)^d at (N, d) = (1990, 120) does not "
            "fit in a float\n"
        )


class TestMalformedInput:
    """Bad input files and arguments exit 2 with one line on stderr."""

    def usage_error(self, capsys, *argv):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("rhoforge: ") and err.count("\n") == 1
        return err

    FILE_FLAGS = [
        ("bound-chain", "--cycle"),
        ("homology", "--complex"),
        ("verify-polytope", "--polytope"),
    ]

    @pytest.mark.parametrize("flag", FILE_FLAGS)
    def test_malformed_json(self, tmp_path, capsys, flag):
        src = tmp_path / "bad.json"
        src.write_text('{"group": [2], "cells": [')
        assert "not valid JSON" in self.usage_error(capsys, *flag, str(src))

    @pytest.mark.parametrize("flag", FILE_FLAGS)
    def test_not_utf8(self, tmp_path, capsys, flag):
        src = tmp_path / "latin1.json"
        src.write_bytes('{"group": [2], "note": "\u00e9"}'.encode("latin-1"))
        assert "not valid JSON" in self.usage_error(capsys, *flag, str(src))

    @pytest.mark.parametrize("flag", FILE_FLAGS)
    def test_directory_as_input(self, tmp_path, capsys, flag):
        err = self.usage_error(capsys, *flag, str(tmp_path))
        assert "Is a directory" in err

    OUTPUT_FLAGS = pytest.mark.parametrize("argv", [
        ("constants", "--report"),
        ("hyperbolize", "--dim", "1", "--out"),
        ("rho-sweep", "--d", "2", "--to", "5", "--csv"),
    ], ids=["report", "out", "csv"])

    @OUTPUT_FLAGS
    def test_output_path_is_a_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        out.mkdir()
        err = self.usage_error(capsys, *argv, str(out))
        assert "Is a directory" in err
        # the path given is named, not the temporary file beside it
        assert f"cannot write {out}: " in err and ".rhoforge-" not in err
        assert list(tmp_path.iterdir()) == [out]  # no temporary file left

    @OUTPUT_FLAGS
    def test_output_directory_missing(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "r.json"
        err = self.usage_error(capsys, *argv, str(out))
        assert err == f"rhoforge: cannot write {out}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["bound-chain", "verify-polytope"])
    @pytest.mark.parametrize("group", [",", " , "])
    def test_octagon_empty_group(self, capsys, command, group):
        err = self.usage_error(capsys, command, "--octagon", "--group", group)
        assert "no moduli" in err

    @pytest.mark.parametrize("argv, message", [
        (("bound-chain", "--octagon", "--group", "2", "--cycle"),
         "pass either --cycle or --octagon, not both"),
        (("verify-polytope", "--octagon", "--group", "2", "--polytope"),
         "pass either --polytope or --octagon, not both"),
        (("homology", "--builtin", "ngon:3", "--complex"),
         "pass either --complex or --builtin, not both"),
    ], ids=["cycle", "polytope", "complex"])
    def test_file_and_builtin_input_together(self, tmp_path, capsys, argv, message):
        # the file is never read, so a missing one must not pass unseen
        err = self.usage_error(capsys, *argv, str(tmp_path / "missing.json"))
        assert message in err

    @pytest.mark.parametrize("flag", FILE_FLAGS)
    def test_top_level_not_an_object(self, tmp_path, capsys, flag):
        src = tmp_path / "list.json"
        src.write_text("[1, 2]")
        err = self.usage_error(capsys, *flag, str(src))
        assert "must be a JSON object" in err

    def test_cycle_cell_without_sign(self, tmp_path, capsys):
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps({"group": [2], "cells": [{"gen": [[1], [1]]}]}))
        err = self.usage_error(capsys, "bound-chain", "--cycle", str(src))
        assert "'sign'" in err

    @pytest.mark.parametrize("data, message", [
        ({"group": [2], "cells": [{"gen": [[1, 0], [1]], "sign": 1}]},
         "expected 1 residues, got 2"),
        ({"group": [2], "cells": [{"gen": [[1], [1]], "sign": 2}]},
         "sign must be +1 or -1"),
        ({"group": [3], "degree": 0, "terms": []}, "degree must be >= 1"),
        ({"group": [3], "cells": []}, "empty decomposition"),
        ({"group": [3], "cells": [{"gen": [[1], [1]], "sign": 1},
                                  {"gen": [[1]], "sign": -1}]},
         "mixed degrees"),
    ], ids=["residue-count", "sign", "terms-degree-0", "no-cells",
            "mixed-degrees"])
    def test_bad_cycle_cell(self, tmp_path, capsys, data, message):
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps(data))
        err = self.usage_error(capsys, "bound-chain", "--cycle", str(src))
        assert f"bad cycle file entry: {message}" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("degree"), "without key 'degree'"),
        (lambda d: d["gluings"].append(d["gluings"][0]), "invalid polytope"),
    ], ids=["missing-key", "face-glued-twice"])
    def test_bad_polytope(self, tmp_path, capsys, edit, message):
        g = FiniteAbelianGroup([3]).element([1])
        data = octagon_polytope(g, g, g, g).to_json()
        edit(data)
        src = tmp_path / "p.json"
        src.write_text(json.dumps(data))
        err = self.usage_error(capsys, "verify-polytope", "--polytope", str(src))
        assert message in err

    def test_bad_cell_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "abc")
        err = self.usage_error(capsys, "bound-chain", "--group", "2", "--octagon")
        assert "RHOFORGE_CELL_CAP" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("lens", "--N", "5", "--d", "2"),
            ("hyperbolize", "--dim", "1"),
            ("fvector", "--builtin", "simplex:3"),
        ],
    )
    def test_bad_cell_cap_builders(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "abc")
        err = self.usage_error(capsys, *argv)
        assert "RHOFORGE_CELL_CAP must be an integer" in err

    def test_complex_without_vertices(self, tmp_path, capsys):
        src = tmp_path / "k.json"
        src.write_text(json.dumps({"faces": [[[0, 1]]]}))
        err = self.usage_error(capsys, "homology", "--complex", str(src))
        assert "'vertices'" in err

    def test_invalid_complex(self, tmp_path, capsys):
        src = tmp_path / "k.json"
        src.write_text(json.dumps({"vertices": 2, "faces": [[[0, 5]]]}))
        err = self.usage_error(capsys, "fvector", "--complex", str(src))
        assert "invalid complex" in err

    @pytest.mark.parametrize("faces, message", [
        (5, "faces 5 is not a list of levels"),
        ([[0, 1]], "1-cell 0 is 0, not a list of faces"),
        ([[[0, 1]], 7], "level 2 of faces is 7, not a list of 2-cells"),
    ])
    def test_faces_not_lists_of_lists(self, tmp_path, capsys, faces, message):
        src = tmp_path / "k.json"
        src.write_text(json.dumps({"vertices": 2, "faces": faces}))
        err = self.usage_error(capsys, "homology", "--complex", str(src))
        assert err == f"rhoforge: invalid complex: {message}\n"

    def test_non_integer_vertices(self, tmp_path, capsys):
        src = tmp_path / "k.json"
        src.write_text(json.dumps({"vertices": "two", "faces": []}))
        err = self.usage_error(capsys, "homology", "--complex", str(src))
        assert "invalid complex" in err

    @pytest.mark.parametrize("argv, path, value, prefix", [
        (("homology", "--complex"), ("faces", 0, 0, 1), 0.5, "invalid complex"),
        (("homology", "--complex"), ("faces", 0, 0, 0), "0", "invalid complex"),
        (("homology", "--complex"), ("vertices",), True, "invalid complex"),
        (("bound-chain", "--cycle"), ("group", 0), 2.9, "bad cycle file entry"),
        (("bound-chain", "--cycle"), ("cells", 0, "sign"), 1.7,
         "bad cycle file entry"),
        (("bound-chain", "--cycle"), ("cells", 0, "sign"), "1",
         "bad cycle file entry"),
        (("bound-chain", "--cycle"), ("cells", 0, "gen", 0, 0), True,
         "bad cycle file entry"),
        (("verify-polytope", "--polytope"), ("degree",), 2.0,
         "invalid polytope"),
        (("verify-polytope", "--polytope"), ("cells", 0, "sign"), True,
         "invalid polytope"),
        (("verify-polytope", "--polytope"), ("gluings", 0, 0, 0), False,
         "invalid polytope"),
    ], ids=[
        "complex-face-float", "complex-face-string", "complex-vertices-bool",
        "cycle-group-float", "cycle-sign-float", "cycle-sign-string",
        "cycle-residue-bool", "polytope-degree-float", "polytope-sign-bool",
        "polytope-gluing-bool",
    ])
    def test_non_integer_field(self, tmp_path, capsys, argv, path, value, prefix):
        g = FiniteAbelianGroup([3]).element([1])
        data = {
            "--complex": {"vertices": 1, "faces": [[[0, 0]]]},
            "--cycle": {"group": [2], "cells": [{"gen": [[1], [1]], "sign": 1}]},
            "--polytope": octagon_polytope(g, g, g, g).to_json(),
        }[argv[1]]
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        src = tmp_path / "in.json"
        src.write_text(json.dumps(data))
        err = self.usage_error(capsys, *argv, str(src))
        assert err.startswith(f"rhoforge: {prefix}: ")

    # a field of the wrong JSON type is named, with what it should be
    CYCLE = {"group": [2], "cells": [{"gen": [[1], [1]], "sign": 1}]}
    TERMS = {"group": [3], "degree": 1, "terms": [{"gen": [[1]], "coef": 1}]}

    @pytest.mark.parametrize("base, field, value, message", [
        (CYCLE, "group", "3",
         "group is '3', not a list of moduli or an object with \"moduli\""),
        (CYCLE, "group", {"moduli": 3}, "moduli is 3, not a list of integers"),
        (CYCLE, "cells", {"a": 1}, "cells is {'a': 1}, not a list of cells"),
        (CYCLE, "cells", [[1, 2]],
         'cell 0 is [1, 2], not an object with "gen" and "sign"'),
        (CYCLE, "cells", [{"gen": 5, "sign": 1}],
         "gen of cell 0 is 5, not a list of group elements"),
        (CYCLE, "cells", [{"gen": [[1], 1], "sign": 1}],
         "element 1 of gen of cell 0 is 1, not a list of residues"),
        (TERMS, "terms", [[1]],
         'term 0 is [1], not an object with "gen" and "coef"'),
        (TERMS, "terms", 5, "terms is 5, not a list of terms"),
        (TERMS, "terms", [{"gen": [1], "coef": 1}],
         "element 0 of gen of term 0 is 1, not a list of residues"),
    ], ids=["group-string", "moduli-int", "cells-object", "cell-list",
            "gen-int", "element-int", "term-list", "terms-int",
            "term-element-int"])
    def test_cycle_field_type(self, tmp_path, capsys, base, field, value,
                              message):
        src = tmp_path / "cycle.json"
        src.write_text(json.dumps({**base, field: value}))
        err = self.usage_error(capsys, "bound-chain", "--cycle", str(src))
        assert err == f"rhoforge: bad cycle file entry: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("group", [3], 'group is [3], not an object with "moduli"'),
        ("cells", [1], 'cell 0 is 1, not an object with "gen" and "sign"'),
        ("cells", 5, "cells is 5, not a list of cells"),
        ("gluings", 5, "gluings is 5, not a list of face pairs"),
        ("gluings", [[[0, 1]]],
         "gluing 0 is [[0, 1]], not a pair of face references"),
        ("gluings", [[0, 1]], "face 0 of gluing 0 is 0, not [cell, face]"),
        ("gluings", [[[0, 1], [1, 2, 0]]],
         "face 1 of gluing 0 is [1, 2, 0], not [cell, face]"),
    ], ids=["group-list", "cell-int", "cells-int", "gluings-int",
            "gluing-single", "face-int", "face-triple"])
    def test_polytope_field_type(self, tmp_path, capsys, field, value, message):
        g = FiniteAbelianGroup([3]).element([1])
        data = {**octagon_polytope(g, g, g, g).to_json(), field: value}
        src = tmp_path / "p.json"
        src.write_text(json.dumps(data))
        err = self.usage_error(capsys, "verify-polytope", "--polytope", str(src))
        assert err == f"rhoforge: invalid polytope: {message}\n"

    def test_rho_sweep_d0(self, capsys):
        err = self.usage_error(capsys, "rho-sweep", "--d", "0")
        assert "d must be at least 1" in err

    def test_rho_sweep_n1(self, capsys):
        # the first row's (N, d) is refused before any row is written
        assert run("rho-sweep", "--d", "2", "--from", "1") == 2
        assert capsys.readouterr() == ("", "rhoforge: N must be at least 2\n")


class TestConstantsAndUsage:
    def test_constants(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("constants", "--report", str(out)) == 0
        report = load(out)
        assert report["status"] == "pass"
        assert report["thm12"]["1"] == 2764800
        assert report["catalan"] == [1, 2, 5, 14, 42]

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run("constants", "--frobnicate")
        assert err.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run()
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound-chain", "--octagon", "--group", "2,2"],
            ["bound-chain", "--cycle", "c.json", "--report", "r.json"],
            ["verify-polytope", "--octagon", "--group", "5"],
            ["homology", "--builtin", "lens:4,4"],
            ["hyperbolize", "--dim", "3", "--out", "r.json"],
            ["lens", "--N", "5", "--d", "3"],
            ["rho-sweep", "--d", "6", "--from=4", "--to", "50"],
            ["rho-sweep", "--d", "6", "--csv", "rho.csv"],
            ["constants"],
            ["hyperbolize", "--out", "a.json", "--dim", "2", "--report", "b.json"],
            ["bound-chain", "--group", "", "--octagon", "--octagon"],
            ["lens", "--d", " 3", "--N", "5", "--N", "7"],
            # a negative value, an abbreviation with --opt=value, a
            # trailing "--" (refused)
            ["rho-sweep", "--d", "-6"],
            ["bound-chain", "--oct", "--group=2"],
            ["lens", "--N", "5", "--d", "3", "--"],
            # refused by the subcommand or left over for the top level;
            # "--fro" is an abbreviation of "--from", and "--help" exits 0
            ["constants", "--frobnicate"],
            ["constants", "extra", "--frobnicate"],
            ["bound-chain", "--octagon", "--group"],
            ["hyperbolize"],
            ["lens", "--N", "five", "--d", "3"],
            ["rho-sweep", "--d", "6", "--fro", "4"],
            ["verify-polytope", "--help"],
            # not a subcommand
            [],
            ["--help"],
            ["bound"],
            ["--report", "r.json", "constants"],
        ],
    )
    def test_parsed_as_the_full_parser_parses(
        self, argv, capsys, monkeypatch, tmp_path
    ):
        """``main`` reads a line only through the parser: the handler gets
        the namespace the parser gives, and a line the parser refuses
        exits as the parser exits, with nothing run."""
        try:
            expected = vars(cli._build_parser().parse_args(list(argv)))
        except SystemExit as exc:
            expected = exc.code, capsys.readouterr()
        seen = []

        def record(args):
            seen.append(vars(args))
            return {}, [], {}

        # the parser binds the handlers it is built with
        cli._build_parser.cache_clear()
        for name in vars(cli).copy():
            if name.startswith("_cmd_"):
                monkeypatch.setattr(cli, name, record)
        monkeypatch.chdir(tmp_path)  # where a --report line writes
        try:
            assert main(list(argv)) == 0
        except SystemExit as exc:
            assert (exc.code, capsys.readouterr()) == expected and seen == []
        else:
            assert len(seen) == 1 and seen[0]["handler"] is record
            assert {**seen[0], "handler": expected["handler"]} == expected
        finally:
            cli._build_parser.cache_clear()

    SPELLINGS = {
        "bound-chain": [
            ["--octagon", "--group", "5", "--report", "{}"],
            ["--octagon", "--group=5", "--report={}"],
            ["--oct", "--gr", "5", "--rep", "{}"],
            ["--report", "{}", "--group", "5", "--octagon"],
        ],
        "verify-polytope": [
            ["--octagon", "--group", "5", "--report", "{}"],
            ["--octagon", "--group=5", "--report={}"],
            ["--oct", "--gr", "5", "--rep", "{}"],
            ["--report", "{}", "--group", "5", "--octagon"],
        ],
        "rho-sweep": [
            ["--d", "6", "--from", "4", "--to", "50", "--report", "{}"],
            ["--d=6", "--from=4", "--to=50", "--report={}"],
            ["--d", "6", "--fr", "4", "--t", "50", "--rep", "{}"],
            ["--report", "{}", "--to", "50", "--from", "4", "--d", "6"],
        ],
        "hyperbolize": [
            ["--dim", "2", "--out", "{}"],
            ["--dim=2", "--report={}"],
            ["--di", "2", "--ou", "{}"],
            ["--out", "{}", "--dim", "2"],
        ],
    }

    def test_spellings_give_one_report(self, tmp_path, capsys):
        """Each way of writing a line (in full, as --opt=value, abbreviated,
        reordered) gives the same report bytes, elapsed_s aside; a line
        the parser refuses exits 2."""
        for command, spellings in self.SPELLINGS.items():
            texts = set()
            for k, options in enumerate(spellings):
                out = tmp_path / f"{command}-{k}.json"
                code = run(command, *(o.replace("{}", str(out)) for o in options))
                # rho-sweep's bound fails at N = 4 and 5 by design
                assert code == (1 if command == "rho-sweep" else 0)
                assert capsys.readouterr().out == (
                    f"{load(out)['status']}: report written to {out}\n"
                )
                texts.add("".join(
                    line for line in out.read_text().splitlines(keepends=True)
                    if '"elapsed_s"' not in line
                ))
            assert len(texts) == 1, command
        for argv in (
            ["lens", "--N", "five", "--d", "3"],
            ["hyperbolize"],
            ["constants", "--frobnicate"],
        ):
            with pytest.raises(SystemExit) as err:
                run(*argv)
            assert err.value.code == 2
            assert capsys.readouterr().err.startswith("usage: rhoforge")


class TestClosedPipe:
    """A reader that stops early (``| head -1``) ends the run quietly,
    with the command's own exit code."""

    @pytest.mark.parametrize("d, status", [(6, 1), (2, 0)])
    def test_rho_sweep_into_head(self, d, status):
        # the report is over 250 kB, far past a pipe's buffer, so the
        # write meets a closed pipe
        argv = ["rho-sweep", "--d", str(d), "--from", "4", "--to", "2000"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rhoforge.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a no-op once it has exited
        assert (proc.returncode, err) == (status, b"")


def golden_digest(argv, capsys):
    """sha256 of a command's report without ``elapsed_s``, re-emitted
    with floats at 9 significant digits: eigenvalue solvers differ in
    the last bits between LAPACK builds, and the torsion report carries
    their floats."""

    def rounded(value):
        if isinstance(value, float):
            return float(f"{value:.9g}")
        if isinstance(value, dict):
            return {k: rounded(v) for k, v in value.items()}
        if isinstance(value, list):
            return [rounded(v) for v in value]
        return value

    code = run(*argv)
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["status"] == "pass" else 1)
    del report["elapsed_s"]
    return hashlib.sha256(json.dumps(rounded(report), indent=2).encode()).hexdigest()


# taken before fiber_product numbered its cells by index arithmetic and
# before the DeltaComplex constructor took the builders' arrays; the
# bound-chain and rho-sweep digests before the package root and the CLI
# imported their layers on first use
GOLDEN_REPORTS = {
    ("bound-chain", "--octagon", "--group", "5"):
        "fb6b6ca0684ecae12e217269e24d5439f5e5029b5cfe58ae3390a2f8c374d846",
    # exit 1: the bound fails inside its hypothesis at N = 4 and 5
    ("rho-sweep", "--d", "6", "--from", "4", "--to", "50"):
        "988216efd76b6820c91d5dc8f58d1f917e7321a66a982cfc04411649b9c80270",
    ("hyperbolize", "--dim", "1"):
        "caaf4b8c6efe0f13882d4d6945cc9668c0b09e8979b06b89b85c6a851a8517b4",
    ("hyperbolize", "--dim", "2"):
        "ab91a7cb5be474eb8320e771b02aebd6722b57c3b78faf92c4198b78de432d70",
    ("hyperbolize", "--dim", "3"):
        "0a76b9a5aed74cbf319356217c245f7ccd53bd5332a52235222426526b90001a",
    ("homology", "--builtin", "lens:4,4"):
        "05bed06c17d4904c176c82118ab71965c2523d4559a8e29e7ff425017a04b61c",
    ("fvector", "--builtin", "lens:8,3"):
        "1bf9067f72544fa81e4d22a6c58bcbcc5d13df6061c7c84549346268674e4a34",
    ("torsion", "--builtin", "lens:8,3"):
        "a32096d8514425f01bae240f990445eeb84ee43bd48dab8f3167ec2f9233ac75",
    # these two taken before the boundary Gram matrices were summed from
    # the face tables; y2.json has more 1-cells than 2-cells, so its d_2
    # Gram is the d^T d one
    ("torsion", "--complex", "bench/data/y2.json"):
        "cac04fec0ff0772de5fbfe48e25be051938910f7b3f40d9279bb0c6cd4765d0e",
    # exit 1: the benchmark's sweep, failing at N = 4 and 5
    ("rho-sweep", "--d", "6", "--from", "4", "--to", "2000"):
        "949f8e22ddc9fc7ace40286179948f7e8188bc7c9494ff95f28e55fd50758452",
    # the homology workload's other two complexes, taken before commands
    # ran with the collector paused and the complex kept its face arrays
    ("homology", "--complex", "bench/data/x3.json"):
        "30e4fa52d3d014a6b7ff6a1ca01ae340ea8d148eaf7eb13073bdf6af37781070",
    ("homology", "--builtin", "lens:8,3"):
        "cbbaeb51c96382de2279377095a762b5d7f1131d6a9255fb82faddf30f6f595f",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_REPORTS))
def test_golden_report(argv, capsys, monkeypatch):
    # file arguments are relative to the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert golden_digest(argv, capsys) == GOLDEN_REPORTS[argv]


class TestCellCap:
    """Builds over the cell cap exit 3 with one line and no report."""

    def assert_capped(self, monkeypatch, capsys, argv, cells, cap):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", str(cap))
        assert run(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rhoforge: resource cap exceeded: ")
        assert captured.err.count("\n") == 1
        assert f"needs {cells} cells, cap is {cap}" in captured.err

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (("lens", "--N", "20", "--d", "3"), 3446),
            (("homology", "--builtin", "lens:20,3"), 3446),
            (("fvector", "--builtin", "simplex:12"), 8191),
            (("fvector", "--builtin", "ngon:5000"), 10000),
            (("fvector", "--builtin", "boundary-simplex:10"), 2046),
            # boundary_simplex(3), 14 cells, fits; the X3 stage does not
            (("hyperbolize", "--dim", "3"), 4476),
            (("homology", "--complex", "600-gon.json"), 1200),
        ],
    )
    def test_over_the_cap(self, monkeypatch, capsys, tmp_path, argv, cells):
        monkeypatch.chdir(tmp_path)
        edges = [[(k + 1) % 600, k] for k in range(600)]
        (tmp_path / "600-gon.json").write_text(
            json.dumps({"vertices": 600, "faces": [edges]})
        )
        self.assert_capped(monkeypatch, capsys, argv, cells, 1000)

    def test_message_names_the_stage(self, monkeypatch, capsys):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", "1000")
        assert run("hyperbolize", "--dim", "3") == 3
        assert capsys.readouterr().err == (
            "rhoforge: resource cap exceeded: hyperbolized X3 stage needs "
            "4476 cells, cap is 1000\n"
        )

    def test_bound_chain_up_to_its_labeled_cells(self, monkeypatch, capsys):
        # three distinct copy translations of the octagon's 6 cells over Z/3
        cells = 18
        monkeypatch.setenv("RHOFORGE_CELL_CAP", str(cells))
        argv = ("bound-chain", "--group", "3", "--octagon")
        assert run(*argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("RHOFORGE_CELL_CAP", str(cells - 1))
        assert run(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "rhoforge: resource cap exceeded: tower needs 18 cells, cap is 17\n"
        )

    @pytest.mark.parametrize("dim, cells", [(1, 12), (2, 820), (3, 4476)])
    def test_hyperbolize_up_to_its_largest_complex(
        self, monkeypatch, capsys, dim, cells
    ):
        monkeypatch.setenv("RHOFORGE_CELL_CAP", str(cells))
        assert run("hyperbolize", "--dim", str(dim)) == 0
        capsys.readouterr()
        argv = ("hyperbolize", "--dim", str(dim))
        self.assert_capped(monkeypatch, capsys, argv, cells, cells - 1)


class TestEmitter:
    """``_dumps`` writes what reports hold: dicts with str keys, lists,
    and str, int, float, bool, None and Fraction values of exact type."""

    class Unsupported:
        pass

    class Str(str):
        pass

    class Int(int):
        pass

    class Float(float):
        pass

    class Row(dict):
        pass

    class Rows(list):
        pass

    def test_crafted_payload(self):
        payload = {
            "fractions": [Fraction(6, 3), Fraction(-2, 7), {"x": Fraction(1, 2)}],
            "empty": [{}, [], {"a": {}}, [[]], {"b": {"c": []}}],
            "text": ["\u00fc\u221e\u2014 \U0001d70b", 'say "hi" \\ back\n\t\x00'],
            "floats": [math.nan, math.inf, -math.inf, -0.0, 0.1, 1e300, 1e-7],
            "scalars": [True, False, None, 0, -12, 2**80],
            "\u00e9 \"key\"\n": "escaped key",
            "tables": [[{"N": 4, "rho": 2.0, "pass": False, "status": "ok"},
                        {"N": 5, "rho": math.inf, "pass": True, "status": "}"}],
                       [[0, 1], [1, 2, 3], ["]", None]]],
            "spoiled": [[{"a": 1}, {}], [[1], []], [{"a": 1}, [1]],
                        [{"a": Fraction(1, 2)}], [[1, [2]]], [[1], {"b": {}}]],
        }
        assert cli._dumps(payload) == json_text(payload)
        assert cli._dumps([]) == "[]" and cli._dumps("\u00e9") == '"\\u00e9"'

    def test_tables_match_json_dumps(self):
        # generated payloads through the table path and its fallbacks:
        # flat rows, and tables spoiled by an empty row, a row of the
        # other kind or a cell that is a Fraction or a container
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        tricky = st.sampled_from(
            ["},\n", "},\n    {", "],\n  [", "[", "{", "]", "}", "\u00e9\u2014\U0001d70b", ""]
        )
        text = st.text(max_size=6) | tricky
        scalars = (
            st.none() | st.booleans() | st.integers()
            | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
            | text
        )
        odd = st.fractions() | st.lists(scalars, max_size=2) | st.just({})
        flat_dict = st.dictionaries(text, scalars, min_size=1, max_size=4)
        flat_list = st.lists(scalars, min_size=1, max_size=4)
        tables = (
            st.lists(flat_dict, min_size=1, max_size=5)
            | st.lists(flat_list, min_size=1, max_size=5)
        )

        @st.composite
        def spoiled(draw):
            """A table with one row empty, of the other kind, or given a
            cell that is not a scalar."""
            rows = draw(tables)
            i = draw(st.integers(0, len(rows) - 1))
            row = rows[i]
            kind = draw(st.sampled_from(["empty", "other", "odd"]))
            if kind == "empty":
                rows[i] = type(row)()
            elif kind == "other":
                rows[i] = (
                    list(row.values()) if isinstance(row, dict)
                    else {str(k): v for k, v in enumerate(row)}
                )
            elif isinstance(row, dict):
                rows[i] = {**row, draw(text): draw(odd)}
            else:
                rows[i] = [*row, draw(odd)]
            return rows

        payloads = st.recursive(
            scalars | st.fractions() | tables | spoiled(),
            lambda kids: st.lists(kids, max_size=4)
            | st.dictionaries(text, kids, max_size=4),
            max_leaves=24,
        )

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(payloads)
        def check(payload):
            assert cli._dumps(payload) == json_text(payload)

        check()

    @pytest.mark.parametrize(
        "payload",
        [[Unsupported()], {"a": {"b": Unsupported()}}, {(1, 2): 3}, Unsupported(),
         [{"a": 1}, {(1, 2): 3}],
         # json.dumps writes these, but no report holds them
         (1, 2), {"t": ("a", None)}, [(1,), (2,)], frozenset({1}),
         {7: "int"}, {2.5: "float"}, {True: "bool"}, {None: "null"},
         [{"a": 1}, {"b": 2, 3: 4}], {"s": Str("a")}, [Int(1)],
         [{"a": 1}, {"a": Float(0.5)}], [[1], [Int(2)]], Str("a"),
         [Row(a=1)], Rows([1]), {"rows": Rows([{"a": 1}])}],
    )
    def test_unsupported_is_a_type_error(self, payload):
        with pytest.raises(TypeError):
            cli._dumps(payload)

    @pytest.mark.parametrize(
        "payload",
        [[Unsupported()], {"a": {"b": Unsupported()}}, Unsupported(),
         [{"a": 1}, {"a": [Unsupported()]}]],
    )
    def test_unserializable_value_named_as_json_names_it(self, payload):
        # ``_jsonable`` refuses it for both writers
        with pytest.raises(TypeError) as ours:
            cli._dumps(payload)
        with pytest.raises(TypeError) as theirs:
            json_text(payload)
        assert str(ours.value) == str(theirs.value)

    def test_non_str_key_named(self):
        with pytest.raises(TypeError, match="^keys must be str, not int$"):
            cli._dumps({"a": [{7: "int"}]})


def test_one_process_runs_commands_in_turn(capsys):
    # the parser is built once and must serve every later call
    assert run("constants") == 0
    assert json.loads(capsys.readouterr().out)["command"] == "constants"
    with pytest.raises(SystemExit) as exc:
        run("lens", "--N", "five", "--d", "2")
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run("fvector", "--builtin", "ngon:5") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "fvector"
    assert report["inputs"] == {"builtin": "ngon:5"}
    assert report["f_vector"] == [5, 5]


REPO = Path(__file__).resolve().parents[1]


class TestCollectorPause:
    """``main`` runs a command with the cyclic collector paused, which is
    only safe while commands leave (almost) no cycles behind."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @staticmethod
    def run_quietly(capsys, argv):
        try:
            run(*argv)
        except OverflowError:  # torsion of lens:4,4, a known defect
            pass
        capsys.readouterr()

    def cyclic_garbage(self, capsys, argv):
        """The type names of what the collector frees after ``argv`` ran
        with the collector disabled, once imports and caches are warm."""
        self.run_quietly(capsys, argv)
        flags, start = gc.get_debug(), len(gc.garbage)
        gc.collect()
        gc.disable()
        self.run_quietly(capsys, argv)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            names = Counter(type(obj).__name__ for obj in gc.garbage[start:])
            assert found == sum(names.values())
            return names
        finally:
            del gc.garbage[start:]
            gc.set_debug(flags)

    @pytest.mark.parametrize("argv", [
        ("homology", "--complex", str(REPO / "bench/data/x3.json")),
        ("homology", "--builtin", "lens:4,4"),
        ("homology", "--builtin", "lens:8,3"),
        ("hyperbolize", "--dim", "2"),
        ("hyperbolize", "--dim", "3"),
        ("lens", "--N", "20", "--d", "2"),
        ("fvector", "--builtin", "lens:8,3"),
        ("torsion", "--builtin", "lens:8,3"),
        ("torsion", "--complex", str(REPO / "bench/data/y2.json")),
        ("torsion", "--builtin", "lens:4,4"),
        ("rho-sweep", "--d", "6", "--from", "4", "--to", "2000"),
        ("constants",),
        ("lens", "--N", "2", "--d", "2"),
    ], ids=lambda argv: " ".join(Path(a).name for a in argv))
    def test_commands_leave_no_cycles(self, capsys, argv):
        assert self.cyclic_garbage(capsys, argv) == Counter()

    @pytest.mark.parametrize("command", ["bound-chain", "verify-polytope"])
    def test_octagon_leaves_only_its_group(self, capsys, command):
        # each element refers to its group, which interns the elements
        argv = (command, "--octagon", "--group", "5")
        names = self.cyclic_garbage(capsys, argv)
        assert names["FiniteAbelianGroup"] == 1
        assert set(names) <= {"FiniteAbelianGroup", "GroupElement", "dict", "tuple"}

    def test_the_command_runs_paused(self, monkeypatch, capsys):
        seen = []
        assemble = cli._assemble

        def recording(*args):
            seen.append(gc.isenabled())
            return assemble(*args)

        monkeypatch.setattr(cli, "_assemble", recording)
        gc.enable()
        assert run("constants") == 0
        assert seen == [False] and gc.isenabled()
        capsys.readouterr()

    @pytest.mark.parametrize("argv, outcome, cap", [
        (("constants",), 0, None),
        (("rho-sweep", "--d", "6", "--from", "4", "--to", "50"), 1, None),
        (("lens", "--N", "2", "--d", "2"), 2, None),
        (("homology", "--builtin", "ngon:3",
          "--report", "{tmp}/missing/r.json"), 2, None),
        (("lens", "--N", "five", "--d", "2"), SystemExit, None),
        (("lens", "--N", "20", "--d", "3"), 3, "1000"),
        (("torsion", "--builtin", "lens:4,4"), OverflowError, None),
    ], ids=["pass", "fail", "usage", "unwritable", "parse", "cap", "raises"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_state_is_restored(
        self, tmp_path, monkeypatch, capsys, argv, outcome, cap, enabled
    ):
        argv = [a.format(tmp=tmp_path) for a in argv]
        if cap is not None:
            monkeypatch.setenv("RHOFORGE_CELL_CAP", cap)
        (gc.enable if enabled else gc.disable)()
        if isinstance(outcome, int):
            assert run(*argv) == outcome
        else:
            with pytest.raises(outcome):
                run(*argv)
        assert gc.isenabled() is enabled
        capsys.readouterr()
