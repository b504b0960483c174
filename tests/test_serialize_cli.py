import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

import fuzzdyn
from fuzzdyn.cli import main, parse_system_spec
from fuzzdyn.errors import InputError
from fuzzdyn.families import IndexSet
from fuzzdyn.fuzzy import FuzzySet, GFunction, LevelGrid
from fuzzdyn.hyperspace import CompactSet, lift_system
from fuzzdyn.serialize import (canonical_json, compact_to_jsonable,
                               format_fraction, fuzzy_from_jsonable,
                               fuzzy_to_jsonable, gfunction_from_jsonable,
                               gfunction_to_jsonable, indexset_from_jsonable,
                               indexset_to_jsonable, parse_fraction,
                               system_from_jsonable, system_to_jsonable)
from fuzzdyn.spaces import (circle_space, make_grid_interval_map,
                            make_multiply, make_rotation)
from fuzzdyn.symbolic import golden_mean_shift

F = Fraction

#: the directory holding the fuzzdyn package, for child interpreters
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(fuzzdyn.__file__)))


def run_module_cli(args, cwd):
    """``python -m fuzzdyn.cli ARGS`` in a child interpreter."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-m", "fuzzdyn.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


class TestFractions:
    def test_roundtrip(self):
        for s in ("0/1", "3/4", "7/1"):
            assert format_fraction(parse_fraction(s)) == s

    def test_accepts_plain_integers(self):
        assert parse_fraction("3") == 3
        assert format_fraction(F(3)) == "3/1"

    def test_bad_input(self):
        with pytest.raises(InputError):
            parse_fraction("x/y")


class TestSystemRoundTrips:
    @pytest.mark.parametrize("sys", [
        make_rotation(5, 2),
        make_multiply(8, 2),
        make_grid_interval_map("tent", 4, snap="nearest"),
    ])
    def test_parametric_kinds(self, sys):
        back = system_from_jsonable(system_to_jsonable(sys))
        assert back.table == sys.table
        assert len(back.space.points) == len(sys.space.points)

    def test_finite_table_roundtrip(self):
        from helpers import random_table_system
        import random
        sys = random_table_system(random.Random(0), 5)
        doc = system_to_jsonable(sys)
        assert doc["kind"] == "finite"
        back = system_from_jsonable(doc)
        assert back.table == sys.table
        for i in range(5):
            for j in range(5):
                assert back.space.d_by_index(i, j) == \
                    sys.space.d_by_index(i, j)

    def test_shift_roundtrip(self):
        gm = golden_mean_shift(4)
        doc = system_to_jsonable(gm)
        back = system_from_jsonable(doc)
        assert back.legal_words(4) == gm.legal_words(4)

    def test_lift_emits_provenance(self):
        doc = system_to_jsonable(lift_system(make_rotation(3, 1)))
        assert doc["kind"] == "hyperspace_lift"
        assert doc["base"]["kind"] == "rotation"

    def test_canonical_emission_is_deterministic(self):
        a = canonical_json(system_to_jsonable(make_rotation(7, 2)))
        b = canonical_json(system_to_jsonable(make_rotation(7, 2)))
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            system_from_jsonable({"kind": "torus"})
        with pytest.raises(InputError):
            system_from_jsonable({"points": []})


class TestValueRoundTrips:
    def test_compact_sorted(self):
        space = circle_space(5)
        assert compact_to_jsonable(CompactSet(space, [3, 0, 4])) == [0, 3, 4]

    def test_fuzzy_roundtrip(self):
        space = circle_space(4)
        grid = LevelGrid(2)
        a = FuzzySet(space, grid, [F(0), F(1, 2), F(1), F(0)])
        doc = fuzzy_to_jsonable(a)
        assert doc == {"grid_m": 2, "grades": {"1": "1/2", "2": "1/1"}}
        assert fuzzy_from_jsonable(space, doc) == a

    def test_gfunction_roundtrip(self):
        grid = LevelGrid(2)
        g = GFunction(grid, {F(0): 0, F(1, 2): 1, F(1): 1})
        back = gfunction_from_jsonable(gfunction_to_jsonable(g))
        assert back == g

    def test_indexset_roundtrip(self):
        s = IndexSet.of(20, [1, 5, 7])
        assert indexset_from_jsonable(indexset_to_jsonable(s)) == s


class TestSystemSpecs:
    def test_named_specs(self):
        assert parse_system_spec("rotation:6,2").label == "rotation(6,2)"
        assert parse_system_spec("point").label == "rotation(1,0)"
        assert parse_system_spec("fullshift:2,3").is_full
        assert not parse_system_spec("goldenmean:4").is_full

    def test_file_spec(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system_to_jsonable(make_multiply(9, 2))))
        sys = parse_system_spec(f"file:{path}")
        assert sys.table == make_multiply(9, 2).table

    def test_bad_specs(self):
        for bad in ("torus:3", "rotation:x,y", "noseparator"):
            with pytest.raises(InputError):
                parse_system_spec(bad)


class TestCli:
    def test_check_writes_reports(self, tmp_path):
        rc = main(["check", "--system", "rotation:12,1",
                   "--props", "uniform-rigidity", "--eps", "1/24",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "check_report.json").read_text())
        assert doc["results"]["uniform-rigidity"]["status"] == "holds"
        assert doc["results"]["uniform-rigidity"]["witnesses"] == [
            ["witness_n", 12]]
        assert doc["tool"]["version"]
        assert doc["config"]["system"] == "rotation:12,1"
        assert (tmp_path / "check_summary.csv").exists()

    def test_failing_verdict_still_exits_zero(self, tmp_path):
        rc = main(["check", "--system", "multiply:8,2",
                   "--props", "transitivity", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "check_report.json").read_text())
        verdict = doc["results"]["transitivity"]
        assert verdict["status"] == "fails"
        assert verdict["counterexample"]

    def test_verify_consistent_negative(self, tmp_path):
        rc = main(["verify", "--theorem", "transitivity",
                   "--system", "rotation:2,1", "--m", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "equivalence_report.json").read_text())
        assert doc["report"]["consistent"] is True
        assert all(item["status"] == "fails"
                   for item in doc["report"]["items"])
        assert (tmp_path / "equivalence_matrix.csv").exists()

    def test_verify_proximality_includes_mixed_height_row(self, tmp_path):
        rc = main(["verify", "--theorem", "proximality",
                   "--system", "gridmap:half,8", "--m", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "equivalence_report.json").read_text())
        rows = {item["id"]: item for item in doc["report"]["items"]}
        assert rows["fuzzy(F0)-proximal"]["status"] == "fails"
        assert rows["fuzzy(F0)-proximal"]["in_matrix"] is False
        assert rows["hyper-proximal"]["status"] == "holds"

    def test_verify_equicontinuity_on_one_point_has_no_red_alert(
            self, tmp_path):
        # the F0 lift of one point puts its two heights at distance 0
        rc = main(["verify", "--theorem", "equicontinuity",
                   "--system", "point", "--m", "2", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "equivalence_report.json").read_text())
        assert doc["report"]["red_alert"] is False
        assert [item["id"] for item in doc["report"]["items"]] == [
            "base-equicontinuous", "hyper-equicontinuous"]

    def test_verify_cut_lemma_with_g_file(self, tmp_path):
        gpath = tmp_path / "g.json"
        grid = LevelGrid(4)
        g = GFunction(grid, {F(0): 0, F(1, 4): F(1, 2), F(1, 2): F(1, 2),
                             F(3, 4): F(3, 4), F(1): 1})
        gpath.write_text(json.dumps(gfunction_to_jsonable(g)))
        rc = main(["verify", "--theorem", "cut-lemma",
                   "--system", "multiply:9,2", "--m", "4",
                   "--g", f"file:{gpath}", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "equivalence_report.json").read_text())
        assert doc["report"]["items"][0]["status"] == "holds"

    def test_plotdata_curves(self, tmp_path):
        rc = main(["plotdata", "--system", "gridmap:half,8",
                   "--out", str(tmp_path)])
        assert rc == 0
        decay = (tmp_path / "diam_decay.csv").read_text().splitlines()
        assert decay[0] == "n,diam"
        assert decay[1] == "0,1/1"
        assert decay[5] == "4,0/1"
        modulus = (tmp_path / "modulus.csv").read_text().splitlines()
        assert modulus[0] == "eps,delta"
        assert len(modulus) > 1

    def test_symbolic_system_runs_symbolic_checks_only(self, tmp_path):
        rc = main(["check", "--system", "fullshift:2,3",
                   "--props", "transitivity,mixing", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "check_report.json").read_text())
        assert doc["results"]["transitivity"]["status"] == "holds"
        assert doc["results"]["transitivity"]["exact"] is False
        rc = main(["check", "--system", "fullshift:2,3",
                   "--props", "uniform-rigidity", "--out", str(tmp_path)])
        assert rc == 2

    def test_malformed_input_exit_two(self, tmp_path):
        assert main(["check", "--system", "torus:9",
                     "--props", "transitivity",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("args,g_doc", [
        (["verify", "--theorem", "a-transitivity", "--system", "rotation:3,1",
          "--a", "1,x"], None),
        (["verify", "--theorem", "cut-lemma", "--system", "rotation:3,1"],
         {"m": "x"}),
        (["verify", "--theorem", "cut-lemma", "--system", "rotation:3,1"],
         {"m": 2}),
        (["verify", "--theorem", "cut-lemma", "--system", "rotation:3,1"],
         [1, 2]),
        (["check", "--system", "rotation:3,1", "--props", "transitivity",
          "--horizon", "0"], None),
        (["check", "--system", "rotation:3,1", "--props", "transitivity",
          "--horizon", "-3"], None),
        (["check", "--props", "transitivity", "--system", "json:" + json.dumps(
            {"kind": "finite", "points": ["a", "b"],
             "dist": [["0", "1/2"], ["1", "0"]],
             "map": {"a": "b", "b": "a"}})], None),
        (["check", "--props", "transitivity", "--system", "json:" + json.dumps(
            {"kind": "finite", "points": ["a", "b", "c"],
             "dist": [["0", "1/4", "1"], ["1/4", "0", "1/4"],
                      ["1", "1/4", "0"]],
             "map": {"a": "a", "b": "b", "c": "c"}})], None),
    ])
    def test_malformed_input_one_line_error(self, tmp_path, args, g_doc):
        if g_doc is not None:
            g_path = tmp_path / "g.json"
            g_path.write_text(json.dumps(g_doc))
            args = args + ["--g", f"file:{g_path}"]
        proc = run_module_cli(args + ["--out", str(tmp_path)], tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_module_entry_point_writes_report(self, tmp_path):
        proc = run_module_cli(["verify", "--theorem", "transitivity",
                               "--system", "rotation:3,1", "--m", "1",
                               "--out", str(tmp_path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "equivalence_report.json").read_text())
        assert doc["report"]["consistent"] is True

    def test_bound_exceeded_exit_three(self, tmp_path):
        assert main(["verify", "--theorem", "transitivity",
                     "--system", "rotation:20,1",
                     "--out", str(tmp_path)]) == 3

    def test_uniform_rigidity_has_no_subset_bound(self, tmp_path):
        rc = main(["verify", "--theorem", "uniform-rigidity",
                   "--system", "rotation:17,1", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "equivalence_report.json").read_text())
        rows = {item["id"]: item for item in doc["report"]["items"]}
        assert rows["hyper-uniformly-rigid"]["status"] == "holds"
        assert rows["hyper-uniformly-rigid"]["note"] == "singleton lemma"

    def test_large_horizon_reads_the_periodic_part(self, tmp_path):
        # T^(n+3) = T^n on rotation:3,1: a run steps 3 tables, not 3e6
        start = time.monotonic()
        for args in (["check", "--props", "uniform-rigidity"],
                     ["verify", "--theorem", "uniform-rigidity"]):
            assert main(args + ["--system", "rotation:3,1",
                                "--horizon", "3000000",
                                "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "check_report.json").read_text())
        assert doc["results"]["uniform-rigidity"]["witnesses"] == [
            ["witness_n", 3]]
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"

    def test_cut_lemma_large_horizon_stops_at_the_fold(self, tmp_path):
        # G^n, xi^n and T^n repeat from the fold on: the run steps 3 times
        # and counts the equalities of all 3e6 steps
        start = time.monotonic()
        assert main(["verify", "--theorem", "cut-lemma",
                     "--system", "rotation:3,1", "--horizon", "3000000",
                     "--out", str(tmp_path)]) == 0
        elapsed = time.monotonic() - start
        doc = json.loads((tmp_path / "equivalence_report.json").read_text())
        item, = doc["report"]["items"]
        assert item["status"] == "holds" and item["exact"] is True
        assert item["witnesses"] == [["equalities_checked", 27 * 2 * 3000000]]
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"

    def test_plotdata_modulus_in_one_pass(self, tmp_path):
        start = time.monotonic()
        proc = run_module_cli(["plotdata", "--system", "rotation:300,1",
                               "--out", str(tmp_path)], tmp_path)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "modulus.csv").read_text().splitlines()
        # an isometry: delta(eps) = eps at each of the 150 distance values
        assert rows[0] == "eps,delta" and len(rows) == 151
        assert all(eps == delta for eps, delta in
                   (row.split(",") for row in rows[1:]))
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"

    def test_reports_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["check", "--system", "multiply:9,2",
                       "--props", "transitivity,mixing",
                       "--out", str(out)])
            assert rc == 0
        assert (out1 / "check_report.json").read_bytes() == \
            (out2 / "check_report.json").read_bytes()

    def test_catalog_lists(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "rotation:n,step" in out
        assert "uniform-rigidity" in out


def test_cli_loads_only_the_standard_library(tmp_path):
    # -S: no site hooks, whose .pth files may load modules of their own
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, fuzzdyn.cli; "
         "print(*sorted({m.partition('.')[0] for m in sys.modules}))"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "fuzzdyn" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"fuzzdyn", "__main__"}


def test_package_exports_are_public_names_not_modules():
    for name in fuzzdyn.__all__:
        assert not isinstance(getattr(fuzzdyn, name), types.ModuleType), name
