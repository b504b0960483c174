import json
import os
import subprocess
import sys
import time
import types
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzdyn
import fuzzdyn.cli as cli
import fuzzdyn.serialize as serialize
import fuzzdyn.spaces as spaces
from fuzzdyn.analysis import MODULUS_PAIR_STEP_CAP
from fuzzdyn.cli import main, parse_system_spec
from fuzzdyn.errors import InputError
from fuzzdyn.fuzzy import GFunction, LevelGrid
from fuzzdyn.hyperspace import lift_system
from fuzzdyn.serialize import (canonical_json, format_fraction,
                               gfunction_from_jsonable, system_from_jsonable,
                               system_to_jsonable)
from fuzzdyn.spaces import (MetricSpace, _scaled_matrix, as_fraction,
                            make_grid_interval_map, make_multiply,
                            make_rotation, validate_metric)
from fuzzdyn.symbolic import ShiftSystem, golden_mean_shift
from helpers import brute_finite_space, gfunction_to_jsonable

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
            assert format_fraction(as_fraction(s)) == s

    def test_accepts_plain_integers(self):
        assert as_fraction("3") == 3
        assert format_fraction(F(3)) == "3/1"

    def test_bad_input(self):
        with pytest.raises(InputError):
            as_fraction("x/y")


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
    def test_gfunction_roundtrip(self):
        grid = LevelGrid(2)
        g = GFunction(grid, {F(0): 0, F(1, 2): 1, F(1): 1})
        back = gfunction_from_jsonable(gfunction_to_jsonable(g))
        assert back == g


class TestSystemSpecs:
    def test_named_specs(self):
        assert parse_system_spec("rotation:6,2").label == "rotation(6,2)"
        assert parse_system_spec("point").label == "rotation(1,0)"
        assert parse_system_spec("fullshift:2,3").label == "fullshift(2,k=3)"
        assert not parse_system_spec("goldenmean:4").follows("1", "1")

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

    def test_only_plotdata_takes_a_horizon(self, tmp_path, capsys):
        """Every check reads its whole clock, so ``verify`` and ``check``
        refuse ``--horizon``; on ``plotdata`` it is the curves' length."""
        for args in (["verify", "--theorem", "proximality", "--m", "2"],
                     ["check", "--props", "proximality"]):
            assert main(args + ["--system", "gridmap:half,8", "--horizon",
                                "2", "--out", str(tmp_path)]) == 2
            assert "unrecognized arguments: --horizon 2" in \
                capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert main(["plotdata", "--system", "gridmap:half,8", "--horizon",
                     "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rigidity.csv").read_text().splitlines() == [
            "n,max_displacement", "0,0/1", "1,1/2"]

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

    def test_a_shift_check_computes_each_word_pair_once(self, tmp_path,
                                                        monkeypatch):
        """The four shift properties of one check read the shift's one
        word-pair memo: its 14^2 pairs are each computed once, and no other
        shift is read."""
        computed = []
        pair_bits = ShiftSystem._pair_bits

        def counting(self, u, v):
            computed.append((self, u, v))
            return pair_bits(self, u, v)

        monkeypatch.setattr(ShiftSystem, "_pair_bits", counting)
        assert main(["check", "--system", "fullshift:2,3", "--props",
                     "transitivity,weak-mixing,mixing,mild-mixing",
                     "--out", str(tmp_path)]) == 0
        assert len({shift for shift, _, _ in computed}) == 1
        assert len(computed) == len(set(computed)) == 14 ** 2

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
        (["plotdata", "--system", "rotation:3,1", "--horizon", "0"], None),
        (["plotdata", "--system", "rotation:3,1", "--horizon", "-3"], None),
        (["check", "--props", "transitivity", "--system", "json:" + json.dumps(
            {"kind": "finite", "points": ["a", "b"],
             "dist": [["0", "1/2"], ["1", "0"]],
             "map": {"a": "b", "b": "a"}})], None),
        (["check", "--props", "transitivity", "--system", "json:" + json.dumps(
            {"kind": "finite", "points": ["a", "b", "c"],
             "dist": [["0", "1/4", "1"], ["1/4", "0", "1/4"],
                      ["1", "1/4", "0"]],
             "map": {"a": "a", "b": "b", "c": "c"}})], None),
        (["check", "--props", "transitivity", "--system", "json:" + json.dumps(
            {"kind": "grid_map", "shape": [], "m": 3})], None),
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
        # equicontinuity reads every state of each lift, so its lifts of
        # 3^20 states are built whole, within the state cap
        assert main(["verify", "--theorem", "equicontinuity",
                     "--system", "rotation:20,1",
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("system, rc, err", [
        # 2^40 subsets and their seven-fold boxes, 2^280 of them
        ("rotation:40,1", 0, ""),
        # the base item answers over 1500^7 boxes; 2^1500 subsets are past
        # any index
        ("rotation:1500,1", 3,
         "bound exceeded: hyperspace lift: size 1500 exceeds bound 63\n")])
    def test_more_boxes_than_len_exit_without_a_traceback(
            self, tmp_path, capsys, system, rc, err):
        assert main(["verify", "--theorem", "a-transitivity", "--system",
                     system, "--m", "1", "--a", "1,1,1,1,1,1,1",
                     "--out", str(tmp_path)]) == rc
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("system", ["rotation:2049,1",
                                        "gridmap:half,2048"])
    def test_table_space_over_the_cap_exits_three(self, tmp_path, capsys,
                                                   system):
        # the point count is checked before the space is built
        start = time.monotonic()
        assert main(["check", "--system", system, "--props", "transitivity",
                     "--out", str(tmp_path)]) == 3
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert err == "bound exceeded: table space: size 2049 exceeds " \
                      "bound 2048\n"
        assert not list(tmp_path.iterdir())

    def test_a_grid_over_the_cap_exits_three(self, tmp_path, capsys):
        # the levels are counted before any grade is built
        assert main(["verify", "--theorem", "transitivity",
                     "--system", "rotation:3,1", "--m", "100000000",
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "bound exceeded: grade grid: " \
                                          "size 100000000 exceeds bound 1024\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("factors, rc, err", [
        (256, 0, ""),
        (257, 3, "bound exceeded: product factors: size 257 exceeds "
                 "bound 256\n")])
    def test_product_factors_over_the_cap_exit_three(self, tmp_path, capsys,
                                                     factors, rc, err):
        # each factor nests one iterator in a box row, so 1,000 of them
        # overflowed the stack
        assert main(["verify", "--theorem", "a-transitivity",
                     "--system", "rotation:3,1", "--m", "1",
                     "--a", ",".join(["1"] * factors),
                     "--out", str(tmp_path)]) == rc
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("args", [
        ["catalog", "--out", "x"],
        ["catalog", "--horizon", "3"],
        ["catalog", "--m", "0"],
        ["plotdata", "--system", "rotation:3,1", "--eps", "1/2"],
        ["plotdata", "--system", "rotation:3,1", "--m", "1"],
        ["plotdata", "--system", "rotation:3,1", "--seed", "1"],
        ["check", "--system", "rotation:3,1", "--props", "transitivity",
         "--seed", "1"],
        ["verify", "--system", "rotation:3,1", "--theorem", "cut-lemma",
         "--seed", "1"],
    ])
    def test_options_a_command_does_not_read_exit_two(self, tmp_path, capsys,
                                                      monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_reports_echo_no_seed(self, tmp_path):
        for argv, name in (
                (["check", "--props", "transitivity"], "check_report.json"),
                (["verify", "--theorem", "cut-lemma"],
                 "equivalence_report.json")):
            assert main(argv + ["--system", "rotation:3,1",
                                "--out", str(tmp_path)]) == 0
            config = json.loads((tmp_path / name).read_text())["config"]
            assert "m" in config and "seed" not in config

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "rotation", "n": 3.5, "step": 1},
         "'n' must be an integer, not 3.5"),
        ({"kind": "rotation", "n": True, "step": 1},
         "'n' must be an integer, not true"),
        ({"kind": "rotation", "n": 3, "step": "1"},
         "'step' must be an integer, not \"1\""),
        ({"kind": "multiply", "n": 8, "a": 2.0},
         "'a' must be an integer, not 2.0"),
        ({"kind": "grid_map", "shape": "half", "m": False},
         "'m' must be an integer, not false"),
        ({"kind": "sft", "alphabet": ["a", "b"], "resolution": 2.5},
         "'resolution' must be an integer, not 2.5"),
        ({"kind": "sft", "alphabet": ["ab"], "resolution": 2},
         "alphabet symbols must be single characters"),
        ({"kind": "sft", "alphabet": ["a", "b"], "edges": ["ab", "ba"],
          "resolution": 2},
         "an edge must be a list, not \"ab\""),
        ({"kind": "sft", "alphabet": ["a", "b"], "edges": "ab",
          "resolution": 2},
         "'edges' must be a list, not \"ab\""),
        ({"kind": "sft", "alphabet": ["a", "b"], "edges": [["a", "b", "a"]],
          "resolution": 2},
         "an edge must be a list of two symbols, not [\"a\", \"b\", \"a\"]"),
        ({"kind": "finite", "points": "ab", "dist": [["0", "1"], ["1", "0"]],
          "map": {"a": "b", "b": "a"}},
         "'points' must be a list, not \"ab\""),
    ])
    def test_system_document_is_read_as_written(self, tmp_path, capsys, doc,
                                                 message):
        """A float, string or boolean where an integer is due, or a symbol
        of two characters, exits 2 with one line instead of running some
        other system."""
        assert main(["check", "--system", "json:" + json.dumps(doc),
                     "--props", "transitivity", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dist,mapping,message", [
        (["01", "10"], {"a": "b", "b": "a"},
         "a row of 'dist' must be a list, not \"01\""),
        (5, {"a": "b", "b": "a"}, "'dist' must be a list, not 5"),
        ([["0", True], [True, "0"]], {"a": "b", "b": "a"},
         "a distance in 'dist' must be a \"p/q\" string or an integer, "
         "not true"),
        ([[0, 1], [1.0, 0]], {"a": "b", "b": "a"},
         "not an exact rational: 1.0"),
        ([["0", "1"], ["1", "0"]], ["b", "a"],
         "'map' must be an object, not [\"b\", \"a\"]"),
        ([["0", "1"], ["1", "0"]], {"a": "b"},
         "'map' has no key for point \"b\""),
        ([["0", "1"], ["1", "0"]], {"a": "b", "b": "a", "c": "a"},
         "'map' key \"c\" names no point"),
        ([["0", "1"], ["1", "0"]], {"a": "c", "b": "a"},
         "'map' sends point \"a\" to \"c\", which is no point"),
        ([["0", "1"], ["1", "0"]], {"a": ["b"], "b": "a"},
         "'map' sends point \"a\" to [\"b\"], which is no point"),
    ])
    def test_finite_document_fields_are_read_as_written(
            self, tmp_path, capsys, dist, mapping, message):
        """A ``finite`` document's ``dist`` is a list of lists of rationals
        and its ``map`` keys exactly the points, each to a point: any other
        shape exits 2 with one line that names the field or the point."""
        doc = {"kind": "finite", "points": ["a", "b"], "dist": dist,
               "map": mapping}
        assert main(["check", "--system", "json:" + json.dumps(doc),
                     "--props", "transitivity", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_integer_point_ids_name_the_point(self, tmp_path, capsys):
        """A JSON object's keys are strings, so a map cannot key the
        integer point 1: the run names that point."""
        doc = {"kind": "finite", "points": [1, 2],
               "dist": [[0, 1], [1, 0]], "map": {"1": 2, "2": 1}}
        assert main(["check", "--system", "json:" + json.dumps(doc),
                     "--props", "transitivity", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "error: 'map' has no key for point 1\n"

    @pytest.mark.parametrize("args,message", [
        (["check", "--props", "transitivity,mixing,transitivity"],
         "check 'transitivity' is repeated"),
        (["verify", "--theorem", "mixing", "--lambdas", "1/2,1/2"],
         "lambda 1/2 is repeated"),
        (["verify", "--theorem", "mixing", "--lambdas", "1/2,1,2/4"],
         "lambda 1/2 is repeated"),
    ])
    def test_a_repeated_value_exits_two(self, tmp_path, capsys, args,
                                        message):
        assert main(args + ["--system", "rotation:3,1",
                            "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["verify", "--theorem", "equicontinuity", "--eps", "0"],
        ["verify", "--theorem", "uniform-rigidity", "--eps", "0"],
        ["check", "--props", "equicontinuity,uniform-rigidity,sensitivity",
         "--eps=-1/2"],
    ])
    def test_eps_must_be_positive(self, tmp_path, capsys, args):
        """An eps of 0 is given, not absent: it never falls back to the
        default eps."""
        assert main(args + ["--system", "rotation:4,1", "--m", "2",
                            "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: eps must be positive\n"
        assert not list(tmp_path.iterdir())

    def test_uniform_rigidity_has_no_subset_bound(self, tmp_path):
        rc = main(["verify", "--theorem", "uniform-rigidity",
                   "--system", "rotation:17,1", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "equivalence_report.json").read_text())
        rows = {item["id"]: item for item in doc["report"]["items"]}
        assert rows["hyper-uniformly-rigid"]["status"] == "holds"
        assert rows["hyper-uniformly-rigid"]["note"] == "singleton lemma"

    def test_large_horizon_reads_the_periodic_part(self, tmp_path):
        # T^(n+3) = T^n on rotation:3,1: the curves step 3 tables, not 1e5
        start = time.monotonic()
        assert main(["plotdata", "--system", "rotation:3,1",
                     "--horizon", "100000", "--out", str(tmp_path)]) == 0
        rigidity = (tmp_path / "rigidity.csv").read_text().splitlines()
        assert len(rigidity) == 100001
        assert rigidity[-3:] == ["99997,1/3", "99998,1/3", "99999,0/1"]
        elapsed = time.monotonic() - start
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

    def test_plotdata_past_the_modulus_bound_exits_three(self, tmp_path):
        """rotation:2000,1 would step 2000 * 1999 / 2 pairs 2000 times:
        the modulus bound stops it before any distance is read or any
        curve is written."""
        start = time.monotonic()
        proc = run_module_cli(["plotdata", "--system", "rotation:2000,1",
                               "--out", str(tmp_path)], tmp_path)
        elapsed = time.monotonic() - start
        assert proc.returncode == 3
        assert proc.stderr == (
            "bound exceeded: modulus curve pair-steps: size 3998000000 "
            f"exceeds bound {MODULUS_PAIR_STEP_CAP}\n")
        assert list(tmp_path.iterdir()) == []
        assert elapsed < 1.0, f"runtime {elapsed:.1f}s exceeds 1s"

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


#: a child that caps its own address space, runs the CLI on its argv and
#: prints its own peak resident memory (VmHWM, in KiB) to stderr last
_LIMITED_CHILD = """\
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from fuzzdyn.cli import main
rc = main(sys.argv[2:])
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status
               if line.startswith("VmHWM:"))
print(hwm, file=sys.stderr)
sys.exit(rc)
"""


def run_limited_cli(args, cwd, limit_mib=512):
    """The CLI on ARGS in a child interpreter whose address space is capped
    at ``limit_mib`` MiB, the cap set in the child only.  Returns the exit
    code, the wall seconds of the child and its VmHWM in MiB."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD, str(limit_mib * 2 ** 20),
         *args, "--out", str(cwd)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    wall = time.monotonic() - start
    lines = proc.stderr.splitlines()
    assert lines and lines[-1].isdigit(), proc.stderr
    return proc.returncode, wall, int(lines[-1]) / 1024


class TestScale:
    """Bounds fire before allocations, and formula spaces keep the base
    checks at the point cap small.  Each run is a fresh child interpreter,
    so its VmHWM is its own."""

    def test_height_invariance_exits_three_before_it_allocates(
            self, tmp_path):
        # 3^20 codes: the lift's bound fires before any per-state list
        rc, wall, _ = run_limited_cli(
            ["verify", "--theorem", "height-invariance",
             "--system", "rotation:20,1", "--m", "2"], tmp_path)
        assert rc == 3 and wall < 5.0

    def test_one_point_past_the_state_cap_exits_three(self, tmp_path):
        # 3^13 codes of the F0 lift are past the state cap of 3^12, which
        # rotation:12,1 answers within
        start = time.monotonic()
        proc = run_module_cli(["verify", "--theorem", "height-invariance",
                               "--system", "rotation:13,1", "--m", "2",
                               "--out", str(tmp_path)], tmp_path)
        wall = time.monotonic() - start
        assert proc.returncode == 3
        assert proc.stderr == ("bound exceeded: fuzzy lift: size 1594323 "
                               "exceeds bound 531441\n")
        assert list(tmp_path.iterdir()) == []
        assert wall < 5.0

    def test_equicontinuity_past_the_pair_step_bound_exits_three(
            self, tmp_path):
        """Above the gap every pair of the 6,560-state F0 lift of
        rotation(8, 1) is read: its 21,513,520 pair reads alone pass the
        pair-step bound, which fires before any pair is read."""
        proc = run_module_cli(["verify", "--theorem", "equicontinuity",
                               "--system", "rotation:8,1", "--m", "2",
                               "--eps", "1/2", "--out", str(tmp_path)],
                              tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == (
            "bound exceeded: equicontinuity pair-steps: size 21513520 "
            f"exceeds bound {MODULUS_PAIR_STEP_CAP}\n")

    @pytest.mark.parametrize("system, props", [
        ("rotation:2000,1",
         "proximality,periodic-density,mixing,equicontinuity,sensitivity"),
        ("gridmap:half,2000",
         "transitivity,weak-mixing,mixing,mild-mixing,uniform-rigidity,"
         "equicontinuity,proximality,sensitivity,periodic-density")])
    def test_base_checks_at_the_point_cap_stay_small(self, tmp_path, system,
                                                    props):
        rc, _, hwm = run_limited_cli(
            ["check", "--system", system, "--props", props], tmp_path)
        assert rc == 0 and hwm < 64


#: the primes up to 23: cycles of these lengths make 100 points
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def coprime_cycles_document() -> dict:
    """A 100-point discrete ``finite`` document whose map is one cycle of
    each length in ``PRIMES``: its clock is (0, 223,092,870), their lcm."""
    pts = [f"p{i}" for i in range(sum(PRIMES))]
    succ, start = {}, 0
    for n in PRIMES:
        for k in range(n):
            succ[pts[start + k]] = pts[start + (k + 1) % n]
        start += n
    return {"kind": "finite", "points": pts,
            "dist": [["0" if p == q else "1" for q in pts] for p in pts],
            "map": succ}


@pytest.mark.parametrize("props, rc", [
    *((prop, 3) for prop in (
        "transitivity", "weak-mixing", "mixing", "mild-mixing",
        "uniform-rigidity", "proximality", "sensitivity")),
    ("periodic-density,equicontinuity", 0)])
def test_a_clock_past_the_state_cap_exits_three(tmp_path, capsys, props, rc):
    """Every scan and curve reads its clock through ``analysis._clock``,
    which bounds it by ``spaces.STATE_CAP`` before it walks: on the coprime
    cycles, each exits 3 at once, where transitivity and uniform rigidity
    ran without bound and proximality took 23 s.  The checks that walk no
    clock still answer."""
    path = tmp_path / "coprime.json"
    path.write_text(json.dumps(coprime_cycles_document()))
    start = time.monotonic()
    assert main(["check", "--system", f"file:{path}", "--props", props,
                 "--out", str(tmp_path)]) == rc
    assert time.monotonic() - start < 5.0
    if rc == 3:
        assert capsys.readouterr().err == (
            "bound exceeded: clock: size 223092870 exceeds bound 531441\n")


def test_large_finite_document_exits_three_before_parsing(
        tmp_path, monkeypatch, capsys):
    """A 700-point discrete ``finite`` document is over the 512 points of
    metric validation, and its bound fires on the point count, before any
    of its 490,000 distances is parsed."""
    pts = [f"p{i}" for i in range(700)]
    doc = {"kind": "finite", "points": pts,
           "dist": [["0" if p == q else "1" for q in pts] for p in pts],
           "map": {p: p for p in pts}}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    parsed = []
    for module in (serialize, spaces):
        monkeypatch.setattr(module, "as_fraction",
                            lambda value: parsed.append(value))
    rc = main(["check", "--system", f"file:{path}",
               "--props", "transitivity", "--out", str(tmp_path)])
    assert rc == 3 and parsed == []
    assert capsys.readouterr().err == (
        "bound exceeded: metric validation: size 700 exceeds bound 512\n")


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


#: runs of one process, in order: the options of each must not leak into
#: the next, and a malformed argv, help or a bound exit must not spoil it
ONE_PROCESS_ARGVS = (
    ["check", "--system", "rotation:6,1", "--props", "transitivity,mixing",
     "--json"],
    ["plotdata", "--system", "gridmap:half,8", "--horizon", "1", "--json"],
    ["check", "--system", "rotation:6,1",
     "--props", "uniform-rigidity,equicontinuity", "--eps", "1/4"],
    ["check", "--system", "rotation:6,1", "--props", "transitivity",
     "--horizon", "x"],
    ["--help"],
    ["verify", "--theorem", "transitivity", "--m", "1", "--system",
     'json:{"kind":"finite","points":["a","b","c"],'
     '"dist":[["0","1/2","1"],["2/4","0","0.5"],[1,"1/2","0"]],'
     '"map":{"a":"b","b":"b","c":"a"}}'],
    ["verify", "--theorem", "transitivity", "--system", "rotation:3,1",
     "--m", "100000000"],
    ["check", "--system", "rotation:6,1", "--props", "transitivity,mixing"],
)


def _outputs(directory) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_one_process_runs_as_fresh_processes(tmp_path, monkeypatch, capsys):
    """``main`` called again and again in one process, as the benchmark's
    child calls it, answers each argv as a fresh ``python -m fuzzdyn.cli``
    does: the same exit code, stdout, stderr and written files."""
    # help text wraps at the terminal width; both sides read it from here
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    assert cli.build_parser() is cli.build_parser()
    codes = []
    for k, argv in enumerate(ONE_PROCESS_ARGVS):
        here, fresh = tmp_path / f"in{k}", tmp_path / f"child{k}"
        here.mkdir()
        fresh.mkdir()
        rc = main(argv + ["--out", str(here)])
        out, err = capsys.readouterr()
        proc = run_module_cli(argv + ["--out", str(fresh)], fresh)
        assert (rc, out, err) == (proc.returncode, proc.stdout,
                                  proc.stderr), argv
        assert _outputs(here) == _outputs(fresh), argv
        codes.append(rc)
    assert codes == [0, 0, 0, 2, 0, 0, 3, 0]


DRAWN_DISTANCES = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2),
                   F(5), F(-1, 2), F(1, 3))


def _spellings(value: Fraction) -> list:
    """Every way a document may write ``value``: an integer, "p/q", "kp/kq"
    and a decimal where one ends."""
    p, q = value.numerator, value.denominator
    out = [f"{p}/{q}", f"{2 * p}/{2 * q}", f"{3 * p}/{3 * q}"]
    if q == 1:
        out += [p, str(p)]
    if 1000 % q == 0:
        out.append(str(Decimal(p) / Decimal(q)))
    return out


@st.composite
def spelled_tables(draw, max_points=5):
    """Square tables of rationals, each entry spelled one of several ways;
    some are metrics (symmetric, zero diagonal, entries in [1, 2]) and the
    rest break an axiom more often than not."""
    n = draw(st.integers(1, max_points))
    if draw(st.booleans()):
        value = st.sampled_from([F(1), F(5, 4), F(3, 2), F(7, 4), F(2)])
    else:
        value = st.sampled_from(DRAWN_DISTANCES)
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] if i != j else F(0)
                 for j in range(n)] for i in range(n)]
    dist = [[draw(st.sampled_from(_spellings(v))) for v in row]
            for row in rows]
    return [f"p{i}" for i in range(n)], dist


@settings(max_examples=150, deadline=None)
@given(spelled_tables())
def test_ingest_matches_entrywise_coercion(table):
    """A table scaled once per distinct entry equals the table coerced
    entry by entry: the same denominator, scaled table, gap, diameter and
    axiom violations, whichever way equal values are spelled."""
    points, dist = table
    brute = brute_finite_space(points, dist)
    space = MetricSpace(points, matrix=dist)
    assert space.denom == brute["denom"]
    assert _scaled_matrix(space)[1] == brute["table"]
    assert validate_metric(space) == brute["violations"]
    doc = {"kind": "finite", "points": points, "dist": dist,
           "map": {p: p for p in points}}
    if brute["violations"]:
        with pytest.raises(InputError) as exc:
            system_from_jsonable(doc)
        assert str(exc.value) == ("distance table is not a metric: "
                                  + brute["violations"][0])
        return
    space = system_from_jsonable(doc).space
    assert space.denom == brute["denom"]
    assert _scaled_matrix(space)[1] == brute["table"]
    assert (space.gap, space.diam) == (brute["gap"], brute["diam"])
