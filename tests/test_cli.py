import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nonnegsets.cli as cli
from nonnegsets.cli import main
from nonnegsets.hallflow import PartitionedBipartiteGraph, render_graph
from nonnegsets.nonneg import NumberSequence, TheoremVerdict, extremal_construction, render_sequence


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


class TestBound:
    def test_text(self, capsys):
        code, out = run(capsys, "bound", "--n", "5", "--k", "2")
        assert code == 0
        assert out == "bound_main(n=5, k=2) = 6\n"

    def test_json(self, capsys):
        code, payload = run_json(capsys, "bound", "--n", "5", "--k", "2")
        assert code == 0
        assert payload == {
            "schema": 1,
            "ok": True,
            "seed": None,
            "result": {"n": 5, "k": 2, "t": None, "value": 6},
        }

    def test_refined(self, capsys):
        code, payload = run_json(capsys, "bound", "--n", "5", "--k", "3", "--t", "2")
        assert code == 0
        assert payload["result"]["value"] == 10

    def test_bad_parameters_exit_2(self, capsys):
        code, payload = run_json(capsys, "bound", "--n", "99", "--k", "1")
        assert code == 2
        assert payload["ok"] is False
        assert payload["error"]["type"] == "parameters"

    def test_json_is_compact_and_sorted(self, capsys):
        _, out = run(capsys, "--format", "json", "bound", "--n", "4", "--k", "2")
        assert out.startswith('{"ok":true,"result":')
        assert " " not in out.strip()


class TestVerify:
    def test_theorem1_pass(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--theorem", "1", "--n", "6", "--k", "2",
            "--trials", "50", "--seed", "1",
        )
        assert code == 0
        assert payload["seed"] == 1
        r = payload["result"]
        assert r["passed"] is True
        assert r["bound"] == 7
        assert r["counterexample"] is None

    def test_theorem2_pass_text(self, capsys):
        code, out = run(
            capsys, "verify", "--theorem", "2", "--n", "5", "--k", "3", "--t", "2",
            "--trials", "50", "--seed", "4",
        )
        assert code == 0
        assert out.startswith("theorem 2 n=5 k=3 t=2 trials=50: PASS")

    def test_byte_identical_repeats(self, capsys):
        args = ("verify", "--theorem", "1", "--n", "6", "--k", "3", "--trials", "80", "--seed", "9")
        _, first = run(capsys, "--format", "json", *args)
        _, second = run(capsys, "--format", "json", *args)
        assert first == second

    def test_t_flag_misuse_exit_2(self, capsys):
        code, _ = run_json(
            capsys, "verify", "--theorem", "1", "--n", "6", "--k", "2", "--t", "1"
        )
        assert code == 2
        code, _ = run_json(capsys, "verify", "--theorem", "2", "--n", "6", "--k", "2")
        assert code == 2

    def test_theorem3(self, capsys):
        code, payload = run_json(capsys, "verify", "--theorem", "3", "--n", "4", "--k", "2")
        assert code == 0
        r = payload["result"]
        assert r["oracle_size"] == r["closed_form"] == 4
        # Deterministic: the envelope carries no seed even when one is given.
        code, payload = run_json(
            capsys, "verify", "--theorem", "3", "--n", "4", "--k", "2", "--seed", "5"
        )
        assert code == 0
        assert payload["seed"] is None
        code, _ = run_json(
            capsys, "verify", "--theorem", "3", "--n", "4", "--k", "2", "--t", "1"
        )
        assert code == 2

    def test_memory_flat_in_trials(self):
        # Peak RSS of a child process; a trials x 2^n matrix would need about 11 GB here.
        script = (
            "import resource\n"
            "from nonnegsets.cli import main\n"
            "code = main(['--format', 'json', 'verify', '--theorem', '1', '--n', '16', '--k', '8',"
            " '--trials', '20000', '--seed', '1'])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        code, peak_kb = map(int, done.stdout.split()[-2:])
        assert code == 0
        assert peak_kb < 150 * 1024

    def test_failed_verdict_maps_to_exit_1(self, capsys, monkeypatch):
        fake = TheoremVerdict(
            theorem=1, n=4, k=2, t=None, trials=5, seed=0, passed=False,
            bound=4, max_count=9, extremal_count=4, extremal_tight=True,
            counterexample=NumberSequence.of([5, -2, -2, -2], 2),
        )
        monkeypatch.setattr(cli.nonneg, "verify_theorem1", lambda *a, **kw: fake)
        code, payload = run_json(capsys, "verify", "--theorem", "1", "--n", "4", "--k", "2")
        assert code == 1
        assert payload["ok"] is False
        assert payload["result"]["counterexample"] == {
            "k": 2,
            "values": ["5", "-2", "-2", "-2"],
        }
        code, out = run(capsys, "verify", "--theorem", "1", "--n", "4", "--k", "2")
        assert code == 1
        assert "FAIL" in out
        assert "counterexample: 5 -2 -2 -2" in out


class TestNonneg:
    def test_enumeration(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text(render_sequence(extremal_construction(5, 2, 1)), encoding="utf-8")
        code, payload = run_json(capsys, "nonneg", "--input", str(path))
        assert code == 0
        r = payload["result"]
        assert r["count"] == 6 and r["tight"] is True and r["t"] == 1
        assert "family" not in r

    def test_dump_lists_family(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3 2\n1\n-1\n-1\n", encoding="utf-8")
        code, payload = run_json(capsys, "nonneg", "--input", str(path), "--dump")
        assert code == 0
        assert payload["result"]["family"] == ["{}", "{1}", "{1,2}", "{1,3}"]

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, payload = run_json(capsys, "nonneg", "--input", str(tmp_path / "nope.txt"))
        assert code == 3
        assert payload["error"]["type"] == "io"

    def test_malformed_file_exit_3(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("not a sequence\n", encoding="utf-8")
        code, _ = run_json(capsys, "nonneg", "--input", str(path))
        assert code == 3

    def test_constraint_violation_exit_2(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3 1\n1\n1\n-1\n", encoding="utf-8")
        code, payload = run_json(capsys, "nonneg", "--input", str(path))
        assert code == 2
        assert payload["error"]["type"] == "parameters"


class TestMatching:
    def test_disjointness_perfect(self, capsys):
        code, payload = run_json(capsys, "matching", "disjointness", "--m", "3", "--r", "2")
        assert code == 0
        r = payload["result"]
        assert r["saturated"] is True
        assert r["matching_size"] == 6
        assert "pairs" not in r

    def test_disjointness_dump_and_rule(self, capsys):
        code, payload = run_json(
            capsys, "matching", "disjointness", "--m", "3", "--r", "2",
            "--dump", "--rule", "complement",
        )
        assert code == 0
        r = payload["result"]
        assert ["{1}", "{2,3}"] in r["pairs"]
        assert r["rule"]["valid"] is True
        assert r["rule"]["checked"] == 6

    def test_degenerate_graph(self, capsys):
        code, out = run(capsys, "matching", "disjointness", "--m", "2", "--r", "2")
        assert code == 0
        assert "no perfect matching" in out
        assert "first unsaturated left vertex: {1}" in out

    def test_gi(self, capsys):
        code, payload = run_json(
            capsys, "matching", "gi", "--n", "5", "--k", "3", "--t", "2", "--pair", "1"
        )
        assert code == 0
        r = payload["result"]
        assert r["left_size"] == r["right_size"] == 4
        assert r["matching_size"] == 3
        assert r["pair_a"] == "{1}" and r["pair_b"] == "{2}"

    def test_gi_bad_pair_exit_2(self, capsys):
        code, _ = run_json(
            capsys, "matching", "gi", "--n", "5", "--k", "3", "--t", "2", "--pair", "2"
        )
        assert code == 2


class TestHall:
    def crossed_graph_text(self) -> str:
        edges = []
        for ao in range(3):
            for bo in range(3):
                edges.append(((0, ao), (1, bo)))
                edges.append(((1, ao), (0, bo)))
        return render_graph(PartitionedBipartiteGraph.of((3, 3), (3, 3), edges))

    def test_feasible_plan(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text(self.crossed_graph_text(), encoding="utf-8")
        code, payload = run_json(capsys, "hall", "decide", "--graph", str(path))
        assert code == 0
        assert payload["result"] == {"feasible": True, "plan": [[0, 3], [3, 0]]}

    def test_infeasible_cut(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n2\n1 1\n1:1 1:1\n1:2 1:1\n", encoding="utf-8")
        code, payload = run_json(capsys, "hall", "decide", "--graph", str(path))
        assert code == 0
        assert payload["result"] == {
            "feasible": False,
            "cut": {"a_blocks": "{1}", "b_blocks": "{1}"},
        }

    def test_not_biregular_exit_2(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        # A-degrees 2 and 1; the second graph also has unequal totals (2 vs 3),
        # and bi-regularity is still the error reported.
        for b_size in (2, 3):
            path.write_text(f"1 1\n2\n{b_size}\n1:1 1:1\n1:1 1:2\n1:2 1:1\n", encoding="utf-8")
            code, payload = run_json(capsys, "hall", "decide", "--graph", str(path))
            assert code == 2
            assert payload["error"]["message"].startswith("graph is not bi-regular: ")

    def test_readme_example(self, capsys, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("**Blocked graph**", 1)[1].split("```", 2)[1]
        path = tmp_path / "graph.txt"
        path.write_text(example, encoding="utf-8")
        code, payload = run_json(capsys, "hall", "decide", "--graph", str(path))
        assert code == 0
        assert payload["result"] == {"feasible": True, "plan": [[1], [1]]}

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _ = run_json(capsys, "hall", "decide", "--graph", str(tmp_path / "nope"))
        assert code == 3


class TestEkr:
    def test_shift(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("{1}\n{2}\n{3}\n", encoding="utf-8")
        code, payload = run_json(capsys, "ekr", "shift", "--family", str(path), "--k", "2")
        assert code == 0
        r = payload["result"]
        assert r["n"] == 3  # inferred from the largest element
        assert r["upset"] == ["{1}", "{1,2}", "{1,3}"]
        assert r["log"] == [[1, 2]]
        assert r["intersecting"] is True
        assert r["property_before"] is True

    def test_shift_explicit_ground(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("{1}\n", encoding="utf-8")
        code, payload = run_json(
            capsys, "ekr", "shift", "--family", str(path), "--k", "1", "--n", "4"
        )
        assert code == 0
        assert payload["result"]["n"] == 4

    def test_shift_ignores_comment_digits(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("# 5 sets\n{1,2}\n{3}\n", encoding="utf-8")
        code, payload = run_json(capsys, "ekr", "shift", "--family", str(path), "--k", "2")
        assert code == 0
        assert payload["result"]["n"] == 3

    def test_shift_large_comment_number_not_a_ground(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("# 100 sets\n\n{1,2}\n{3}\n", encoding="utf-8")
        code, payload = run_json(capsys, "ekr", "shift", "--family", str(path), "--k", "2")
        assert code == 0
        assert payload["result"]["n"] == 3

    def test_shift_bad_family_exit_3(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("{1}\n{1}\n", encoding="utf-8")
        code, _ = run_json(capsys, "ekr", "shift", "--family", str(path), "--k", "2")
        assert code == 3

    def test_shift_bad_k_exit_2(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("{1}\n{2}\n", encoding="utf-8")
        code, _ = run_json(capsys, "ekr", "shift", "--family", str(path), "--k", "5")
        assert code == 2

    def test_oracle(self, capsys):
        code, payload = run_json(capsys, "ekr", "oracle", "--n", "4", "--k", "2")
        assert code == 0
        r = payload["result"]
        assert r["max_size"] == r["closed_form"] == 4
        assert r["matches"] is True
        assert len(r["witness"]) == 4

    def test_oracle_guard_exit_2(self, capsys):
        code, _ = run_json(capsys, "ekr", "oracle", "--n", "7", "--k", "2")
        assert code == 2


class TestNumpyOnDemand:
    def test_numpy_loaded_only_by_counting(self, tmp_path):
        # One child process: numpy must stay out of sys.modules through the
        # import and every command that neither counts nor samples.
        graph = tmp_path / "graph.txt"
        graph.write_text("1 1\n1\n1\n1:1 1:1\n", encoding="utf-8")
        family = tmp_path / "family.txt"
        family.write_text("{1}\n{2}\n", encoding="utf-8")
        commands = [
            ["bound", "--n", "5", "--k", "2"],
            ["matching", "disjointness", "--m", "3", "--r", "2"],
            ["matching", "gi", "--n", "5", "--k", "3", "--t", "2", "--pair", "1"],
            ["hall", "decide", "--graph", str(graph)],
            ["ekr", "shift", "--family", str(family), "--k", "2"],
            ["ekr", "oracle", "--n", "4", "--k", "2"],
            ["verify", "--theorem", "3", "--n", "4", "--k", "2"],
            ["verify", "--theorem", "1", "--n", "6", "--k", "2", "--trials", "10"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "import nonnegsets\n"
            "from nonnegsets import cli\n"
            "seen = [[None, 'numpy' in sys.modules]]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    seen.append([code, 'numpy' in sys.modules])\n"
            "print(json.dumps(seen))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen[0] == [None, False], "import nonnegsets loaded numpy"
        for argv, (code, loaded) in zip(commands[:-1], seen[1:-1]):
            assert code == 0, argv
            assert not loaded, f"{' '.join(argv)} loaded numpy"
        assert seen[-1] == [0, True]


class TestParser:
    def test_unknown_command_exits_with_argparse_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
