"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import _percentile, main
from repro.data.io import load_tuples


class TestGenerate:
    def test_synthetic_csv(self, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        assert main(["generate", str(out), "-n", "200", "-d", "3", "--seed", "1"]) == 0
        tuples = load_tuples(out)
        assert len(tuples) == 200
        assert tuples[0].dimensionality == 3
        assert "wrote 200 tuples" in capsys.readouterr().out

    def test_nyse_jsonl(self, tmp_path):
        out = tmp_path / "trades.jsonl"
        assert main(
            ["generate", str(out), "--distribution", "nyse", "-n", "150",
             "--probabilities", "gaussian", "--mean", "0.7", "--seed", "2"]
        ) == 0
        tuples = load_tuples(out)
        assert len(tuples) == 150
        assert tuples[0].dimensionality == 2

    def test_constant_probabilities(self, tmp_path):
        out = tmp_path / "rel.csv"
        main(["generate", str(out), "-n", "50", "--probabilities", "constant",
              "--seed", "3"])
        assert all(t.probability == 1.0 for t in load_tuples(out))

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", str(a), "-n", "60", "--seed", "9"])
        main(["generate", str(b), "-n", "60", "--seed", "9"])
        assert load_tuples(a) == load_tuples(b)


@pytest.fixture
def relation(tmp_path):
    out = tmp_path / "rel.csv"
    main(["generate", str(out), "-n", "400", "-d", "2", "--seed", "4"])
    return out


class TestQuery:
    def test_basic_query(self, relation, capsys):
        assert main(["query", str(relation), "-q", "0.3", "-m", "4"]) == 0
        out = capsys.readouterr().out
        assert "e-DSUD" in out
        assert "P_g-sky" in out

    @pytest.mark.parametrize("algorithm", ["ship-all", "naive", "dsud", "edsud"])
    def test_all_algorithms(self, relation, capsys, algorithm):
        assert main(["query", str(relation), "-a", algorithm, "-m", "3"]) == 0
        assert "|SKY(H)|" in capsys.readouterr().out

    def test_algorithms_agree_via_cli(self, relation, capsys):
        counts = set()
        for algorithm in ("ship-all", "edsud"):
            main(["query", str(relation), "-a", algorithm, "-m", "3"])
            out = capsys.readouterr().out
            counts.add(out.split("|SKY(H)|=")[1].split()[0])
        assert len(counts) == 1

    def test_topk(self, relation, capsys):
        assert main(["query", str(relation), "-k", "3", "-m", "4"]) == 0
        out = capsys.readouterr().out
        assert "|SKY(H)|=3" in out

    def test_preference_and_subspace(self, relation, capsys):
        assert main(
            ["query", str(relation), "--preference", "min,max", "--subspace", "0"]
        ) == 0
        assert "|SKY(H)|" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", ["uniform", "round-robin", "range"])
    def test_partitioners(self, relation, capsys, scheme):
        assert main(["query", str(relation), "--partition", scheme, "-m", "5"]) == 0

    def test_max_print_truncation(self, relation, capsys):
        main(["query", str(relation), "-q", "0.05", "--max-print", "1", "-m", "3"])
        assert "more (raise --max-print)" in capsys.readouterr().out

    def test_empty_relation(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("key,a,probability\n")
        assert main(["query", str(path)]) == 0
        assert "empty" in capsys.readouterr().out


class TestTraceOption:
    def test_trace_written_and_loadable(self, relation, tmp_path, capsys):
        from repro.net.trace import load_trace, summarize_trace

        trace_path = tmp_path / "run.trace.jsonl"
        assert main(
            ["query", str(relation), "-m", "3", "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        records = load_trace(trace_path)
        assert records
        assert summarize_trace(records)["calls"] == len(records)

    def test_trace_with_topk(self, relation, tmp_path):
        trace_path = tmp_path / "topk.trace.jsonl"
        assert main(
            ["query", str(relation), "-m", "3", "-k", "2",
             "--trace", str(trace_path)]
        ) == 0
        assert trace_path.exists()


class TestAdvise:
    def test_advise_typical(self, capsys):
        assert main(["advise", "-n", "40000", "-d", "3", "-m", "20"]) == 0
        out = capsys.readouterr().out
        assert "recommendation: edsud" in out
        assert "ceiling" in out

    def test_advise_skyline_heavy(self, capsys):
        assert main(
            ["advise", "-n", "2000", "-d", "5", "-m", "100", "-q", "0.1"]
        ) == 0
        assert "recommendation: ship-all" in capsys.readouterr().out


class TestInfo:
    def test_info_output(self, relation, capsys):
        assert main(["info", str(relation)]) == 0
        out = capsys.readouterr().out
        assert "N=400 d=2" in out
        assert "probabilities:" in out
        assert "conventional skyline:" in out
        assert "H(d, N)" in out


class TestServe:
    def test_closed_loop_workload(self, relation, capsys):
        assert main(
            ["serve", str(relation), "-m", "3", "--queries", "6", "--clients", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "served 6 queries over 3 sites" in out
        assert "finished=6 failed=0" in out
        assert "latency: p50=" in out
        assert "tuples transmitted" in out

    def test_tenant_budgets_reported_and_enforced(self, relation, capsys):
        assert main(
            ["serve", str(relation), "-m", "3", "--queries", "8",
             "--tenants", "alpha,beta", "--budget", "1"]
        ) == 0
        out = capsys.readouterr().out
        # A one-tuple budget cuts every metered session off mid-flight.
        assert "aborted=" in out and "aborted=0" not in out
        assert "/1 tuples" in out

    def test_empty_relation(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("key,p,v0\n")
        assert main(["serve", str(path)]) == 0
        assert "nothing to serve" in capsys.readouterr().out


class TestPercentile:
    def test_empty_series(self):
        assert _percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 1.0) == 4.0
        assert _percentile(values, 0.5) == 3.0  # round(0.5 * 3) = 2 -> 3.0
