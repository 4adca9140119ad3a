import json

import pytest

from fockweyl import cli
from fockweyl.errors import EngineError
from fockweyl.reports import CaseResult, Report, render_json
from fockweyl.verify import FAMILIES, RunConfig, enumerate_cases, run_case


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFockApply:
    def test_spec_example(self, capsys):
        code, out, _ = run(capsys, "fock", "apply", "--op", "F", "--i", "1",
                           "--ell", "2", "--partition", "1")
        assert code == 0
        assert out == "v^-1*|1,1> + |2>\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "fock", "apply", "--op", "K", "--i", "0",
                           "--ell", "2", "--partition", "0", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"partition": [], "coeff": {"var": "v", "coeffs": {"1": "1"}}}]

    @pytest.mark.parametrize("op, i", [("E", "1"), ("F", "0"), ("K", "1")])
    def test_huge_ell_gives_small_ell_bytes(self, capsys, op, i):
        # the colors of 2,1 lie in 0..2 or near ell: the same kets at any
        # ell >= 5, and a table that does not grow with ell
        outs = [run(capsys, "fock", "apply", "--op", op, "--i", i, "--ell",
                    ell, "--partition", "2,1") for ell in ("7", "1000000000")]
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_bad_residue(self, capsys):
        code, _, err = run(capsys, "fock", "apply", "--op", "F", "--i", "5",
                           "--ell", "2", "--partition", "1")
        assert code == 2
        assert "out of range" in err

    def test_bad_partition(self, capsys):
        code, _, _ = run(capsys, "fock", "apply", "--op", "F", "--i", "0",
                         "--ell", "2", "--partition", "1,2")
        assert code == 2


class TestJantzen:
    def test_figure_rendering(self, capsys):
        code, out, _ = run(capsys, "jantzen", "ev",
                           "--partition", "10,10,8,8,8,6,6,6,6,1,1", "--k", "6")
        assert code == 0
        assert out == "[2][7]/([5][9])\n"

    @pytest.mark.parametrize("partition, want", [
        ("2,2", "[2]/([4])\n"), ("3,1", "[4]/([2][5])\n")])
    def test_partly_cancelled_ratio_stays_q_integers(self, capsys, partition,
                                                      want):
        # reduced, [2]/[4] is q^2/(1 + q^4): the q-integers come from the
        # hook's unreduced factors
        code, out, _ = run(capsys, "jantzen", "ev", "--partition", partition,
                           "--k", "3")
        assert (code, out) == (0, want)

    def test_zero_case(self, capsys):
        code, out, _ = run(capsys, "jantzen", "ev", "--partition", "1,1", "--k", "2")
        assert code == 0
        assert out == "0\n"

    def test_valuation(self, capsys):
        code, out, _ = run(capsys, "jantzen", "val", "--partition", "1",
                           "--k", "2", "--ell", "2")
        assert code == 0
        assert out == "-1\n"

    def test_engine_at_rank_32(self, capsys):
        # 496 positive roots: Kostant's count must not recurse per root
        outs = [run(capsys, "jantzen", "engine", "--k", "2", "--rank", rank)
                for rank in ("31", "32")]
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_closed_engine_agree_on_output(self, capsys):
        code1, out1, _ = run(capsys, "jantzen", "closed", "--k", "2", "--rank", "2")
        code2, out2, _ = run(capsys, "jantzen", "engine", "--k", "2", "--rank", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_engine_error_exits_one(self, capsys, monkeypatch):
        def broken(k, rank):
            raise EngineError("forced inconsistency")

        monkeypatch.setattr(cli, "jantzen_engine", broken)
        code, out, err = run(capsys, "jantzen", "engine", "--k", "2", "--rank", "2")
        assert code == 1
        assert out == ""
        assert err == "error: forced inconsistency\n"

    def test_internal_value_error_exits_one(self, capsys, monkeypatch):
        # bad input is a usage error before any computation starts; a
        # ValueError from inside one is an internal error
        def broken(k, rank):
            raise ValueError("forced internal error")

        monkeypatch.setattr(cli, "jantzen_engine", broken)
        code, out, err = run(capsys, "jantzen", "engine", "--k", "2", "--rank", "2")
        assert (code, out, err) == (1, "", "error: forced internal error\n")


class TestShapovalov:
    def test_det(self, capsys):
        code, out, _ = run(capsys, "shapovalov", "det", "--eta=-1,1", "--rank", "2")
        assert code == 0
        assert out == "-z1^-1*z2 + z1*z2^-1\n"


class TestPartitionStats:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "partition", "stats", "--partition", "2,1",
                           "--ell", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 3
        assert {"box": [2, 2], "content": 0, "color": 0} in data["addable"]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "partition", "stats", "--partition", "2,1",
                           "--ell", "3")
        assert code == 0
        assert out == ("partition 2,1  size 3\n"
                       "addable: (1,3) c=2 col=2, (2,2) c=0 col=0, "
                       "(3,1) c=-2 col=1\n"
                       "removable: (1,2) c=1 col=1, (2,1) c=-1 col=2\n")


class TestPointwiseUsageErrors:
    """Each pointwise command refuses a bad argument with exit 2 and one
    line on stderr, and prints nothing on stdout."""

    @pytest.mark.parametrize("argv, message", [
        (["fock", "apply", "--op", "F", "--i", "0", "--ell", "1",
          "--partition", "1"], "ell must be >= 2"),
        (["partition", "stats", "--partition", "1", "--ell", "1"],
         "ell must be >= 2"),
        (["shapovalov", "det", "--eta=1,x", "--rank", "2"],
         "bad eta '1,x': invalid literal for int() with base 10: 'x'"),
        (["shapovalov", "det", "--eta=1,0,0", "--rank", "2"],
         "eta has more coordinates than the rank"),
        (["jantzen", "closed", "--k", "3", "--rank", "2"],
         "k=3 out of range for rank 2"),
        (["jantzen", "ev", "--partition", "1", "--k", "0"], "k must be >= 1"),
        (["jantzen", "val", "--partition", "1", "--k", "1", "--ell", "1"],
         "ell must be >= 2"),
        (["jantzen", "val", "--partition", "1", "--k", "0"], "k must be >= 1"),
        (["shapovalov", "det", "--eta", "0", "--rank", "-2"],
         "rank must be >= 1"),
    ])
    def test_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestVerify:
    def test_small_family_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma63")
        assert code == 0
        assert "failed: 0" in out

    def test_json_deterministic_across_jobs(self, capsys):
        code1, out1, _ = run(capsys, "verify", "prop65", "--ell", "2",
                             "--max-size", "3", "--format", "json", "--jobs", "1")
        code2, out2, _ = run(capsys, "verify", "prop65", "--ell", "2",
                             "--max-size", "3", "--format", "json", "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.fixture
    def chunksizes(self):
        """The chunksize of each map call on the stand-in pool of `started`."""
        return []

    @pytest.fixture
    def started(self, monkeypatch, chunksizes):
        """An in-process stand-in for the process pool, on 4 CPUs: the list
        gets the max_workers of each pool started."""
        import concurrent.futures
        from fockweyl import verify as ver

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                chunksizes.append(chunksize)
                return [fn(x) for x in items]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(ver.os, "cpu_count", lambda: 4)
        return started

    def test_jobs_capped_by_cases_and_cpus(self, monkeypatch, started):
        from fockweyl import verify as ver

        cfg = ver.RunConfig(ell=2, max_size=2, jobs=5000)
        ncases = len(ver.enumerate_cases("prop65", cfg))
        assert 1 < ncases
        pooled = ver.run_family("prop65", cfg)
        assert started == [min(4, ncases)]
        serial = ver.run_family("prop65", ver.RunConfig(ell=2, max_size=2))
        assert render_json(pooled) == render_json(serial)
        assert started == [min(4, ncases)]
        # one CPU, or one case: no pool at all
        monkeypatch.setattr(ver.os, "cpu_count", lambda: 1)
        ver.run_family("prop65", cfg)
        monkeypatch.setattr(ver.os, "cpu_count", lambda: None)
        ver.run_family("prop65", cfg)
        monkeypatch.setattr(ver.os, "cpu_count", lambda: 4)
        ver.run_family("prop65", ver.RunConfig(ell=2, max_size=0, jobs=5000))
        assert started == [min(4, ncases)]

    def test_one_pool_per_command(self, started):
        # every case of `verify all` runs in one pool, and its reports are
        # the serial ones
        from fockweyl import verify as ver

        pooled = list(ver.run_all(ver.RunConfig(jobs=2)))
        assert started == [2]
        serial = list(ver.run_all(ver.RunConfig()))
        assert started == [2]
        assert [render_json(r) for r in pooled] \
            == [render_json(r) for r in serial]

    def test_chunks_from_cases_and_workers(self, started, chunksizes):
        # `verify all` sends its many small cases in chunks, 1/16 of each
        # worker's share
        from fockweyl import verify as ver

        reports = list(ver.run_all(ver.RunConfig(jobs=2)))
        ncases = sum(len(r.cases) for r in reports)
        assert started == [2]
        assert chunksizes == [ncases // 32] and chunksizes[0] > 1
        # fewer cases than 16 per worker: one case at a time
        cfg = ver.RunConfig(ell=2, max_size=2, jobs=5000)
        ncases = len(ver.enumerate_cases("prop65", cfg))
        assert 1 < ncases < 16 * min(4, ncases)
        ver.run_family("prop65", cfg)
        assert chunksizes[1:] == [1]

    def test_run_all_is_lazy(self, monkeypatch):
        # scripts/run_checks.py times each report as it arrives, so no case
        # may run before its report is asked for
        from fockweyl import verify as ver

        ran = []
        real = ver.run_case

        def counted(spec, tolerance="signed"):
            ran.append(spec)
            return real(spec, tolerance)

        monkeypatch.setattr(ver, "run_case", counted)
        reports = ver.run_all(ver.RunConfig())
        assert ran == []
        first = next(reports)
        assert ran == [("fock-relations", 2, 6)] and first.passed == 1

    def test_generator_from_version(self):
        import fockweyl
        from fockweyl import reports
        assert reports.GENERATOR == f"fockweyl {fockweyl.__version__}"
        assert reports.GENERATOR == "fockweyl 0.1.0"

    def test_schema_fields(self, capsys):
        _, out, _ = run(capsys, "verify", "lemma63", "--format", "json")
        data = json.loads(out)
        assert data["schema"] == "fwl-report/1"
        assert list(data.keys()) == ["schema", "generator", "family", "config",
                                     "cases", "passed", "failed"]

    def test_injected_failure_exits_one(self, capsys, monkeypatch):
        # corrupt one runner so the harness itself is exercised
        from fockweyl import verify as ver

        def bad_case(*fields, tolerance):
            return False, {"injected": True}

        monkeypatch.setitem(ver.FAMILIES, "lemma63",
                            ver.FAMILIES["lemma63"]._replace(run=bad_case))
        code, out, _ = run(capsys, "verify", "lemma63")
        assert code == 1
        assert "FAIL" in out

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("family", ["lemma63", "all"])
    def test_rank_rejected_outside_theorem51(self, capsys, family):
        code, out, err = run(capsys, "verify", family, "--rank", "9")
        assert code == 2
        assert out == ""
        assert err == "error: --rank applies to theorem51 only\n"

    @pytest.mark.parametrize("rank", ["0", "1"])
    def test_rank_below_two_rejected(self, capsys, rank):
        code, out, err = run(capsys, "verify", "theorem51", "--rank", rank)
        assert code == 2
        assert out == ""
        assert err == "error: rank must be >= 2\n"

    def test_rank_echoed_for_theorem51(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem51", "--rank", "2",
                           "--max-size", "2", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["config"]["n_rank"] == 2
        assert [c["case"] for c in data["cases"]] == [
            "theorem51/rank=2/nu=1,-1", "theorem51/rank=2/nu=2,-2"]

    # Every (family, flag) pair whose flag the family does not read, with its
    # error (exit code 2); test_read_flags_reach_config covers the other
    # pairs.  theorem51 reads --max-size, but only together with --rank.
    UNREAD = {
        ("fock-relations", "--rank", "3"): "--rank applies to theorem51 only",
        ("fock-relations", "--tolerance", "unit"):
            "--tolerance does not apply to fock-relations",
        ("theorem51", "--ell", "3"): "--ell does not apply to theorem51",
        ("theorem51", "--max-size", "3"):
            "--max-size applies to theorem51 only together with --rank",
        ("theorem51", "--tolerance", "strict"):
            "--tolerance does not apply to theorem51",
        ("prop52", "--ell", "3"): "--ell does not apply to prop52",
        ("prop52", "--max-size", "2"): "--max-size does not apply to prop52",
        ("prop52", "--rank", "3"): "--rank applies to theorem51 only",
        ("prop52", "--tolerance", "strict"):
            "--tolerance does not apply to prop52",
        ("lemma62", "--ell", "3"): "--ell does not apply to lemma62",
        ("lemma62", "--max-size", "2"): "--max-size does not apply to lemma62",
        ("lemma62", "--rank", "3"): "--rank applies to theorem51 only",
        ("lemma63", "--ell", "3"): "--ell does not apply to lemma63",
        ("lemma63", "--max-size", "0"): "--max-size does not apply to lemma63",
        ("lemma63", "--rank", "3"): "--rank applies to theorem51 only",
        ("prop64", "--ell", "3"): "--ell does not apply to prop64",
        ("prop64", "--rank", "3"): "--rank applies to theorem51 only",
        ("prop65", "--rank", "3"): "--rank applies to theorem51 only",
        ("prop65", "--tolerance", "strict"):
            "--tolerance does not apply to prop65",
        ("theorem61", "--rank", "3"): "--rank applies to theorem51 only",
        ("all", "--ell", "3"): "--ell does not apply to all",
        ("all", "--max-size", "2"): "--max-size does not apply to all",
        ("all", "--rank", "3"): "--rank applies to theorem51 only",
    }

    @pytest.mark.parametrize("family, flag, value", list(UNREAD))
    def test_unread_flag_rejected(self, capsys, family, flag, value):
        code, out, err = run(capsys, "verify", family, flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {self.UNREAD[family, flag, value]}\n"

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_undeclared_fields_not_read(self, family):
        # a RunConfig field outside the family's FAMILIES reads changes
        # neither its cases nor, for tolerance, their records
        declared = FAMILIES[family].reads
        base = RunConfig()
        specs = enumerate_cases(family, base)
        changes = {"ell": 3, "max_size": 2, "n_rank": 3,
                   "tolerance": "strict"}
        for field, value in changes.items():
            if field not in declared:
                assert enumerate_cases(family, RunConfig(**{field: value})) \
                    == specs, field
        if "tolerance" not in declared:
            records = [run_case(s).to_json() for s in specs]
            for tolerance in ("strict", "unit"):
                assert [run_case(s, tolerance).to_json()
                        for s in specs] == records, tolerance

    @pytest.mark.parametrize("argv", [
        ["prop65", "--ell", "2", "--max-size", "2", "--jobs", "2"],
        ["all", "--jobs", "2"],
    ])
    def test_jobs_refused_without_pool(self, capsys, monkeypatch, argv):
        # no serial rerun and no report when the pool cannot start; `all`
        # starts its one pool before any family runs
        import concurrent.futures
        from fockweyl import verify as ver

        def no_pool(max_workers):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(ver.os, "cpu_count", lambda: 4)
        code, out, err = run(capsys, "verify", *argv, "--format", "json")
        assert (code, out) == (1, "")
        assert err == ("error: cannot start 2 worker processes: "
                       "[Errno 11] Resource temporarily unavailable\n")

    @pytest.mark.parametrize("argv, fields", [
        (["fock-relations", "--ell", "3", "--max-size", "2"],
         {"ell": 3, "max_size": 2}),
        (["theorem51"], {}),
        (["theorem51", "--rank", "3", "--max-size", "2"],
         {"n_rank": 3, "max_size": 2}),
        (["prop52", "--jobs", "2", "--format", "json"], {"jobs": 2}),
        (["lemma62", "--tolerance", "unit"], {"tolerance": "unit"}),
        (["lemma63", "--tolerance", "strict"], {"tolerance": "strict"}),
        (["prop64", "--max-size", "2", "--tolerance", "unit"],
         {"max_size": 2, "tolerance": "unit"}),
        (["prop65", "--ell", "3", "--max-size", "2"], {"ell": 3, "max_size": 2}),
        (["theorem61", "--ell", "3", "--max-size", "2", "--tolerance", "strict"],
         {"ell": 3, "max_size": 2, "tolerance": "strict"}),
        (["all", "--tolerance", "strict", "--jobs", "2"],
         {"tolerance": "strict", "jobs": 2}),
    ])
    def test_read_flags_reach_config(self, capsys, monkeypatch, argv, fields):
        seen = []

        def fake_family(family, config):
            seen.append(config)
            return Report(family=family, config={}, cases=[])

        monkeypatch.setattr(cli, "run_family", fake_family)
        monkeypatch.setattr(cli, "run_all", lambda config: [fake_family("all", config)])
        code, _, err = run(capsys, "verify", *argv)
        assert (code, err) == (0, "")
        assert [vars(c) for c in seen] == [vars(RunConfig(**fields))]

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "fock", "apply", "--bogus", "x")
        assert code == 2


class TestReportRendering:
    def test_empty_report(self):
        rep = Report(family="x", config={}, cases=[])
        data = rep.to_json()
        assert data["cases"] == [] and data["passed"] == 0 and data["failed"] == 0

    def test_render_stable(self):
        cases = [CaseResult("b", True), CaseResult("a", False, {"why": "x"})]
        rep = Report(family="f", config={"ell": 2}, cases=cases)
        assert render_json(rep) == render_json(rep)
        assert rep.failed == 1
