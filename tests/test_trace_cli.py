import csv
import dataclasses
import io
import json
import math
import re

import pytest

import uplinkgame as ug
import uplinkgame.cli as cli_module
from uplinkgame import JaspaConfig, StepsizeSchedule, ValidationError, jaspa, load_scenario
from uplinkgame.cli import main
from uplinkgame.trace import TRACE_HEADER, TraceRow, association_label, read_trace, write_trace


def test_trace_round_trip(tmp_path):
    rows = [
        TraceRow(0, 0, 0.123456789012345678, 1.0 / 3.0, 1e-9, "1-2-1", 0),
        TraceRow(0, -1, 0.9999999999999999, 2.0 / 7.0, 0.0, "1-2-1", 2),
    ]
    path = tmp_path / "t.csv"
    write_trace(path, rows)
    assert read_trace(path) == rows


def test_trace_writer_bytes_equal_csv_writer(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0, 1e300, -2.5]
    rows = [
        TraceRow(i, i - 3, x, specials[-1 - i], specials[(i + 3) % 8], "1-12-3", i % 3)
        for i, x in enumerate(specials)
    ]
    path = tmp_path / "t.csv"
    write_trace(path, rows)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(TRACE_HEADER)
    for r in rows:
        writer.writerow((r.outer_iter, r.inner_iter, *(format(x, ".17g") for x in (
            r.system_potential, r.sum_rate, r.residual_inf_norm)), r.association, r.switch_count))
    assert path.read_bytes() == want.getvalue().encode()
    assert min(r.inner_iter for r in rows) < 0


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "s.scn"
    assert run_cli("generate", "--n", 4, "--w", 2, "--k", 4, "--seed", 5, "--out", path) == 0
    return path


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.scn", tmp_path / "b.scn"
    run_cli("generate", "--n", 3, "--w", 2, "--k", 4, "--seed", 9, "--out", a)
    run_cli("generate", "--n", 3, "--w", 2, "--k", 4, "--seed", 9, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_validation_exit_code(tmp_path):
    code = run_cli("generate", "--n", 2, "--w", 4, "--k", 3, "--out", tmp_path / "x.scn")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--seed", -1),
        ("generate", "--area-side", "nan"),
        ("compare", "--algos", "jaspa", "--seed-base", -1),
        *(("run", "--algo", algo, "--seed", -1)
          for algo in ("jaspa", "se_jaspa", "si_jaspa", "j_jaspa", "a_iwf", "s_iwf")),
    ],
)
def test_bad_seed_or_area_side_exits_3(tmp_path, scenario_file, capsys, argv):
    # Each used to exit 1 with a traceback.
    field = "area_side" if "--area-side" in argv else "seed"
    if argv[0] == "run":
        argv += ("--scenario", scenario_file, "--outdir", tmp_path)
    else:
        argv += ("--n", 4, "--w", 2, "--k", 4, "--out", tmp_path / "out")
    assert run_cli(*argv) == 3
    assert f"validation error: {field} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--n", 2, "--w", 1, "--k", 2)
    assert exc.value.code == 2


def test_run_writes_trace_and_summary(tmp_path, scenario_file):
    trace = tmp_path / "out.csv"
    summary = tmp_path / "out.json"
    code = run_cli(
        "run", "--algo", "jaspa", "--scenario", scenario_file, "--m", 4,
        "--seed", 1, "--out-trace", trace, "--out-summary", summary,
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert doc["algorithm"] == "jaspa"
    assert doc["converged"] is True
    assert doc["inner_nonconverged"] == 0
    assert doc["jep"]["is_equilibrium"] is True
    assert doc["wall_time_s"] >= 0
    rows = read_trace(trace)
    outer = [r.outer_iter for r in rows]
    assert outer == sorted(outer)
    assert all(len(r.association.split("-")) == 4 for r in rows)
    assert doc["final_sum_rate"] == rows[-1].sum_rate


def test_run_repeats_byte_identically(tmp_path, scenario_file):
    t1, t2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for t in (t1, t2):
        assert run_cli(
            "run", "--algo", "si_jaspa", "--scenario", scenario_file, "--m", 4,
            "--seed", 3, "--out-trace", t, "--out-summary", tmp_path / "s.json",
        ) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_inner_run_has_monotone_residual_tail(tmp_path, scenario_file):
    trace = tmp_path / "a.csv"
    code = run_cli(
        "run", "--algo", "a_iwf", "--assoc", "closest", "--scenario", scenario_file,
        "--out-trace", trace, "--out-summary", tmp_path / "a.json",
    )
    assert code == 0
    rows = [r for r in read_trace(trace) if r.inner_iter >= 0]
    tail = [r.residual_inf_norm for r in rows[len(rows) // 2 :]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))
    assert tail[-1] <= 1e-8


def test_nonconverged_run_still_exits_zero(tmp_path, scenario_file):
    code = run_cli(
        "run", "--algo", "si_jaspa", "--scenario", scenario_file, "--m", 4,
        "--seed", 1, "--max-outer", 2,
        "--out-trace", tmp_path / "t.csv", "--out-summary", tmp_path / "s.json",
    )
    assert code == 0
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["converged"] is False


def test_capped_inner_solves_are_reported(tmp_path, scenario_file):
    code = run_cli(
        "run", "--algo", "jaspa", "--scenario", scenario_file, "--m", 4,
        "--seed", 1, "--max-outer", 3, "--max-inner", 1,
        "--out-trace", tmp_path / "t.csv", "--out-summary", tmp_path / "s.json",
    )
    assert code == 0
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["inner_nonconverged"] > 0


def test_enumeration_cap_exit_code(tmp_path, scenario_file):
    code = run_cli(
        "run", "--algo", "exhaustive", "--scenario", scenario_file,
        "--enumeration-cap", 3,
        "--out-trace", tmp_path / "t.csv", "--out-summary", tmp_path / "s.json",
    )
    assert code == 4


def test_missing_scenario_is_io_error(tmp_path):
    code = run_cli(
        "run", "--algo", "jaspa", "--scenario", tmp_path / "nope.scn",
        "--out-trace", tmp_path / "t.csv", "--out-summary", tmp_path / "s.json",
    )
    assert code == 5


def test_malformed_scenario_is_validation_error(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("{not json")
    code = run_cli(
        "run", "--algo", "jaspa", "--scenario", bad,
        "--out-trace", tmp_path / "t.csv", "--out-summary", tmp_path / "s.json",
    )
    assert code == 3


def test_compare_single_algorithm_single_rep(tmp_path, scenario_file, capsys):
    out = tmp_path / "cmp.csv"
    code = run_cli(
        "compare", "--algos", "closest_ap", "--reps", 1, "--scenario", scenario_file,
        "--out", out,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header plus one algorithm row
    assert lines[1].startswith("closest_ap")


def test_compare_with_exhaustive_ratio(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_cli(
        "compare", "--algos", "jaspa,closest_ap,exhaustive", "--reps", 2,
        "--n", 4, "--w", 2, "--k", 4, "--seed-base", 3, "--m", 4, "--out", out,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = header.index("median_ratio_to_tstar")
    body = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert float(body["exhaustive"][idx]) == 1.0
    assert 0.0 < float(body["jaspa"][idx]) <= 1.0 + 1e-12
    assert 0.0 < float(body["closest_ap"][idx]) <= 1.0 + 1e-12


@pytest.mark.parametrize("max_inner, converged_runs", [(1, 0), (100_000, 2)])
def test_compare_counts_exhaustive_convergence(tmp_path, max_inner, converged_runs):
    # With one inner round some of the 32 profiles stop short, so neither
    # search counts as converged, as in ``run --algo exhaustive``.
    out = tmp_path / "cmp.csv"
    code = run_cli(
        "compare", "--algos", "exhaustive", "--reps", 2, "--n", 5, "--w", 2,
        "--k", 8, "--max-inner", max_inner, "--out", out,
    )
    assert code == 0
    header, row = (ln.split(",") for ln in out.read_text().strip().splitlines())
    assert int(row[header.index("converged_runs")]) == converged_runs


def test_run_and_compare_solve_exhaustive_alike(tmp_path):
    scn = tmp_path / "s.scn"
    assert run_cli("generate", "--n", 6, "--w", 3, "--k", 12, "--seed", 4, "--out", scn) == 0
    summary, table = tmp_path / "run.json", tmp_path / "cmp.csv"
    assert run_cli(
        "run", "--algo", "exhaustive", "--scenario", scn,
        "--out-trace", tmp_path / "run.csv", "--out-summary", summary,
    ) == 0
    assert run_cli(
        "compare", "--algos", "exhaustive", "--reps", 1, "--scenario", scn, "--out", table,
    ) == 0
    header, row = (ln.split(",") for ln in table.read_text().strip().splitlines())
    mean = float(row[header.index("mean_sum_rate")])
    assert json.loads(summary.read_text())["final_sum_rate"] == mean


def test_outdir_env_var_sets_default_paths(tmp_path, scenario_file, monkeypatch):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("UPLINKGAME_OUTDIR", str(outdir))
    code = run_cli("run", "--algo", "closest_ap", "--scenario", scenario_file)
    assert code == 0
    assert list(outdir.glob("*.trace.csv")) and list(outdir.glob("*.summary.json"))


def test_cost_sweep_medians_non_increasing(tmp_path):
    # Statistical check over 50 seeds: higher switching costs never slow the
    # simultaneous dynamics down in median.
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "compare", "--algos", "si_jaspa", "--costs", "0,3,5", "--reps", 50,
        "--n", 8, "--w", 2, "--k", 16, "--seed-base", 0, "--m", 8, "--out", out,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = header.index("median_outer_iterations")
    med = {ln.split(",")[0]: float(ln.split(",")[idx]) for ln in lines[1:]}
    assert med["si_jaspa(c=0)"] >= med["si_jaspa(c=3)"] >= med["si_jaspa(c=5)"]


def test_jaspa_defaults_to_the_safeguarded_schedule(tmp_path, scenario_file):
    sc = load_scenario(scenario_file)
    configs = {
        (): JaspaConfig(memory_len=4, seed=2),
        ("--schedule", "polynomial"): JaspaConfig(memory_len=4, seed=2, schedule=StepsizeSchedule()),
    }
    runs = {}
    for flags, config in configs.items():
        summary = tmp_path / "s.json"
        assert run_cli(
            "run", "--algo", "jaspa", "--scenario", scenario_file, "--m", 4, "--seed", 2,
            "--out-trace", tmp_path / "t.csv", "--out-summary", summary, *flags,
        ) == 0
        doc = json.loads(summary.read_text())
        result = jaspa(sc, config)
        assert doc["final_sum_rate"] == result.rows[-1].sum_rate
        assert doc["outer_iterations"] == result.outer_iterations
        runs[flags] = result
    # The default writes fewer inner rows than the paper's rule.
    assert len(runs[()].rows) < len(runs[("--schedule", "polynomial")].rows)


@pytest.mark.parametrize("algo", ["si_jaspa", "j_jaspa"])
def test_simultaneous_dynamics_default_to_the_safeguarded_schedule(tmp_path, scenario_file, algo):
    sc = load_scenario(scenario_file)
    configs = {
        (): JaspaConfig(memory_len=4, seed=0),
        ("--schedule", "polynomial"): JaspaConfig(memory_len=4, seed=0, schedule=StepsizeSchedule()),
    }
    rows = {}
    for flags, config in configs.items():
        trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
        assert run_cli(
            "run", "--algo", algo, "--scenario", scenario_file, "--m", 4, "--seed", 0,
            "--out-trace", trace, "--out-summary", summary, *flags,
        ) == 0
        doc = json.loads(summary.read_text())
        assert doc["converged"] and doc["jep"]["is_equilibrium"]
        result = getattr(ug, algo)(sc, config)
        assert doc["final_sum_rate"] == result.rows[-1].sum_rate
        assert doc["outer_iterations"] == result.outer_iterations
        rows[flags] = read_trace(trace)
        assert rows[flags] == result.rows
    # The default writes fewer rows than the paper's rule.
    assert len(rows[()]) < len(rows[("--schedule", "polynomial")])


@pytest.mark.parametrize("schedule", ["safeguarded", "polynomial"])
def test_exponent_outside_range_is_validation_error(tmp_path, scenario_file, schedule):
    code = run_cli(
        "run", "--algo", "jaspa", "--scenario", scenario_file, "--schedule", schedule,
        "--exponent", 0.4, "--outdir", tmp_path,
    )
    assert code == 3


def test_malformed_cost_list_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("compare", "--algos", "jaspa", "--costs", "0,abc", "--out", tmp_path / "c.csv")
    assert exc.value.code == 2
    assert "--costs" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("eps_eq", [-1, "nan", "inf"])
@pytest.mark.parametrize("algo", ["s_iwf", "closest_ap", "exhaustive", "jaspa"])
def test_bad_eps_eq_is_validation_error(tmp_path, algo, eps_eq):
    path = tmp_path / "s.scn"
    assert run_cli("generate", "--n", 4, "--w", 2, "--k", 8, "--seed", 1, "--out", path) == 0
    code = run_cli(
        "run", "--algo", algo, "--scenario", path, "--eps-eq", eps_eq, "--max-outer", 20,
        "--outdir", tmp_path,
    )
    assert code == 3


@pytest.mark.parametrize("algo", ["a_iwf", "s_iwf", "closest_ap"])
def test_fixed_association_trace_closes_on_its_last_inner_row(tmp_path, scenario_file, algo):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    assert run_cli(
        "run", "--algo", algo, "--scenario", scenario_file, "--seed", 2,
        "--out-trace", trace, "--out-summary", summary,
    ) == 0
    *inner, last = read_trace(trace)
    assert [r.inner_iter for r in inner] == list(range(len(inner)))
    assert last == dataclasses.replace(inner[-1], inner_iter=-1)
    doc = json.loads(summary.read_text())
    assert (doc["final_sum_rate"], doc["final_potential"], doc["final_association"]) == (
        last.sum_rate, last.system_potential, last.association
    )


def test_compare_table_does_not_depend_on_where_exhaustive_is_listed(tmp_path):
    tables = []
    others = "jaspa,closest_ap,virtual_bound"
    for algos in (f"exhaustive,{others}", f"{others},exhaustive"):
        out = tmp_path / "cmp.csv"
        assert run_cli(
            "compare", "--algos", algos, "--reps", 3, "--n", 5, "--w", 2, "--k", 8,
            "--m", 5, "--out", out,
        ) == 0
        header, *rows = out.read_text().splitlines()
        tables.append({row.split(",")[0]: row for row in rows})
    assert tables[0] == tables[1]
    assert list(tables[0]) == ["exhaustive", "jaspa", "closest_ap", "virtual_bound"]


def test_compare_has_no_seed_flag(tmp_path, capsys):
    # compare seeds each rep from --seed-base; --seed was accepted and ignored.
    with pytest.raises(SystemExit) as exc:
        run_cli("compare", "--algos", "closest_ap", "--seed", 3, "--out", tmp_path / "c.csv")
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (("--algos", "closest_ap", "--reps", 0), "reps"),
        (("--algos", "closest_ap", "--reps", -1), "reps"),
        (("--algos", "closest_ap,closest_ap"), "closest_ap"),
        (("--algos", "jaspa", "--costs", "0,0.0"), r"jaspa\(c=0\)"),
        (("--algos", "nope"), "nope"),
        (("--algos", "se_jaspa,j_jaspa", "--costs", "0,5"), "--costs"),
    ],
)
def test_compare_refuses_no_reps_and_repeated_entries(tmp_path, capsys, argv, field):
    # A header-only table, or one row counting a repeated entry's runs twice;
    # an unknown algorithm is refused the same way.
    out = tmp_path / "c.csv"
    assert run_cli("compare", *argv, "--n", 4, "--w", 2, "--k", 4, "--out", out) == 3
    assert re.search(f"validation error: .*{field}", capsys.readouterr().err)
    assert not out.exists()


def test_compare_loads_its_scenario_once(tmp_path, scenario_file, monkeypatch):
    loads = []

    def spy(path):
        loads.append(path)
        return load_scenario(path)

    monkeypatch.setattr(cli_module, "load_scenario", spy)
    assert run_cli(
        "compare", "--algos", "closest_ap,si_jaspa", "--reps", 3, "--scenario", scenario_file,
        "--m", 4, "--out", tmp_path / "c.csv",
    ) == 0
    assert loads == [str(scenario_file)]


_GOOD = "0,-1,0.5,1,0,1-2,0\r\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),  # no header
        ("outer_iter,inner_iter\r\n" + _GOOD, 1),
        (",".join(TRACE_HEADER) + "\r\n" + _GOOD + "1,-1,0.5,1,0,1-2\r\n", 3),
        (",".join(TRACE_HEADER) + "\r\n" + "1,-1,0.5,1,0,1-2,0,7\r\n", 2),
        (",".join(TRACE_HEADER) + "\r\n" + _GOOD + _GOOD + "1,-1,x,1,0,1-2,0\r\n", 4),
    ],
    ids=["empty", "header", "six-fields", "eight-fields", "float"],
)
def test_read_trace_refuses_what_write_trace_does_not_write(tmp_path, text, line):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValidationError, match=re.escape(f"{path}, line {line}:")):
        read_trace(path)


def test_outer_rows_equal_the_exhaustive_and_bound_rows(tmp_path, scenario_file):
    from uplinkgame.trace import outer_row

    sc = load_scenario(scenario_file)
    traces = {}
    for algo in ("exhaustive", "virtual_bound"):
        traces[algo] = tmp_path / f"{algo}.csv"
        assert run_cli(
            "run", "--algo", algo, "--scenario", scenario_file,
            "--out-trace", traces[algo], "--out-summary", tmp_path / f"{algo}.json",
        ) == 0
    inner = ug.InnerConfig(eps_wf=1e-8)
    table = ug.exhaustive_search(sc, inner).table
    want = [  # the rows as they were written by hand
        TraceRow(j, -1, rec.potential, rec.sum_rate, 0.0, association_label(rec.association), 0)
        for j, rec in enumerate(table)
    ]
    assert [outer_row(j, rec.association, rec.potential, rec.sum_rate)
            for j, rec in enumerate(table)] == want == read_trace(traces["exhaustive"])
    vr = ug.virtual_ap_bound(sc, inner)
    bound = outer_row(0, [0] * sc.num_mus, vr.capacity_bound, vr.equilibrium_sum_rate)
    assert bound.association == "-".join(["1"] * sc.num_mus) == "1-1-1-1"
    assert [bound] == read_trace(traces["virtual_bound"])


def test_compare_costs_sweep_only_the_dynamics_that_read_them(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(
        "compare", "--algos", "jaspa,se_jaspa,j_jaspa", "--costs", "0,5", "--reps", 2,
        "--n", 4, "--w", 2, "--k", 8, "--m", 4, "--out", out,
    ) == 0
    with open(out, newline="") as fh:
        labels = [row["algorithm"] for row in csv.DictReader(fh)]
    assert labels == ["jaspa(c=0)", "jaspa(c=5)", "se_jaspa", "j_jaspa"]


def test_bad_enumeration_cap_is_a_validation_error(tmp_path, scenario_file, capsys):
    code = run_cli(
        "run", "--algo", "exhaustive", "--scenario", scenario_file, "--enumeration-cap", 0,
        "--out-trace", tmp_path / "t.csv", "--out-summary", tmp_path / "s.json",
    )
    assert code == 3
    assert "enumeration_cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record",
    [
        " 1_0,-1,1_0.5, 2 ,0,hello,1",  # each field in a form int() or float() would take
        "1_0,-1,0.5,1,0,1-2,0",
        " 1,-1,0.5,1,0,1-2,0",
        "1,+1,0.5,1,0,1-2,0",
        "1,-1,1_0.5,1,0,1-2,0",
        "1,-1,0.5, 2 ,0,1-2,0",
        "1,-1,0.5,1,1E-5,1-2,0",
        "1,-1,Infinity,1,0,1-2,0",
        "1,-1,NaN,1,0,1-2,0",
        "1,-1,.5,1,0,1-2,0",
        "1,-1,0.5,1,0,hello,0",
        "1,-1,0.5,1,0,0-2,0",
        "1,-1,0.5,1,0,1--2,0",
        "1,-1,0.5,1,0,,0",
        "1,-1,0.5,1,0,1-2,1.0",
    ],
)
def test_read_trace_refuses_fields_that_write_trace_does_not_write(tmp_path, record):
    path = tmp_path / "t.csv"
    path.write_bytes((",".join(TRACE_HEADER) + "\r\n" + _GOOD + record + "\r\n").encode())
    with pytest.raises(ValidationError, match=re.escape(f"{path}, line 3:")):
        read_trace(path)


def test_read_trace_reads_every_float_form_that_write_trace_writes(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-5, 1e16, 1e17, 1.0 / 3.0,
                -2.5, 1e300, 123456789012345678.0]
    rows = [TraceRow(i, -1, x, -x, x, "1-10-3", 0) for i, x in enumerate(specials)]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(first, rows)
    back = read_trace(first)
    assert len(back) == len(rows)
    write_trace(second, back)
    assert second.read_bytes() == first.read_bytes()

