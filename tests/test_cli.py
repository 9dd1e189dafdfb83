import csv
import io
import json
import math

import pytest

from relegas import MediumState, assemble, plasma_frequency_estimate, scalars_at
from relegas.cli import ELECTRON_MASS_EV, SCAN_COLUMNS, main
from relegas.responses import evaluate_cell
from conftest import rel_err


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


def test_response_json_matches_library(capsys):
    code, out, err = run_cli(
        capsys, ["response", "--a", "0.5", "--b", "1.0", "--xi", "3.0"]
    )
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["region"] == "I"
    assert rec["subregion"] == "A"
    assert rec["inputs"]["a"] == 0.5
    assert rec["inputs"]["include_vacuum"] is True

    p, _, _, s = scalars_at(0.5, 1.0, MediumState(t=0.0, xi=3.0))
    tens = assemble(s, p)
    assert rec["scalars"]["ReB"] == s.B.real
    assert rec["scalars"]["ImB"] == s.B.imag
    assert rec["scalars"]["ImC"] == s.C.imag
    assert rec["tensors"]["eps_L"]["re"] == tens.eps_L.real
    assert rec["tensors"]["nu_L"]["im"] == tens.nu_L.imag
    tau_re = rec["tensors"]["tau"]["re"]
    sigma_re = rec["tensors"]["sigma"]["re"]
    assert abs(tau_re - sigma_re) <= 1e-14 * max(1.0, abs(tau_re))


def test_response_warm_state_has_no_subregion(capsys):
    code, out, _ = run_cli(
        capsys,
        ["response", "--a", "0.5", "--b", "1.0", "--t", "0.1", "--xi", "1.2"],
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["subregion"] is None
    assert rec["inputs"]["t"] == 0.1


def test_response_csv_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        ["response", "--a", "0.5", "--b", "1.0", "--xi", "3.0", "--format", "csv"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["a", "b", "region", "subregion"]
    assert "ReB" in header and "re_eps_L" in header
    assert len(rows) == 1
    row = rows[0]
    assert row["subregion"] == "A"
    _, _, _, s = scalars_at(0.5, 1.0, MediumState(t=0.0, xi=3.0))
    assert float(row["ReB"]) == s.B.real  # repr cells parse back exactly


def test_no_vacuum_flag(capsys):
    _, out_with, _ = run_cli(capsys, ["response", "--a", "0.5", "--b", "1.0", "--xi", "1.2"])
    _, out_without, _ = run_cli(
        capsys, ["response", "--a", "0.5", "--b", "1.0", "--xi", "1.2", "--no-vacuum"]
    )
    with_c = json.loads(out_with)["scalars"]["ReC"]
    without_c = json.loads(out_without)["scalars"]["ReC"]
    assert without_c == 0.0
    assert with_c != 0.0


def test_light_cone_input_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, ["response", "--a", "1.0", "--b", "1.0", "--xi", "1.2"])
    assert code == 2
    assert out == ""
    assert "light cone" in err


@pytest.mark.parametrize(
    "a, b",
    [("0.5", "1e-300"), ("1e200", "1e199"), ("1e150", "1e100")],
    ids=["tiny-b", "huge-a-b", "huge-c2"],
)
def test_out_of_range_point_exits_2(capsys, a, b):
    code, out, err = run_cli(capsys, ["response", "--a", a, "--b", b, "--xf", "1.2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_out_of_range_scan_row_carries_its_reason(capsys):
    argv = ["scan", "--a-range", "0.5", "0.6", "2", "--b-range", "1e-300", "1e-300", "1",
            "--xf", "1.2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert math.isnan(float(row["re_eps_L"]))
        assert "too small" in row["reason"]


def test_huge_scan_row_carries_its_reason(capsys):
    # c2 = 1e300 is finite, but its square at the Fermi surface is not
    argv = ["scan", "--a-range", "1e150", "1e151", "2", "--b-range", "1e100", "1e100", "1",
            "--xf", "1.2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert math.isnan(float(row["re_eps_L"]))
        assert "too large" in row["reason"]


def test_invalid_state_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, ["response", "--a", "0.5", "--b", "1.0", "--xi", "0.5"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_coupling_exits_2(capsys, alpha):
    argv = ["response", "--a", "0.5", "--b", "1.0", "--xf", "1.2", "--alpha", alpha]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "alpha" in err and "finite" in err


def test_cutoff_one_ulp_above_the_shell_exits_0(capsys):
    argv = ["response", "--a", "0.5", "--b", "0.3", "--t", "5.6e-18", "--xi", "1.0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["region"] == "II"
    assert rec["scalars"]["ReB"] == rec["scalars"]["ReD"] == 0.0
    assert rec["scalars"]["ImB"] == rec["scalars"]["ImD"] == 0.0


def test_unwritable_output_is_exit_3(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "response", "--a", "0.5", "--b", "1.0", "--xi", "1.2",
            "--output", "/no-such-dir-relegas/x.json",
        ],
    )
    assert code == 3
    assert "cannot write" in err


def test_missing_required_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["response", "--a", "0.5", "--b", "1.0"])
    assert exc.value.code == 2


def test_scan_grid_order_and_invalid_cells(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "scan",
            "--a-range", "0.5", "1.5", "3",
            "--b-range", "1.0", "1.5", "2",
            "--xi", "1.2",
        ],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert tuple(header) == SCAN_COLUMNS
    assert len(rows) == 6
    assert [(r["a"], r["b"]) for r in rows] == [
        ("0.5", "1.0"), ("1.0", "1.0"), ("1.5", "1.0"),
        ("0.5", "1.5"), ("1.0", "1.5"), ("1.5", "1.5"),
    ]
    # (1.0, 1.0) and (1.5, 1.5) sit on the light cone
    for idx in (1, 5):
        assert math.isnan(float(rows[idx]["re_eps_L"]))
        assert "light cone" in rows[idx]["reason"]
        assert rows[idx]["metamaterial"] == "false"
    good = rows[0]
    assert good["region"] == "I"
    assert good["reason"] == ""
    cell = evaluate_cell(0.5, 1.0, MediumState(t=0.0, xi=1.2))
    assert float(good["re_eps_L"]) == cell.re_eps_L
    assert float(good["im_nu_L"]) == cell.im_nu_L


def test_scan_reports_a_failed_cell_and_goes_on(capsys):
    # at (3162.28, 3165.44), t = 1 the integrand returns NaN: that cell gets
    # a reason, and the scan still writes every row and exits 0
    a, b = "3162.2776601683795", "3165.443103271651"
    code, out, err = run_cli(
        capsys,
        ["scan", "--a-range", "3000", a, "2", "--b-range", b, b, "1", "--t", "1", "--xi", "0"],
    )
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert tuple(header) == SCAN_COLUMNS and len(rows) == 2
    ms = MediumState(t=1.0, xi=0.0)
    first = evaluate_cell(3000.0, float(b), ms)
    assert rows[0]["reason"] == "" and float(rows[0]["re_eps_L"]) == first.re_eps_L
    assert math.isnan(float(rows[1]["re_eps_L"]))
    assert rows[1]["metamaterial"] == "false"
    assert rows[1]["reason"] == "integrand returned nan at x = 3.244459510319254"


def test_scan_jobs_output_identical(tmp_path, capsys):
    argv = [
        "scan",
        "--a-range", "0.1", "0.9", "3",
        "--b-range", "1.0", "1.2", "2",
        "--xi", "1.5",
    ]
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(argv + ["--jobs", "1", "--output", str(one)]) == 0
    assert main(argv + ["--jobs", "2", "--output", str(two)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize(
    "n_a, jobs, cpus, workers, chunk",
    [(3, 64, 8, 3, 1), (20, 64, 2, 2, 2), (20, 3, 8, 3, 1), (20, 64, None, None, None)],
    ids=["cells", "cpus", "asked", "no-cpu-count"],
)
def test_scan_jobs_capped_by_cells_and_cpus(capsys, monkeypatch, n_a, jobs, cpus, workers, chunk):
    # the pool may start all of its workers on the first submit, so
    # --jobs N asks for at most as many as there are cells and CPUs; one
    # worker runs the scan in-process.  The stand-in pool forks nothing.
    import concurrent.futures

    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append([max_workers, None])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            made[-1][1] = chunksize
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    argv = ["scan", "--a-range", "0.1", "0.9", str(n_a), "--b-range", "1.0", "1.0", "1",
            "--xi", "1.5"]
    code, out, _ = run_cli(capsys, argv + ["--jobs", str(jobs)])
    assert code == 0
    assert made == ([] if workers is None else [[workers, chunk]])
    assert (code, out) == run_cli(capsys, argv)[:2]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--a-range", "0.1", "1", "inf", "--b-range", "1.0", "1.2", "2", "--xi", "1.5"],
        ["dispersion", "--b-range", "1e-3", "4e-3", "inf", "--xf", "1.5"],
        ["nr-scan", "--omega-range", "2e-4", "1.2e-3", "inf", "--q-range", "0.01", "0.05", "2",
         "--pf", "0.0316"],
        ["boundaries", "--xf", "1.5", "--a-range", "0", "2", "inf"],
    ],
    ids=["scan", "dispersion", "nr-scan", "boundaries"],
)
def test_non_finite_grid_size_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--a-range", "0.1", "nan", "3", "--b-range", "1.0", "1.2", "2", "--xi", "1.5"],
        ["boundaries", "--xf", "1.2", "--a-range", "0.1", "inf", "3"],
        ["dispersion", "--b-range", "1e-3", "inf", "3", "--log-b", "--xf", "1.2"],
        ["nr-scan", "--omega-range", "2e-4", "1.2e-3", "3", "--q-range", "0.01", "0.05", "2",
         "--pf", "nan"],
        ["dispersion", "--b-range", "1e-3", "4e-3", "3", "--xf", "1.2", "--a-range", "0.003",
         "inf"],
        ["dispersion", "--b-range", "0", "2e-3", "3", "--xf", "1.2"],
    ],
    ids=["scan-nan", "boundaries-inf", "dispersion-inf", "nr-scan-pf-nan", "dispersion-a-inf",
         "dispersion-b-zero"],
)
def test_non_finite_range_or_pf_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


def test_zero_jobs_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        ["scan", "--a-range", "0.1", "0.9", "2", "--b-range", "1.0", "1.2", "2",
         "--xi", "1.5", "--jobs", "0"],
    )
    assert code == 2
    assert "--jobs" in err


def test_output_dir_env_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RELEGAS_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys,
        ["response", "--a", "0.5", "--b", "1.0", "--xi", "1.2", "--output", "point.json"],
    )
    assert code == 0
    assert out == ""
    rec = json.loads((tmp_path / "point.json").read_text())
    assert rec["region"] == "I"


def test_dispersion_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "dispersion",
            "--mode", "both",
            "--b-range", "1e-3", "4e-3", "3",
            "--log-b",
            "--xf", "1.2",
        ],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["b", "mode", "root_a", "residual", "im_at_root"]
    assert len(rows) == 8  # 3 samples + 1 extrapolation row per mode
    lon = [r for r in rows if r["mode"] == "longitudinal"]
    tra = [r for r in rows if r["mode"] == "transverse"]
    assert len(lon) == 4 and len(tra) == 4
    assert rel_err(float(lon[0]["root_a"]), 0.013730612) < 1e-6
    summary = lon[-1]
    assert summary["b"] == "0.0"
    assert rel_err(float(summary["root_a"]), 0.013723940710707884) < 1e-9
    assert math.isnan(float(summary["residual"]))
    t_summary = tra[-1]
    assert rel_err(float(t_summary["root_a"]), 0.013723954785812134) < 1e-9


def test_dispersion_warm_default_window(capsys):
    # without --a-range the window is (a_e/4, 4 a_e) at t > 0 too; both
    # branches answer at every b, timelike and undamped
    code, out, _ = run_cli(
        capsys,
        ["dispersion", "--b-range", "1e-3", "4e-3", "2", "--t", "0.05", "--xi", "1.2"],
    )
    assert code == 0
    a_e = plasma_frequency_estimate(MediumState(t=0.05, xi=1.2))
    _, rows = parse_csv(out)
    for mode in ("longitudinal", "transverse"):
        samples = [r for r in rows if r["mode"] == mode][:-1]
        assert [float(r["b"]) for r in samples] == [1e-3, 4e-3]
        for r in samples:
            root = float(r["root_a"])
            assert float(r["b"]) < root and 0.25 * a_e < root < 4.0 * a_e
            assert float(r["im_at_root"]) == 0.0
            assert abs(float(r["residual"])) < 1e-9


def test_consistency_failure_exits_4_without_traceback(capsys):
    # a region-I cell at a/b < 0.015, where B ~ 2e5 and D ~ 1e5 cancel to
    # nu_L ~ 1 and the dual-path check of nu_L trips
    code, out, err = run_cli(
        capsys,
        [
            "scan", "--a-range", "1e-7", "2e-7", "3",
            "--b-range", "0.0002577222927035676", "0.0002577222927035676", "1",
            "--xf", "2.478869771651514",
        ],
    )
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: nu_L composition mismatch")
    assert err.count("\n") == 1


def test_nr_scan(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "nr-scan",
            "--omega-range", "0.001", "0.003", "2",
            "--q-range", "0.1", "0.1", "1",
            "--pf", "0.3",
        ],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["omega", "q", "case", "im_b"]
    assert len(rows) == 2
    assert rows[0]["case"] == "2c"
    e2 = MediumState(t=0.0, xi=1.0).e2
    assert rel_err(float(rows[0]["im_b"]), e2 * 0.001 / (2.0 * math.pi * 1e-3)) < 1e-14


def test_boundaries_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["boundaries", "--xf", "3.0", "--a-range", "0.5", "1.5", "2"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "a", "b_plus", "b_minus", "bbar_plus", "bbar_minus",
        "bprime_plus", "bprime_minus",
    ]
    first = rows[0]
    assert rel_err(float(first["bbar_plus"]), math.sqrt(2.0) + math.sqrt(0.75)) < 1e-12
    assert rel_err(float(first["bbar_minus"]), math.sqrt(2.0) - math.sqrt(0.75)) < 1e-12
    # at a = 1.5 the inner curves no longer exist
    assert math.isnan(float(rows[1]["bbar_plus"]))
    assert not math.isnan(float(rows[1]["b_plus"]))


def test_units_ev(capsys):
    a_ev = repr(0.5 * 2.0 * ELECTRON_MASS_EV)
    b_ev = repr(1.0 * 2.0 * ELECTRON_MASS_EV)
    xi_ev = repr(1.5 * ELECTRON_MASS_EV)
    code, out, _ = run_cli(
        capsys,
        ["response", "--a", a_ev, "--b", b_ev, "--xi", xi_ev, "--units", "ev"],
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["inputs"]["units"] == "ev"
    assert rec["inputs"]["a"] == 0.5
    assert rec["inputs"]["b"] == 1.0
    assert abs(rec["inputs"]["xi"] - 1.5) < 1e-12
