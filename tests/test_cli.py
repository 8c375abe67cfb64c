"""CLI contracts: file formats, reproducibility, config handling, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specklemem as sm
from specklemem import cli


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


# --- curves -----------------------------------------------------------------


def test_curves_fig1_anchor_row(tmp_path):
    out = tmp_path / "fig1.csv"
    assert cli.main(["curves", "fig1", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["x", "c_sn", "c_cn"]
    assert rows[0, 0] == 0.0
    assert rows[0, 1] == 1.0
    assert rows[0, 2] == 5.0


def test_curves_fig1_round_trip(tmp_path):
    out = tmp_path / "fig1.csv"
    cli.main(["curves", "fig1", "--out", str(out)])
    _, rows = _read_csv(out)
    for x, c_sn, c_cn in rows:
        assert abs(c_sn - sm.shot_noise_correlation(x)) <= 1e-12
        assert abs(c_cn - sm.classical_noise_correlation(x)) <= 1e-12


def test_curves_fig1_uses_lf_and_dot(tmp_path):
    out = tmp_path / "fig1.csv"
    cli.main(["curves", "fig1", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert b"," in raw and b";" not in raw


def test_curves_fig2_columns_and_round_trip(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(["curves", "fig2", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header[0] == "x"
    assert header[1:] == [
        f"c2_f{f:g}_r{r:g}" for f in (0, 1, 2) for r in (3, 4, 5)
    ]
    assert rows[0, 0] > 0.0
    col = {name: rows[:, i] for i, name in enumerate(header)}
    geom = sm.DiffusionGeometry.from_thickness_ratio(4.0)
    expected = [sm.noise_correlation_expansion(x, 2.0, 1.0, geom)[1] for x in col["x"]]
    np.testing.assert_allclose(col["c2_f2_r4"], expected, rtol=0, atol=1e-12)


def test_curves_fig2_matches_per_point_expansion(tmp_path):
    # Log points from the series branch (x <= 1e-4) through the exponential tails (x > 1e4).
    fanos, ratios = (0.0, 0.5, 1.0, 2.0, 7.5), (1.0, 3.0, 4.5)
    xs = np.geomspace(1e-5, 2e4, 3001)
    header, columns = ["x"], [xs.tolist()]
    for fano in fanos:
        for ratio in ratios:
            geom = sm.DiffusionGeometry.from_thickness_ratio(ratio)
            header.append(f"c2_f{fano:g}_r{ratio:g}")
            columns.append([sm.noise_correlation_expansion(x, fano, 1.0, geom)[1] for x in xs])
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    expected = "\n".join([",".join(header)] + rows) + "\n"

    args = ["curves", "fig2", "--grid-min", "1e-5", "--grid-max", "2e4", "--grid-points", "3001",
            "--fano", "0,0.5,1,2,7.5", "--l-over-ell", "1,3,4.5"]
    csv_out, json_out = tmp_path / "fig2.csv", tmp_path / "fig2.json"
    assert cli.main(args + ["--out", str(csv_out)]) == 0
    assert csv_out.read_text() == expected
    assert cli.main(args + ["--format", "json", "--out", str(json_out)]) == 0
    assert json.loads(json_out.read_text())["columns"] == dict(zip(header, columns))


def test_curves_fig1_streams_the_rows_of_several_chunks(tmp_path, capsys):
    points = 2 * cli.CSV_CHUNK_ROWS + 3
    xs = np.linspace(0.0, 100.0, points).tolist()
    c_sn = [sm.shot_noise_correlation(x) for x in xs]
    c_cn = [sm.classical_noise_correlation(x) for x in xs]
    lines = ["x,c_sn,c_cn"] + [",".join(map(repr, row)) for row in zip(xs, c_sn, c_cn)]
    payload = {"figure": "fig1", "columns": {"x": xs, "c_sn": c_sn, "c_cn": c_cn}}
    expected = {
        "csv": "\n".join(lines) + "\n",
        "json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
    }
    for fmt, text in expected.items():
        args = ["curves", "fig1", "--grid-min", "0", "--grid-max", "100",
                "--grid-points", str(points), "--grid-scale", "lin", "--format", fmt]
        out = tmp_path / f"fig1.{fmt}"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == text.encode(), fmt
        capsys.readouterr()
        assert cli.main(args) == 0
        assert capsys.readouterr().out == text, fmt


def test_curves_takes_no_mean_t():
    # fig2 is normalized per unit mean transmission, so curves reads no mean_t.
    with pytest.raises(SystemExit):
        cli.main(["curves", "fig2", "--mean-t", "0.37"])


def test_curves_fig2_state_symmetry(tmp_path):
    out = tmp_path / "fig2.csv"
    cli.main(["curves", "fig2", "--out", str(out)])
    header, rows = _read_csv(out)
    col = {name: rows[:, i] for i, name in enumerate(header)}
    for r in (3, 4, 5):
        sym = col[f"c2_f0_r{r}"] + col[f"c2_f2_r{r}"] - 2.0 * col[f"c2_f1_r{r}"]
        assert np.abs(sym).max() <= 1e-12


def test_curves_fig2_rejects_zero_grid_min(tmp_path):
    code = cli.main(
        ["curves", "fig2", "--grid-scale", "lin", "--grid-min", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == cli.EXIT_CONFIG


def test_curves_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["curves", "fig1", "--grid-points", "11", "--out", str(a)])
    cli.main(["curves", "fig1", "--grid-points", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_curves_fig1_large_offsets_are_finite(tmp_path):
    # cosh sqrt(x) overflows a double above x ~ 5.05e5; the closed forms take
    # their exponential tails there instead.
    out = tmp_path / "fig1.csv"
    args = ["curves", "fig1", "--grid-scale", "lin", "--grid-min", "0",
            "--grid-max", "1e6", "--grid-points", "3", "--out", str(out)]
    assert cli.main(args) == 0
    _, rows = _read_csv(out)
    assert rows.shape == (3, 3)
    assert np.all(np.isfinite(rows))
    assert rows[0, 1:].tolist() == [1.0, 5.0]
    assert rows[-1, 0] == 1e6 and rows[-1, 1] == 0.0


def test_curves_json_format(tmp_path):
    out = tmp_path / "fig1.json"
    cli.main(["curves", "fig1", "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["figure"] == "fig1"
    assert payload["columns"]["c_sn"][0] == 1.0


# --- validate ----------------------------------------------------------------

_FAST_VALIDATE = [
    "validate",
    "--seed",
    "777",
    "--realizations",
    "2000",
    "--grid-points",
    "5",
    "--shots",
    "200",
]


def test_validate_passes_and_is_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(_FAST_VALIDATE + ["--out", str(a)]) == 0
    assert cli.main(_FAST_VALIDATE + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["passed"] is True
    options = {k for k, o in cli.OPTIONS.items() if "validate" in o.commands} - {"out", "format"}
    extra = {"moment_grid", "counting_grid", "counting_realizations"}
    assert set(report["config"]) == options | extra
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "moment_suite",
        "gaussian_negative_control",
        "rayleigh_ks",
        "shot_noise_curve",
        "classical_curve",
        "noise_scale_invariance",
        "quantum_thermal_curve",
        "counting_mode_consistency",
    ]


def test_validate_blas_threads_do_not_change_report(tmp_path):
    # The bootstrap's means are matrix products, so they run through BLAS.
    src = str(Path(sm.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "specklemem.cli", *_FAST_VALIDATE, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_validate_report_has_z_scores(tmp_path):
    out = tmp_path / "rep.json"
    cli.main(_FAST_VALIDATE + ["--out", str(out)])
    report = json.loads(out.read_text())
    moment = report["checks"][0]
    assert all("z" in r for r in moment["records"])
    curve = report["checks"][3]
    assert all("z" in p for p in curve["points"])
    control = report["checks"][1]
    assert control["records"] == [r for r in moment["records"] if r["name"] == "TT"]

    # Recompute every score from the report's own numbers and every gate from its scores.
    worst_keys = {
        "noise_scale_invariance": "max_abs_diff",
        "counting_mode_consistency": "max_n_sigma",
    }
    for check in report["checks"]:
        name = check["name"]
        if name == "rayleigh_ks":
            assert check["passed"] == (check["pvalue"] > check["significance"])
            continue
        rows = check.get("records", check.get("points", []))
        if name == "counting_mode_consistency":
            scores = [abs(p["counting"] - p["analytic"]) / p["stderr_combined"] for p in rows]
            assert [p["n_sigma"] for p in rows] == scores
        else:
            z = [(r["empirical"] - r["theory"]) / r["stderr"] for r in rows]
            assert [r["z"] for r in rows] == z
            scores = [abs(v) for v in z]
        worst_key = worst_keys.get(name, "max_abs_z")
        if rows:
            assert check[worst_key] == max(scores)
        assert check["passed"] == (check[worst_key] <= check["threshold"])
    assert report["passed"] == all(c["passed"] for c in report["checks"])


def _moment_record_dict(r):
    """MomentRecord.to_dict as the estimate types once carried it."""
    return {"name": r.name, "x": r.offset, "empirical": r.empirical, "stderr": r.stderr,
            "theory": r.theory, "z": r.z}


def _rayleigh_dict(check, significance):
    """RayleighCheck.to_dict as the estimate types once carried it."""
    return {"statistic": check.statistic, "pvalue": check.pvalue,
            "significance": significance, "passed": check.passed}


def test_report_payloads_match_former_serializers(tmp_path):
    out = tmp_path / "rep.json"
    assert cli.main(_FAST_VALIDATE + ["--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    ens = sm.build_ensemble(np.array(cli.MOMENT_GRID), 0.01, 2000, 777)
    moments = sm.estimate_moments(ens)
    assert checks["moment_suite"]["records"] == [_moment_record_dict(r) for r in moments.records]
    control = [_moment_record_dict(r) for r in moments.by_name("TT")]
    assert checks["gaussian_negative_control"]["records"] == control
    rayleigh = _rayleigh_dict(sm.rayleigh_check(ens), sm.ensemble.KS_SIGNIFICANCE)
    assert checks["rayleigh_ks"] == {"name": "rayleigh_ks", **rayleigh}
    assert checks["counting_mode_consistency"]["shots"] == 200


def test_validate_needs_seed():
    assert cli.main(["validate"]) == cli.EXIT_CONFIG


def test_validate_too_few_realizations(tmp_path, capsys):
    code = cli.main(["validate", "--seed", "1", "--realizations", "10"])
    assert code == cli.EXIT_DOMAIN
    assert "realizations" in capsys.readouterr().err


def test_validate_rejects_csv_format():
    assert cli.main(["validate", "--seed", "1", "--format", "csv"]) == cli.EXIT_CONFIG


def _refuse_to_draw(*args, **kwargs):
    raise AssertionError("an ensemble was drawn before the configuration was checked")


def test_validate_checks_its_curve_grid_before_drawing(monkeypatch):
    monkeypatch.setattr(cli, "build_ensemble", _refuse_to_draw)
    # linspace(1, 1 + 2**-52, 3) repeats 1.0.
    argv = ["validate", "--seed", "1", "--grid-scale", "lin", "--grid-min", "1",
            "--grid-max", "1.0000000000000002", "--grid-points", "3"]
    assert cli.main(argv) == cli.EXIT_CONFIG


def _unwritable_out(tmp_path, where):
    return tmp_path / "missing" / "out.txt" if where == "missing folder" else tmp_path


def _assert_one_line_naming(out, capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"specklemem: configuration error: cannot write {out}: ")


@pytest.mark.parametrize("where", ["missing folder", "directory"])
def test_validate_checks_its_out_path_before_drawing(where, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_ensemble", _refuse_to_draw)
    out = _unwritable_out(tmp_path, where)
    assert cli.main(["validate", "--seed", "1", "--out", str(out)]) == cli.EXIT_CONFIG
    _assert_one_line_naming(out, capsys)


def test_validate_domain_error_exit(capsys):
    assert cli.main(["validate", "--seed", "1", "--mean-t", "2.0"]) == cli.EXIT_DOMAIN


def test_validate_domain_error_leaves_report_path_alone(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("earlier report\n")
    for out in (new, old):
        argv = ["validate", "--seed", "1", "--mean-t", "2.0", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DOMAIN
    assert not new.exists()
    assert old.read_text() == "earlier report\n"


def test_validate_draws_two_ensembles_and_counts_on_the_moment_rows(tmp_path, monkeypatch):
    built, counted = [], []
    build, estimate = cli.build_ensemble, cli.estimate_noise_correlation

    def recording_build(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    def recording_estimate(ens, state, mode="analytic_variance", **kwargs):
        if mode == "counting":
            counted.append(ens)
        return estimate(ens, state, mode, **kwargs)

    monkeypatch.setattr(cli, "build_ensemble", recording_build)
    monkeypatch.setattr(cli, "estimate_noise_correlation", recording_estimate)
    out = tmp_path / "rep.json"
    # 2,500 realizations: the counting check reads the first 2,000 of them.
    code = cli.main(_FAST_VALIDATE + ["--realizations", "2500", "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_SUITE)
    assert len(built) == 2
    (ens,) = counted
    moment = build(np.array(cli.MOMENT_GRID), 0.01, 2500, 777)
    assert ens.grid.tolist() == list(cli.COUNTING_GRID)
    assert (ens.mean_t, ens.seed) == (0.01, 777)
    assert ens.amplitudes.shape == (2000, 4)
    assert ens.amplitudes.tobytes() == moment.amplitudes[:2000, ::2].tobytes()
    assert json.loads(out.read_text())["config"]["counting_realizations"] == 2000


def test_counting_grid_is_a_subset_of_the_moment_grid():
    assert cli.COUNTING_GRID == (0.0, 1.0, 4.0, 16.0)
    assert set(cli.COUNTING_GRID) <= set(cli.MOMENT_GRID)


def test_validate_suite_failure_exit(tmp_path, monkeypatch):
    # An impossible threshold must flip the exit code but still write the report.
    monkeypatch.setattr(cli, "Z_CURVES", -1.0)
    out = tmp_path / "rep.json"
    code = cli.main(_FAST_VALIDATE + ["--out", str(out)])
    assert code == cli.EXIT_SUITE
    report = json.loads(out.read_text())
    assert report["passed"] is False


# --- sample-stats ---------------------------------------------------------------


def test_sample_stats_summary(tmp_path):
    out = tmp_path / "counts.csv"
    code = cli.main(
        [
            "sample-stats",
            "--state",
            "coherent",
            "--mean-photons",
            "10",
            "--transmission",
            "0.3",
            "--shots",
            "20000",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "shot,count"
    assert len(lines) == 1 + 20000 + 3
    summary = dict(line.split(",") for line in lines[-3:])
    counts = np.array([int(line.split(",")[1]) for line in lines[1:-3]])
    s = sm.summarize_counts(counts)
    assert float(summary["mean"]) == s.mean
    assert float(summary["variance"]) == s.variance
    assert abs(float(summary["fano"]) - 1.0) <= 5.0 * s.stderr_fano


def test_sample_stats_reproducible(tmp_path):
    argv = [
        "sample-stats", "--state", "thermal", "--mean-photons", "1",
        "--transmission", "1.0", "--shots", "500", "--seed", "3",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(argv + ["--out", str(a)])
    cli.main(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sample_stats_json(tmp_path):
    out = tmp_path / "counts.json"
    cli.main(
        [
            "sample-stats", "--state", "fock", "--mean-photons", "4",
            "--transmission", "0.5", "--shots", "100", "--seed", "9",
            "--format", "json", "--out", str(out),
        ]
    )
    payload = json.loads(out.read_text())
    assert len(payload["counts"]) == 100
    assert payload["summary"]["shots"] == 100
    assert max(payload["counts"]) <= 4


@pytest.mark.parametrize("state", ["fock", "coherent", "thermal"])
def test_sample_stats_json_summary_without_photons(state, tmp_path):
    out = tmp_path / "counts.json"
    argv = ["sample-stats", "--state", state, "--mean-photons", "0", "--shots", "10",
            "--seed", "9", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    # Every CountSummary field, with null for the Fano entries of a zero mean.
    assert json.loads(out.read_text())["summary"] == {
        "shots": 10, "mean": 0.0, "variance": 0.0, "fano": None,
        "stderr_mean": 0.0, "stderr_variance": 0.0, "stderr_fano": None,
    }


@pytest.mark.parametrize("state,mean_photons", [
    ("fock", "1e20"), ("coherent", "1e30"), ("thermal", "1e300"),
])
def test_sample_stats_rejects_counts_beyond_int64(state, mean_photons, capsys):
    argv = ["sample-stats", "--shots", "10", "--seed", "1", "--state", state,
            "--mean-photons", mean_photons]
    assert cli.main(argv) == cli.EXIT_DOMAIN
    assert "overflow int64" in capsys.readouterr().err


def test_sample_stats_needs_seed():
    assert cli.main(["sample-stats", "--state", "coherent"]) == cli.EXIT_CONFIG


# --- output paths -------------------------------------------------------------------


@pytest.mark.parametrize("where", ["missing folder", "directory"])
@pytest.mark.parametrize("argv", [
    ["curves", "fig1"],
    ["curves", "fig2", "--format", "json"],
    ["sample-stats", "--seed", "1"],
    ["sample-stats", "--seed", "1", "--format", "json"],
], ids=["curves csv", "curves json", "sample-stats csv", "sample-stats json"])
def test_unwritable_out_is_a_config_error(argv, where, tmp_path, capsys):
    out = _unwritable_out(tmp_path, where)
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    _assert_one_line_naming(out, capsys)


# --- config handling ---------------------------------------------------------------


def test_show_config_prints_resolved(capsys):
    assert cli.main(["curves", "fig1", "--grid-points", "7", "--show-config"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["grid_points"] == 7
    assert shown["command"] == "curves"
    assert shown["figure"] == "fig1"


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_points": 4, "grid_scale": "lin", "grid_min": 0.5}))
    out = tmp_path / "a.csv"
    cli.main(["curves", "fig1", "--config", str(cfg), "--out", str(out)])
    _, rows = _read_csv(out)
    assert rows.shape[0] == 5  # 4 grid points plus the prepended zero

    # Flags override the config file.
    out2 = tmp_path / "b.csv"
    cli.main(["curves", "fig1", "--config", str(cfg), "--grid-points", "6", "--out", str(out2)])
    _, rows2 = _read_csv(out2)
    assert rows2.shape[0] == 7


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    for unknown in ({"grid_pointz": 4}, {"workers": 1}, {"seed": 1}, {"mean_t": 0.01}):
        cfg.write_text(json.dumps(unknown))
        assert cli.main(["curves", "fig1", "--config", str(cfg)]) == cli.EXIT_CONFIG
    # Each command takes only the keys it reads.
    cases = [("sample-stats", {"grid_points": 4}), ("validate", {"mean_photons": 3}),
             ("validate", {"state": "fock"})]
    for argv, keys in cases:
        cfg.write_text(json.dumps(keys))
        assert cli.main([argv, "--seed", "1", "--config", str(cfg)]) == cli.EXIT_CONFIG, keys


@pytest.mark.parametrize("text", ["5", "null", '"abc"', "[1, 2]"])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["curves", "fig1", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "JSON object" in capsys.readouterr().err


def test_config_out_must_be_a_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for out in (1, True, 5, ""):
        cfg.write_text(json.dumps({"out": out}))
        assert cli.main(["curves", "fig1", "--config", str(cfg)]) == cli.EXIT_CONFIG, out
        assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit):
        cli.main(["curves", "fig1", "--out", ""])


def test_booleans_and_non_finite_numbers_are_not_option_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    for keys in ({"seed": True}, {"mean_t": True}, {"shots": False}, {"grid_max": True},
                 {"grid_max": float("inf")}, {"mean_t": float("nan")}, {"fano": [0, True]},
                 {"l_over_ell": [3, float("-inf")]}):
        cfg.write_text(json.dumps(keys))
        command = ["curves", "fig2"] if set(keys) <= {"fano", "l_over_ell"} else ["validate"]
        assert cli.main([*command, "--config", str(cfg), "--show-config"]) == cli.EXIT_CONFIG, keys
    for flags in (["--grid-max", "inf"], ["--grid-min", "nan"], ["--fano", "0,inf"]):
        with pytest.raises(SystemExit):
            cli.main(["curves", "fig1", *flags])
    with pytest.raises(SystemExit):
        cli.main(["sample-stats", "--seed", "1", "--transmission", "inf"])


def test_parser_flags_are_the_table_options():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        options = [k for k, o in cli.OPTIONS.items() if command in o.commands]
        expected = {"--" + k.replace("_", "-") for k in options} | {"--config", "--show-config"}
        assert flags == expected, command
    assert set(subparsers.choices) == {c for o in cli.OPTIONS.values() for c in o.commands}


def test_config_file_coerces_numeric_types(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_points": 4.0, "fano": [0, 2]}))
    out = tmp_path / "a.csv"
    assert cli.main(["curves", "fig2", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert rows.shape[0] == 4
    assert len(header) == 1 + 2 * 3  # two fano values, three ratios


def test_config_file_rejects_malformed_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cases = {
        "non-numeric count": json.dumps({"grid_points": "junk"}),
        "non-numeric Fano list": json.dumps({"fano": "0,abc"}),
        "invalid JSON": '{"grid_points": 4',
        "unknown grid scale": json.dumps({"grid_scale": "cubic"}),
        "null grid scale": json.dumps({"grid_scale": None}),
        "unknown format": json.dumps({"format": "xml"}),
    }
    for name, text in cases.items():
        cfg.write_text(text)
        assert cli.main(["curves", "fig1", "--config", str(cfg)]) == cli.EXIT_CONFIG, name
    cfg.write_text(json.dumps({"format": "xml"}))
    code = cli.main(["sample-stats", "--seed", "1", "--config", str(cfg)])
    assert code == cli.EXIT_CONFIG
    missing = str(tmp_path / "missing.json")
    assert cli.main(["curves", "fig1", "--config", missing]) == cli.EXIT_CONFIG
    with pytest.raises(SystemExit):  # argparse reports a bad flag value itself
        cli.main(["curves", "fig2", "--fano", "0,abc"])


def test_config_file_rejects_fractional_counts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key, value in (("grid_points", 4.5), ("realizations", 2.7), ("shots", 4.7), ("seed", 1.5)):
        cfg.write_text(json.dumps({key: value}))
        code = cli.main(["validate", "--config", str(cfg), "--show-config"])
        assert code == cli.EXIT_CONFIG, key
        assert "whole number" in capsys.readouterr().err
    cfg.write_text(json.dumps({"realizations": 3000.0, "seed": "12"}))
    assert cli.main(["validate", "--config", str(cfg), "--show-config"]) == cli.EXIT_OK
    shown = json.loads(capsys.readouterr().out)
    assert (shown["realizations"], shown["seed"]) == (3000, 12)


def test_config_file_cannot_smuggle_custom_state(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "custom"}))
    code = cli.main(["sample-stats", "--seed", "1", "--config", str(cfg)])
    assert code == cli.EXIT_CONFIG


def test_bad_grid_is_config_error():
    cases = {
        "grid-min above grid-max": ["--grid-min", "5", "--grid-max", "1"],
        "one grid point": ["--grid-points", "1"],
        "log grid from zero": ["--grid-min", "0", "--grid-scale", "log"],
        "negative Fano factor": ["--fano=0,-1"],
        # linspace(1, 1 + 2**-52, 3) repeats 1.0.
        "repeated offsets": ["--grid-scale", "lin", "--grid-min", "1",
                             "--grid-max", "1.0000000000000002", "--grid-points", "3"],
        # The span max - min would overflow a double.
        "negative grid-min": ["--grid-scale", "lin", "--grid-min=-1e308", "--grid-max", "1e308"],
    }
    for name, flags in cases.items():
        assert cli.main(["curves", "fig1", *flags]) == cli.EXIT_CONFIG, name


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "fig1.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "specklemem.cli", "curves", "fig1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
