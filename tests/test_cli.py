import dataclasses
import decimal
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qslbound
from qslbound import emit, verify
from qslbound.bounds import BoundCurve
from qslbound.cli import UsageError, main, parse_config
from qslbound.dynamics import SAMPLE_BLOCK, TimeGrid
from qslbound.emit import fmt, render_csv, render_svg
from qslbound.presets import PRESETS, build_preset_curves
from qslbound.scenarios import (
    EntanglementScenario,
    run_entanglement_scenario,
    run_modular_scenario,
)


def run_cli(args):
    return main(list(args))


class TestParseConfig:
    def test_reference_entanglement_run(self):
        cfg = parse_config(
            "entanglement --p 0.1 --theta 1.0 --t-max 1.0 --steps 2000 --out fig2.csv".split()
        )
        (run,) = cfg.preset.runs
        assert cfg.preset.kind == "entanglement"
        assert run.params == {"p": 0.1, "theta": 1.0, "mu3": 0.0}
        assert run.t_max == 1.0 and cfg.steps == 2000
        assert cfg.out.name == "fig2.csv"

    def test_battery_flags(self):
        cfg = parse_config("battery --omega 2 --Omega 1 --J 1".split())
        (run,) = cfg.preset.runs
        assert run.params == {"omega": 2.0, "Omega": 1.0, "J": 1.0, "mode": "collective"}

    def test_out_of_range_p_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_config("entanglement --p 1.5".split())

    def test_degenerate_p_is_usage_error(self):
        # A separable start; p = 1/2 is stationary instead, refused by the run (exit 2).
        for p in ("0", "1"):
            with pytest.raises(UsageError, match="separable"):
                parse_config(f"entanglement --p {p}".split())

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_config("entanglement --frequency 3".split())

    def test_steps_floor(self):
        with pytest.raises(UsageError):
            parse_config("modular --steps 8".split())

    def test_zero_window_rejected(self):
        with pytest.raises(UsageError):
            parse_config("modular --t-max 0".split())

    def test_preset_kind_must_match(self):
        with pytest.raises(UsageError):
            parse_config("battery --preset fig2".split())

    def test_config_file_with_flag_override(self, tmp_path):
        doc = {"p": 0.3, "theta": 2.0, "t-max": 0.5, "steps": 64}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = parse_config(["entanglement", "--config", str(path), "--p", "0.2"])
        (run,) = cfg.preset.runs
        assert run.params["p"] == 0.2  # flag wins
        assert run.params["theta"] == 2.0
        assert run.t_max == 0.5
        assert cfg.steps == 64

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config(["entanglement", "--config", str(tmp_path / "missing.json")])


class TestMainExitCodes:
    def test_usage_error_exits_1(self, capsys):
        assert run_cli(["entanglement", "--p", "1.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_successful_run_exits_0(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run_cli(
            ["entanglement", "--p", "0.1", "--theta", "1.0", "--steps", "64",
             "--t-max", "0.2", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["entanglement", "modular"])
    @pytest.mark.parametrize("flags", ["--mu3 -0.5", "--theta -1"])
    def test_negative_couplings_run_quietly(self, kind, flags, tmp_path, capsys):
        # Couplings (theta + |mu3|, |mu3|, mu3) are canonical for either sign of
        # mu3 and theta; under warnings-as-errors a warning would end the run.
        out = tmp_path / "curve.csv"
        assert run_cli([kind, *flags.split(), "--steps", "64", "--out", str(out)]) == 0
        assert out.exists()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, reason",
        [
            ("entanglement --t-max inf", "finite"),
            ("entanglement --t-max nan", "finite"),
            ("modular --theta inf", "finite"),
            ("battery --Omega nan", "finite"),
            ("modular --t-max 1e306", "t_max"),  # finite, but not its grid
            ("entanglement --p 0", "separable"),
            ("modular --p 1", "separable"),
            ("battery --t-max 5e-324", "underflows to 0"),  # finite and positive, but its step is 0
        ],
    )
    def test_bad_value_exits_1_at_parse_time(self, argv, reason, tmp_path, capsys):
        assert run_cli(argv.split() + ["--out", str(tmp_path / "curve.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qslbound: error:") and err.count("\n") == 1
        assert reason in err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("steps", [20.9, True])
    def test_non_integer_config_steps_exit_1(self, steps, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"steps": steps}))
        out = tmp_path / "curve.csv"
        assert run_cli(["modular", "--config", str(path), "--out", str(out)]) == 1
        assert "integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, doc",
        [
            ("modular", {"thetta": 3.0, "stpes": 64}),
            ("battery", {"mode": "coupled"}),
        ],
    )
    def test_unknown_config_key_exits_1(self, kind, doc, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "curve.csv"
        assert run_cli([kind, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(key in err for key in doc)
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, named",
        [('{"t-max": 0.5, "t_max": 2.0}', "t_max"), ('{"p": 0.1, "p": 0.3}', "p")],
        ids=["both-spellings", "repeated-key"],
    )
    def test_config_file_naming_a_flag_twice_exits_1(self, text, named, tmp_path, capsys):
        # Neither value may silently win.
        path = tmp_path / "run.json"
        path.write_text(text)
        out = tmp_path / "curve.csv"
        assert run_cli(["modular", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qslbound: error:") and err.count("\n") == 1
        assert f"names {named} twice" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, argv",
        [
            ({"preset": ["fig5"]}, []),
            ({"out": 5}, []),
            ({"out": ""}, []),
            ({}, ["--out", ""]),
            ({"theta": True}, []),
            ({"p": "0.3"}, []),
            ({"theta": 10**400}, []),  # an integer no float holds
        ],
        ids=["preset-list", "out-number", "out-empty", "out-flag-empty", "theta-bool", "p-string", "theta-past-float"],
    )
    def test_config_value_of_wrong_type_exits_1(self, doc, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(doc))
        assert run_cli(["modular", "--config", "run.json"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("qslbound: error:") and err.count("\n") == 1
        assert all(key in err for key in doc)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "doc, argv, named",
        [
            ({}, ["--theta", "2"], "--theta"),
            ({}, ["--t-max", "5"], "--t-max"),
            ({"p": 0.3}, [], "--p"),
        ],
        ids=["scenario-flag", "t-max-flag", "config-key"],
    )
    def test_preset_refuses_what_it_fixes(self, doc, argv, named, tmp_path, monkeypatch, capsys):
        # A preset sets the scenario and its window; a value it would
        # silently ignore is refused.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(doc))
        argv = ["modular", "--preset", "fig5", "--steps", "64", "--config", "run.json"] + argv
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("qslbound: error:") and err.count("\n") == 1
        assert named in err
        assert not list(tmp_path.glob("*.csv"))

    # 10^15 points or more exceed any 47-bit address space, so the grid's
    # allocation fails at once; smaller sizes could really be allocated.
    @pytest.mark.parametrize(
        "argv",
        [
            "modular --t-max 1e12",
            "modular --steps 1000000000000000",
            "modular --preset fig5 --steps 1000000000000000",
        ],
    )
    def test_unallocatable_grid_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(argv.split() + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslbound: failure:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_hamiltonian_exits_2(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        argv = "battery --omega 1e308 --Omega 1 --J 0 --t-max 1 --steps 16".split()
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "qslbound: failure: matrix entries must be finite\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["entanglement", "modular"])
    def test_overflowing_entanglement_hamiltonian_exits_2(self, kind, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        argv = f"{kind} --p 0.1 --theta 1e308 --mu3 1e308 --t-max 1 --steps 16".split()
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "qslbound: failure: matrix entries must be finite\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            "modular --theta 1e-6 --steps 16",
            "entanglement --theta 1e-8 --steps 16",
            "battery --Omega 0",
            "battery --Omega 1e-7",
            "entanglement --p 0.5",
            "modular --p 0.5",
            "modular --theta 0",
            "entanglement --theta 0 --mu3 0.3",
            "entanglement --p 0.4999999 --steps 64",
        ],
    )
    def test_stationary_initial_state_exits_2(self, argv, tmp_path, capsys):
        # dH^2 at or below the variance floor, where c is NaN on every sample:
        # one refusal, on the sampler's dH, whichever parameter causes it.
        out = tmp_path / "curve.csv"
        assert run_cli(argv.split() + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslbound: failure: delta_h = ") and err.count("\n") == 1
        assert "initial state is stationary" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "modular --t-max 1000 --steps 16",
            "battery --preset fig8 --steps 34",
            "modular --theta 1e200",
            "entanglement --theta 1e200",
            "battery --omega 1e200",
            "battery --Omega 1e200",
            "modular --theta 1.7e308",
        ],
    )
    def test_aliased_grid_exits_1(self, argv, tmp_path, capsys):
        # dx (E_max - E_min) >= pi: 125 for the modular run, 3.16 for fig8
        # decoupled; nothing is written, not even fig8's coupled curve.  A
        # parameter of 1e200 is refused the same way, before H's moments
        # could overflow, and so is a spread E_max - E_min past the float
        # range (warnings are errors here).
        out = tmp_path / "curve.csv"
        assert run_cli(argv.split() + ["--out", str(out), "--format", "csv+svg"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert captured.err.startswith("qslbound: error: the grid aliases the spectrum")
        assert captured.err.count("\n") == 1

    def test_fig8_runs_at_36_steps(self, tmp_path, capsys):
        # Two steps past the refused 34: fig8 decoupled at dx (E_max - E_min) = 2.98 < pi.
        out = tmp_path / "fig8.csv"
        assert run_cli(["battery", "--preset", "fig8", "--steps", "36", "--out", str(out)]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["fig8_coupled.csv", "fig8_decoupled.csv"]

    @pytest.mark.parametrize("argv", ["modular --the 2", "verify --st 64"])
    def test_flag_prefix_exits_1(self, argv, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(argv.split() + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["1", "8"])
    def test_verify_steps_below_floor_exit_1(self, steps, capsys):
        assert run_cli(["verify", "--steps", steps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no check ran
        assert "--steps must be >= 16" in captured.err

    @pytest.mark.parametrize("argv", ["entanglement --steps 16", "modular --preset fig6 --steps 16"])
    def test_svg_out_path_with_csv_and_svg_exits_1(self, argv, tmp_path, monkeypatch, capsys):
        # Each CSV keeps the suffix of --out, so its SVG would overwrite it.
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv.split() + ["--format", "csv+svg", "--out", "curve.svg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qslbound: error:") and err.count("\n") == 1
        assert "curve.svg" in err
        assert not list(tmp_path.iterdir())

    def test_unwritable_path_exits_2(self, tmp_path):
        target = tmp_path / "no-such-dir" / "curve.csv"
        code = run_cli(
            ["modular", "--p", "0.1", "--steps", "64", "--t-max", "0.2",
             "--out", str(target)]
        )
        assert code == 2


def decimal_g17(v, rounding):
    """'%.17g' % v from the exact decimal value of v, rounded to 17 digits
    by ``rounding``: an oracle that shares nothing with render_csv."""
    d = decimal.Decimal(v)
    if not d.is_finite() or not d:
        return "%.17g" % v
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 800, rounding  # a double has at most 767 digits
        exp = d.adjusted()
        n = int(abs(d).scaleb(16 - exp).quantize(decimal.Decimal(1)))
    if n == 10**17:
        n, exp = 10**16, exp + 1
    digits = str(n).rstrip("0")
    sign = "-" if d.is_signed() else ""
    if exp < -4 or exp >= 17:
        return f"{sign}{digits[0]}{'.' * (len(digits) > 1)}{digits[1:]}e{exp:+03d}"
    if exp < 0:
        return f"{sign}0.{'0' * (-exp - 1)}{digits}"
    whole, frac = digits[: exp + 1].ljust(exp + 1, "0"), digits[exp + 1 :]
    return f"{sign}{whole}{'.' * bool(frac)}{frac}"


def kept_digits(text):
    """The significant digits a '%.17g' text keeps, trailing zeros gone."""
    return len(text.lstrip("-").partition("e")[0].replace(".", "").strip("0"))


def kept_digit_floats():
    """Floats whose '%.17g' keeps each count of digits from 1 to 17, as
    (fixed, exponent) notation.  Fixed notation, the kernel's, takes
    k = -4..14 wherever an exact value D * 10**e keeps that many digits: an
    integer, or for e < 0 m / 2**-e with D = 5**-e * m and m odd.  Exponent
    notation, the '%.17g' fallback's below 1e-4, takes k = -11..-5 and the
    first decimal D * 10**e, if any, that '%.17g' writes with as many digits
    as D."""
    fixed, exponent = [], []
    for kept in range(1, 18):
        for k in range(-4, 15):
            e = k - kept + 1
            if e >= 0:
                fixed.append(float(int("7" * kept) * 10**e))
            else:
                m = -(-(10 ** (kept - 1)) // 5**-e) | 1  # the least odd m with D >= 10**(kept - 1)
                if 5**-e * m < 10**kept:
                    fixed.append(m / 2**-e)
        for k in range(-11, -4):
            e = k - kept + 1
            candidates = (float(f"{d}e{e}") for d in range(10 ** (kept - 1), 10**kept) if d % 10)
            exponent += itertools.islice((v for v in candidates if kept_digits(fmt(v)) == kept), 1)
    return np.array(fixed), np.array(exponent)


# Any float, with more weight on the kernel's range (both signs), its edges
# and exact ties n/1024.
ANY_FLOAT = (
    st.floats()
    | st.floats(1e-12, 1e17)
    | st.floats(-1e17, -1e-12)
    | st.sampled_from(verify._KERNEL_EDGES.tolist())
    | st.integers(-(2**53), 2**53).map(lambda n: n / 1024)
)


def polyline_points(svg):
    """The point lists of an SVG's polylines, in drawing order."""
    return [points.split() for points in re.findall(r'<polyline [^>]*points="([^"]*)"', svg)]


def ties_up_points(xy):
    """A wrong SVG point kernel: it rounds exact ties away from zero."""
    def cents(v):
        return str(decimal.Decimal(v).quantize(decimal.Decimal("0.01"), decimal.ROUND_HALF_UP))

    return " ".join(f"{cents(x)},{cents(y)}" for x, y in xy.tolist())


def fig8_coupled():
    return next(c for label, _, c in build_preset_curves(PRESETS["fig8"], None) if label == "coupled")


def oscillating_curve():
    """Bounds that turn around inside most pixel columns (about 5.8 samples
    per column): in 968 of the 1,042 columns of the two bounds, the lowest
    or highest sample is neither the first nor the last."""
    grid = TimeGrid(1.0, 3000)
    ts = grid.points
    t_qslo = 0.4 + 0.3 * np.sin(2400.0 * ts) * np.cos(37.0 * ts)
    zeros = np.zeros_like(ts)
    return BoundCurve(grid, t_qslo, t_qslo + 0.1 + 0.05 * np.sin(1700.0 * ts), zeros, zeros, (), 0.0)


class TestEmission:
    def small_curve(self):
        scn = EntanglementScenario(p=0.1, theta=1.0, grid=TimeGrid(0.5, 64))
        return run_entanglement_scenario(scn)

    def test_csv_layout(self):
        curve = self.small_curve()
        text = render_csv(curve, [("scenario", "entanglement"), ("p", "0.1")])
        lines = text.splitlines()
        assert lines[0] == "# scenario: entanglement"
        assert lines[2] == "T,mean_value,t_qslo,t_sqslo,r_bar,warnings_count"
        assert len(lines) == 3 + curve.grid.points.size
        first = lines[3].split(",")
        assert first[0] == "0"
        assert int(first[5]) == len([t for t, _ in curve.warnings if t <= 0.0])

    def test_csv_floats_roundtrip(self):
        curve = self.small_curve()
        text = render_csv(curve, [])
        row = text.splitlines()[10].split(",")
        k = 9
        assert float(row[2]) == curve.t_qslo[k]
        assert float(row[3]) == curve.t_sqslo[k]

    @pytest.mark.parametrize(
        "case", ["partial-last-block", "warnings-after-zero", "edge-floats", "kernel-edges", "six-digit-count"]
    )
    def test_csv_matches_a_field_by_field_render(self, case):
        # A grid of 2 * SAMPLE_BLOCK + 1 points ends in a one-row block.
        grid = TimeGrid(1.0, 2 * SAMPLE_BLOCK)
        curve = run_modular_scenario(EntanglementScenario(p=0.1, theta=1.0, grid=grid))
        if case == "warnings-after-zero":
            ts = grid.points
            warnings = ((0.0, "a"), (ts[5], "b"), ((ts[7] + ts[8]) / 2, "c"), (ts[-1], "d"))
            curve = dataclasses.replace(curve, warnings=warnings)
        elif case == "edge-floats":
            columns = {
                name: getattr(curve, name).copy()
                for name in ("mean_values", "t_qslo", "t_sqslo", "r_bar")
            }
            for name, value in zip(columns, (-0.0, 5e-324, 1e300, 0.1 + 0.2)):
                columns[name][SAMPLE_BLOCK] = value
            columns["r_bar"][SAMPLE_BLOCK + 1] = np.nan
            curve = dataclasses.replace(curve, **columns)
        elif case == "six-digit-count":
            curve = dataclasses.replace(curve, warnings=((0.0, "w"),) * 123456)
        # The kernels' edge probes are checked with any curves, and alone.
        assert verify._emit_mismatches([] if case == "kernel-edges" else [curve]) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[ANY_FLOAT] * 5), min_size=1, max_size=32), st.sampled_from(verify._EDGE_COUNTS))
    def test_csv_of_any_floats_matches_a_field_by_field_render(self, rows, count):
        values = np.array(rows)
        curve = verify._curve_of(values.T, ((-np.inf, "w"),) * count)  # each row's warnings_count is count
        assert render_csv(curve, []).partition("\n")[2] == verify._rows_by_field(curve)

    def test_csv_keeps_every_count_of_digits(self):
        # The kernel drops trailing zeros per 4-digit group of N: each kept
        # count from 1 to 17, both signs, in fixed notation, and in the
        # exponent notation that the '%.17g' fallback writes.
        fixed, exponent = kept_digit_floats()
        for values, notation in ((fixed, False), (exponent, True)):
            assert sorted({kept_digits(fmt(v)) for v in values}) == list(range(1, 18))
            assert {"e" in fmt(v) for v in values} == {notation}
        edges = np.concatenate((fixed, exponent, -fixed, -exponent))
        curve = verify._curve_of([np.roll(edges, shift) for shift in range(5)])
        assert render_csv(curve, []).partition("\n")[2] == verify._rows_by_field(curve)

    def test_the_decimal_oracle_is_python_formatting(self):
        values = np.concatenate((verify._KERNEL_EDGES, -verify._KERNEL_EDGES, np.random.default_rng(5).random(200)))
        assert [decimal_g17(v, decimal.ROUND_HALF_EVEN) for v in values.tolist()] == [
            fmt(v) for v in values
        ]

    def test_svg_is_self_contained(self):
        curve = self.small_curve()
        svg = render_svg(curve, "demo")
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "href" not in svg  # no external assets

    @pytest.mark.parametrize("make", [fig8_coupled, oscillating_curve], ids=["fig8-coupled", "oscillating"])
    def test_svg_bounds_keep_each_pixel_columns_envelope(self, make):
        curve = make()
        svg = render_svg(curve, "demo")
        diagonal, *bounds = polyline_points(svg)
        assert len(diagonal) == 2
        # Pixel x of every sample, from the plot frame the SVG draws.
        left, width = map(float, re.search(r'<rect x="([\d.]+)" y="[\d.]+" width="([\d.]+)"', svg).groups())
        ts = curve.grid.points
        x = left + width * ts / ts[-1]
        sample_at = {f"{v:.2f}": k for k, v in enumerate(x)}
        assert len(sample_at) == ts.size  # each point names its sample
        column = np.floor(x)
        for points, values in zip(bounds, (curve.t_qslo, curve.t_sqslo)):
            xs = [point.split(",")[0] for point in points]
            assert all(a <= b for a, b in zip(map(float, xs), map(float, xs[1:])))
            kept = np.array([sample_at[label] for label in xs])
            for c in np.unique(column):
                members = np.flatnonzero(column == c)
                mine = kept[column[kept] == c]
                assert members[0] in mine and members[-1] in mine
                assert values[mine].min() == values[members].min()
                assert values[mine].max() == values[members].max()

    @pytest.mark.parametrize("bound", ["t_qslo", "t_sqslo"])
    def test_svg_of_a_non_finite_bound_renders(self, bound):
        # NaN never equals a column's reduced minimum or maximum.  The y range
        # comes from the finite bound values and the polylines skip the rest;
        # an infinite t_qslo below t_sqslo is -inf.
        curve = oscillating_curve()
        for value in (np.nan, np.inf):
            values = getattr(curve, bound).copy()
            values[1001] = value if bound == "t_sqslo" else -value
            svg = render_svg(dataclasses.replace(curve, **{bound: values}), "demo")
            assert len(polyline_points(svg)[0]) == 2
            assert not re.search(r"nan|inf", svg, re.IGNORECASE)

    def test_svg_points_match_a_field_by_field_render(self):
        curves = [c for p in PRESETS.values() for _, _, c in build_preset_curves(p, None)]
        assert len(curves) == 12
        drawn = [polyline_points(render_svg(c, "demo")) for c in curves]
        assert sum(map(len, drawn)) == 36
        assert drawn == [[verify._points_by_field(xy).split() for xy in emit._polylines(c)] for c in curves]

    def test_the_csv_kernel_writes_nearly_every_preset_field(self, monkeypatch):
        # A kernel that certifies nothing still writes every byte right, through
        # the '%.17g' fallback, so only its share of the fields shows it.  The
        # fallback is the one tolist call in _float_text: count what it is handed.
        class Counted(np.ndarray):
            fallback = 0

            def tolist(self):
                Counted.fallback += self.size
                return super().tolist()

        kernel = emit._float_text
        monkeypatch.setattr(emit, "_float_text", lambda x: kernel(x.view(Counted)))
        curves = [c for p in PRESETS.values() for _, _, c in build_preset_curves(p, None)]
        for curve in curves:
            render_csv(curve, [])
        fields = 5 * sum(c.grid.points.size for c in curves)
        assert len(curves) == 12 and fields > 200_000
        assert Counted.fallback <= 0.01 * fields

    def test_a_point_kernel_that_rounds_ties_up_is_caught(self, monkeypatch):
        monkeypatch.setattr(emit, "_points", ties_up_points)
        assert verify._emit_mismatches([]) == ["SVG points differ from a '%.2f,%.2f' join"]

    def test_column_envelope_matches_a_per_column_reference(self):
        # Columns from one sample to a few dozen, extremes repeated (the
        # first must win) and NaNs inside otherwise finite columns.
        rng = np.random.default_rng(19)
        cases = [([0.1, 0.5, 0.9, 1.2, 2.0, 2.5, 2.7, 2.9, 3.3], [1, 0, 0, 5, 2, np.nan, 7, 1, 4])]
        for _ in range(200):
            n = int(rng.integers(1, 300))
            x = np.sort(rng.uniform(0.0, rng.uniform(1.0, 100.0), n))
            y = rng.integers(0, 3, n).astype(float)
            y[rng.random(n) < 0.02] = np.nan
            cases.append((x, y))
        for x, y in cases:
            x, y = np.asarray(x, float), np.asarray(y, float)
            assert emit._column_envelope(x, y).tolist() == verify._envelope_by_column(x, y)
        assert emit._column_envelope(*map(np.asarray, cases[0])).tolist() == [0, 1, 2, 3, 4, 7, 8]

    def test_determinism_through_cli(self, tmp_path):
        args = ["battery", "--omega", "2", "--Omega", "1", "--J", "1",
                "--steps", "64", "--t-max", "0.5"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_back_to_back_calls_write_what_lone_calls_write(self, tmp_path, monkeypatch, capsys):
        # One process runs the calls in turn; each lone call gets a process of
        # its own.  Exit codes, stdout, stderr and every file must agree.
        calls = (
            ["battery", "--J", "0", "--steps", "64", "--out", "j0.csv"],
            ["modular", "--config", "run.json", "--out", "bad.csv"],
            ["modular", "--preset", "fig5", "--format", "csv+svg", "--out", "fig5.csv"],
        )
        for where in ("together", "alone"):
            (tmp_path / where).mkdir()
            (tmp_path / where / "run.json").write_text(json.dumps({"thetta": 1.0}))
        monkeypatch.chdir(tmp_path / "together")
        together = []
        for argv in calls:
            code = run_cli(argv)
            together.append((code, *capsys.readouterr()))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(qslbound.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        ))
        alone = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "qslbound.cli", *argv], cwd=tmp_path / "alone",
                                  env=env, capture_output=True, text=True, timeout=120)
            alone.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in together] == [0, 1, 0]
        assert together == alone
        files = [{f.name: f.read_bytes() for f in (tmp_path / where).iterdir()}
                 for where in ("together", "alone")]
        assert sorted(files[0]) == ["fig5.csv", "fig5.svg", "j0.csv", "run.json"]
        assert files[0] == files[1]

    def test_every_preset_is_byte_identical_across_runs(self, tmp_path):
        for attempt in ("one", "two"):
            (tmp_path / attempt).mkdir()
            for name, preset in PRESETS.items():
                out = tmp_path / attempt / f"{name}.csv"
                argv = [preset.kind, "--preset", name, "--out", str(out), "--format", "csv+svg"]
                assert run_cli(argv) == 0
        one, two = (
            {f.name: f.read_bytes() for f in (tmp_path / attempt).iterdir()}
            for attempt in ("one", "two")
        )
        assert len(one) == 24
        assert one == two

    def test_svg_written_when_requested(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(
            ["entanglement", "--p", "0.1", "--steps", "64", "--t-max", "0.2",
             "--out", str(out), "--format", "csv+svg"]
        )
        assert code == 0
        assert out.with_suffix(".svg").exists()

    def test_preset_emits_labeled_files(self, tmp_path):
        out = tmp_path / "fig6.csv"
        code = run_cli(["modular", "--preset", "fig6", "--steps", "64", "--out", str(out)])
        assert code == 0
        assert (tmp_path / "fig6_theta0.5.csv").exists()
        assert (tmp_path / "fig6_theta1.csv").exists()


# The `#` header of every preset file at default resolution and of plain runs
# at 64 steps: every key and value in order, except the value of quad_error.
# fig7 and fig8 write every 2nd and 10th sample of their quadrature grids.
PINNED_HEADERS = {
    "fig2.csv": "scenario: entanglement; mu3: 0.0; p: 0.1; theta: 1.0; t_max: 1; steps: 2000; warnings: 0; quadrature_steps: 2000",
    "fig3_theta0.5.csv": "scenario: entanglement; curve: theta0.5; mu3: 0.0; p: 0.1; theta: 0.5; t_max: 1; steps: 2000; warnings: 0; quadrature_steps: 2000",
    "fig3_theta1.csv": "scenario: entanglement; curve: theta1; mu3: 0.0; p: 0.1; theta: 1.0; t_max: 1; steps: 2000; warnings: 0; quadrature_steps: 2000",
    "fig3_theta1.5.csv": "scenario: entanglement; curve: theta1.5; mu3: 0.0; p: 0.1; theta: 1.5; t_max: 1; steps: 2000; warnings: 0; quadrature_steps: 2000",
    "fig3_theta2.csv": "scenario: entanglement; curve: theta2; mu3: 0.0; p: 0.1; theta: 2.0; t_max: 1; steps: 2000; warnings: 0; quadrature_steps: 2000",
    "fig5.csv": "scenario: modular; mu3: 0.0; p: 0.1; theta: 1.0; t_max: 1; steps: 2000; warnings: 1; quadrature_steps: 2000",
    "fig6_theta0.5.csv": "scenario: modular; curve: theta0.5; mu3: 0.0; p: 0.1; theta: 0.5; t_max: 1; steps: 2000; warnings: 1; quadrature_steps: 2000",
    "fig6_theta1.csv": "scenario: modular; curve: theta1; mu3: 0.0; p: 0.1; theta: 1.0; t_max: 1; steps: 2000; warnings: 1; quadrature_steps: 2000",
    "fig7_coupled.csv": "scenario: battery; curve: coupled; J: 1.0; Omega: 1.0; mode: coupled; omega: 2.0; t_max: 2; steps: 2000; warnings: 1; quadrature_steps: 4000",
    "fig7_decoupled.csv": "scenario: battery; curve: decoupled; J: 1.0; Omega: 4.0; mode: decoupled; omega: 2.0; t_max: 2; steps: 2000; warnings: 1; quadrature_steps: 4000",
    "fig8_coupled.csv": "scenario: battery; curve: coupled; J: 1.0; Omega: 1.0; mode: coupled; omega: 2.0; t_max: 6; steps: 1200; warnings: 1; quadrature_steps: 12000",
    "fig8_decoupled.csv": "scenario: battery; curve: decoupled; J: 1.0; Omega: 4.0; mode: decoupled; omega: 2.0; t_max: 6; steps: 1200; warnings: 1; quadrature_steps: 12000",
    "entanglement.csv": "scenario: entanglement; mu3: 0.0; p: 0.1; theta: 1.0; t_max: 1; steps: 64; warnings: 0; quadrature_steps: 64",
    "modular.csv": "scenario: modular; mu3: 0.0; p: 0.1; theta: 1.0; t_max: 1; steps: 64; warnings: 1; quadrature_steps: 64",
    "battery.csv": "scenario: battery; J: 1.0; Omega: 1.0; mode: collective; omega: 2.0; t_max: 1; steps: 64; warnings: 1; quadrature_steps: 64",
    "battery_j0.csv": "scenario: battery; J: 0.0; Omega: 1.0; mode: parallel; omega: 2.0; t_max: 1; steps: 64; warnings: 1; quadrature_steps: 64",
}


def test_csv_headers_are_pinned(tmp_path):
    for name, preset in PRESETS.items():
        assert run_cli([preset.kind, "--preset", name, "--out", str(tmp_path / f"{name}.csv")]) == 0
    for out, argv in (
        ("entanglement", ["entanglement"]),
        ("modular", ["modular"]),
        ("battery", ["battery"]),
        ("battery_j0", ["battery", "--J", "0"]),
    ):
        assert run_cli(argv + ["--steps", "64", "--out", str(tmp_path / f"{out}.csv")]) == 0
    headers = {}
    for path in tmp_path.iterdir():
        lines = [line[2:] for line in path.read_text().splitlines() if line.startswith("# ")]
        assert lines[-2].startswith("quad_error: ")
        headers[path.name] = "; ".join(lines[:-2] + lines[-1:])
    assert headers == PINNED_HEADERS


def _rows_and_header(path):
    lines = path.read_text().splitlines(keepends=True)
    header = dict(line[2:].rstrip("\n").split(": ", 1) for line in lines if line.startswith("# "))
    return [line for line in lines if not line.startswith("# ")], header


@pytest.mark.parametrize(
    "argv, n_steps, stride, curves",
    [
        ("battery --preset fig7", 4000, 2, ("run_coupled", "run_decoupled")),
        ("battery --preset fig8", 12000, 10, ("run_coupled", "run_decoupled")),
        # TimeGrid(3.3, 1100).points differs from these written points in 986 last bits.
        ("modular --t-max 3.3", 6600, 6, ("run",)),
    ],
    ids=["fig7", "fig8", "modular-t3.3"],
)
def test_the_default_grid_writes_every_stride_th_row_of_an_explicit_run(argv, n_steps, stride, curves, tmp_path):
    for grid, steps in (("default", []), ("explicit", ["--steps", str(n_steps)])):
        (tmp_path / grid).mkdir()
        out = tmp_path / grid / "run.csv"
        assert run_cli([*argv.split(), *steps, "--format", "csv+svg", "--out", str(out)]) == 0
    for curve in curves:
        rows, header = _rows_and_header(tmp_path / "default" / f"{curve}.csv")
        every, explicit = _rows_and_header(tmp_path / "explicit" / f"{curve}.csv")
        assert len(every) == n_steps + 2 and len(rows) == n_steps // stride + 2
        assert rows[0] == every[0] and rows[1:] == every[1::stride]
        assert (header["steps"], header["quadrature_steps"]) == (str(n_steps // stride), str(n_steps))
        assert {**header, "steps": str(n_steps)} == explicit
        svg = f"{curve}.svg"
        assert (tmp_path / "default" / svg).read_bytes() == (tmp_path / "explicit" / svg).read_bytes()


def test_unit_window_presets_write_every_row_on_the_default_grid(tmp_path):
    for name in ("fig2", "fig3", "fig5", "fig6"):
        kind = PRESETS[name].kind
        for grid, steps in (("default", []), ("explicit", ["--steps", "2000"])):
            (tmp_path / grid).mkdir(exist_ok=True)
            assert run_cli([kind, "--preset", name, *steps, "--out", str(tmp_path / grid / f"{name}.csv")]) == 0
    default = {f.name: f.read_bytes() for f in (tmp_path / "default").iterdir()}
    assert len(default) == 8
    assert default == {f.name: f.read_bytes() for f in (tmp_path / "explicit").iterdir()}


@pytest.mark.parametrize(
    "n_steps, stride",
    [(16, 1), (1040, 1), (2000, 1), (2078, 1), (2080, 2), (2098, 2), (3120, 3), (4000, 2), (12000, 10)],
)
def test_csv_stride_keeps_two_rows_per_plot_pixel(n_steps, stride):
    assert emit._csv_stride(n_steps) == stride
    # 1,040 = two per pixel column of the SVG's 520-px plot.
    assert n_steps % stride == 0 and n_steps // stride >= min(n_steps, 1040)
    assert emit._FRAME[0] - 2 * emit._FRAME[2] == 520


class TestVerifyCommand:
    def test_verify_passes_and_writes_report(self, tmp_path, capsys):
        outputs = []
        for run in range(2):
            report = tmp_path / f"report{run}.json"
            assert run_cli(["verify", "--steps", "200", "--out", str(report)]) == 0
            outputs.append(capsys.readouterr().out)
        captured = outputs[0]
        assert outputs[1] == captured  # the report's timings stay off stdout
        assert "PASS" in captured
        assert "KNOWN-DISCREPANCY" in captured  # recorded decoupled form
        payload = json.loads(report.read_text())
        assert len(payload) == len(captured.splitlines()) - 1
        assert any(item["status"] == "known-discrepancy" for item in payload)
        assert not any(item["status"] == "fail" for item in payload)
        assert all(isinstance(item["seconds"], float) and item["seconds"] >= 0.0 for item in payload)

    def test_commutator_mutation_is_detected(self, monkeypatch, tmp_path):
        # A sign error turning [A, B] into {A, B} must break the invariant
        # suite (saturation collapses, closed forms stop matching).
        import qslbound.dynamics as dynamics
        from qslbound.verify import run_verify

        monkeypatch.setattr(dynamics, "commutator", lambda a, b: a @ b + b @ a)
        results = run_verify(n_steps=64)
        failed = {r.name for r in results if r.status == "fail"}
        assert failed, "mutation must be caught by at least one check"
        assert any(
            name.startswith(("speed-limits", "scenarios", "dynamics")) for name in failed
        )

    @pytest.mark.parametrize("mutant", ["ties-up", "zero-without-fallback", "count-fallback"])
    def test_determinism_check_catches_a_wrong_csv_kernel(self, mutant, monkeypatch, capsys):
        # Kernels wrong the same way on every run: one rounds exact 17-digit
        # ties away from zero, one writes zeros itself and loses -0.0's sign,
        # one writes each integer of 10**4 or more one too high, as in a
        # warnings_count of 10**4 or more.
        kernel = emit._float_text

        def ties_up(x):
            texts = [decimal_g17(v, decimal.ROUND_HALF_UP) for v in x.tolist()]
            return np.array(texts, "S24").view(np.uint8).reshape(-1, 24)

        def zero_without_fallback(x):
            text = kernel(x)
            text[x == 0] = np.frombuffer(b"0".ljust(24, b"\0"), np.uint8)
            return text

        name, wrong = {
            "ties-up": ("_float_text", ties_up),
            "zero-without-fallback": ("_float_text", zero_without_fallback),
            "count-fallback": ("_float_text", lambda x: kernel(np.where((x >= 10**4) & (x == np.floor(x)), x + 1, x))),
        }[mutant]
        monkeypatch.setattr(emit, name, wrong)
        assert verify._emit_mismatches([]) == ["byte-identical render, differs from a field-by-field one"]
        check = next(check for check in verify.CHECKS if check.name == "cli/determinism")
        result = verify.run_check(check, verify.RunContext(64))
        assert result.status == "fail"
        assert result.detail == "byte-identical render, differs from a field-by-field one"
        assert run_cli(["verify", "--steps", "64"]) == 2
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and "cli/determinism" in failed[0]

    @pytest.mark.parametrize("mutant", ["ties-up-points", "last-tied-extreme"])
    def test_determinism_check_catches_a_wrong_svg_kernel(self, mutant, monkeypatch, capsys):
        # A point kernel that rounds exact '%.2f' ties away from zero, and an
        # envelope that keeps each column's last lowest and highest sample
        # where the extremes tie.  No other check draws an SVG.
        envelope = emit._column_envelope

        def last_tied_extreme(x, y):
            # The first tied extreme of the reversed run is the run's last;
            # reversed columns -floor(x) keep the pixel columns of x.
            return (x.size - 1 - envelope(-np.floor(x)[::-1], y[::-1]))[::-1]

        name, wrong = {
            "ties-up-points": ("_points", ties_up_points),
            "last-tied-extreme": ("_column_envelope", last_tied_extreme),
        }[mutant]
        monkeypatch.setattr(emit, name, wrong)
        assert run_cli(["verify", "--steps", "64"]) == 2
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and "cli/determinism" in failed[0] and "SVG" in failed[0]
