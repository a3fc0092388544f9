import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from corgw.cli import main


# Single-chain template: one floor, one flat.
CHAIN_TEMPLATE = {
    "levels": [{"kind": "floor", "a": 1}, {"kind": "flat"}],
    "edges": [
        {"lo": "B", "hi": 0},
        {"lo": 0, "hi": 1},
        {"lo": 1, "hi": "T"},
    ],
}


def run_cli(args, **kw):
    proc = subprocess.run(
        [sys.executable, "-m", "corgw.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )
    return proc


def test_local_json_output():
    proc = run_cli(["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["delta"] == 2
    assert payload["mass"] == "24/1"
    coeffs = {(t["u"], t["v"]): (t["num"], t["den"]) for t in payload["terms"]}
    assert coeffs[(0, 0)] == (12, 1)


def test_local_table_output():
    proc = run_cli(
        ["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2", "--table"]
    )
    assert proc.returncode == 0
    assert "mass 24" in proc.stdout


@pytest.mark.parametrize("shift", [(), ("--shift", "1,4")])
def test_local_table_orders(shift, capsys):
    from test_torsion import brute_order

    assert main(["local", "--a", "2", "--w1", "6", "--n", "2", "--delta", "6",
                 "--table", *shift]) == 0
    rows = capsys.readouterr().out.splitlines()[2:-1]
    assert len(rows) == 36
    for row in rows:
        u, v, order = (int(t) for t in row.split()[:3])
        assert order == brute_order(6, u, v)


def emit_reference(x, as_json):
    """The CLI output of an element, point by point, as _emit_element wrote
    it from x.to_json_dict(), x.support and x.coefficient."""
    from corgw.projector import point_order

    mass = x.total_mass
    if as_json:
        payload = x.to_json_dict()
        payload["mass"] = f"{mass.numerator}/{mass.denominator}"
        return json.dumps(payload) + "\n"
    lines = [f"ambient torsion level delta = {x.delta}",
             f"{'u':>4} {'v':>4} {'order':>6}  coefficient"]
    lines += [f"{u:>4} {v:>4} {point_order(x.delta, u, v):>6}  {x.coefficient(u, v)}"
              for u, v in x.support]
    return "\n".join(lines + [f"mass {mass}"]) + "\n"


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 24, 36, 60])
def test_emit_element_matches_per_point_reference(delta, capsys):
    # Every class-written CLI output equals the point-by-point one, for
    # ProjectorElements and for dense elements (shifted ones included).
    import argparse

    from corgw.cli import _emit_element
    from test_torsion import per_point_reference, writer_elements

    for x in writer_elements(delta):
        dense = per_point_reference(x)
        for y in (x, dense, dense.translate(1, delta - 1)):
            for as_json in (True, False):
                _emit_element(y, argparse.Namespace(json=as_json, table=not as_json))
                want = emit_reference(dense if y is x else y, as_json)
                assert capsys.readouterr().out == want
        assert x._dense is None


def test_local_trivial_class():
    proc = run_cli(["local", "--a", "1", "--w1", "6", "--n", "2", "--delta", "3"])
    payload = json.loads(proc.stdout)
    # a=1: w1^2 theta(delta, delta): nine points of mass 4 at delta=3
    assert len(payload["terms"]) == 9
    assert all(t["num"] == 4 and t["den"] == 1 for t in payload["terms"])


def test_local_precondition_exit_2():
    proc = run_cli(["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "3"])
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_local_delta_zero_exit_2(capsys):
    for extra in ([], ["--shift", "1,1"]):
        assert main(["local", "--a", "3", "--w1", "2", "--n", "2",
                     "--delta", "0", *extra]) == 2
        assert "delta" in capsys.readouterr().err


def test_local_shift():
    proc = run_cli(
        ["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2",
         "--shift", "1,0"]
    )
    payload = json.loads(proc.stdout)
    coeffs = {(t["u"], t["v"]): t["num"] for t in payload["terms"]}
    assert coeffs[(1, 0)] == 12


def test_oracle_verify():
    proc = run_cli(["oracle-verify", "--a-max", "6", "--delta-max", "4"])
    assert proc.returncode == 0
    assert "agree exactly" in proc.stdout


def test_oracle_verify_bad_flags():
    proc = run_cli(["oracle-verify", "--a-max", "notanint", "--delta-max", "2"])
    assert proc.returncode == 2


def test_oracle_verify_empty_grid_exit_2(capsys):
    for flags in (["--a-max", "-3", "--delta-max", "2"],
                  ["--a-max", "2", "--delta-max", "0"]):
        assert main(["oracle-verify", *flags]) == 2
        err = capsys.readouterr()
        assert "agree" not in err.out and "must be >= 1" in err.err


def test_oracle_verify_reports_mismatch(monkeypatch, capsys):
    from corgw import lattice
    from corgw.torsion import GroupAlgebraElement

    oracle = lattice.oracle_local_invariant

    def off_at_one_cell(a, w1, n, delta):
        out = oracle(a, w1, n, delta)
        if (a, delta, w1, n) == (2, 2, 4, 3):
            out = out + GroupAlgebraElement.unit(delta)
        return out

    monkeypatch.setattr(lattice, "oracle_local_invariant", off_at_one_cell)
    assert main(["oracle-verify", "--a-max", "3", "--delta-max", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "MISMATCH a=2 delta=2 w1=4 n=3\n"
        "verification failed: 1 grid cells disagree\n"
    )


def test_diagrams_count():
    proc = run_cli(["diagrams", "--g", "1", "--a", "1", "--profile", "3,-3",
                    "--count"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


def test_diagrams_sum_refined():
    proc = run_cli(
        ["diagrams", "--g", "1", "--a", "1", "--profile", "3,-3", "--sum",
         "--delta", "3", "--json"]
    )
    payload = json.loads(proc.stdout)
    # 2 w^3 theta(3,3) at w=3: nine points with coefficient 54/9 = 6
    assert payload["mass"] == "54/1"
    assert all(t["num"] == 6 and t["den"] == 1 for t in payload["terms"])


def test_diagrams_sum_delta_zero_exit_2(capsys):
    assert main(["diagrams", "--g", "1", "--a", "2", "--profile", "2,-2",
                 "--sum", "--delta", "0"]) == 2
    assert "delta" in capsys.readouterr().err


def test_diagrams_delta_without_sum_exit_2(capsys):
    for mode in (["--count"], ["--list"], []):
        for flag in (["--delta", "2"], ["--json"], ["--table"]):
            assert main(["diagrams", "--g", "1", "--a", "1", "--profile",
                         "2,-2", *mode, *flag]) == 2
            err = capsys.readouterr().err
            assert "--delta" in err and flag[0] in err


def test_diagrams_list_and_empty():
    proc = run_cli(["diagrams", "--g", "1", "--a", "1", "--profile", "2,-2"])
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 2
    assert all(json.loads(l)["levels"] for l in lines)
    # genus 2 at class 1 needs a two-floor cycle: empty result set
    proc = run_cli(["diagrams", "--g", "2", "--a", "1", "--profile", "1,-1",
                    "--count"])
    assert proc.stdout.strip() == "0"
    proc = run_cli(["diagrams", "--g", "2", "--a", "1", "--profile", "1,-1",
                    "--sum", "--json"])
    assert json.loads(proc.stdout)["terms"] == []


def test_diagrams_bad_profile():
    proc = run_cli(["diagrams", "--g", "1", "--a", "1", "--profile", "2,-1",
                    "--count"])
    assert proc.returncode == 2


def test_series_csv_and_factorization():
    proc = run_cli(
        ["series", "--g", "1", "--profile", "2,-2", "--delta", "2",
         "--n-trunc", "12", "--check-factorization"]
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("a,")
    assert len(lines) == 13
    assert "exact match" in proc.stderr


# SHA-256 of the `series --check-factorization --n-trunc 4` stderr (one
# line per template plus the summary line), recorded when the templates were
# still rebuilt from the labelled diagrams of each floor count.
TEMPLATE_STDERR_DIGESTS = {
    (3, "2,-2", 2):
        "61c289d87c80994945d0ce5b79875c33cf6248e78008b49ab0594535a650e544",
    (2, "2,2,-2,-2", 2):
        "7869fa4609498c44fff40cb63d9a7706d5c2f53b9ecd308c849a564cdf34746b",
    (3, "3,3,-3,-3", 3):
        "fb7327ded129dbaeac32c9c54cd12f34ddf1d4abaf6be76e91d4f2c389f42905",
    (3, "6,-6", 6):
        "7860248b032220ae07a807b4d3f9ff3d8bca3c4b73caaa4943039ef84f1b4bdf",
}


@pytest.mark.parametrize("genus,profile,delta", list(TEMPLATE_STDERR_DIGESTS))
def test_check_factorization_stderr_pinned(genus, profile, delta):
    proc = run_cli(
        ["series", "--g", str(genus), "--profile", profile, "--delta",
         str(delta), "--n-trunc", "4", "--check-factorization"]
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stderr.encode()).hexdigest()
    assert digest == TEMPLATE_STDERR_DIGESTS[(genus, profile, delta)]


def test_series_truncation_zero():
    proc = run_cli(
        ["series", "--g", "1", "--profile", "2,-2", "--delta", "1",
         "--n-trunc", "0"]
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "a"


def test_series_check_truncation_zero_exit_2(capsys):
    assert main(["series", "--g", "1", "--profile", "2,-2", "--delta", "1",
                 "--n-trunc", "0", "--check-factorization"]) == 2
    err = capsys.readouterr().err
    assert "truncation" in err and "exact match" not in err


CHECKED_SERIES = ["series", "--g", "1", "--profile", "2,-2", "--delta", "2",
                  "--n-trunc", "6", "--check-factorization"]


def test_series_factorization_mismatch_exit_3(monkeypatch, capsys):
    # A series one unit off at q^3 fails the certificate before any CSV.
    from corgw import qseries
    from corgw.projector import ProjectorElement

    true_series = qseries.invariant_series

    def off_at_q3(genus, profile, delta, truncation):
        coeffs = list(true_series(genus, profile, delta, truncation).coeffs)
        coeffs[2] = coeffs[2] + ProjectorElement.unit(delta)
        return qseries.GASeries(delta, tuple(coeffs))

    monkeypatch.setattr(qseries, "invariant_series", off_at_q3)
    assert main(CHECKED_SERIES) == 3
    captured = capsys.readouterr()
    assert "factorization mismatch at q^3" in captured.err
    assert "exact match" not in captured.err and captured.out == ""


def test_series_check_builds_series_once(monkeypatch, capsys):
    # The checked series is the printed one: one invariant_series per job.
    from corgw import qseries

    calls = []
    true_series = qseries.invariant_series

    def counted(*args):
        calls.append(args)
        return true_series(*args)

    monkeypatch.setattr(qseries, "invariant_series", counted)
    assert main(CHECKED_SERIES) == 0
    assert len(calls) == 1
    assert "exact match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "genus, delta, needle",
    [("0", "2", "genus"), ("1", "0", "delta must be >= 1"), ("1", "3", "delta=3")],
)
def test_series_truncation_zero_checks_input(genus, delta, needle, capsys):
    # An empty series must not skip the checks: exit 2, nothing on stdout.
    assert main(["series", "--g", genus, "--profile=2,-2", "--delta", delta,
                 "--n-trunc", "0"]) == 2
    captured = capsys.readouterr()
    assert needle in captured.err and captured.out == ""


def test_series_negative_truncation_exit_2(capsys):
    assert main(["series", "--g", "1", "--profile", "2,-2", "--delta", "1",
                 "--n-trunc", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--n-trunc" in captured.err and captured.out == ""


def test_threads_flag_removed():
    proc = run_cli(
        ["--threads", "2", "series", "--g", "2", "--profile", "2,-2",
         "--delta", "2", "--n-trunc", "6"]
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: corgw")


def test_cli_import_skips_thread_pool():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, corgw.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_loads_no_layer():
    # Each subcommand imports the layers it needs when it runs, and only
    # polyfit, which parses a template, loads json.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, corgw.cli; print(sorted(m for m in sys.modules "
         "if m.startswith('corgw.') or m == 'json'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['corgw.cli']\n"


def modules_after_main(argv, watched):
    """The exit code of main(argv) in a fresh interpreter, with its stdout
    and stderr discarded, and which of the watched modules it loaded."""
    code = (
        "import contextlib, io, sys\n"
        "from corgw.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, [m for m in {watched!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.split(" ", 1)
    return int(code), loaded.strip()


ALGEBRA = ["corgw.refined", "corgw.projector", "corgw.torsion", "fractions"]


@pytest.mark.parametrize("mode,loaded", [
    ("--count", ["corgw.search"]),
    ("--list", ["corgw.search", "corgw.diagrams"]),
    ("--sum", ["corgw.projector", "corgw.search"]),
])
def test_diagrams_mode_loads_algebra_only_to_sum(mode, loaded):
    # The structure modes never touch the group algebra, so a cold job
    # skips compiling it.  The sum adds integers and loads projector only
    # to build its output, never refined, the dense torsion or fractions
    # (its mass is integral and printed as the stored int); no mode loads
    # json.  The count and the sum are read off the structure search, so
    # only the listing compiles diagrams.
    argv = ["diagrams", "--g", "2", "--a", "2", "--profile", "2,-2", mode]
    watched = ALGEBRA + ["json", "corgw.search", "corgw.diagrams"]
    assert modules_after_main(argv, watched) == (0, repr(loaded))


LOADS = ["corgw.projector", "corgw.torsion", "fractions", "decimal"]


@pytest.mark.parametrize("argv,loaded", [
    (["series", "--g", "2", "--profile", "2,-2", "--delta", "2",
      "--n-trunc", "4", "--check-factorization"], ["corgw.projector"]),
    (["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2", "--json"],
     ["corgw.projector"]),
    (["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2",
      "--shift", "1,0"], ["corgw.projector", "corgw.torsion"]),
    (["oracle-verify", "--a-max", "2", "--delta-max", "2"],
     ["corgw.projector", "corgw.torsion"]),
    (["local", "--a", "3", "--w1", "2", "--n", "2", "--delta", "2"],
     ["corgw.projector"]),
])
def test_dense_reference_and_fractions_load_only_when_used(argv, loaded):
    # The computation runs on characters (projector); the dense reference
    # (torsion) is loaded by --shift and the oracle, and fractions (with
    # decimal) only by the first Fraction: the series values, the oracle's
    # counts, the shifted values and the integral masses local prints are
    # ints.
    assert modules_after_main(argv, LOADS) == (0, repr(loaded))


@pytest.mark.parametrize("argv,loaded", [
    (["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2", "--json"], []),
    (["oracle-verify", "--a-max", "2", "--delta-max", "2"], []),
    (["series", "--g", "2", "--profile", "2,-2", "--delta", "2",
      "--n-trunc", "4", "--check-factorization"], []),
    (["polyfit", "--template", "{chain}", "--delta", "1", "--samples",
      "1,2,3,4,5,6"], ["json"]),
])
def test_only_polyfit_loads_json(argv, loaded, tmp_path):
    # JSON is written directly; the json module is loaded only to parse it.
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_TEMPLATE))
    argv = [a.format(chain=path) for a in argv]
    assert modules_after_main(argv, ["json"]) == (0, repr(loaded))


def test_polyfit_cli(tmp_path):
    template = {
        "levels": [
            {"kind": "flat"},
            {"kind": "floor", "a": 2},
            {"kind": "flat"},
            {"kind": "floor", "a": 2},
        ],
        "edges": [
            {"lo": "B", "hi": 0},
            {"lo": 0, "hi": 1},
            {"lo": 1, "hi": 2},
            {"lo": 1, "hi": 3},
            {"lo": 2, "hi": 3},
            {"lo": 3, "hi": "T"},
        ],
    }
    path = tmp_path / "template.json"
    path.write_text(json.dumps(template))
    samples = ",".join(str(w) for w in list(range(2, 25, 2)))
    proc = run_cli(
        ["polyfit", "--template", str(path), "--delta", "2",
         "--chamber", "2:0", "--samples", samples]
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] and payload["degree_bound"] == 9

    # single-chain template: exact monomial, trivial fit
    path2 = tmp_path / "chain.json"
    path2.write_text(json.dumps(CHAIN_TEMPLATE))
    proc = run_cli(
        ["polyfit", "--template", str(path2), "--delta", "1",
         "--samples", "1,2,3,4,5,6"]
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ok"]
    assert payload["coordinates"]["1"]["coeffs"] == ["0/1", "0/1", "0/1", "1/1"]


def test_polyfit_underdetermined_exit_3(tmp_path):
    template = {
        "levels": [
            {"kind": "flat"},
            {"kind": "floor", "a": 2},
            {"kind": "flat"},
            {"kind": "floor", "a": 2},
        ],
        "edges": [
            {"lo": "B", "hi": 0},
            {"lo": 0, "hi": 1},
            {"lo": 1, "hi": 2},
            {"lo": 1, "hi": 3},
            {"lo": 2, "hi": 3},
            {"lo": 3, "hi": "T"},
        ],
    }
    path = tmp_path / "template.json"
    path.write_text(json.dumps(template))
    # too few samples to pin the degree-9 polynomial: holdout must fail
    samples = ",".join(str(w) for w in list(range(4, 21, 2)) + [22, 24])
    proc = run_cli(
        ["polyfit", "--template", str(path), "--delta", "2",
         "--samples", samples]
    )
    assert proc.returncode == 3


def test_polyfit_holdout_below_one_exit_2(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_TEMPLATE))
    for k in ("0", "-1"):
        assert main(["polyfit", "--template", str(path), "--delta", "1",
                     "--samples", "1,2,3,4,5,6", "--holdout", k]) == 2
        assert "--holdout" in capsys.readouterr().err


def test_polyfit_holdout_repeating_fit_point_exit_2(capsys):
    # The last sample, 4, is held out but is also a fit node.
    path = Path(__file__).parents[1] / "perfbench/templates/second_kind_low.json"
    assert main(["polyfit", "--template", str(path), "--delta", "2",
                 "--samples", "2,4,6,4", "--holdout", "1"]) == 2
    captured = capsys.readouterr()
    assert "repeat fit samples" in captured.err and captured.out == ""


def test_polyfit_chamber_modulus_below_one_exit_2(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_TEMPLATE))
    for chamber in ("0:5", "-2:0"):
        assert main(["polyfit", "--template", str(path), "--delta", "1",
                     f"--chamber={chamber}", "--samples", "1,2,3,4,5,6"]) == 2
        assert "chamber modulus" in capsys.readouterr().err


def test_polyfit_malformed_template_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli(
        ["polyfit", "--template", str(path), "--delta", "1", "--samples",
         "1,2,3"]
    )
    assert proc.returncode == 2


def test_polyfit_deeply_nested_template_exit_2(tmp_path, capsys):
    # The JSON reader recurses once per bracket; json.dumps cannot build this.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["polyfit", "--template", str(path), "--delta", "1",
                 "--samples", "1,2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot load template: " in captured.err


def test_polyfit_wrong_shape_template_exit_2(tmp_path, capsys):
    for i, text in enumerate(("[]", '{"levels": 5, "edges": []}')):
        path = tmp_path / f"shape{i}.json"
        path.write_text(text)
        assert main(["polyfit", "--template", str(path), "--delta", "1",
                     "--samples", "1,2,3"]) == 2
        assert "cannot load template" in capsys.readouterr().err


# SHA-256 of the `polyfit` stdout for the benchmark templates at the
# criterion-9 arguments, recorded before templates were built on the
# unit-weight diagram.  Both templates fit to the same polynomials.
POLYFIT_STDOUT_DIGESTS = {
    "second_kind_low":
        "adc8314fbe539928cd52c07e19ea95bfc351db6bc08b25ae4f3e67e4e5ff5216",
    "second_kind_high":
        "adc8314fbe539928cd52c07e19ea95bfc351db6bc08b25ae4f3e67e4e5ff5216",
}


@pytest.mark.parametrize("name", list(POLYFIT_STDOUT_DIGESTS))
def test_polyfit_stdout_pinned(name):
    path = Path(__file__).parents[1] / "perfbench" / "templates" / f"{name}.json"
    proc = run_cli(
        ["polyfit", "--template", str(path), "--delta", "2", "--chamber",
         "2:0", "--samples", "2,4,6,8,10,12,14,16,18,20,22,24"]
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == POLYFIT_STDOUT_DIGESTS[name]


def _chain_with(levels=None, edges=None):
    return {
        "levels": CHAIN_TEMPLATE["levels"] if levels is None else levels,
        "edges": CHAIN_TEMPLATE["edges"] if edges is None else edges,
    }


BAD_TEMPLATES = {
    "edge to level 7": (
        _chain_with(edges=[{"lo": "B", "hi": 7}, {"lo": 0, "hi": "T"}]),
        "edge endpoint 7 out of range",
    ),
    "endpoint Q": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": 0, "hi": "Q"}]),
        "bad endpoint 'Q'",
    ),
    # Checked before the canonical sort, whose key would compare "Q" with 1.
    "endpoint Q beside a level": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": 0, "hi": "Q"},
                           {"lo": 0, "hi": 1}, {"lo": 1, "hi": "T"}]),
        "bad endpoint 'Q'",
    ),
    "bool endpoint": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": 0, "hi": True},
                           {"lo": 1, "hi": "T"}]),
        "bad endpoint True",
    ),
    # An integer endpoint is a level index: -1 and n, the positions of the
    # boundaries, enter only as "B" and "T".
    "endpoint -1": (
        _chain_with(edges=[{"lo": -1, "hi": 0}, {"lo": 0, "hi": 1},
                           {"lo": 1, "hi": "T"}]),
        "edge endpoint -1 out of range",
    ),
    "endpoint 2 of two levels": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": 0, "hi": 1},
                           {"lo": 1, "hi": 2}]),
        "edge endpoint 2 out of range",
    ),
    "edge into B": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": 0, "hi": "B"},
                           {"lo": 0, "hi": 1}, {"lo": 1, "hi": "T"}]),
        "must go strictly upward",
    ),
    "edge out of T": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": "T", "hi": 1},
                           {"lo": 0, "hi": 1}, {"lo": 1, "hi": "T"}]),
        "must go strictly upward",
    ),
    "downward edge": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": 1, "hi": 0},
                           {"lo": 1, "hi": "T"}]),
        "must go strictly upward",
    ),
    "unknown kind": (
        _chain_with(levels=[{"kind": "floor", "a": 1}, {"kind": "bogus"}]),
        "unknown level kind 'bogus'",
    ),
    "float label": (
        _chain_with(levels=[{"kind": "floor", "a": 2.5}, {"kind": "flat"}]),
        "floor label must be an integer >= 1, got 2.5",
    ),
    # A flat enters only as {"kind": "flat"}.
    "label 0": (
        _chain_with(levels=[{"kind": "floor", "a": 0}, {"kind": "flat"}]),
        "floor label must be an integer >= 1, got 0",
    ),
    "bool label": (
        _chain_with(levels=[{"kind": "floor", "a": True}, {"kind": "flat"}]),
        "floor label must be an integer >= 1, got True",
    ),
    "two ends from B": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": "B", "hi": 0},
                           {"lo": 0, "hi": 1}, {"lo": 1, "hi": "T"}]),
        "admits no weighting",
    ),
    "flat with two in-edges": (
        _chain_with(edges=[{"lo": "B", "hi": 0}, {"lo": 0, "hi": 1},
                           {"lo": 0, "hi": 1}, {"lo": 1, "hi": "T"}]),
        "flat bivalency at level 1",
    ),
    "no floor": (
        {"levels": [{"kind": "flat"}],
         "edges": [{"lo": "B", "hi": 0}, {"lo": 0, "hi": "T"}]},
        "expected genus >= 1, got 0",
    ),
    "1100-level chain": (
        _chain_with(
            levels=[{"kind": "floor", "a": 1}] + [{"kind": "flat"}] * 1099,
            edges=[{"lo": "B", "hi": 0}]
            + [{"lo": i, "hi": i + 1} for i in range(1099)]
            + [{"lo": 1099, "hi": "T"}],
        ),
        "1100 levels exceed the bound of 500",
    ),
}


@pytest.mark.parametrize("case", list(BAD_TEMPLATES))
def test_polyfit_bad_template_exit_2(case, tmp_path, capsys):
    template, message = BAD_TEMPLATES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(template))
    assert main(["polyfit", "--template", str(path), "--delta", "1",
                 "--samples", "1,2,3,4,5,6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_polyfit_negative_samples_exit_2(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_TEMPLATE))
    assert main(["polyfit", "--template", str(path), "--delta", "2",
                 "--samples=-2,-4,-6,-8,-10,-12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples must be >= 1" in captured.err


def test_polyfit_bad_samples_exit_2(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_TEMPLATE))
    assert main(["polyfit", "--template", str(path), "--delta", "1",
                 "--samples", "2,4,x"]) == 2
    assert "bad samples '2,4,x'" in capsys.readouterr().err


DEEP_PROFILE = ",".join(["1"] * 990 + ["-990"])

# argv (with {chain} for the chain template path) -> message on stderr.
BAD_ARGUMENTS = {
    "profile 2,x": (
        ["diagrams", "--g", "1", "--a", "1", "--profile", "2,x", "--count"],
        "bad profile '2,x'"),
    "deep profile count": (
        ["diagrams", "--g", "1", "--a", "1", "--profile", DEEP_PROFILE,
         "--count"], "991 levels exceed the bound of 500"),
    "deep profile sum": (
        ["diagrams", "--g", "1", "--a", "1", "--profile", DEEP_PROFILE,
         "--sum"], "991 levels exceed the bound of 500"),
    "count genus 0": (
        ["diagrams", "--g", "0", "--a", "1", "--profile", "2,-2", "--count"],
        "expected genus >= 1, got 0"),
    "count class 0": (
        ["diagrams", "--g", "1", "--a", "0", "--profile", "2,-2", "--count"],
        "expected degree >= 1, got 0"),
    "sum delta 0": (
        ["diagrams", "--g", "1", "--a", "1", "--profile=2,-2", "--sum",
         "--delta", "0"], "delta must be >= 1, got 0"),
    "series delta -1": (
        ["series", "--g", "1", "--profile=2,-2", "--delta", "-1",
         "--n-trunc", "2"], "delta must be >= 1, got -1"),
    "sum genus 0": (
        ["diagrams", "--g", "0", "--a", "1", "--profile", "2,-2", "--sum"],
        "expected genus >= 1, got 0"),
    "shift 1,x": (
        ["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2",
         "--shift", "1,x"], "bad shift '1,x'"),
    "shift 1,2,3": (
        ["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2",
         "--shift", "1,2,3"], "bad shift '1,2,3'"),
    "chamber 2": (
        ["polyfit", "--template", "{chain}", "--delta", "1", "--chamber", "2",
         "--samples", "1,2,3,4,5,6"], "bad chamber '2'"),
    "chamber residue negative": (
        ["polyfit", "--template", "{chain}", "--delta", "1",
         "--chamber=2:-2", "--samples", "2,4,6"],
        "chamber residue -2 lies outside [0, 2)"),
    "chamber residue above modulus": (
        ["polyfit", "--template", "{chain}", "--delta", "1", "--chamber",
         "2:5", "--samples", "1,3,5"], "chamber residue 5 lies outside [0, 2)"),
    "samples not above holdout": (
        ["polyfit", "--template", "{chain}", "--delta", "1", "--samples",
         "2,4", "--holdout", "2"], "need more samples than holdout points"),
    "holdout sample twice": (
        ["polyfit", "--template", "{chain}", "--delta", "1", "--samples",
         "2,4,6,8,10,12,12"], "holdout samples [12] are repeated"),
    "fit sample twice": (
        ["polyfit", "--template", "{chain}", "--delta", "1", "--samples",
         "2,2,4,6,8,10,12"], "fit samples [2] are repeated"),
    "polyfit delta 0": (
        ["polyfit", "--template", "{chain}", "--delta", "0", "--samples",
         "1,2,3,4"], "delta must be >= 1, got 0"),
    "samples off delta": (
        ["polyfit", "--template", "{chain}", "--delta", "2", "--samples",
         "1,2,3,4"], "samples [1, 3] are not multiples of delta=2"),
    "local n 1": (
        ["local", "--a", "2", "--w1", "2", "--n", "1", "--delta", "2"],
        "local_invariant expects n >= 2, got 1"),
    "local a 0": (
        ["local", "--a", "0", "--w1", "2", "--n", "2", "--delta", "2"],
        "local_invariant expects a >= 1 and w1 >= 1"),
    # Tokens are an optional sign and ASCII digits, nothing int() also reads.
    "profile underscore": (
        ["diagrams", "--g", "1", "--a", "1", "--profile", "1_0,-10", "--count"],
        "bad profile '1_0,-10'"),
    "profile spaces": (
        ["diagrams", "--g", "1", "--a", "1", "--profile", " +10,-10 ", "--count"],
        "bad profile ' +10,-10 '"),
    "shift arabic-indic digit": (
        ["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2",
         "--shift", "\u0663,1"], "bad shift '\u0663,1'"),
    "samples underscore": (
        ["polyfit", "--template", "{chain}", "--delta", "1", "--samples",
         "1,2,3,4_0"], "bad samples '1,2,3,4_0'"),
}


@pytest.mark.parametrize("case", list(BAD_ARGUMENTS))
def test_bad_arguments_exit_2(case, tmp_path, capsys):
    argv, message = BAD_ARGUMENTS[case]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_TEMPLATE))
    assert main([a.format(chain=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def call_at_depth(depth, f, *args):
    """f(*args) called depth frames below the caller, under CPython's
    default recursion limit of 1000."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return _nest(depth, f, args)
    finally:
        sys.setrecursionlimit(limit)


def _nest(depth, f, args):
    return _nest(depth - 1, f, args) if depth else f(*args)


@pytest.mark.parametrize("sign,depth", [
    pytest.param(1, 0, id="one source"),
    pytest.param(-1, 0, id="one sink"),
    pytest.param(1, 600, id="one source from 600 frames"),
    pytest.param(-1, 600, id="one sink from 600 frames"),
])
def test_profile_at_the_level_bound(sign, depth, capsys):
    # Genus 1 and MAX_LEVELS ends give exactly MAX_LEVELS levels, the most
    # the bound allows; the deep profiles above exceed it.  Both diagrams
    # have one floor: the --list of the one-source profile completes
    # MAX_LEVELS - 1 flats after it, and the search of the one-sink profile
    # passes as many before it.  The walks keep their own stacks, so the
    # bound holds from a caller 600 frames deep; the caches are emptied so
    # that each run searches.
    import corgw
    from corgw.search import MAX_LEVELS

    corgw.clear_caches()
    ends = [-sign * (MAX_LEVELS - 1)] + [sign] * (MAX_LEVELS - 1)
    argv = ["diagrams", "--g", "1", "--a", "1",
            "--profile=" + ",".join(map(str, ends))]
    assert call_at_depth(depth, main, argv + ["--count"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert call_at_depth(depth, main, argv + ["--list"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert call_at_depth(depth, main, argv + ["--sum"]) == 0


# An integer option reads an optional sign and ASCII digits only; argparse
# exits 2 and names the option.
BAD_INT_OPTIONS = [
    (["diagrams", "--g", "1_0", "--a", "1", "--profile", "10,-10", "--count"],
     "--g", "1_0"),
    (["diagrams", "--g", "1", "--a", " 1", "--profile", "10,-10", "--count"],
     "--a", " 1"),
    (["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "\u0663"],
     "--delta", "\u0663"),
    (["series", "--g", "2", "--profile", "2,-2", "--delta", "2",
      "--n-trunc", "1e1"], "--n-trunc", "1e1"),
    (["oracle-verify", "--a-max", "2", "--delta-max", "+-2"], "--delta-max", "+-2"),
]


@pytest.mark.parametrize("argv,option,value", BAD_INT_OPTIONS)
def test_bad_int_option_exit_2(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: invalid int value: {value!r}" in captured.err


def test_signed_int_options_accepted(capsys):
    # A plus sign and leading zeros are still an integer.
    assert main(["diagrams", "--g", "1", "--a", "1", "--profile", "2,-2"]) == 0
    want = capsys.readouterr().out
    assert main(["diagrams", "--g", "+1", "--a", "01", "--profile", "+2,-02"]) == 0
    assert capsys.readouterr().out == want


def test_unexpected_exception_exit_1(monkeypatch, capsys):
    from corgw import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_local", broken)
    assert main(["local", "--a", "2", "--w1", "2", "--n", "2",
                 "--delta", "2"]) == 1
    assert capsys.readouterr().err == "internal error: RuntimeError('boom')\n"


def test_json_and_table_exclusive(capsys):
    for argv in (
        ["diagrams", "--g", "1", "--a", "1", "--profile", "2,-2", "--sum"],
        ["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--json", "--table"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


def test_main_in_process():
    assert main(["diagrams", "--g", "1", "--a", "1", "--profile", "2,-2",
                 "--count"]) == 0
    assert main(["local", "--a", "2", "--w1", "2", "--n", "2", "--delta",
                 "3"]) == 2


# argv with {profile} or {shift}: the "=" form of a value with a leading
# minus sign prints what the plain form of the same value prints.
EQUALS_FORM_CASES = [
    (["diagrams", "--g", "2", "--a", "2", "{profile}", "--count"],
     ("--profile", "2,-2"), "--profile=-2,2"),
    (["diagrams", "--g", "2", "--a", "2", "{profile}"],
     ("--profile", "2,-2"), "--profile=-2,2"),
    (["diagrams", "--g", "2", "--a", "2", "{profile}", "--sum", "--delta", "2",
      "--json"], ("--profile", "2,-2"), "--profile=-2,2"),
    (["series", "--g", "2", "{profile}", "--delta", "2", "--n-trunc", "4"],
     ("--profile", "2,2,-2,-2"), "--profile=-2,-2,2,2"),
    (["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "2", "{shift}",
      "--json"], ("--shift", "1,0"), "--shift=-1,0"),
]


@pytest.mark.parametrize("argv,plain,equals", EQUALS_FORM_CASES)
def test_leading_minus_value_equals_form(argv, plain, equals, capsys):
    at = next(i for i, a in enumerate(argv) if a.startswith("{"))

    def run(value):
        return main(argv[:at] + value + argv[at + 1:])

    assert run(list(plain)) == 0
    want = capsys.readouterr().out
    assert run([equals]) == 0
    assert capsys.readouterr().out == want
    # Without "=", argparse reads the value as an option.
    with pytest.raises(SystemExit) as exc:
        run(equals.split("="))
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# One job per subcommand, an exit-2 input, an argparse error and a 2.6 MB
# output; {chain} stands for the chain template path.
ENTRY_JOBS = {
    "local": ["local", "--a", "2", "--w1", "6", "--n", "2", "--delta", "6",
              "--shift", "1,4"],
    "local table": ["local", "--a", "2", "--w1", "2", "--n", "3", "--delta",
                    "4", "--table"],
    "oracle-verify": ["oracle-verify", "--a-max", "3", "--delta-max", "2"],
    "diagrams list": ["diagrams", "--g", "2", "--a", "2", "--profile=2,-2",
                      "--list"],
    "diagrams count": ["diagrams", "--g", "3", "--a", "2",
                       "--profile=2,2,-2,-2", "--count"],
    "diagrams sum": ["diagrams", "--g", "2", "--a", "2", "--profile=2,-2",
                     "--sum", "--delta", "2"],
    "series": ["series", "--g", "2", "--profile=2,-2", "--delta", "2",
               "--n-trunc", "6", "--check-factorization"],
    "polyfit": ["polyfit", "--template", "{chain}", "--delta", "1",
                "--samples", "1,2,3,4,5,6"],
    "exit 2": ["local", "--a", "2", "--w1", "2", "--n", "2", "--delta", "3"],
    "argparse error": ["local", "--a", "x", "--w1", "2", "--n", "2",
                       "--delta", "2"],
    "large output": ["series", "--g", "2", "--profile=120,-120", "--delta",
                     "120", "--n-trunc", "12"],
}


@pytest.mark.parametrize("case", list(ENTRY_JOBS))
def test_program_entry_matches_main(case, tmp_path, capsys, monkeypatch):
    # `python -m corgw.cli` and the `corgw` console script, whose wrapper
    # is sys.exit(run()), both go through run(), which ends with os._exit;
    # their bytes and status are those of main(), which returns them and
    # never freezes the heap.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_TEMPLATE))
    argv = [a.format(chain=path) for a in ENTRY_JOBS[case]]
    script = "import sys; from corgw.cli import run; sys.exit(run())"
    procs = [
        subprocess.run([sys.executable, *entry, *argv], capture_output=True)
        for entry in (["-m", "corgw.cli"], ["-c", script])
    ]
    # Some interpreters start with objects frozen (375 on CPython 3.12.1),
    # so main must leave the count as it found it.
    frozen = gc.get_freeze_count()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    for proc in procs:
        assert proc.stdout == captured.out.encode()
        assert proc.stderr == captured.err.encode()
        assert proc.returncode == code
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv", [
    ["diagrams", "--g", "4", "--a", "4", "--profile=2,2,-2,-2", "--list"],
    ["local", "--a", "1", "--w1", "300", "--n", "2", "--delta", "300", "--json"],
    ["series", "--g", "2", "--profile=120,-120", "--delta", "120",
     "--n-trunc", "12"],
])
def test_closed_stdout_exits_pipe_status_quietly(argv):
    # Each job writes 1-4 MB, more than a pipe holds, so the reader closes
    # the pipe while the job still writes, as `| head -1` does: one line,
    # or its first 4 KB.  141 is the documented status.
    proc = subprocess.Popen(
        [sys.executable, "-m", "corgw.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline(4096)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
