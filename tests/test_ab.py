"""The comparison tables of tools/ab.py, on small synthetic dumps and rounds."""

import importlib.util
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _rows(text):
    """{first cell: the other cells} of each line of a printed table."""
    return {line.split()[0]: line.split()[1:] for line in text.splitlines() if line.strip()}


def test_route_report_counts_equal_arrays_and_iterations(capsys):
    old = {"svd/w0.0/7/0": np.array([1.0, 2.0]), "svd/w0.0/7/1": np.array([3.0, 4.0]),
           "hh-qr/w0.0/7/0": np.array([1.0, 2.0]), "hh-qr/w0.0/7/1": np.array([3.0, 4.0]),
           "iterations:svd(h)/7/0": np.array(5), "iterations:svd(h)/7/1": np.array(6)}
    new = dict(old, **{"svd/w0.0/7/1": np.array([3.0, 4.5]),
                       "iterations:svd(h)/7/1": np.array(7)})
    ab.report_routes(old, new, {})
    rows = _rows(capsys.readouterr().out)
    # svd's second array moved by 0.5 against a norm of 5, and so moved
    # that far from hh-qr's, which did not change; OLD's svd was hh-qr's.
    assert rows["svd"] == ["1/2", "1.00e-01", "0.00e+00", "1.00e-01"]
    assert rows["hh-qr"] == ["2/2", "0.00e+00", "0.00e+00", "0.00e+00"]
    assert rows["svd(h)"] == ["1/2"]


def test_route_report_gives_each_ridges_worst_forward_error(capsys):
    oracle = {"w0.0/7/0": np.array([3.0, 4.0]), "w0.0/7/1": np.array([0.0, 1.0]),
              "w0.1/7/0": np.array([0.0, 2.0])}
    old = {"svd/w0.0/7/0": np.array([3.0, 4.0]), "svd/w0.0/7/1": np.array([0.0, 1.01]),
           "svd/w0.1/7/0": np.array([0.0, 2.0]), "svd/hat0.1/7/0": np.array([9.0])}
    old.update({"hh-qr" + k[3:]: v for k, v in old.items()})
    new = dict(old, **{"svd/w0.0/7/0": np.array([3.0, 4.5]),
                       "svd/w0.1/7/0": np.array([0.0, 2.002])})
    ab.report_routes(old, new, oracle)
    rows = _rows(capsys.readouterr().out)
    # At ridge 0 OLD's worst is fold 1's 0.01 over 1, NEW's fold 0's 0.5
    # over 5; at ridge 0.1 NEW is 0.002 over 2 away. Leverage arrays have
    # no oracle.
    assert rows["svd"][-4:] == ["1.00e-02", "1.00e-01", "0.00e+00", "1.00e-03"]
    assert rows["hh-qr"][-4:] == ["1.00e-02", "1.00e-02", "0.00e+00", "0.00e+00"]


def test_time_report_gives_the_median_ratio_and_the_wins(capsys):
    old = [{"lu_decompose(G)": s} for s in (1e-3, 2e-3, 3e-3)]
    new = [{"lu_decompose(G)": s} for s in (1.5e-3, 1e-3, 1.5e-3)]
    ab.report_times(old, new)
    cells = _rows(capsys.readouterr().out)["lu_decompose(G)"]
    # Medians 2 and 1.5 ms; NEW was faster in the second and third rounds.
    assert (cells[0], cells[4]) == ("2.000", "1.500")
    assert cells[-2:] == ["0.750", "2/3"]


def test_orthogonality_report_gives_each_layer_for_both_checkouts(capsys):
    ab.report_orthogonality({"792x780": 1.25e-11, "5000x500": 2e-13},
                            {"792x780": 1.5e-11, "5000x500": 1e-13})
    rows = _rows(capsys.readouterr().out)
    assert rows["792x780"] == ["1.25e-11", "1.50e-11"]
    assert rows["5000x500"] == ["2.00e-13", "1.00e-13"]
