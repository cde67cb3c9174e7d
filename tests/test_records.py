"""The record contract and the lean import path.

Every record of the package is a ``namedtuple`` subclass with no instance
dict: its fields keep their order and ``repr``, assignment raises, and it
pickles.  Importing the package, its CLI and its harness loads neither the
process pool nor ``dataclasses`` nor ``signal``.
"""

import os
import pickle
import subprocess
import sys

import pytest

import puregaps
from puregaps.engine import BoxedGamma
from puregaps.errors import InvalidParamsError
from puregaps.gk import GKParams
from puregaps.harness import BenchRow, RunReport, verify_point
from puregaps.kummer import KummerParams, kummer_generating_set
from puregaps.lattice import GeneratingSet

RECORDS = [
    (GeneratingSet(starts=((1, 2), (2, 1)), period=3),
     ("starts", "period"),
     "GeneratingSet(starts=((1, 2), (2, 1)), period=3)"),
    (BoxedGamma(rows={0: ((1, 2),)}, period=3, genus=1, kmax=1,
                diagonal=False),
     ("rows", "period", "genus", "kmax", "diagonal"),
     "BoxedGamma(rows={0: ((1, 2),)}, period=3, genus=1, kmax=1, "
     "diagonal=False)"),
    (RunReport(family="gk", params={"q": 2}, genus=10, period=9,
               row_sizes=[4, 1, 1], cardinality=35, lower_bound=1,
               upper_bound=40, homma_kim_bound=45,
               verdicts={"bound_sandwich": "pass"}, timings={}),
     ("family", "params", "genus", "period", "row_sizes", "cardinality",
      "lower_bound", "upper_bound", "homma_kim_bound", "verdicts",
      "timings", "detail"),
     "RunReport(family='gk', params={'q': 2}, genus=10, period=9, "
     "row_sizes=[4, 1, 1], cardinality=35, lower_bound=1, upper_bound=40, "
     "homma_kim_bound=45, verdicts={'bound_sandwich': 'pass'}, timings={}, "
     "detail='')"),
    (BenchRow("kummer", {"m": 5, "r": 7}, 12, "direct-glb", 0.5, 29, True),
     ("family", "params", "genus", "method", "seconds", "cardinality",
      "outputs_equal"),
     "BenchRow(family='kummer', params={'m': 5, 'r': 7}, genus=12, "
     "method='direct-glb', seconds=0.5, cardinality=29, "
     "outputs_equal=True)"),
    (GKParams(3), ("q",), "GKParams(q=3)"),
    (KummerParams(5, 7), ("m", "r"), "KummerParams(m=5, r=7)"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_fields_and_repr(record, fields, text):
    assert record._fields == fields
    assert repr(record) == text
    assert record._asdict() == {f: getattr(record, f) for f in fields}


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_immutable_without_instance_dict(record, fields, text):
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert not hasattr(record, "__dict__")


def test_methods_and_properties():
    gamma = kummer_generating_set(5, 7)
    assert gamma.genus == 12 == len(gamma.points)
    # A record iterates its fields, not the points of a generating set.
    assert list(gamma) == [gamma.starts, 5]
    boxed = RECORDS[1][0]
    assert boxed.row(0) == ((1, 2),) and boxed.row(1) == ()
    assert boxed.row_sizes() == [1]
    report = RECORDS[2][0]
    assert report.ok and report.label() == "gk(q=2)"
    assert GKParams(2).genus == 10 and GKParams(2).period == 9
    params = KummerParams(4, 7)
    assert (params.genus, params.period, params.top_box) == (9, 4, 4)


def test_params_check_on_construction():
    with pytest.raises(InvalidParamsError):
        GKParams(1)
    with pytest.raises(InvalidParamsError):
        KummerParams(4, 6)
    with pytest.warns(UserWarning, match="not a prime power"):
        GKParams(6)
    assert GKParams(q=4) == GKParams(4)
    assert KummerParams(r=7, m=5) == KummerParams(5, 7)


@pytest.mark.parametrize("record", [
    kummer_generating_set(5, 7), verify_point("kummer", {"m": 5, "r": 7})],
    ids=["GeneratingSet", "RunReport"])
def test_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record


HEAVY = ("concurrent.futures", "multiprocessing", "dataclasses")

PROBE = """
import sys
before = set(sys.modules)
import puregaps, puregaps.cli, puregaps.harness
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_pool_and_no_dataclasses():
    """A fresh interpreter imports the package, its CLI and its harness
    without the process pool, ``dataclasses`` or ``signal`` (only the
    console script sets up SIGPIPE); the modules ``site`` loaded before
    the import do not count."""
    src = os.path.dirname(os.path.dirname(puregaps.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "puregaps.harness" in loaded
    assert not loaded.intersection(HEAVY)
    assert "signal" not in loaded
