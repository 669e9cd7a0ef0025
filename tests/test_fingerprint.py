"""The seeded-fingerprint check (``benchmarks/fingerprint.py``)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "fingerprint.py"
_SPEC = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def _fields(**overrides):
    fields = {
        "members": "1,2,3",
        "W": "4.5",
        "counts": "40/0/4",
        "stage_best": "[4.0, 4.5]",
        "backtracks": "0",
        "skipped": "0",
        "keys": "stage_best,start_nodes",
        "ce": "abc",
    }
    fields.update(overrides)
    return " ".join(f"{name}={value}" for name, value in fields.items())


def _key(engine="compiled", mode="serial", label="cbas-nd"):
    return f"r0|g|free|{label}|{engine}|{mode}|s1"


class TestFingerprint:
    def test_quick_slice_is_reproducible_and_consistent(self):
        first = list(fingerprint.fingerprint_lines(quick=True))
        second = list(fingerprint.fingerprint_lines(quick=True))
        assert first == second
        assert len(first) == 2 * len(fingerprint.CONFIGS) * 3
        # Every reference line has its compiled twin, and they agree.
        assert fingerprint.check_lines(first) == (len(first) // 3, [])
        key, fields = fingerprint.parse(first[0])
        assert key == "r0|fb60|free|cbas|reference|serial|s1"
        assert list(fields) == list(fingerprint.FIELDS)

    def test_diff_report_names_the_differing_fields(self):
        parent = [
            f"{_key()} :: {_fields()}",
            f"{_key(label='cbas')} :: {_fields()}",
            f"{_key(label='rgreedy')} :: {_fields()}",
        ]
        change = [
            f"{_key()} :: {_fields(backtracks='2', ce='def')}",
            f"{_key(label='cbas')} :: {_fields()}",
            f"{_key(label='cbas-nd-g')} :: {_fields()}",
        ]
        assert fingerprint.diff_lines(parent, change) == [
            f"{_key()}: backtracks, ce",
            "  - backtracks=0",
            "  + backtracks=2",
            "  - ce=abc",
            "  + ce=def",
            f"only in parent: {_key(label='rgreedy')}",
            f"only in change: {_key(label='cbas-nd-g')}",
        ]
        assert fingerprint.diff_lines(parent, list(parent)) == []

    def test_checks_pair_engines_and_modes(self):
        lines = [
            f"{_key('reference')} :: {_fields(ce='local')}",
            f"{_key('compiled')} :: {_fields()}",
            f"{_key('vector')} :: {_fields(W='4.5000001')}",
            f"{_key('vector', 'stage2')} :: "
            f"{_fields(W='4.5000001', keys='x')}",
            f"{_key('vector', 'stage3')} :: {_fields(backtracks='1')}",
        ]
        # The CE hash may differ between reference and compiled, and the
        # extra keys between serial and stage; nothing else may.
        assert fingerprint.check_lines(lines) == (
            3,
            [
                "vector serial != stage3 (W, backtracks): "
                + _key("vector", "stage3")
            ],
        )
        lines[0] = f"{_key('reference')} :: {_fields(members='1,2,4')}"
        assert fingerprint.check_lines(lines)[1][0] == (
            "reference != compiled (members): " + _key("reference")
        )
        # Failed draws do not leave the serial/stage pairs out: the
        # merge writes a start off where the serial run stops.
        lines[2] = (
            f"{_key('vector')} :: {_fields(W='4.5000001', counts='40/3/4')}"
        )
        assert fingerprint.check_lines(lines) == (
            3,
            [
                "reference != compiled (members): " + _key("reference"),
                "vector serial != stage2 (counts): "
                + _key("vector", "stage2"),
                "vector serial != stage3 (W, counts, backtracks): "
                + _key("vector", "stage3"),
            ],
        )
