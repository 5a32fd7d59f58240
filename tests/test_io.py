import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracdual as fd

from conftest import make_gap_case, make_reference


def fields_equal(a: fd.FractionalProgram, b: fd.FractionalProgram) -> bool:
    return (
        a.n == b.n and a.m == b.m
        and np.array_equal(a.Q, b.Q)
        and np.array_equal(a.f_vec, b.f_vec)
        and np.array_equal(a.B, b.B)
        and a.lam == b.lam
        and np.array_equal(a.H, b.H)
        and np.array_equal(a.b_vec, b.b_vec)
        and a.delta == b.delta
    )


def test_round_trip_reference():
    prog = make_reference()
    text = fd.serialize_instance(prog)
    back = fd.parse_instance(text)
    assert fields_equal(prog, back)
    assert back.mu0 == pytest.approx(1.0)
    assert fd.serialize_instance(back) == text


def test_round_trip_survives_awkward_floats():
    prog = fd.validate(
        Q=np.array([[2.0 / 3.0]]), f_vec=np.array([0.1]), B=np.array([[np.pi]]),
        lam=1e-9, H=np.array([[-1.0 / 3.0]]), b_vec=np.array([-0.3]),
        delta=1e-7,
    )
    back = fd.parse_instance(fd.serialize_instance(prog))
    assert fields_equal(prog, back)


@given(st.integers(0, 2000))
def test_round_trip_generated(seed):
    prog = fd.generate_program(1 + seed % 6, seed % 4, seed=seed)
    text = fd.serialize_instance(prog)
    back = fd.parse_instance(text)
    assert fields_equal(prog, back)
    assert fd.serialize_instance(back) == text


def test_serialized_form_is_canonical():
    text = fd.serialize_instance(make_reference())
    data = json.loads(text)  # must also be a plain JSON document
    assert list(data) == sorted(data)
    assert text == fd.serialize_instance(fd.parse_instance(text))
    assert text.endswith("\n")


def test_payload_keys():
    payload = fd.instance_payload(make_reference())
    assert set(payload) == {
        "schema_version", "n", "m", "Q", "f", "B", "lambda", "delta", "H", "b",
    }
    assert payload["schema_version"] == 1


def test_matrices_are_row_major():
    prog = fd.validate(
        Q=np.array([[1.0, 0.25], [0.25, 2.0]]),
        f_vec=np.zeros(2),
        B=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        lam=0.5,
        H=-np.eye(2),
        b_vec=np.array([0.0, 1.0]),
        delta=0.2,
    )
    payload = fd.instance_payload(prog)
    assert payload["B"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert payload["Q"][1] == 0.25


class TestParseErrors:
    def base(self):
        return fd.instance_payload(make_reference())

    def emit(self, payload):
        return fd.canonical_text(payload)

    def test_missing_field(self):
        payload = self.base()
        del payload["H"]
        with pytest.raises(fd.ParseError, match="'H'"):
            fd.parse_instance(self.emit(payload))

    def test_wrong_array_length(self):
        payload = self.base()
        payload["Q"] = [1.0, 2.0]
        with pytest.raises(fd.ParseError, match="'Q'"):
            fd.parse_instance(self.emit(payload))

    def test_bad_scalar_type(self):
        payload = self.base()
        payload["n"] = "one"
        with pytest.raises(fd.ParseError, match="'n'"):
            fd.parse_instance(self.emit(payload))

    @pytest.mark.parametrize("bad", [True, None, "1.0", [1.0]])
    def test_non_number_array_element(self, bad):
        payload = self.base()
        payload["f"] = [bad]
        with pytest.raises(fd.ParseError, match="'f'") as exc:
            fd.parse_instance(json.dumps(payload))
        assert exc.value.field == "f"

    def test_bad_schema_version(self):
        payload = self.base()
        payload["schema_version"] = 99
        with pytest.raises(fd.ParseError, match="schema_version"):
            fd.parse_instance(self.emit(payload))

    def test_not_a_tree(self):
        with pytest.raises(fd.ParseError):
            fd.parse_instance("[1, 2, 3]")

    def test_malformed_text(self):
        with pytest.raises(fd.ParseError):
            fd.parse_instance("{not json")

    def test_validation_error_forwarded(self):
        payload = self.base()
        payload["delta"] = 100.0  # above the margin peak
        with pytest.raises(fd.DeltaOutOfRangeError):
            fd.parse_instance(self.emit(payload))


class TestResultSerialization:
    def test_fields_and_values(self):
        prog = make_reference()
        result = fd.solve(prog, fd.SolverOptions(grid=12))
        text = fd.serialize_result(result)
        data = json.loads(text)
        assert set(data) == {
            "x_star", "mu_star", "varsigma", "sigma", "primal_value",
            "dual_value", "gap", "global_lower_bound", "global_gap",
            "certificate_kind", "mu_profile", "solver_options", "timings",
        }
        assert data["certificate_kind"] == "Perfect"
        assert data["x_star"] == [float(result.x_star[0])]
        assert data["primal_value"] == result.P0_value
        assert data["global_lower_bound"] == result.global_lower_bound
        assert data["global_gap"] == result.global_gap
        assert data["solver_options"] == {
            "grid": 12, "max_iter": 500, "tol_gap": 1e-6,
        }
        assert len(data["mu_profile"]) == len(result.mu_profile)
        entry = data["mu_profile"][0]
        assert set(entry) == {"mu", "dual_value", "certificate", "status"}
        assert data["timings"]["total_s"] >= 0.0

    def test_uncertified_result_serializes(self):
        result = fd.solve(make_gap_case(), fd.SolverOptions(grid=12))
        data = json.loads(fd.serialize_result(result))
        assert data["certificate_kind"] == "None"
        assert all(
            e["dual_value"] is None or np.isfinite(e["dual_value"])
            for e in data["mu_profile"]
        )


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e6, max_value=1e6),
)
def test_float_text_round_trips_exactly(a, b):
    # 17 significant digits reproduce any double exactly
    payload = {"a": a, "b": b}
    data = json.loads(fd.canonical_text(payload))
    assert data["a"] == a
    assert data["b"] == b


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_float_array_matches_per_element_text(vals):
    expected = '{\n  "a": [' + ", ".join("%.17g" % v for v in vals) + "]\n}\n"
    assert fd.canonical_text({"a": vals}) == expected


@pytest.mark.parametrize(
    "vals, text",
    [
        ([1, 2, 3], "[1, 2, 3]"),
        ([1, 2.5, -0.0, 10**20], "[1, 2.5, -0, 100000000000000000000]"),
        ([np.float64(0.1), 1.0], "[0.10000000000000001, 1]"),
        ([True, None, 1.5], "[true, null, 1.5]"),
    ],
)
def test_other_scalar_arrays_keep_per_element_text(vals, text):
    assert fd.canonical_text({"a": vals}) == '{\n  "a": ' + text + "\n}\n"


def test_non_finite_array_element_is_refused():
    with pytest.raises(ValueError, match="nan"):
        fd.canonical_text({"a": [1.0, float("nan")]})
