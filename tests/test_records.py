"""The contract of the package's nine record types: keyword construction
and defaults, equality and hashing by value, repr, immutability, pickling,
and one rejected input per validation rule with its exact message."""

import pickle
import re

import pytest

from twistedrs import (
    EnumResult,
    EnumTask,
    FieldSpec,
    GramParts,
    HullReport,
    Matrix,
    MdsVerdict,
    MultiTwistedCode,
    SearchHit,
    TwistProfile,
)


def _records(f7):
    """One record of each type, built by keyword, with the repr it must
    have.  HullReport and GramParts hold matrices, which do not hash."""
    one = Matrix(f7, [[1]])
    spec = FieldSpec(p=7, m=1, modulus=(0, 1))
    profile = TwistProfile(k=3, t=(1, 2), h=(0, 1), eta=(1, 2))
    return [
        (spec, "FieldSpec(p=7, m=1, modulus=(0, 1))"),
        (profile, "TwistProfile(k=3, t=(1, 2), h=(0, 1), eta=(1, 2))"),
        (
            MultiTwistedCode(ctx=f7, profile=profile, alpha=(0, 1, 2, 3, 4)),
            f"MultiTwistedCode(ctx={f7!r}, profile={profile!r}, alpha=(0, 1, 2, 3, 4))",
        ),
        (MdsVerdict(is_mds=False, method="bruteforce", witness=(0, 1)),
         "MdsVerdict(is_mds=False, method='bruteforce', witness=(0, 1))"),
        (SearchHit(alpha=(0, 1), eta=(1, 1), method="remark44"),
         "SearchHit(alpha=(0, 1), eta=(1, 1), method='remark44')"),
        (EnumTask(q=7, n=5, k=3, criterion="bruteforce"),
         "EnumTask(q=7, n=5, k=3, criterion='bruteforce')"),
        (EnumResult(total_count=186, criterion="remark44", elapsed=0.5),
         "EnumResult(total_count=186, criterion='remark44', elapsed=0.5, per_set=None)"),
        (HullReport(code_dim=1, gram_rank=1, hull_dim=0, gram=one, hull_basis=one),
         f"HullReport(code_dim=1, gram_rank=1, hull_dim=0, gram={one!r}, hull_basis={one!r})"),
        (GramParts(a_one=one, a_gamma=one, b_one=one, b_gamma=one, cross=one),
         f"GramParts(a_one={one!r}, a_gamma={one!r}, b_one={one!r}, b_gamma={one!r}, cross={one!r})"),
    ]


def test_records_by_keyword_repr_equality_and_immutability(f7):
    for (rec, text), (twin, _) in zip(_records(f7), _records(f7)):
        assert repr(rec) == text
        assert twin == rec and twin is not rec
        if type(rec) not in (HullReport, GramParts):
            assert hash(twin) == hash(rec)
        with pytest.raises(AttributeError):
            rec.extra = 1
        with pytest.raises(AttributeError):
            setattr(rec, type(rec)._fields[0], None)


def test_record_defaults():
    assert TwistProfile(4) == TwistProfile(4, (), (), ())
    assert TwistProfile(4).ell == 0 and TwistProfile(4).max_degree == 3
    assert MdsVerdict(True, "theorem31").witness is None
    assert bool(MdsVerdict(True, "theorem31")) and not MdsVerdict(False, "theorem31", (0, 1))
    task = EnumTask(7, 5, 3)
    assert task.criterion == "remark44"
    assert EnumTask(7, 5, 3, "remark44", 1) == EnumTask(7, 5, 3)
    assert task.cost == 21 * 36 * 10
    assert EnumResult(0, "remark44", 0.0).per_set is None
    assert FieldSpec.of_order(81).q == 81


def test_records_pickle(f16):
    profile = TwistProfile(3, (1, 2), (0, 1), (f16.parse("a^3 + a^2"), 1))
    code = MultiTwistedCode(f16, profile, (0, 4, 3, 6, 11))
    for rec in (f16.spec, profile, code, EnumTask(16, 6, 3, "remark44"), f16):
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is type(rec)
    assert back._exp == f16._exp and back._log == f16._log  # the Field, last


def test_records_normalise_their_inputs(f7):
    spec = FieldSpec(2, 4, [1, 1, 0, 0, True])
    assert spec.modulus == (1, 1, 0, 0, 1) and type(spec.modulus) is tuple
    profile = TwistProfile(3, [1, 2], [0, 1], [1, 2])
    assert (profile.t, profile.h, profile.eta) == ((1, 2), (0, 1), (1, 2))
    assert all(type(x) is tuple for x in (profile.t, profile.h, profile.eta))
    code = MultiTwistedCode(f7, profile, [0, 1, 2, 3, 4])
    assert code.alpha == (0, 1, 2, 3, 4) and type(code.alpha) is tuple
    assert (code.n, code.dim) == (5, 3)


def _rejects(message, build):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_field_spec_rules():
    _rejects("characteristic 1 is not prime", lambda: FieldSpec(1, 2, (1, 1, 1)))
    _rejects("characteristic 4 is not prime", lambda: FieldSpec(4, 2, (1, 1, 1)))
    _rejects("extension degree must be >= 1", lambda: FieldSpec(2, 0, (1,)))
    _rejects("extension degree must be >= 1", lambda: FieldSpec(1000000000000000003, 0, (1,)))
    _rejects("field order 131072 exceeds the 2^16 cap", lambda: FieldSpec(2, 17, (1,) * 18))
    _rejects("modulus must be monic of degree m", lambda: FieldSpec(2, 2, (1, 1, 0)))
    _rejects("modulus coefficients must lie in [0, p)", lambda: FieldSpec(3, 2, (4, 0, 1)))
    _rejects("modulus (1, 0, 1) is reducible over GF(2)", lambda: FieldSpec(2, 2, (1, 0, 1)))


def test_twist_profile_rules():
    _rejects("dimension parameter k must be >= 1", lambda: TwistProfile(0))
    _rejects("t, h, eta must have equal length", lambda: TwistProfile(3, (1, 2), (0,), (1,)))
    _rejects("twists must be strictly increasing", lambda: TwistProfile(3, (2, 2), (0, 1), (1, 1)))
    _rejects("twists must be >= 1", lambda: TwistProfile(3, (0,), (0,), (1,)))
    _rejects("hooks must be strictly increasing", lambda: TwistProfile(3, (1, 2), (1, 0), (1, 1)))
    _rejects(
        "hooks must satisfy 0 <= h_1 < ... < h_ell <= k-1",
        lambda: TwistProfile(3, (1, 2), (0, 3), (1, 1)),
    )
    _rejects("every eta_i must be nonzero", lambda: TwistProfile(3, (1,), (0,), (0,)))


def test_multi_twisted_code_rules(f7):
    pr = TwistProfile(2, (1,), (0,), (1,))
    _rejects("evaluation points must be pairwise distinct", lambda: MultiTwistedCode(f7, pr, (0, 1, 1, 2)))
    _rejects("more evaluation points than field elements", lambda: MultiTwistedCode(f7, pr, range(8)))
    _rejects("evaluation point outside the field", lambda: MultiTwistedCode(f7, pr, (0, 1, 7)))
    _rejects(
        "every eta_i must be a nonzero field element",
        lambda: MultiTwistedCode(f7, TwistProfile(2, (1,), (0,), (7,)), (0, 1, 2, 3)),
    )
    _rejects("need k < n", lambda: MultiTwistedCode(f7, TwistProfile(4), (0, 1, 2, 3)))
    _rejects(
        "degree bound violated: need k-1+t_ell < n",
        lambda: MultiTwistedCode(f7, TwistProfile(2, (2,), (0,), (1,)), (0, 1, 2)),
    )


def test_enum_task_rules():
    _rejects("6 is not a prime power", lambda: EnumTask(6, 4, 2))
    _rejects("unknown criterion 'magic'", lambda: EnumTask(7, 5, 3, "magic"))
    _rejects("double-twist layout needs k >= 2 (hooks 0 and 1)", lambda: EnumTask(7, 5, 1))
    _rejects(
        "invalid (n, k) = (4, 3): the twisted degree k+1 must stay below n, so n >= k + 2",
        lambda: EnumTask(7, 4, 3),
    )
    _rejects("n cannot exceed the field size", lambda: EnumTask(7, 8, 3))
    for workers in (2, 0):
        _rejects(
            "counts run in one process: workers must be 1",
            lambda: EnumTask(7, 5, 3, "remark44", workers),
        )
