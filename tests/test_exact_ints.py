"""The package's one exact-int rule and its refusal contract.

Every int field of every entry takes only an int (`type(x) is int`):
a bool, a float or a `Fraction` raises TypeError there, whatever its
value.  A verifier answers False for a certificate it cannot read, as
it does for one that does not hold.
"""
import ast
from fractions import Fraction
from pathlib import Path

import pytest

from edgeclosure.closure import (
    PowerIdentityCertificate,
    closure_generators,
    is_integrally_closed,
    is_normal_up_to,
    power_identity_certificate,
    scaling_membership,
    verify_power_identity,
)
from edgeclosure.covers import PathInstance
from edgeclosure.errors import (
    DimensionMismatchError,
    EdgeClosureError,
    InfeasibleInstanceError,
    UnitIdealError,
    ZeroIdealError,
)
from edgeclosure.graphs import WeightedGraph
from edgeclosure.ideals import MonomialIdeal, member, minimalize, power
from edgeclosure.packing import (
    MembershipCertificate,
    fractional_packing,
    integer_packing,
    verify_certificate,
)
from edgeclosure.verify import (
    enumerate_weighted_graphs,
    family_graphs,
    run_equivalence_check,
    run_normality_check,
    sample_weighted_graphs,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "edgeclosure"

INEXACT = [True, 2.0, Fraction(2)]

PAIR = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
# 2 * (1, 2, 1) = (2, 2, 0) + (0, 2, 2): x^(1,2,1) is in the closure of PAIR
IDENTITY = PowerIdentityCertificate(2, (1, 1), (0, 0, 0))
PACKING = MembershipCertificate((1, 1), 2)

ENTRIES = {
    # constructors
    "MonomialIdeal.n": lambda x: MonomialIdeal(x, []),
    "MonomialIdeal.entry": lambda x: MonomialIdeal(2, [(x, 0)]),
    "minimalize.entry": lambda x: minimalize([(x, 1)]),
    "WeightedGraph.n": lambda x: WeightedGraph(x, ()),
    "WeightedGraph.u": lambda x: WeightedGraph(3, ((x, 3, 1),)),
    "WeightedGraph.v": lambda x: WeightedGraph(3, ((1, x, 1),)),
    "WeightedGraph.w": lambda x: WeightedGraph(3, ((1, 2, x),)),
    "PathInstance.n": lambda x: PathInstance(x, (1, 1), (1,)),
    "PathInstance.a": lambda x: PathInstance(2, (x, 2), (1,)),
    # PathInstance.y takes a Fraction: test_covers feeds it a bool and a float
    # require_int callers
    "power.k": lambda x: power(PAIR, x),
    "closure_generators.k": lambda x: closure_generators(PAIR, x),
    "is_integrally_closed.k": lambda x: is_integrally_closed(PAIR, x),
    "is_normal_up_to.kmax": lambda x: is_normal_up_to(PAIR, x),
    "power_identity_certificate.k": lambda x: power_identity_certificate(PAIR, (1, 2, 1), x),
    "scaling_membership.k": lambda x: scaling_membership(PAIR, (1, 2, 1), x),
    "scaling_membership.s_max": lambda x: scaling_membership(PAIR, (1, 2, 1), 1, x),
    "enumerate_weighted_graphs.n": lambda x: next(enumerate_weighted_graphs(x, 1)),
    "enumerate_weighted_graphs.weight_max": lambda x: next(enumerate_weighted_graphs(2, x)),
    "sample_weighted_graphs.count": lambda x: next(sample_weighted_graphs(2, 1, x, 0)),
    "sample_weighted_graphs.seed": lambda x: next(sample_weighted_graphs(2, 1, 1, x)),
    "family_graphs.n_max": lambda x: next(family_graphs("path", x, 1)),
    "family_graphs.weight_max": lambda x: next(family_graphs("path", 2, x)),
    "run_equivalence_check.n_max": lambda x: run_equivalence_check(x, 1),
    "run_equivalence_check.sample": lambda x: run_equivalence_check(2, 1, sample=x, seed=0),
    "run_normality_check.kmax": lambda x: run_normality_check(2, 1, x),
    # query entries
    "member.entry": lambda x: member(PAIR, (x, 2, 1)),
    "fractional_packing.entry": lambda x: fractional_packing(PAIR, (x, 2, 1)),
    "integer_packing.entry": lambda x: integer_packing(PAIR, (x, 2, 1)),
    "power_identity_certificate.entry": lambda x: power_identity_certificate(PAIR, (x, 2, 1), 1),
    "scaling_membership.entry": lambda x: scaling_membership(PAIR, (x, 2, 1), 1),
    # verifiers: the query they check the certificate against
    "verify_certificate.entry": lambda x: verify_certificate(PAIR, (x, 2, 1), PACKING),
    "verify_power_identity.entry": lambda x: verify_power_identity(PAIR, (x, 2, 1), 1, IDENTITY),
    "verify_power_identity.k": lambda x: verify_power_identity(PAIR, (1, 2, 1), x, IDENTITY),
}


@pytest.mark.parametrize("value", INEXACT, ids=["bool", "float", "fraction"])
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_inexact_int_field_raises_type_error(entry, value):
    with pytest.raises(TypeError):
        entry(value)


def test_int_subclass_is_refused():
    class Exponent(int):
        pass

    with pytest.raises(TypeError):
        MonomialIdeal(1, [(Exponent(1),)])


# each certificate field with the int it holds in a certificate that holds
CERTIFICATES = {
    "verify_certificate.den": (
        lambda x: verify_certificate(PAIR, (1, 2, 1), MembershipCertificate((1, 1), x)), 2
    ),
    "verify_certificate.nums": (
        lambda x: verify_certificate(PAIR, (1, 2, 1), MembershipCertificate((x, 1), 2)), 1
    ),
    "verify_power_identity.scale": (
        lambda x: verify_power_identity(
            PAIR, (1, 2, 1), 1, PowerIdentityCertificate(x, (1, 1), (0, 0, 0))
        ),
        2,
    ),
    "verify_power_identity.multiplicities": (
        lambda x: verify_power_identity(
            PAIR, (1, 2, 1), 1, PowerIdentityCertificate(2, (x, 1), (0, 0, 0))
        ),
        1,
    ),
    "verify_power_identity.slack": (
        lambda x: verify_power_identity(
            PAIR, (1, 2, 1), 1, PowerIdentityCertificate(2, (1, 1), (x, 0, 0))
        ),
        0,
    ),
}


@pytest.mark.parametrize("verify, exact", CERTIFICATES.values(), ids=CERTIFICATES.keys())
def test_certificate_field_that_is_not_an_int_proves_nothing(verify, exact):
    # the same number in another type makes a certificate that holds fail
    assert verify(exact) is True
    inexact = [float(exact), Fraction(exact)] + ([bool(exact)] if exact in (0, 1) else [])
    for value in inexact:
        assert verify(value) is False


@pytest.mark.parametrize(
    "verify",
    [
        lambda: verify_certificate(PAIR, (1, 2, 1), MembershipCertificate(None, 2)),
        lambda: verify_power_identity(
            PAIR, (1, 2, 1), 1, PowerIdentityCertificate(2, (1, 1), None)
        ),
        lambda: verify_power_identity(
            PAIR, (1, 2, 1), 1, PowerIdentityCertificate(2, None, (0, 0, 0))
        ),
    ],
    ids=["verify_certificate.nums", "verify_power_identity.slack",
         "verify_power_identity.multiplicities"],
)
def test_certificate_field_that_is_not_a_sequence_proves_nothing(verify):
    # answered False by the check, not a TypeError from inside it
    assert verify() is False


@pytest.mark.parametrize(
    "error", [DimensionMismatchError, ZeroIdealError, UnitIdealError, InfeasibleInstanceError]
)
def test_value_errors_of_the_package_are_value_errors(error):
    assert error.__mro__ == (error, EdgeClosureError, ValueError, Exception, BaseException, object)


def test_wrong_path_length_is_caught_as_a_value_error():
    # a has 2 entries for n = 3
    with pytest.raises(ValueError):
        PathInstance(3, (1, 1), (1, 1))


def test_no_second_spelling_of_the_rule():
    # the rule is `type(x) is int`; an isinstance test on int or bool
    # would let a bool, or another subclass of int, pass as an int
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            cls = node.args[1]
            names = cls.elts if isinstance(cls, ast.Tuple) else [cls]
            if any(isinstance(n, ast.Name) and n.id in ("int", "bool") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
