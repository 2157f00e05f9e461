import pytest
from hypothesis import settings

from sepcat import (Field, FiniteGroup, GroupAction, equivariant_category,
                    equivariant_monad, induce_adjunction, to_equivariant)
from sepcat.equivariant import character_modules
from sepcat.standard import (a2_quiver_category, cyclotomic_point_category,
                             point_category, two_point_category)

# A failing example prints the blob that `@reproduce_failure` replays.
settings.register_profile("default", print_blob=True)
settings.load_profile("default")


@pytest.fixture(scope="session")
def QQ():
    return Field.rationals()


@pytest.fixture(scope="session")
def F2():
    return Field.prime(2)


@pytest.fixture(scope="session")
def F3():
    return Field.prime(3)


@pytest.fixture(scope="session")
def c1_q(QQ):
    return point_category(QQ)


@pytest.fixture(scope="session")
def c2_q(QQ):
    return a2_quiver_category(QQ)


@pytest.fixture(scope="session")
def c3_q(QQ):
    return two_point_category(QQ)


@pytest.fixture(scope="session")
def cw_q():
    return cyclotomic_point_category()


@pytest.fixture(scope="session")
def c1_f2(F2):
    return point_category(F2, name="C1F2")


@pytest.fixture(scope="session")
def c1_f3(F3):
    return point_category(F3, name="C1F3")


@pytest.fixture(scope="session")
def z2():
    return FiniteGroup.cyclic(2)


@pytest.fixture(scope="session")
def z3():
    return FiniteGroup.cyclic(3)


@pytest.fixture(scope="session")
def s3():
    return FiniteGroup.symmetric(3)


@pytest.fixture(scope="session")
def act_z2_q(z2, c1_q):
    return GroupAction.trivial(z2, c1_q, name="Z2 on C1/Q")


@pytest.fixture(scope="session")
def act_z3_q(z3, c1_q):
    return GroupAction.trivial(z3, c1_q, name="Z3 on C1/Q")


@pytest.fixture(scope="session")
def act_z3_qw(z3, cw_q):
    return GroupAction.trivial(z3, cw_q, name="Z3 on Cw/Q")


@pytest.fixture(scope="session")
def act_s3_q(s3, c1_q):
    return GroupAction.trivial(s3, c1_q, name="S3 on C1/Q")


@pytest.fixture(scope="session")
def act_z2_f2(z2, c1_f2):
    return GroupAction.trivial(z2, c1_f2, name="Z2 on C1/F2")


@pytest.fixture(scope="session")
def act_z3_f3(z3, c1_f3):
    return GroupAction.trivial(z3, c1_f3, name="Z3 on C1/F3")


@pytest.fixture(scope="session")
def act_swap_q(z2, c3_q):
    return GroupAction.from_permutation(
        z2, c3_q, {"e": {"x": "x", "y": "y"}, "g": {"x": "y", "y": "x"}},
        name="swap Z2 on C3/Q")


@pytest.fixture(scope="session")
def monad_z2_q(act_z2_q):
    return equivariant_monad(act_z2_q)


@pytest.fixture(scope="session")
def chars_z2_q(act_z2_q, monad_z2_q):
    mods = character_modules(act_z2_q, monad=monad_z2_q)
    by_name = {}
    for m in mods:
        key = "triv" if "; 1" in m.name else "sign"
        by_name[key] = m
    assert set(by_name) == {"triv", "sign"}
    return by_name


@pytest.fixture(scope="session")
def eqcat_z2_q(act_z2_q, chars_z2_q):
    extras = {name: to_equivariant(mod, act_z2_q) for name, mod in chars_z2_q.items()}
    return equivariant_category(act_z2_q, extra=extras)


@pytest.fixture(scope="session")
def adj_z2_q(eqcat_z2_q):
    return induce_adjunction(eqcat_z2_q)


@pytest.fixture(scope="session")
def eqcat_z3_q(act_z3_q):
    return equivariant_category(act_z3_q)


@pytest.fixture(scope="session")
def adj_z3_q(eqcat_z3_q):
    return induce_adjunction(eqcat_z3_q)


@pytest.fixture(scope="session")
def eqcat_z2_f2(act_z2_f2):
    return equivariant_category(act_z2_f2)


@pytest.fixture(scope="session")
def adj_z2_f2(eqcat_z2_f2):
    return induce_adjunction(eqcat_z2_f2)
