"""Presented categories, block morphisms, and the Karoubi splitting calculus."""

import random
from fractions import Fraction

import pytest

from sepcat import (LinearCategory, Morphism,
                    NotIdempotentError, direct_sum, biproduct,
                    hom_space_basis, int_invertible, invert_morphism, morphism,
                    split_idempotent, validate_presentation, zero_morphism)
from sepcat.category import random_hom
from sepcat.linalg import coordinate_map


def frac_mor(cat, dom, cod, rows):
    blocks = [[tuple(Fraction(v) for v in vec) for vec in row] for row in rows]
    return morphism(cat, dom, cod, blocks)


class TestValidatePresentation:
    def test_point_category_passes(self, c1_q):
        assert validate_presentation(c1_q).passed

    def test_a2_quiver_passes(self, c2_q):
        assert validate_presentation(c2_q).passed

    def test_broken_unit_law_reported(self, QQ):
        one = QQ.one()
        zero = QQ.zero()
        broken = LinearCategory(
            QQ, ["1", "2"],
            {("1", "1"): 1, ("2", "2"): 1, ("1", "2"): 1},
            {
                ("1", "1", "1"): [[(one,)]],
                ("2", "2", "2"): [[(one,)]],
                ("1", "1", "2"): [[(one,)]],
                ("1", "2", "2"): [[(zero,)]],   # id_2∘a = 0: broken
            },
            {"1": (one,), "2": (one,)})
        rep = validate_presentation(broken)
        assert not rep.passed
        assert any("unit" in name for name, _ in rep.failures())


class TestCompose:
    def test_identity_laws(self, c2_q):
        a = hom_space_basis(c2_q, c2_q.obj("1"), c2_q.obj("2"))[0]
        assert c2_q.obj("2").identity() @ a == a
        assert a @ c2_q.obj("1").identity() == a

    def test_scalar_composition_over_q(self, c1_q):
        pt = c1_q.obj("pt")
        three = pt.identity().scale(Fraction(3))
        half = pt.identity().scale(Fraction(1, 2))
        assert three @ half == pt.identity().scale(Fraction(3, 2))

    def test_object_mismatch_rejected(self, c2_q):
        a = hom_space_basis(c2_q, c2_q.obj("1"), c2_q.obj("2"))[0]
        with pytest.raises(ValueError):
            a @ a

    def test_mixed_categories_rejected(self, c1_q, c2_q):
        with pytest.raises(ValueError):
            c1_q.obj("pt").identity() @ c2_q.obj("1").identity()

    def test_associativity_on_random_blocks(self, c2_q):
        rng = random.Random(20240817)
        objs = [c2_q.obj("1"), c2_q.obj("2"), direct_sum([c2_q.obj("1"), c2_q.obj("2")]),
                direct_sum([c2_q.obj("2"), c2_q.obj("1"), c2_q.obj("1")])]
        for _ in range(25):
            w, x, y, z = (objs[rng.randrange(len(objs))] for _ in range(4))
            f = random_hom(c2_q, w, x, rng)
            g = random_hom(c2_q, x, y, rng)
            h = random_hom(c2_q, y, z, rng)
            assert (h @ g) @ f == h @ (g @ f)

    def test_bilinearity(self, c1_q):
        rng = random.Random(5)
        pt = c1_q.obj("pt")
        s = direct_sum([pt, pt])
        f = random_hom(c1_q, s, s, rng)
        g = random_hom(c1_q, s, s, rng)
        h = random_hom(c1_q, s, s, rng)
        assert h @ (f + g) == h @ f + h @ g
        assert (f + g) @ h == f @ h + g @ h


class TestSplitIdempotent:
    def test_identity_idempotent(self, c1_q):
        pt2 = direct_sum([c1_q.obj("pt"), c1_q.obj("pt")])
        w = split_idempotent(pt2, pt2.identity())
        assert w.small == pt2
        assert w.section == pt2.identity()
        assert w.verify().passed

    def test_coordinate_projector(self, c1_q):
        pt2 = direct_sum([c1_q.obj("pt"), c1_q.obj("pt")])
        e = frac_mor(c1_q, pt2, pt2, [[(1,), (0,)], [(0,), (0,)]])
        w = split_idempotent(pt2, e)
        assert w.retraction @ w.section == w.small.identity()
        assert w.section @ w.retraction == e
        assert w.verify().passed

    def test_averaging_idempotent(self, c1_q):
        # e = (1/2)[[1,1],[1,1]]: verify e² = e first, then the witness laws
        pt2 = direct_sum([c1_q.obj("pt"), c1_q.obj("pt")])
        h = Fraction(1, 2)
        e = frac_mor(c1_q, pt2, pt2, [[(h,), (h,)], [(h,), (h,)]])
        assert e @ e == e
        w = split_idempotent(pt2, e)
        assert w.retraction @ w.section == w.small.identity()
        assert w.section @ w.retraction == e

    def test_non_idempotent_rejected(self, c1_q):
        pt = c1_q.obj("pt")
        two = pt.identity().scale(Fraction(2))
        with pytest.raises(NotIdempotentError):
            split_idempotent(pt, two)

    def test_karoubi_closure_is_idempotent_complete(self, c1_q):
        # split an idempotent living on an object that already carries one
        rng = random.Random(99)
        pt2 = direct_sum([c1_q.obj("pt"), c1_q.obj("pt")])
        h = Fraction(1, 2)
        e = frac_mor(c1_q, pt2, pt2, [[(h,), (h,)], [(h,), (h,)]])
        w = split_idempotent(pt2, e)
        inner = w.small.identity()   # identity of (pt⊕pt, e) is e itself
        w2 = split_idempotent(w.small, inner)
        assert w2.verify().passed
        for _ in range(10):
            f = random_hom(c1_q, w.small, w.small, rng)
            g = invert_candidate = f @ f  # any composite stays in the hom space
            assert g.absorbed() == g

    def test_splitting_conjugated_projectors(self, c2_q):
        # conjugate a coordinate projector by an invertible block map
        rng = random.Random(7)
        s = direct_sum([c2_q.obj("1"), c2_q.obj("1")])
        p = frac_mor(c2_q, s, s, [[(1,), (0,)], [(0,), (0,)]])
        u = frac_mor(c2_q, s, s, [[(1,), (1,)], [(0,), (1,)]])
        e = u @ p @ invert_morphism(u)
        assert e @ e == e
        w = split_idempotent(s, e)
        assert w.verify().passed


class TestHomSpaces:
    def test_embedding_is_fully_faithful_on_fixtures(self, c2_q):
        # X ↦ (X, Id): hom dimensions agree before and after
        for x in c2_q.objects:
            for y in c2_q.objects:
                plain = c2_q.hom_dim(x, y)
                closure = len(hom_space_basis(c2_q, c2_q.obj(x), c2_q.obj(y)))
                assert plain == closure

    def test_karoubi_hom_basis_respects_absorption(self, c1_q):
        pt2 = direct_sum([c1_q.obj("pt"), c1_q.obj("pt")])
        h = Fraction(1, 2)
        e = frac_mor(c1_q, pt2, pt2, [[(h,), (h,)], [(h,), (h,)]])
        small = split_idempotent(pt2, e).small
        basis = hom_space_basis(c1_q, small, small)
        assert len(basis) == 1
        for b in basis:
            assert b.absorbed() == b

    def test_express_in_basis_roundtrip(self, c2_q):
        rng = random.Random(3)
        s = direct_sum([c2_q.obj("1"), c2_q.obj("2")])
        basis = hom_space_basis(c2_q, s, s)
        f = random_hom(c2_q, s, s, rng)
        coords = coordinate_map([b.coords() for b in basis], c2_q.field)(f.coords())
        rebuilt = zero_morphism(s, s)
        for c, b in zip(coords, basis):
            rebuilt = rebuilt + b.scale(c)
        assert rebuilt == f

    def test_one_shared_zero_object(self, c2_q):
        z = c2_q.zero_object()
        assert z is c2_q.zero_object() and z.summands == () and z.idem is None

    def test_zero_dim_hom_spaces(self, c2_q):
        assert hom_space_basis(c2_q, c2_q.obj("2"), c2_q.obj("1")) == []
        z = zero_morphism(c2_q.obj("2"), c2_q.obj("1"))
        assert z.is_zero()

    def test_biproduct_identities(self, c2_q):
        # parts: base objects, a two-summand sum, and a Karoubi object (1⊕2, e) whose
        # idempotent e = [[id, 0], [a, 0]] is not block-diagonal, so ι and p are absorbed
        one_two = direct_sum([c2_q.obj("1"), c2_q.obj("2")])
        e = frac_mor(c2_q, one_two, one_two, [[(1,), ()], [(1,), (0,)]])
        objs = [c2_q.obj("1"), c2_q.obj("2"), one_two, split_idempotent(one_two, e).small]
        total, injections, projections = biproduct(objs)
        # the Karoubi part sits at summands 4, 5 of total, and there ι and p carry e
        assert injections[3].blocks[4:] == e.blocks
        assert tuple(row[4:] for row in projections[3].blocks) == e.blocks
        for i, o in enumerate(objs):
            for j, p in enumerate(objs):
                want = o.identity() if i == j else zero_morphism(p, o)
                assert projections[i] @ injections[j] == want
        acc = zero_morphism(total, total)
        for inc, prj in zip(injections, projections):
            acc = acc + inc @ prj
        assert acc == total.identity()


class TestIntInvertible:
    def test_rationals_always(self, c1_q):
        assert int_invertible(c1_q, 6)

    def test_char_divides(self, c1_f2):
        assert not int_invertible(c1_f2, 2)

    def test_char_does_not_divide(self, c1_f3):
        assert int_invertible(c1_f3, 2)


def test_morphism_div_int(c1_q):
    pt = c1_q.obj("pt")
    f = pt.identity().scale(Fraction(3))
    assert f.div_int(3) == pt.identity()


def _dense_product(g, f):
    """g∘f block by block, composing every block pair whether zero or not."""
    cat = g.cat
    zero = cat.field.zero()
    blocks = []
    for i, ti in enumerate(g.cod.summands):
        row = []
        for k, sk in enumerate(f.dom.summands):
            acc = [zero] * cat.hom_dim(sk, ti)
            for j, mj in enumerate(g.dom.summands):
                part = cat.compose_vec(sk, mj, ti, g.blocks[i][j], f.blocks[j][k])
                acc = [a + b for a, b in zip(acc, part)]
            row.append(acc)
        blocks.append(row)
    return Morphism(cat, f.dom, g.cod, blocks)


def _zero_some_blocks(m, rng):
    zero = m.cat.field.zero()
    blocks = [[v if rng.random() < 0.5 else tuple([zero] * len(v)) for v in row]
              for row in m.blocks]
    return Morphism(m.cat, m.dom, m.cod, blocks)


def test_composition_with_zero_blocks_matches_dense_product(c2_q, cw_q):
    rng = random.Random(5)
    cases = [(c2_q, [("1", "2", "1"), ("2", "1"), ("1", "1", "2", "2")]),
             (cw_q, [("pt",), ("pt", "pt"), ("pt", "pt", "pt")])]
    for cat, profiles in cases:
        for _ in range(12):
            a, b, c = (cat.obj(*rng.choice(profiles)) for _ in range(3))
            f = _zero_some_blocks(random_hom(cat, a, b, rng), rng)
            g = _zero_some_blocks(random_hom(cat, b, c, rng), rng)
            assert g @ f == _dense_product(g, f)
            assert zero_morphism(b, c) @ f == _dense_product(zero_morphism(b, c), f)
            assert g @ zero_morphism(a, b) == zero_morphism(a, c)
