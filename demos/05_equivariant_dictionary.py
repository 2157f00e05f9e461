#!/usr/bin/env python3
"""Equivariant objects, the induced adjunction, and the dictionary to modules."""

from fractions import Fraction

from sepcat import (EquivariantObject, Field, FiniteGroup, GroupAction,
                    eq_hom_space, equivariant_category, equivariant_monad,
                    induce_adjunction, to_equivariant, to_module,
                    validate_adjunction, xi_forgetful)
from sepcat.standard import point_category

c1 = point_category(Field.rationals())
z2 = FiniteGroup.cyclic(2)
act = GroupAction.trivial(z2, c1)
pt = c1.obj("pt")

# The sign object: α_g = −1 on the point.
sign = EquivariantObject(act, pt, {"e": pt.identity(),
                                   "g": pt.identity().scale(Fraction(-1))},
                         name="sign")
print("sign object valid:", sign.validate().passed)
triv = EquivariantObject(act, pt, {"e": pt.identity(), "g": pt.identity()},
                         name="triv")
print("Hom(triv, sign) dimension:", len(eq_hom_space(triv, sign)))

# The dictionary: (X, α) ↦ (X, λ) with λ_h = (α_h)^{-1}, and back.
monad = equivariant_monad(act)
mod = to_module(sign, monad=monad)
print("module action row:", [str(v[0]) for v in mod.action.blocks[0]])
back = to_equivariant(mod, act)
print("roundtrip is the identity on data:", back.alpha == sign.alpha)

# The induced adjunction on the presented equivariant category.
eqc = equivariant_category(act, extra={"triv": triv, "sign": sign})
adj = induce_adjunction(eqc)
print("triangle identities hold:", validate_adjunction(adj).passed)

# The Maschke section (1/|G|)·(α_h)_h satisfies ε∘ξ = Id.
xi = xi_forgetful(sign)
print("ξ for the sign object:", [str(v[0]) for row in xi.blocks for v in row])
