#!/usr/bin/env python3
"""Separability of a functor, decided by one exact affine solve.

A witness is a natural family H with H(F(f)) = f; the solver assembles the
retraction and binaturality constraints over the matrix entries of H and
returns either a re-verified witness or an infeasibility certificate.
"""

from sepcat import (Field, FiniteGroup, GroupAction, equivariant_category,
                    extract_section, induce_adjunction, separability_solve,
                    witness_from_section)
from sepcat.standard import point_category

z2 = FiniteGroup.cyclic(2)

# Over Q the forgetful functor from Z/2-equivariant objects is separable.
act_q = GroupAction.trivial(z2, point_category(Field.rationals()))
adj_q = induce_adjunction(equivariant_category(act_q))
w = separability_solve(adj_q.G)
print("forgetful functor over Q:", w)
print("witness laws re-verified:", w.verify().passed)

# The witness yields a section ξ of the counit (and back again).
xi = extract_section(adj_q, w)
print("section components:", {k: [str(c) for c in m.coords()]
                              for k, m in sorted(xi.components.items())})
w2 = witness_from_section(adj_q, xi)
print("rebuilt witness passes the same laws:", w2.verify().passed)

# Over F2 the same functor is not separable: the system is infeasible.
act_f2 = GroupAction.trivial(FiniteGroup.cyclic(2),
                             point_category(Field.prime(2), name="C1F2"))
adj_f2 = induce_adjunction(equivariant_category(act_f2))
print("forgetful functor over F2:", separability_solve(adj_f2.G))
