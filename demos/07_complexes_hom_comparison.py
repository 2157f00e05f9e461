#!/usr/bin/env python3
"""Bounded complexes: homotopy-category homs and the two-sided hom comparison
between complexes of modules and module objects over the lifted monad."""

import random

from sepcat import (Field, FiniteGroup, GroupAction, LiftedMonad,
                    equivariant_monad, free_module, kb_hom_basis,
                    lifted_module_hom_dim, module_chain_hom_dim,
                    monad_separability_solve, random_module_complex)
from sepcat.complexes import BoundedComplex, ModuleComplex
from sepcat.equivariant import character_modules
from sepcat.standard import point_category

c1 = point_category(Field.rationals())
pt = c1.obj("pt")

# Homotopy-category hom spaces by exact linear algebra.
stalk = BoundedComplex(c1, {0: pt}, {}, name="pt[0]")
cone = BoundedComplex(c1, {0: pt, 1: pt}, {0: pt.identity()}, name="cone")
print("Hom(pt[0], pt[0]) in K^b:", kb_hom_basis(stalk, stalk).dim)
print("Hom(cone, pt[0]) in K^b:", kb_hom_basis(cone, stalk).dim, "(contractible source)")

# Lift the Z/2 group monad degreewise and compare the two hom dimensions.
act = GroupAction.trivial(FiniteGroup.cyclic(2), c1)
monad = equivariant_monad(act)
sigma = monad_separability_solve(monad)
chars = {("triv" if "; 1" in m.name else "sign"): m for m in character_modules(act, monad=monad)}

stalk_t = ModuleComplex(monad, {0: chars["triv"]}, {}, name="stalk(triv)")
stalk_s = ModuleComplex(monad, {0: chars["sign"]}, {}, name="stalk(sign)")
print("d1(triv, sign) =", module_chain_hom_dim(stalk_t, stalk_s),
      " d2(triv, sign) =", lifted_module_hom_dim(stalk_t, stalk_s))
print("d1(triv, triv) =", module_chain_hom_dim(stalk_t, stalk_t),
      " d2(triv, triv) =", lifted_module_hom_dim(stalk_t, stalk_t))

rng = random.Random(0)
pool = [chars["triv"], chars["sign"], free_module(monad, pt)]
a = random_module_complex(monad, pool, 4, rng, name="A")
b = random_module_complex(monad, pool, 4, rng, name="B")
print("on random length-4 complexes: d1 =", module_chain_hom_dim(a, b),
      " d2 =", lifted_module_hom_dim(a, b))

# The lifted monad laws hold degreewise, including the section law.
lifted = LiftedMonad(monad)
print("lifted monad laws on A:", lifted.validate_on(a.underlying, sigma).passed)
