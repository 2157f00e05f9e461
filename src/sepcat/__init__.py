"""Exact separability checking for functors and monads over finitely presented
k-linear categories: Karoubi calculus, Eilenberg-Moore modules, group
equivariant objects, and bounded-complex homotopy categories, all decided by
exact linear algebra over Q and F_p."""

from .scalars import Field, Fp, QQ
from .linalg import AffineSolution, Infeasible, LinForm, solve_sparse
from .category import (CatObject, LinearCategory, Morphism, MorSystem,
                       RetractWitness, direct_sum, biproduct,
                       hom_space_basis, int_invertible, invert_morphism,
                       morphism, slot_placement, split_idempotent, validate_presentation,
                       zero_morphism)
from .functors import (Adjunction, Functor, NatTrans, SepWitness,
                       compose_functors, extract_section, fully_faithful_on,
                       section_feasibility, separability_solve,
                       transfer_witness, validate_adjunction, validate_functor,
                       validate_nat)
from .monads import (Monad, MonadSepWitness, monad_from_adjunction,
                     monad_separability_solve, sigma_from_xi, validate_monad)
from .modules import (Comparison, EmAdjunction, MModule, ModuleMor,
                      check_equiv_up_to_retracts, essential_preimage, free_module,
                      module_hom_basis, module_retract_of_free, validate_module,
                      xi_em_from_sigma)
from .equivariant import (EquivariantCategory, EquivariantObject, FiniteGroup,
                          GroupAction, character_modules, eq_hom_space,
                          equivariant_category, equivariant_monad,
                          free_equivariant, induce_adjunction, to_equivariant,
                          to_module, validate_action, xi_forgetful, xi_section)
from .complexes import (BoundedComplex, ChainMap, HomotopyHom, LiftedMonad,
                        ModuleComplex, chain_map_space, derived_comparison_check,
                        kb_hom_basis, module_chain_hom_dim,
                        lifted_module_hom_dim, module_complex_retract,
                        random_module_complex, validate_complex)
from .errors import (LawViolationError, MonadNotSeparableError,
                     NonInvertibleComponentError, NotFullyFaithfulError,
                     NotIdempotentError, NotInvertibleError, PreconditionError,
                     WorkspaceError)
from .reports import ValidationReport

__version__ = "0.1.0"
