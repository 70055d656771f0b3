"""Exact workbench for noncommutative polynomials and their reductions.

Modules: algebra (words, sparse polynomials, exact rank, the term and
state Budget that using_budget puts in force for a block), circuits (DAG
IR, expansion, bracketing transforms), abp (branching programs, transition
matrices, Hankel rank), automata (substitution automata, their matrix
compilation, and the sparse row-vector product that evaluates polynomials
and circuits on those matrices), families (generators for the named
polynomial families), reductions (projection, indexed-projection and
matrix-substitution reducibilities plus every concrete construction), cli
(command-line front end).
"""

from .fields import QQ, Field, FieldError, ModInt, PrimeField, field_from_spec
from .algebra import (
    Budget,
    NCPoly,
    StateBudgetError,
    TableMismatchError,
    TermBudgetError,
    Var,
    VarNameError,
    VarTable,
    Word,
    exact_rank,
    format_poly,
    hadamard_bruteforce,
    parse_poly,
    using_budget,
)
from .circuits import (
    Circuit,
    expand,
    format_circuit,
    homogenize,
    is_skew,
    parse_circuit,
    to_bracketed,
    to_skew_bracketed,
)
from .abp import (
    Abp,
    abp_eval,
    abp_hankel_rank,
    bounded_depth_dyck_abp,
    format_abp,
    hankel_block,
    hankel_rank,
    parse_abp,
    permanent_abp,
    transition_matrices,
)
from .automata import (
    MatrixSubstitution,
    SubstAutomaton,
    automaton_to_substitution,
    hadamard_via_matrices,
)
from .families import FamilyInstance, ChiTable, commutative_version, make_family

__version__ = "0.1.0"
