"""Substitution reductions between bracket-structured families.

These constructions share one shape: an automaton walks the target word,
kills everything outside the wanted sublanguage through dead cells, and
rewrites the survivors letterwise.  Balance of the target support does
the matching work, so the automata only need counters and block
decoding, never a stack.  Where the target has one degree, the states
carry no position, and the target's length does the counting.
"""

from ..abp import Abp
from ..algebra import VarTable, Word, budget
from ..automata import MatrixSubstitution, SubstAutomaton, automaton_to_substitution, product_cells
from ..families import (
    FamilyInstance,
    gen_dyck,
    gen_dyck_depth,
    gen_pal,
    gen_pal_sq,
)
from ..fields import QQ, Field
from .base import AbpReduction, IProjMap, apply_to_instance, iproj_to_abp


def _mirror_chain(n: int, blocks: int, source: FamilyInstance, kind: str, field: Field):
    """Palindrome encodings into two bracket types, `blocks` of them in a row.

    In each block of 2n target positions, openers in the first n and
    closers in the last n become letters by bracket type; any other
    placement is dead.  Balance forces the mirror structure.  The indexed
    projection is compiled by iproj_to_abp."""
    d = 2 * n * blocks
    budget().check_states(d + 1)  # the chain's states, before any position is mapped
    target = gen_dyck(2, d, field)
    (o1, c1), (o2, c2) = target.meta["pairs"]
    x0, x1 = source.table.var("x0"), source.table.var("x1")
    mapping = {}
    for pos in range(1, d + 1):
        first, second = (o1, o2) if (pos - 1) % (2 * n) < n else (c1, c2)
        mapping[(pos, first)], mapping[(pos, second)] = x0, x1
    m = IProjMap(target.table, source.table, mapping)
    r = iproj_to_abp(m, d, source.spec_string, target.spec_string)
    r.kind = kind
    return r


def pal_to_d2_reduction(n: int, field: Field = QQ) -> AbpReduction:
    """Palindromes from balanced words: one mirror block."""
    return _mirror_chain(n, 1, gen_pal(n, 2, field), "pal-d2", field)


def palsq_to_d2_reduction(n: int, field: Field = QQ) -> AbpReduction:
    """The palindrome-square analogue: the position pattern repeats twice.

    Within each half of the target word the closers must match the openers
    of the same half (the stack at the boundary is empty), so the survivors
    are exactly the products of two palindrome encodings."""
    return _mirror_chain(n, 2, gen_pal_sq(n, field), "palsq-d2", field)


def dk_encode_word(word: Word, k: int, source_pairs, target_pairs) -> Word:
    """Fixed-width encoding of k bracket types into two.

    Type i opens as (, i copies of [, then k-i more ( and closes with the
    mirror image, so every letter becomes a block of k+1 letters, type
    mismatches break balance, and block boundaries sit at fixed positions.
    """
    (o1, c1), (o2, c2) = ((chr(o), chr(c)) for o, c in target_pairs)
    code = {}
    for i, (o, c) in enumerate(source_pairs, start=1):
        code[chr(o)] = o1 + o2 * i + o1 * (k - i)
        code[chr(c)] = c1 * (k - i) + c2 * i + c1
    return "".join([code[v] for v in word])


def dk_to_d2_reduction(k: int, d: int, field: Field = QQ) -> AbpReduction:
    """Decode fixed-width two-type blocks back into k bracket types.

    The automaton reads the target word in blocks of k+1 letters through a
    trie of the block patterns, and emits the decoded bracket on the
    block's last letter, which leads to the block end b, the accept state;
    non-image words are dead.  One trie starts at the start state and one
    at b, since the start must not accept, and the target's degree d(k+1)
    fixes the number of blocks.  Balance of the encoded word forces
    balance (with types) of the decoded word.
    """
    if k < 2:
        raise ValueError("need at least two source bracket types")
    target = gen_dyck(2, d * (k + 1), field)
    source = gen_dyck(k, d, field)
    src_pairs = source.meta["pairs"]
    a = SubstAutomaton(target.table, source.table)
    a.add_state("s", start=True)
    a.add_state("b" if d else "s", accept=True)  # d = 0: the empty word alone

    patterns = [
        (dk_encode_word(chr(v), k, src_pairs, target.meta["pairs"]), v)
        for pair in src_pairs
        for v in pair
    ]

    def add_once(frm, letter, to, word):
        existing = a.transitions.get((frm, letter))
        if existing is None:
            a.add_transition(frm, letter, to, word=word)
        elif existing != (to, a.input_table.field.one, word):
            raise AssertionError("block patterns are not prefix-deterministic")

    # one trie of the block patterns from the start, one from the block end
    for root in ("s", "b") if d else ():
        for path, emit in patterns:
            prev = root
            letters = list(map(ord, path))
            for off, letter in enumerate(letters[:-1]):
                state = f"{root}|" + ".".join(map(str, letters[: off + 1]))
                add_once(prev, letter, state, "")
                prev = state
            add_once(prev, letters[-1], "b", chr(emit))
    sub = automaton_to_substitution(a)
    return AbpReduction(sub, source.spec_string, target.spec_string, kind="dk-d2")


def dyck_depth_reduction(k1: int, k2: int, n: int, field: Field = QQ) -> AbpReduction:
    """Keep only the balanced words whose bracket excess never exceeds k1.

    States are the excess e0..e(k1), and a start s that reads like e0;
    e0 accepts, and the target's length 2n does the counting.  Opening
    past the bound is dead, outputs are the identity, so applying this to
    the depth-k2 family yields the depth-k1 family.
    """
    if not 1 <= k1 <= k2 <= n:
        raise ValueError("need 1 <= k1 <= k2 <= n")
    target = gen_dyck_depth(k2, n, field)
    source = gen_dyck_depth(k1, n, field)
    pairs = source.meta["pairs"]
    a = SubstAutomaton(target.table, source.table)
    a.add_state("s", start=True)
    a.add_state("e0", accept=True)
    for state, excess in [("s", 0)] + [(f"e{e}", e) for e in range(k1 + 1)]:
        for o, c in pairs:
            if excess < k1:
                a.add_transition(state, o, f"e{excess + 1}", word=chr(o))
            if excess > 0:
                a.add_transition(state, c, f"e{excess - 1}", word=chr(c))
    sub = automaton_to_substitution(a)
    return AbpReduction(sub, source.spec_string, target.spec_string, kind="dyck-depth")


def check_vbp_trivial(f_abp: Abp, target: FamilyInstance, witness: Word) -> None:
    """Every check of vbp_trivial_reduction that comes before its products:
    the program's size (the substitution's dimension) against the state
    budget, its edge labels, the witness coefficient and the degrees."""
    budget().check_states(f_abp.size)
    m = len(witness)
    if m < 1:
        raise ValueError("witness word must have degree at least 1")
    # read the witness coefficient through a one-word chain, so that a
    # target with a grammar is not realized
    field = target.table.field
    letters = {(i, v): field.one for i, v in enumerate(map(ord, witness), 1)}
    chain = IProjMap(target.table, VarTable(field=field), letters)
    if apply_to_instance(iproj_to_abp(chain, m), target).coeff("") != 1:
        raise ValueError("witness word must have coefficient exactly 1 in the target")
    d = f_abp.degree
    if m > d:
        raise ValueError(f"witness degree {m} exceeds the program degree {d}")
    if (d + m - 1) // m > 3:
        raise ValueError("group entries would exceed the degree-3 cap")
    if not f_abp.is_homogeneous():
        raise ValueError("edge labels must be single-variable monomials")


def vbp_trivial_reduction(
    f_abp: Abp, target: FamilyInstance, witness: Word
) -> AbpReduction:
    """Carry a branching program along a single coefficient-one target word.

    The program's layer gaps are split into one group per witness letter;
    each letter's matrix holds that group's path monomials at the global
    vertex positions, so the layering forces every other target word to
    zero and the extraction equals the program's polynomial times the
    witness coefficient, which is one.  A group's matrix is the product of
    its gap matrices through product_cells, so parallel edges with the same
    variable add, and ValueError is raised when a group cell needs two
    distinct words.  check_vbp_trivial runs before any product is taken.
    """
    check_vbp_trivial(f_abp, target, witness)
    m, d = len(witness), f_abp.degree
    # per-gap sparse matrices in global vertex indexing, in the rows form
    one = f_abp.table.field.one
    gap_rows = []
    for gap, gap_edges in enumerate(f_abp.edges):
        row, col = f_abp.offsets[gap], f_abp.offsets[gap + 1]
        rows: dict = {}
        for u, v, c, word in gap_edges:
            rows.setdefault(row + u, []).append((col + v, c, word))
        gap_rows.append(rows)

    # each group's product starts on its own layer, so groups never share a row
    base, extra = divmod(d, m)
    entries: dict[int, dict] = {}
    gap = 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        starts = range(f_abp.offsets[gap], f_abp.offsets[gap + 1])
        block = product_cells(gap_rows[gap : gap + size], starts, one)
        entries.setdefault(ord(witness[i]), {}).update(block)
        gap += size

    sub = MatrixSubstitution(target.table, f_abp.table, f_abp.size, entries)
    return AbpReduction(sub, "abp", target.spec_string, kind="vbp-trivial")
