"""Reductions and structure checks around the permanent-style families."""

import itertools

from ..algebra import NCPoly, Var, budget, exact_rank
from ..automata import SubstAutomaton, automaton_to_substitution
from ..families import (
    ChiTable,
    gen_hierarchy,
    gen_id_star,
    gen_per,
    gen_per_star_chi,
    tag_positions,
    tagged_table,
)
from ..fields import QQ, Field
from .base import AbpReduction, IProjMap, ProjMap


def per_to_idstar_reduction(n: int, field: Field = QQ) -> AbpReduction:
    """Select the permutation words out of the repeated-index family.

    The target's words are n^2 repeated blocks of one index word; block
    number i, read as a pair (j, k) with j != k, remembers the index chosen
    at position min(j, k) and dies if position max(j, k) repeats it.  Over
    all blocks this kills exactly the non-injective index words.  Block one
    emits its variables, later blocks emit nothing.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    # each of the n^2 blocks has a state at each of its n positions, and
    # the accept state follows: charged before any table is built
    budget().check_states(n**3 + 1)
    source = gen_per(n, field)
    target = gen_id_star(n, field)
    a = SubstAutomaton(target.table, source.table)
    a.add_state("s", start=True)
    accept = f"q{n ** 3}"
    a.add_state(accept, accept=True)

    def var_of(table, row, idx):
        return table.var(f"x{row}_{idx}").id

    def state_name(block, p, mem):
        # p positions read inside the current block; mem is the remembered index
        if block == n * n and p == n:
            return accept
        return f"b{block}.{p}.{mem if mem is not None else '-'}"

    for block in range(1, n * n + 1):
        j = (block - 1) // n + 1
        k = (block - 1) % n + 1
        lo, hi = min(j, k), max(j, k)
        checking = j != k
        for p in range(n):  # reading position p+1 of this block
            row = p + 1
            mems = [None]
            if checking and lo <= p < hi:
                mems = list(range(1, n + 1))
            for mem in mems:
                frm = "s" if (block, p) == (1, 0) else state_name(block, p, mem)
                for idx in range(1, n + 1):
                    if checking and row == hi and idx == mem:
                        continue  # repeated index: dead
                    if checking and row == lo:
                        nxt_mem = idx
                    elif checking and lo < row < hi:
                        nxt_mem = mem
                    else:
                        nxt_mem = None
                    if p + 1 == n:
                        to = state_name(block + 1, 0, None) if block < n * n else accept
                    else:
                        to = state_name(block, p + 1, nxt_mem)
                    word = chr(var_of(source.table, row, idx)) if block == 1 else ""
                    a.add_transition(frm, var_of(target.table, row, idx), to, word=word)
    sub = automaton_to_substitution(a)
    return AbpReduction(sub, source.spec_string, target.spec_string, kind="per-idstar")


def per_to_perstar_chi_reduction(n: int, chi: ChiTable, field: Field = QQ) -> AbpReduction:
    """Divide the weighted repeated-permanent by its own weights.

    Block one identifies the permutation (states are permutation prefixes),
    the remaining blocks advance through the forced repeats, and the final
    transition carries 1/chi(sigma), cancelling the target coefficient.
    Block one emits its variables, later blocks emit nothing.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if chi.n != n:
        raise ValueError("chi table size does not match n")
    source = gen_per(n, field)
    target = gen_per_star_chi(n, chi, field)
    a = SubstAutomaton(target.table, source.table)
    a.add_state("s", start=True)
    accept = "t"
    a.add_state(accept, accept=True)

    def var_of(table, row, idx):
        return table.var(f"x{row}_{idx}").id

    def repeat_state(sigma, pos):
        """The state after pos letters of sigma's word, with the coefficient
        of the step into it: the step into the accept state cancels the
        target's weight."""
        if pos == n * n:
            return accept, field.inv(chi.values[sigma])
        return f"r{'.'.join(map(str, sigma))}@{pos}", None

    # block one: identify sigma by its prefix; for n = 1 its last letter
    # goes straight to the accept state
    for p in range(n):
        row = p + 1
        for prefix in itertools.permutations(range(1, n + 1), p):
            frm = "s" if p == 0 else "p" + "".join(f".{x}" for x in prefix)
            for idx in range(1, n + 1):
                if idx in prefix:
                    continue
                nxt = prefix + (idx,)
                if p + 1 == n:
                    to, coeff = repeat_state(nxt, n)
                else:
                    to, coeff = "p" + "".join(f".{x}" for x in nxt), None
                a.add_transition(
                    frm,
                    var_of(target.table, row, idx),
                    to,
                    coeff=coeff,
                    word=chr(var_of(source.table, row, idx)),
                )

    # remaining blocks: walk the forced repeats of sigma
    for sigma in itertools.permutations(range(1, n + 1)):
        for pos in range(n, n * n):
            frm, _ = repeat_state(sigma, pos)
            to, coeff = repeat_state(sigma, pos + 1)
            letter = var_of(target.table, pos % n + 1, sigma[pos % n])
            a.add_transition(frm, letter, to, coeff=coeff)
    sub = automaton_to_substitution(a)
    return AbpReduction(sub, source.spec_string, target.spec_string, kind="per-chi")


def hierarchy_iproj(i: int, n: int, field: Field = QQ) -> IProjMap:
    """Indexed projection from hierarchy level i into level i+1.

    The leading balanced-word factor is collapsed to its unique all-type-1
    nesting (ones on the matching positions, zeros elsewhere); for i >= 2
    the leading repeated-word factor is collapsed to its all-zero word the
    same way; every later factor maps to the corresponding factor of the
    level-i instance by renaming.
    """
    if i < 1 or n < 1:
        raise ValueError("need i >= 1 and n >= 1")
    source = gen_hierarchy(i, n, field)
    target = gen_hierarchy(i + 1, n, field)
    ttab, stab = target.table, source.table
    one, zero = field.one, field.zero
    mapping: dict = {}

    def dvars(tab, m):
        return [tab.var(f"({b}_f{m}").id for b in (1, 2)] + [
            tab.var(f"){b}_f{m}").id for b in (1, 2)
        ]

    def idvars(tab, m):
        return [tab.var(f"x0_f{m}").id, tab.var(f"x1_f{m}").id]

    # factor 1 of the target: collapse both parts
    o1, o2, c1, c2 = dvars(ttab, 1)
    for pos in range(1, n + 1):
        mapping[(pos, o1)] = one
        mapping[(pos, o2)] = zero
        mapping[(pos, c1)] = zero
        mapping[(pos, c2)] = zero
    for pos in range(n + 1, 2 * n + 1):
        mapping[(pos, c1)] = one
        mapping[(pos, c2)] = zero
        mapping[(pos, o1)] = zero
        mapping[(pos, o2)] = zero
    x0, x1 = idvars(ttab, 1)
    for pos in range(2 * n + 1, 4 * n + 1):
        if i == 1:
            mapping[(pos, x0)] = Var(stab.var("x0").id, "x0")
            mapping[(pos, x1)] = Var(stab.var("x1").id, "x1")
        else:
            mapping[(pos, x0)] = one
            mapping[(pos, x1)] = zero

    # factors 2..i of the target rename to factors 1..i-1 of the source
    for m in range(2, i + 1):
        offset = (m - 1) * 4 * n
        tsrc = dvars(ttab, m) + idvars(ttab, m)
        ssrc = dvars(stab, m - 1) + idvars(stab, m - 1)
        for pos in range(offset + 1, offset + 4 * n + 1):
            for tv, sv in zip(tsrc, ssrc):
                mapping[(pos, tv)] = Var(sv, stab.name(sv))
    return IProjMap(ttab, stab, mapping)


# No command reaches it yet: it waits for the VNP-separation command on the ROADMAP.
def transfer(m: IProjMap, degree: int) -> ProjMap:
    """Turn an indexed projection into a plain projection between the
    position-tagged versions of its endpoints.

    Needs every position to be pure: either all its images are scalars
    (the position disappears and later tags shift down) or all are
    variables (the tag is kept, compressed over the dropped positions).
    The commuting square with the position-tagging operator then holds
    exactly, which the tests enforce.
    """
    scalar_pos = set()
    var_pos = set()
    for (pos, _vid), img in m.mapping.items():
        if pos > degree:
            continue
        (var_pos if isinstance(img, Var) else scalar_pos).add(pos)
    mixed = scalar_pos & var_pos
    if mixed:
        raise ValueError(f"positions {sorted(mixed)} map to both scalars and variables")
    kept = sorted(var_pos)
    compress = {pos: idx + 1 for idx, pos in enumerate(kept)}
    in_tagged = tagged_table(m.input_table, degree)
    out_tagged = tagged_table(m.output_table, len(kept))
    mapping: dict = {}
    for (pos, vid), img in m.mapping.items():
        if pos > degree:
            continue
        src = in_tagged.var(f"{m.input_table.name(vid)}@{pos}")
        if isinstance(img, Var):
            tgt = out_tagged.var(f"{img.name}@{compress[pos]}")
            mapping[src.id] = Var(tgt.id, tgt.name)
        else:
            mapping[src.id] = img
    return ProjMap(in_tagged, out_tagged, mapping)


class SplitVerdict:
    """Either a position bipartition along which the coefficient matrix has
    rank one (so the polynomial factors over it), or none exists."""

    __slots__ = ("split", "checked")

    def __init__(self, split: tuple | None, checked: int):
        self.split = split
        self.checked = checked


# No command reaches it yet: it waits for the VNP-separation command on the ROADMAP.
def set_multilinear_rank1_split(f: NCPoly, max_degree: int = 12) -> SplitVerdict:
    """Search all position bipartitions of a set-multilinear polynomial for
    one whose coefficient matrix (rows: assignments to the part, columns:
    assignments to the rest) has rank one.

    Rank one at some bipartition is exactly a factorization into two
    set-multilinear factors over complementary position sets; reporting no
    split certifies there is none of that shape.
    """
    if not f:
        raise ValueError("the zero polynomial has no position structure")
    pos_of = {chr(vid): tag for vid, tag in tag_positions(f.table).items()}
    d = f.degree()
    if d > max_degree:
        raise ValueError(f"degree {d} exceeds the exhaustive bound {max_degree}")
    for w in f.terms:
        tags = sorted(pos_of[v][1] for v in w)
        if tags != list(range(1, d + 1)):
            raise ValueError("polynomial is not set-multilinear over positions 1..d")
    positions = list(range(2, d + 1))
    checked = 0
    for size in range(0, d - 1):
        for extra in itertools.combinations(positions, size):
            part = frozenset((1,) + extra)
            checked += 1
            rows: dict = {}
            cols: dict = {}
            for w, c in f.terms.items():
                left = "".join(sorted((v for v in w if pos_of[v][1] in part), key=lambda v: pos_of[v][1]))
                right = "".join(sorted((v for v in w if pos_of[v][1] not in part), key=lambda v: pos_of[v][1]))
                rows.setdefault(left, {})[cols.setdefault(right, len(cols))] = c
            if exact_rank(rows.values(), f.table.field) == 1:
                return SplitVerdict(tuple(sorted(part)), checked)
    return SplitVerdict(None, checked)
