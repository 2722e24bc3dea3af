"""Proof-carrying transitive closure and the decision pipeline.

The solver side of the artifact: positive literals seed a map from variable
pairs to atom-level certificates, and the map is closed under transitivity
one source row at a time: a row is one breadth-first search from its
source, built when a contradiction or a model first reads it
(``--algorithm fw`` builds every pair at once instead).  The closure
records each pair it adds as a midpoint, and ``pair_proof`` builds the
shortest ``trans`` chain, balanced, only for a pair a contradiction cites.
``contr_fm_prf`` is a tableau over the strict-free negation normal form: a
branch takes in its conjunctions, then splits its first disjunction, left
disjunct first, and closes as soon as a negative literal, shallowest
first, contradicts its closure; a refutation decomposes only conjunctions
that hold a leaf it cites.  The first open branch keeps its closure for the
model.  ``decide`` glues this to ``to_nnf`` (negation normal form and
strict elimination in one walk, one conversion) and re-checks every
certificate with the trusted kernel.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    EQ,
    LE,
    And,
    Atom,
    Formula,
    InvariantViolation,
    Literal,
    Or,
    Theory,
    VarId,
    formula_vars,
    literal_vars,
)
from .certs import (
    FLS_FORMULA,
    NILADIC_CONVERSIONS,
    AntisymP,
    AssmP,
    CertProof,
    ContrP,
    ConvProof,
    ConvRule,
    DisjE,
    EQE1P,
    EQE2P,
    Lift,
    PropProof,
    ReflP,
    TransP,
    ConjE,
    check_prop_proof,
)
from .model import Model, Pair, build_linear_model, build_partial_model, verify_model
from .rewrite import (  # noqa: F401 - bench/spans.py rebinds amap_fm and amap_fm_prf here
    StructureError,
    amap_fm,
    amap_fm_prf,
    deless_linear_prf,
    deless_partial_prf,
    then,
    to_dnf,
    to_nnf,
)

# A map from variable pairs to what proves them: a base pair's one-step
# certificate, or, for a pair ``(x, z)`` the closure derived, a midpoint ``y``
# with ``(x, y)`` and ``(y, z)`` in the map.  ``pair_proof`` builds the rest.
ProofMap = Mapping[Pair, CertProof | VarId]


def leq1_member_list(lit: Literal) -> list[tuple[Pair, CertProof]]:
    """Pairs contributed by one literal, each with its one-step certificate."""
    if not lit.pos:
        return []
    a = lit.atom
    if a.kind == LE:
        return [((a.x, a.y), AssmP(lit))]
    if a.kind == EQ:
        return [((a.x, a.y), EQE1P(lit)), ((a.y, a.x), EQE2P(lit))]
    return []


def leq1_mapping(literals: Sequence[Literal]) -> dict[Pair, CertProof]:
    """Union of leq1_member_list over the sequence; first writer wins."""
    mapping: dict[Pair, CertProof] = {}
    for lit in literals:
        for key, proof in leq1_member_list(lit):
            if key not in mapping:
                mapping[key] = proof
    return mapping


def bfs_row(succ: Mapping[VarId, list[VarId]], x: VarId) -> dict[VarId, VarId]:
    """The pairs ``(x, z)`` the closure derives from source ``x``, by midpoint.

    One breadth-first search from ``x`` over the successor lists ``succ``:
    each ``z`` first reached from ``y`` by the base pair ``(y, z)`` maps to
    the midpoint ``y``, in discovery order.  Base pairs ``(x, z)`` (the
    successors of ``x``) are not in the row.
    """
    out = succ.get(x, ())
    seen = set(out)
    row: dict[VarId, VarId] = {}
    queue = list(out)
    for y in queue:  # grows while it is walked: discovery order
        for z in succ.get(y, ()):
            if z not in seen:
                seen.add(z)
                row[z] = y
                queue.append(z)
    return row


class _RowClosure(Mapping[Pair, CertProof | VarId]):
    """A closed map whose source rows are built on first read.

    A base pair maps to its certificate.  A derived pair ``(x, z)`` maps to
    its midpoint from ``bfs_row(succ, x)``, which runs the first time any
    pair of source ``x`` is looked up, or when the map is iterated or sized.
    Iteration gives the base pairs in order, then each source's row, sources
    in the order they first occur in the base.
    """

    __slots__ = ("_base", "_succ", "_rows")

    def __init__(self, base: ProofMap) -> None:
        self._base = dict(base)
        self._succ: dict[VarId, list[VarId]] = {}
        for x, y in self._base:
            self._succ.setdefault(x, []).append(y)
        self._rows: dict[VarId, dict[VarId, VarId]] = {}

    def _row(self, x: VarId) -> dict[VarId, VarId]:
        row = self._rows.get(x)
        if row is None:
            row = self._rows[x] = bfs_row(self._succ, x)
        return row

    def __getitem__(self, key: Pair) -> CertProof | VarId:
        proof = self._base.get(key)
        if proof is not None:
            return proof
        x, z = key
        row = self._row(x)
        if z in row:
            return row[z]
        raise KeyError(key)

    def __iter__(self) -> Iterator[Pair]:
        yield from self._base
        for x in self._succ:
            for z in self._row(x):
                yield x, z

    def __len__(self) -> int:
        return len(self._base) + sum(len(self._row(x)) for x in self._succ)


def trancl_mapping(mapping: ProofMap) -> ProofMap:
    """Transitive closure of the key set, recording midpoints, built on demand.

    A pair ``(x, z)`` first reached from ``(x, y)`` by the base pair
    ``(y, z)`` is recorded as its midpoint ``y``, so ``pair_proof`` builds
    every certificate as a shortest ``trans`` chain.  Each source's row is one
    breadth-first search, O(V+E) dictionary lookups for V variables and E
    pairs of ``mapping``, run only when the row is first read; no certificate
    is built.  Existing entries, self-loops included, are never overwritten.
    """
    return _RowClosure(mapping)


def trancl_floyd_warshall(mapping: ProofMap) -> ProofMap:
    """Same contract as trancl_mapping via the cubic all-pairs scheme, eagerly.

    A pair ``(i, j)`` first found through ``k`` is recorded as the midpoint
    ``k``: its certificate's chain is that of ``(i, k)`` followed by that of
    ``(k, j)``.
    """
    result: dict[Pair, CertProof | VarId] = dict(mapping)
    vertices = sorted({v for key in mapping for v in key})
    for k in vertices:
        for i in vertices:
            if (i, k) not in result:
                continue
            for j in vertices:
                if (k, j) in result and (i, j) not in result:
                    result[(i, j)] = k
    return result


def pair_proof(leqm: ProofMap, x: VarId, z: VarId, cited: list[Literal] | None = None) -> CertProof | None:
    """Certificate for the pair ``(x, z)`` of a closed map, if it is in it.

    Its midpoints are expanded, on an explicit stack, into its chain of base
    steps in order, whose literals are appended to ``cited`` if it is given,
    and neighbouring proofs are joined by ``TransP`` until one is left, so
    an n-step chain nests ⌈log₂ n⌉ ``trans`` deep.
    """
    if (x, z) not in leqm:
        return None
    steps: list[CertProof] = []
    stack = [(x, z)]
    while stack:
        a, c = key = stack.pop()
        b = leqm[key]
        if isinstance(b, int):
            stack += (b, c), (a, b)
        else:
            steps.append(b)
    if cited is not None:
        cited += [step.lit for step in steps]
    while len(steps) > 1:
        joined = [TransP(left, right) for left, right in zip(steps[::2], steps[1::2])]
        steps = joined + steps[len(joined) * 2 :]
    return steps[0]


def is_in_leq(leqm: ProofMap, x: VarId, y: VarId, cited: list[Literal] | None = None) -> CertProof | None:
    """Certificate for x <= y under the closed map, if the pair is in it."""
    if x == y:
        return ReflP(x)
    return pair_proof(leqm, x, y, cited)


def is_in_eq(leqm: ProofMap, x: VarId, y: VarId, cited: list[Literal] | None = None) -> CertProof | None:
    """Certificate for x = y: both directions of <= combined antisymmetrically.

    Neither direction is built unless both are in the map.
    """
    if x != y and ((x, y) not in leqm or (y, x) not in leqm):
        return None
    return AntisymP(is_in_leq(leqm, x, y, cited), is_in_leq(leqm, y, x, cited))


def contr1_list(leqm: ProofMap, lit: Literal, cited: list[Literal] | None = None) -> PropProof | None:
    """Falsity certificate from one negative literal; what it cites is appended to ``cited``."""
    if lit.pos:
        return None
    a = lit.atom
    if a.kind == LE:
        proof = is_in_leq(leqm, a.x, a.y, cited)
    elif a.kind == EQ:
        proof = is_in_eq(leqm, a.x, a.y, cited)
    else:
        return None
    if proof is None:
        return None
    if cited is not None:
        cited.append(lit)
    return Lift(ContrP(lit, proof))


ClosureFn = Callable[[ProofMap], ProofMap]


def contr_list(leqm: ProofMap, literals: Sequence[Literal], cited: list[Literal] | None = None) -> PropProof | None:
    """First contradiction in sequence order against the closed map ``leqm``; see ``contr1_list``."""
    for lit in literals:
        found = contr1_list(leqm, lit, cited)
        if found is not None:
            return found
    return None


def _blocks(nnf: Formula) -> list[list]:
    """The blocks of a negation normal form, numbered as found, each with its number of implicit-DNF clauses.

    A block is the root or a disjunct read down its ``And`` nodes: those in
    pre-order, its literals left to right, its negative ones as (depth, block,
    position, literal), which sort shallowest first (level order, ties left
    to right), and its disjunctions, each with its left disjunct's block
    number (the right one's is next).  A disjunct's block follows its parent's.
    """
    blocks: list[list] = []
    roots = [nnf]
    for root in roots:  # grows: each disjunction adds its two disjuncts
        ands, lits, negs, ors = [], [], [], []
        stack = [(root, 0)]
        while stack:
            g, depth = stack.pop()
            while type(g) is And:
                ands.append(g)
                depth += 1
                stack.append((g.right, depth))
                g = g.left
            if type(g) is Or:
                ors.append((g, len(roots)))
                roots += g.left, g.right
            elif type(g) is Atom:
                lits.append(g.lit)
                if not g.lit.pos:
                    negs.append((depth, len(blocks), len(lits), g.lit))
            else:
                raise StructureError(f"not a negation normal form: {g}")
        blocks.append([ands, lits, sorted(negs), ors, 1])
    for block in reversed(blocks):
        block[4] = math.prod(blocks[j][4] + blocks[j + 1][4] for _, j in block[3])
    return blocks


def _cited_conj_prf(proof: PropProof, ands: Sequence[And], cited: list[Formula | Literal], start: int) -> PropProof:
    """Wrap ``proof`` in a ``ConjE`` for each of a block's ``ands`` (pre-order) holding a leaf of ``cited[start:]``.

    Leaves are matched by object: an atom's literal, or a disjunction.  Read
    in reverse, children first, each ``And`` pushes whether it holds one.
    """
    ids = set(map(id, cited[start:])) if ands else ()
    held: list[bool] = []
    for g in reversed(ands):
        # Both children pop: the list is built whole before ``any`` reads it.
        holds = any([held.pop() if type(h) is And else id(getattr(h, "lit", h)) in ids for h in (g.left, g.right)])
        if holds:
            proof = ConjE(g.left, g.right, proof)
        held.append(holds)
    return proof


@dataclass(frozen=True)
class OpenClause:
    """An open tableau branch: its position among the implicit DNF's clauses, its atoms and its closure."""

    index: int
    literals: tuple[Literal, ...]
    closure: ProofMap


def contr_fm_prf(nnf: Formula, *, closure_fn: ClosureFn) -> PropProof | OpenClause:
    """Refute a strict-free negation normal form by a tableau, or return its first open branch.

    A branch takes in a whole block, then splits its first pending
    disjunction, left disjunct first: branches come in the DNF's clause
    order.  Its closure is built only for a negative literal not yet checked
    against its positive ones, or for an open branch.  One frame per split.
    """
    blocks = _blocks(nnf)
    lits, negs, cited = [], [], []  # the branch's literals, its negative ones as in ``_blocks``, what is cited
    pending = None  # unsplit disjunctions in formula order: (first, its block, rest, clauses of all) or None
    leqm: ProofMap | None = None  # the closure every negative literal was checked against
    index, frames, b = 0, [], 0
    while True:
        ands, block_lits, block_negs, ors, _ = blocks[b]
        mark = len(cited)
        for o, j in reversed(ors):
            pending = (o, j, pending, (blocks[j][4] + blocks[j + 1][4]) * (pending[3] if pending else 1))
        leqm = None if len(block_negs) < len(block_lits) else leqm  # new positive literals
        lits += block_lits
        negs += block_negs
        if leqm is None and (negs or pending is None):  # an open branch's closure feeds the model
            mapping = leq1_mapping(lits)
            leqm = closure_fn(mapping) if mapping else {}
            block_negs = sorted(negs)
        found = contr_list(leqm, [neg[3] for neg in block_negs], cited) if block_negs else None
        if found is None and pending is not None:
            o, b, pending, _ = pending
            frames.append([o, b, len(lits), len(negs), leqm, pending, ands, mark, None])
            continue
        if found is None:
            return OpenClause(index, tuple(lits), leqm)
        index += pending[3] if pending else 1
        proof = _cited_conj_prf(found, ands, cited, mark)
        while frames and frames[-1][8] is not None:
            o, _, _, _, _, _, ands, mark, left = frames.pop()
            cited.append(o)
            proof = _cited_conj_prf(DisjE(o.left, o.right, left, proof), ands, cited, mark)
        if not frames:
            return proof
        frames[-1][8] = proof
        o, b, n_lits, n_negs, leqm, pending = frames[-1][:6]
        del lits[n_lits:], negs[n_negs:]
        b += 1


@dataclass(frozen=True)
class Preprocessed:
    """The DNF ``result`` and the one conversion that rewrites the input into it."""

    conversion: ConvProof
    result: Formula


def preprocess(f: Formula, theory: Theory) -> Preprocessed:
    """The DNF that ``decide``'s tableau leaves implicit, with the one conversion into it.

    ``to_nnf`` gives the strict-free negation normal form, and ``to_dnf``
    distributes it.  The conversion is ``allconv`` exactly when the result is ``f``.
    """
    deless_prf = deless_linear_prf if theory is Theory.LINEAR else deless_partial_prf
    nnf, p = to_nnf(f, deless_prf)
    dnf, q = to_dnf(nnf)
    return Preprocessed(then(p, q), dnf)


@dataclass(frozen=True)
class Unsat:
    certificate: PropProof


@dataclass(frozen=True)
class Sat:
    model: Model
    clause_index: int


Verdict = Unsat | Sat

_CLOSURE_ALGORITHMS: dict[str, ClosureFn] = {
    "naive": trancl_mapping,
    "fw": trancl_floyd_warshall,
}


def decide(f: Formula, theory: Theory, *, algorithm: str = "naive") -> Verdict:
    """Decide satisfiability of ``f`` over the given order theory.

    Unsat verdicts carry a falsity certificate rooted at ``f``, with at most
    one ``ConvRule``, at the root; it is re-checked with the trusted kernel.
    Sat verdicts carry a verified finite model, built from the search's own
    closure, of the first open branch of ``contr_fm_prf``, with every
    variable of ``f`` assigned; ``clause_index`` is its position among the
    clauses of ``preprocess(f, theory).result``, the DNF it leaves implicit.
    """
    try:
        closure_fn = _CLOSURE_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(f"unknown closure algorithm {algorithm!r}") from None

    nnf, conversion = to_nnf(f, deless_linear_prf if theory is Theory.LINEAR else deless_partial_prf)
    found = contr_fm_prf(nnf, closure_fn=closure_fn)

    if isinstance(found, OpenClause):
        lits = found.literals
        extra = formula_vars(f) - literal_vars(lits)
        build = build_linear_model if theory is Theory.LINEAR else build_partial_model
        m = build(lits, set(found.closure), extra_vars=extra)
        if not verify_model(m, lits):
            raise InvariantViolation("model failed verification")
        return Sat(m, found.index)

    certificate = found if conversion == NILADIC_CONVERSIONS["allconv"] else ConvRule(f, conversion, found)
    verdict = _checked_conclusion(f, certificate)
    if verdict != FLS_FORMULA:
        raise InvariantViolation(f"certificate concludes {verdict}, not falsity")
    return Unsat(certificate)


def _checked_conclusion(goal: Formula, certificate: PropProof) -> Formula:
    try:
        return check_prop_proof({goal}, certificate)
    except Exception as exc:  # noqa: BLE001 - surface kernel failures loudly
        raise InvariantViolation(f"produced certificate failed to check: {exc}") from exc
