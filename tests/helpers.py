"""Shared test utilities: generators and independent oracles.

Everything here is deliberately written against the public types only, with
its own little algorithms, so tests never validate the implementation with
itself.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from typing import AbstractSet, Iterable

from ordersat.core import (
    ATOM_KINDS,
    And,
    Atom,
    Formula,
    Literal,
    Neg,
    Or,
    OrderAtom,
    OrderSatError,
    ParseError,
    Relation,
    SymbolTable,
    Theory,
    VarId,
    formula_vars,
    literal_vars,
    parse_input,
    quote_token,
)
from ordersat import sexpr
from ordersat.certs import (
    NILADIC_CONVERSIONS,
    AntisymP,
    ArgConv,
    AssmP,
    AtomConv,
    BinopConv,
    CertProof,
    ConjE,
    ContrP,
    ConvProof,
    ConvRule,
    ConversionError,
    DisjE,
    EQE1P,
    EQE2P,
    Lift,
    ProofError,
    PropProof,
    ReflP,
    Rule,
    ThenConv,
    TransP,
    apply_conv,
    check_atom_proof,
    serialize_literal,
)
from ordersat.closure import (
    ClosureFn,
    OpenClause,
    Preprocessed,
    ProofMap,
    Sat,
    Unsat,
    Verdict,
    contr_list,
    decide,
    leq1_mapping,
    preprocess,
    trancl_mapping,
)
from ordersat.model import build_linear_model, build_partial_model
from ordersat.replay import SIGMA, FmHole, ReplayError, SubstValue
from ordersat.rewrite import (
    StructureError,
    amap_fm,
    amap_fm_prf,
    conj_list,
    deless_linear_prf,
    deless_partial_prf,
    disj_clauses,
    then,
    to_dnf,
)


def naive_closure(pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Fixpoint transitive closure, the dumbest possible way."""
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return closed


def rounds_closure(mapping: ProofMap) -> ProofMap:
    """Round-based closure with certificates, the oracle for ``trancl_mapping``.

    Iterates composition with the base map at most ``len(mapping)`` times
    (enough to cover every simple path), stopping early once a round adds
    nothing.  Existing entries are never overwritten, so certificates for
    pairs found earlier stay stable.
    """
    result: ProofMap = dict(mapping)
    base_out: dict[VarId, list[tuple[VarId, CertProof]]] = {}
    for (x, y), proof in mapping.items():
        base_out.setdefault(x, []).append((y, proof))
    for _ in range(len(mapping)):
        added: ProofMap = {}
        for (x, y), proof in result.items():
            for z, step in base_out.get(y, ()):
                key = (x, z)
                if key not in result and key not in added:
                    added[key] = TransP(proof, step)
        if not added:
            break
        result.update(added)
    return result


def eager_trancl(mapping: ProofMap) -> dict:
    """``trancl_mapping`` as it was when it built every row at once.

    Kept verbatim as the oracle for the row-at-a-time closure: its keys,
    midpoints and iteration order.
    """
    result = dict(mapping)
    succ: dict[VarId, list[VarId]] = {}
    for x, y in mapping:
        succ.setdefault(x, []).append(y)
    for x, out in succ.items():
        queue = list(out)
        for y in queue:  # grows while it is walked: discovery order
            for z in succ.get(y, ()):
                key = (x, z)
                if key not in result:
                    result[key] = y
                    queue.append(z)
    return result


def closed(lits: Iterable[Literal]) -> ProofMap:
    """Closed certificate map of a clause's positive literals, by the oracle.

    What the search hands ``contr_list`` and the model builders.
    """
    return rounds_closure(leq1_mapping(list(lits)))


def proof_carrying_floyd_warshall(mapping: ProofMap) -> ProofMap:
    """``trancl_floyd_warshall`` as it was when it built every pair's proof.

    Kept verbatim as the oracle for the midpoints the closure records now.
    """
    result: ProofMap = dict(mapping)
    vertices = sorted({v for key in mapping for v in key})
    for k in vertices:
        for i in vertices:
            left = result.get((i, k))
            if left is None:
                continue
            for j in vertices:
                if (i, j) in result:
                    continue
                right = result.get((k, j))
                if right is not None:
                    result[(i, j)] = TransP(left, right)
    return result


def trans_steps(proof: CertProof) -> list[CertProof]:
    """The steps of a ``trans`` chain in order: the proofs below its ``TransP`` nodes."""
    if isinstance(proof, TransP):
        return trans_steps(proof.left) + trans_steps(proof.right)
    return [proof]


def trans_depth(proof: CertProof) -> int:
    """The most ``TransP`` nodes on a path from ``proof`` down to a step."""
    if isinstance(proof, TransP):
        return 1 + max(trans_depth(proof.left), trans_depth(proof.right))
    return 0


def list_kahn_sequence(r: Relation) -> list[int]:
    """``model.linear_extension``'s order as its list-based Kahn loop made it.

    Kept verbatim as the oracle for the heap-based loop.
    """
    remaining = sorted(r.carrier)
    preds: dict[int, set[int]] = {c: set() for c in remaining}
    for a, b in r.pairs:
        if a != b:
            preds[b].add(a)
    sequence: list[int] = []
    while remaining:
        ready = next(c for c in remaining if not preds[c])
        sequence.append(ready)
        remaining.remove(ready)
        for c in remaining:
            preds[c].discard(ready)
    return sequence


# ---------------------------------------------------------------------------
# Sequential instantiation, the oracle for the replay kernel's axiom instances
#
# One binder at a time, each step walking the whole partial instance of the
# row stated as one curried implication: the replay kernel's earlier
# propositions and substitution, kept as the reference.


@dataclasses.dataclass(frozen=True)
class Implies:
    hyp: Prop
    concl: Prop

    def __str__(self) -> str:
        hyp = f"({self.hyp})" if isinstance(self.hyp, Implies) else str(self.hyp)
        return f"{hyp} => {self.concl}"


Prop = Formula | Implies


def curried(premises, conclusion: Formula) -> Prop:
    """A ``SIGMA`` row's premises and conclusion as ``p1 => ... => pn => c``.

    A premise ``(hyps, goal)`` reads ``h1 => ... => hm => goal``.
    """
    prop: Prop = conclusion
    for hyps, goal in reversed(premises):
        premise: Prop = goal
        for hyp in reversed(hyps):
            premise = Implies(hyp, premise)
        prop = Implies(premise, prop)
    return prop


def _rename_lit(lit: Literal, old: VarId, new: VarId) -> Literal:
    a = lit.atom
    x = new if a.x == old else a.x
    y = new if a.y == old else a.y
    if x == a.x and y == a.y:
        return lit
    return Literal(lit.pos, OrderAtom(a.kind, x, y))


def _subst_fm(f: Formula, binder: VarId, value: SubstValue) -> Formula:
    if isinstance(f, FmHole):
        if f.hole != binder:
            return f
        if isinstance(value, Formula):
            return value
        raise ReplayError("cannot fill a formula position with a variable")
    if isinstance(f, Atom):
        if isinstance(value, int):
            return Atom(_rename_lit(f.lit, binder, value))
        if binder in (f.lit.atom.x, f.lit.atom.y):
            raise ReplayError("cannot substitute a formula for a variable position")
        return f
    if isinstance(f, And):
        return And(_subst_fm(f.left, binder, value), _subst_fm(f.right, binder, value))
    if isinstance(f, Or):
        return Or(_subst_fm(f.left, binder, value), _subst_fm(f.right, binder, value))
    if isinstance(f, Neg):
        return Neg(_subst_fm(f.arg, binder, value))
    raise ReplayError(f"not a formula: {f}")


def _subst(prop: Prop, binder: VarId, value: SubstValue) -> Prop:
    """Instantiate ``binder`` with ``value``.

    Values are the certificate's own variable ids and formulas, and the
    negative binder ids are rejected, so no value is mistaken for a binder.
    """
    if isinstance(prop, Formula):
        return _subst_fm(prop, binder, value)
    if isinstance(prop, Implies):
        return Implies(_subst(prop.hyp, binder, value), _subst(prop.concl, binder, value))
    raise ReplayError(f"not a proposition: {prop}")


def sequential_instance(name: str, terms: list[SubstValue | Literal]) -> Prop:
    """The axiom ``name`` at ``terms``, its binders instantiated one at a time."""
    binders, premises, conclusion = SIGMA[name]
    target = curried(premises, conclusion)
    if len(terms) != len(binders):
        raise ReplayError(f"axiom {name} takes {len(binders)} terms, got {len(terms)}")
    for binder, term in zip(binders, terms):
        if isinstance(term, int) and term < 0:
            raise ReplayError(f"negative variable ids are reserved for axiom binders: v{term}")
        if isinstance(term, Literal):
            raise ReplayError("cannot instantiate with a bare literal term")
        target = _subst(target, binder, term)
    return target


# ---------------------------------------------------------------------------
# The plain certificate writer, the oracle for the labelled one
#
# Every formula written out in full wherever it occurs: the writer's earlier
# output, kept verbatim as the reference for what labels save.


def _formula_text(f: Formula, texts: dict[int, str]) -> str:
    text = texts.get(id(f))
    if text is None:
        if isinstance(f, Atom):
            text = f"(atom {serialize_literal(f.lit)})"
        elif isinstance(f, And):
            text = f"(and {_formula_text(f.left, texts)} {_formula_text(f.right, texts)})"
        elif isinstance(f, Or):
            text = f"(or {_formula_text(f.left, texts)} {_formula_text(f.right, texts)})"
        elif isinstance(f, Neg):
            text = f"(neg {_formula_text(f.arg, texts)})"
        else:
            raise ValueError(f"not a formula node: {f!r}")
        texts[id(f)] = text
    return text


_HEADS: dict[type, str] = {
    AssmP: "assm",
    ReflP: "refl",
    TransP: "trans",
    AntisymP: "antisym",
    EQE1P: "eqe1",
    EQE2P: "eqe2",
    ContrP: "contr",
    AtomConv: "atom",
    ArgConv: "arg",
    BinopConv: "binop",
    ThenConv: "then",
    Lift: "lift",
    ConjE: "conje",
    DisjE: "disje",
    ConvRule: "conv",
}


def _write(node, out: list[str], texts: dict[int, str]) -> None:
    if isinstance(node, Rule):
        out.append(node.name)
        return
    out += ("(", _HEADS[type(node)])
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        out.append(" ")
        if isinstance(value, Formula):
            out.append(_formula_text(value, texts))
        elif isinstance(value, Literal):
            out.append(serialize_literal(value))
        elif isinstance(value, int):
            out.append(f"v{value}")
        else:
            _write(value, out, texts)
    out.append(")")


def plain_serialize_cert(p: PropProof) -> str:
    """Certificate text without labels, every formula restated in full."""
    out: list[str] = []
    _write(p, out, {})
    return "".join(out)


def doubling_cert(levels: int) -> str:
    """A certificate whose label ``i`` names two copies of label ``i - 1``.

    Its last formula has ``2 ** (levels + 1) - 1`` nodes, stated in about
    four tokens per level.
    """
    text = "#0=(atom (+ le v0 v1))"
    for i in range(1, levels + 1):
        text = f"#{i}=(and {text} #{i - 1}#)"
    return f"(conv {text} allconv (lift (refl v0)))"


def random_formula(rng: random.Random, max_depth: int = 4, num_vars: int = 4) -> Formula:
    if max_depth == 0 or rng.random() < 0.35:
        atom = OrderAtom(
            rng.choice(ATOM_KINDS), rng.randrange(num_vars), rng.randrange(num_vars)
        )
        return Atom(Literal(rng.random() < 0.5, atom))
    roll = rng.random()
    if roll < 0.4:
        return And(
            random_formula(rng, max_depth - 1, num_vars),
            random_formula(rng, max_depth - 1, num_vars),
        )
    if roll < 0.8:
        return Or(
            random_formula(rng, max_depth - 1, num_vars),
            random_formula(rng, max_depth - 1, num_vars),
        )
    return Neg(random_formula(rng, max_depth - 1, num_vars))


def random_literal(rng: random.Random, num_vars: int = 3) -> Literal:
    atom = OrderAtom(rng.choice(ATOM_KINDS), rng.randrange(num_vars), rng.randrange(num_vars))
    return Literal(rng.random() < 0.5, atom)


def wide_conjunction(n: int) -> tuple[Formula, PropProof]:
    """``x0 <= y0 & ... & x(n-1) <= y(n-1) & ~(x0 <= x0)`` and a spine certificate.

    The certificate is ``decide``'s lift rewrapped by ``unpruned_cert``: one
    conje node per literal above a single lift, the long spine the kernels
    must check in linear memory.  ``decide`` itself decomposes only the root.
    """
    f, _ = parse_input(" & ".join(f"x{i} <= y{i}" for i in range(n)) + " & ~(x0 <= x0)")
    verdict = decide(f, Theory.PARTIAL)
    assert isinstance(verdict, Unsat)
    return f, unpruned_cert(f, verdict.certificate)


def unpruned_conj_prf(proof: PropProof, clause: Formula) -> PropProof:
    """``closure.from_conj_prf`` as it was: a ``ConjE`` for every conjunction of ``clause``, cited or not."""
    if isinstance(clause, Atom):
        return proof
    if isinstance(clause, And):
        inner = unpruned_conj_prf(unpruned_conj_prf(proof, clause.right), clause.left)
        return ConjE(clause.left, clause.right, inner)
    raise StructureError(f"not a conjunction of atoms: {clause}")


def unpruned_cert(goal: Formula, cert: PropProof) -> PropProof:
    """``decide``'s refutation of a goal with no disjunction, its lift rewrapped by ``unpruned_conj_prf``.

    ``cert`` is at most one ``ConvRule`` over ``ConjE`` nodes above one ``Lift``.
    """
    if isinstance(cert, ConvRule):
        nnf = apply_conv(cert.conversion, cert.source)
        return ConvRule(cert.source, cert.conversion, unpruned_cert(nnf, cert.proof))
    while isinstance(cert, ConjE):
        cert = cert.proof
    return unpruned_conj_prf(cert, goal)


# ---------------------------------------------------------------------------
# The clause-by-clause search over an eager DNF, the oracle for the tableau


def is_dnf(f: Formula) -> bool:
    """Shape check: disjunction of conjunctions of atoms."""
    try:
        for clause in disj_clauses(f):
            conj_list(clause)
    except StructureError:
        return False
    return True


def clause_literals(clause: Formula) -> tuple[list[Literal], list[Literal], list[And]]:
    """One walk of a conjunction: its literals left to right, its negative ones shallowest first
    (level order, ties left to right), and its ``And`` nodes in pre-order."""
    lits: list[Literal] = []
    negs: list[Literal] = []
    depths: list[int] = []
    ands: list[And] = []
    stack = [(clause, 0)]
    while stack:
        g, depth = stack.pop()
        while type(g) is And:
            ands.append(g)
            depth += 1
            stack.append((g.right, depth))
            g = g.left
        if type(g) is not Atom:
            raise StructureError(f"not a conjunction of atoms: {g}")
        lits.append(g.lit)
        if not g.lit.pos:
            negs.append(g.lit)
            depths.append(depth)
    return lits, [negs[i] for i in sorted(range(len(negs)), key=depths.__getitem__)], ands


def from_conj_prf(proof: PropProof, ands: list[And], cited: Iterable[Literal]) -> PropProof:
    """Wrap ``proof`` in a ``ConjE`` for each of a conjunction's ``ands`` that holds a ``cited`` literal.

    ``ands`` are in pre-order and ``cited`` holds the very literal objects at
    the leaves.  Read in reverse, children first, each ``And`` pushes whether it holds one.
    """
    cited_ids = set(map(id, cited))
    held: list[bool] = []
    for g in reversed(ands):
        left, right = g.left, g.right
        holds = held.pop() if type(left) is And else id(left.lit) in cited_ids
        if (held.pop() if type(right) is And else id(right.lit) in cited_ids) or holds:
            proof = ConjE(left, right, proof)
            holds = True
        held.append(holds)
    return proof


def dnf_contr_fm_prf(f: Formula, *, closure_fn: ClosureFn = trancl_mapping) -> PropProof | OpenClause:
    """``closure.contr_fm_prf`` as it was: refute a negation-free DNF clause by clause, left to right.

    Each clause's closure is computed once, and its negative literals are
    tried shallowest first.  Returns the refutation when every clause is
    contradictory, else the leftmost open clause.
    """
    indices = itertools.count()

    def refute(g: Formula) -> PropProof | OpenClause:
        if isinstance(g, Or):
            left = refute(g.left)
            if isinstance(left, OpenClause):
                return left
            right = refute(g.right)
            return right if isinstance(right, OpenClause) else DisjE(g.left, g.right, left, right)
        lits, shallow, ands = clause_literals(g)
        leqm = closure_fn(leq1_mapping(lits))
        index = next(indices)
        cited: list[Literal] = []
        found = contr_list(leqm, shallow, cited)
        if found is None:
            return OpenClause(index, tuple(lits), leqm)
        return from_conj_prf(found, ands, cited)

    return refute(f)


def dnf_decide(f: Formula, theory: Theory) -> Verdict:
    """``closure.decide`` as it was: ``preprocess`` into a DNF, then ``dnf_contr_fm_prf``, unchecked."""
    prep = preprocess(f, theory)
    found = dnf_contr_fm_prf(prep.result)
    if isinstance(found, OpenClause):
        lits = found.literals
        extra = formula_vars(f) - literal_vars(lits)
        build = build_linear_model if theory is Theory.LINEAR else build_partial_model
        return Sat(build(lits, set(found.closure), extra_vars=extra), found.index)
    allconv = prep.conversion == NILADIC_CONVERSIONS["allconv"]
    return Unsat(found if allconv else ConvRule(f, prep.conversion, found))


# ---------------------------------------------------------------------------
# Formula equality: a recursive structural oracle and one-node mutants


def structurally_equal(a: Formula, b: Formula) -> bool:
    """Whether two formula trees have the same shape and the same leaves."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Atom):
        return a.lit == b.lit
    if isinstance(a, FmHole):
        return a.hole == b.hole
    if isinstance(a, Neg):
        return structurally_equal(a.arg, b.arg)
    return structurally_equal(a.left, b.left) and structurally_equal(a.right, b.right)


def rebuild_formula(f: Formula, rng: random.Random | None = None) -> Formula:
    """``f`` built again from new nodes; with ``rng``, one random node changes.

    A changed atom negates its literal, a changed hole takes the next id,
    a changed ``Neg`` is dropped and a changed ``And`` or ``Or`` swaps its
    connective.
    """
    target = rng.randrange(_formula_size(f)) if rng is not None else -1
    order = itertools.count()

    def build(node: Formula) -> Formula:
        changed = next(order) == target
        if isinstance(node, Atom):
            return Atom(node.lit.negate() if changed else node.lit)
        if isinstance(node, FmHole):
            return FmHole(node.hole - 1 if changed else node.hole)
        if isinstance(node, Neg):
            arg = build(node.arg)
            return arg if changed else Neg(arg)
        left = build(node.left)
        right = build(node.right)
        kind = {And: Or, Or: And}[type(node)] if changed else type(node)
        return kind(left, right)

    return build(f)


def recursive_str(f: Formula) -> str:
    """A formula's whole text, as each node's own recursive ``__str__`` printed it.

    Kept as the oracle for the bounded, explicit-stack ``Formula.__str__``.
    """
    if isinstance(f, Atom):
        return str(f.lit)
    if isinstance(f, And):
        return f"({recursive_str(f.left)} & {recursive_str(f.right)})"
    if isinstance(f, Or):
        return f"({recursive_str(f.left)} | {recursive_str(f.right)})"
    if isinstance(f, Neg):
        return f"~{recursive_str(f.arg)}"
    return str(f)


def recursive_conj_list(f: Formula) -> list[Literal]:
    """``rewrite.conj_list`` as it was when it recursed and concatenated, the oracle for its loop."""
    if isinstance(f, Atom):
        return [f.lit]
    if isinstance(f, And):
        return recursive_conj_list(f.left) + recursive_conj_list(f.right)
    raise StructureError(f"not a conjunction of atoms: {f}")


# ---------------------------------------------------------------------------
# Normalization as three recursive walks: the oracle for ``to_nnf``'s one walk


def deless_partial(lit: Literal) -> Formula:
    """``Atom(lit)`` rewritten by its partial-order rule, as the checker applies it."""
    return apply_conv(deless_partial_prf(lit), Atom(lit))


def deless_linear(lit: Literal) -> Formula:
    """``Atom(lit)`` rewritten by its linear-order rule, as the checker applies it."""
    return apply_conv(deless_linear_prf(lit), Atom(lit))


_ALLCONV = NILADIC_CONVERSIONS["allconv"]


def keep_atoms(lit: Literal) -> ConvProof:
    """The atom rule that keeps every atom: ``to_nnf`` with it only pushes negations."""
    return _ALLCONV


def _binop_or_allconv(left: ConvProof, right: ConvProof) -> ConvProof:
    return _ALLCONV if left == _ALLCONV and right == _ALLCONV else BinopConv(left, right)


def recursive_to_nnf(f: Formula) -> tuple[Formula, ConvProof]:
    """``rewrite.to_nnf`` with ``keep_atoms``, as it was when it recursed once per node."""
    if isinstance(f, Atom):
        return f, _ALLCONV
    if isinstance(f, (And, Or)):
        left, pl = recursive_to_nnf(f.left)
        right, pr = recursive_to_nnf(f.right)
        same = left is f.left and right is f.right
        return f if same else type(f)(left, right), _binop_or_allconv(pl, pr)
    if isinstance(f, Neg):
        inner = f.arg
        if isinstance(inner, Atom):
            return Atom(inner.lit.negate()), NILADIC_CONVERSIONS["negatom"]
        if isinstance(inner, Neg):
            result, p = recursive_to_nnf(inner.arg)
            return result, then(NILADIC_CONVERSIONS["negneg"], p)
        if isinstance(inner, (And, Or)):
            left, pl = recursive_to_nnf(Neg(inner.left))
            right, pr = recursive_to_nnf(Neg(inner.right))
            dual, rule = (Or, "negand") if isinstance(inner, And) else (And, "negor")
            return dual(left, right), then(NILADIC_CONVERSIONS[rule], _binop_or_allconv(pl, pr))
    raise StructureError(f"not a formula node: {f!r}")


def three_walk_preprocess(f: Formula, theory: Theory) -> Preprocessed:
    """``closure.preprocess`` as it was: ``to_nnf``, then ``amap_fm`` and ``amap_fm_prf`` of ``deless``, then ``to_dnf``."""
    if theory is Theory.LINEAR:
        deless, deless_prf = deless_linear, deless_linear_prf
    else:
        deless, deless_prf = deless_partial, deless_partial_prf
    nnf, p = recursive_to_nnf(f)
    delessed = amap_fm(deless, nnf)
    dnf, q = to_dnf(delessed)
    return Preprocessed(then(then(p, amap_fm_prf(deless_prf, nnf)), q), dnf)


def stack_formula_eq(a: Formula, b: Formula) -> bool:
    """``Formula.__eq__`` as it was: one explicit-stack walk, with no shortcut at the root."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a._hash != b._hash:
            return False
        if type(a) is Atom:
            if a.lit != b.lit:
                return False
        elif type(a) is Neg:
            stack.append((a.arg, b.arg))
        elif type(a) is And or type(a) is Or:
            stack.append((a.right, b.right))
            stack.append((a.left, b.left))
        elif a != b:
            return False
    return True


def _formula_size(node: Formula) -> int:
    if isinstance(node, Neg):
        return 1 + _formula_size(node.arg)
    if isinstance(node, (And, Or)):
        return 1 + _formula_size(node.left) + _formula_size(node.right)
    return 1


# ---------------------------------------------------------------------------
# Certificate mutation

_NODE_FAMILIES = (PropProof, CertProof, ConvProof, Formula, Literal, OrderAtom)

_NILADIC_CONVS = tuple(NILADIC_CONVERSIONS.values())


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _children(node) -> list[tuple[str, object]]:
    """The fields of ``node`` that hold certificate nodes, as (name, child) pairs, in field order."""
    pairs = ((name, getattr(node, name)) for name in _field_names(type(node)))
    return [(name, child) for name, child in pairs if isinstance(child, _NODE_FAMILIES)]


def _tree_size(node, sizes: dict[int, int]) -> int:
    """The nodes of ``node`` counted as a tree; ``sizes`` memoises each shared subtree by id."""
    key = id(node)
    if key not in sizes:
        sizes[key] = 1 + sum(_tree_size(child, sizes) for _, child in _children(node))
    return sizes[key]


def _mutate_node(rng: random.Random, node):
    if isinstance(node, OrderAtom):
        choice = rng.randrange(3)
        if choice == 0:
            kinds = [k for k in ATOM_KINDS if k != node.kind]
            return OrderAtom(rng.choice(kinds), node.x, node.y)
        if choice == 1:
            return OrderAtom(node.kind, node.x + 1, node.y)
        return OrderAtom(node.kind, node.y, node.x)
    if isinstance(node, Literal):
        return node.negate()
    if isinstance(node, AssmP):
        return rng.choice([EQE1P(node.lit), EQE2P(node.lit), AssmP(node.lit.negate())])
    if isinstance(node, ReflP):
        return ReflP(node.var + 1)
    if isinstance(node, TransP):
        return rng.choice([TransP(node.right, node.left), AntisymP(node.left, node.right)])
    if isinstance(node, AntisymP):
        return rng.choice([AntisymP(node.right, node.left), TransP(node.left, node.right)])
    if isinstance(node, EQE1P):
        return EQE2P(node.lit)
    if isinstance(node, EQE2P):
        return EQE1P(node.lit)
    if isinstance(node, ContrP):
        return rng.choice(
            [ContrP(node.lit.negate(), node.proof), ContrP(node.lit, ReflP(node.lit.atom.x))]
        )
    if isinstance(node, Atom):
        return Atom(node.lit.negate())
    if isinstance(node, And):
        return rng.choice([Or(node.left, node.right), And(node.right, node.left)])
    if isinstance(node, Or):
        return rng.choice([And(node.left, node.right), Or(node.right, node.left)])
    if isinstance(node, Neg):
        return node.arg
    if isinstance(node, Lift):
        return Lift(ReflP(0))
    if isinstance(node, ConjE):
        return ConjE(node.right, node.left, node.proof)
    if isinstance(node, DisjE):
        return rng.choice(
            [
                DisjE(node.right, node.left, node.left_proof, node.right_proof),
                DisjE(node.left, node.right, node.right_proof, node.left_proof),
            ]
        )
    if isinstance(node, ConvRule):
        return ConvRule(node.source, NILADIC_CONVERSIONS["allconv"], node.proof)
    if isinstance(node, AtomConv):
        return ArgConv(node.rule)
    if isinstance(node, ArgConv):
        return AtomConv(node.rule)
    if isinstance(node, BinopConv):
        return rng.choice(
            [BinopConv(node.right, node.left), ThenConv(node.left, node.right)]
        )
    if isinstance(node, ThenConv):
        return ThenConv(node.second, node.first)
    if isinstance(node, Rule):
        others = [c for c in _NILADIC_CONVS if c != node]
        return rng.choice(others)
    raise AssertionError(f"unhandled node {node!r}")


def _replace_node(rng: random.Random, node, target: int, sizes: dict[int, int]):
    """``node`` with its ``target``-th node in pre-order mutated; only the path to it is rebuilt."""
    if target == 0:
        return _mutate_node(rng, node)
    target -= 1
    for name, child in _children(node):
        if target < sizes[id(child)]:
            return dataclasses.replace(node, **{name: _replace_node(rng, child, target, sizes)})
        target -= sizes[id(child)]
    raise AssertionError(f"node {target} is not inside {node!r}")


def mutate_cert(rng: random.Random, cert: PropProof) -> PropProof:
    """Replace one randomly chosen node of the certificate.

    Nodes are numbered in pre-order over the certificate as a tree, and the
    mutant shares every subtree off the path to the chosen node.
    """
    sizes: dict[int, int] = {}
    target = rng.randrange(_tree_size(cert, sizes))
    return _replace_node(rng, cert, target, sizes)


# ---------------------------------------------------------------------------
# The per-character formula reader, the oracle for ``core.parse_input``
#
# The hand-written tokenizer that tracked a line and a column for every
# token, and the parser over its ``(text, line, col)`` tuples: the formula
# reader's earlier code, kept verbatim as the reference for formulas, names
# and error messages.


_RELOPS = ("<=", ">=", "!=", "<", ">", "=")


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.tokens: list[tuple[str, int, int]] = []
        line, col = 1, 1
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                col = 1
                i += 1
            elif c.isspace():
                col += 1
                i += 1
            elif c == "#":
                while i < n and text[i] != "\n":
                    i += 1
            elif c in "()&|~":
                self.tokens.append((c, line, col))
                col += 1
                i += 1
            elif text.startswith(("<=", ">=", "!="), i):
                self.tokens.append((text[i : i + 2], line, col))
                col += 2
                i += 2
            elif c in "<>=":
                self.tokens.append((c, line, col))
                col += 1
                i += 1
            elif c.isalpha() or c == "_":
                start = i
                while i < n and (text[i].isalnum() or text[i] == "_"):
                    i += 1
                self.tokens.append((text[start:i], line, col))
                col += i - start
            else:
                raise ParseError(f"{line}:{col}: unexpected character {c!r}")
        self.pos = 0
        self.end = (line, col)

    def peek(self) -> tuple[str, int, int] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"{self.end[0]}:{self.end[1]}: unexpected end of input")
        self.pos += 1
        return tok


class _Parser:
    """Grammar: disjunction of conjunctions of ~-prefixed atoms or groups."""

    def __init__(self, text: str, table: SymbolTable) -> None:
        self.ts = _Tokenizer(text)
        self.table = table

    def parse(self) -> Formula:
        f = self._disj()
        tok = self.ts.peek()
        if tok is not None:
            raise ParseError(f"{tok[1]}:{tok[2]}: unexpected {tok[0]!r}")
        return f

    def _disj(self) -> Formula:
        f = self._conj()
        while self._eat("|"):
            f = Or(f, self._conj())
        return f

    def _conj(self) -> Formula:
        f = self._unary()
        while self._eat("&"):
            f = And(f, self._unary())
        return f

    def _unary(self) -> Formula:
        tok = self.ts.peek()
        if tok is None:
            raise ParseError(f"{self.ts.end[0]}:{self.ts.end[1]}: unexpected end of input")
        if tok[0] == "~":
            self.ts.next()
            return Neg(self._unary())
        if tok[0] == "(":
            self.ts.next()
            f = self._disj()
            closing = self.ts.next()
            if closing[0] != ")":
                raise ParseError(f"{closing[1]}:{closing[2]}: expected ')', got {closing[0]!r}")
            return f
        return self._atom()

    def _atom(self) -> Formula:
        left = self._ident()
        op_tok = self.ts.next()
        op = op_tok[0]
        if op not in _RELOPS:
            raise ParseError(f"{op_tok[1]}:{op_tok[2]}: expected a relation, got {op!r}")
        right = self._ident()
        x = self.table.intern(left)
        y = self.table.intern(right)
        if op == "<=":
            return Atom(Literal(True, OrderAtom("le", x, y)))
        if op == "<":
            return Atom(Literal(True, OrderAtom("lt", x, y)))
        if op == "=":
            return Atom(Literal(True, OrderAtom("eq", x, y)))
        if op == "!=":
            return Neg(Atom(Literal(True, OrderAtom("eq", x, y))))
        if op == ">":
            return Atom(Literal(True, OrderAtom("lt", y, x)))
        return Atom(Literal(True, OrderAtom("le", y, x)))

    def _ident(self) -> str:
        tok = self.ts.next()
        name = tok[0]
        if not (name[0].isalpha() or name[0] == "_") or name in ("&", "|", "~"):
            raise ParseError(f"{tok[1]}:{tok[2]}: expected an identifier, got {name!r}")
        return name

    def _eat(self, text: str) -> bool:
        tok = self.ts.peek()
        if tok is not None and tok[0] == text:
            self.ts.next()
            return True
        return False


def tokenizer_parse_input(text: str) -> tuple[Formula, SymbolTable]:
    """``core.parse_input`` as the per-character reader computed it."""
    table = SymbolTable()
    return _Parser(text, table).parse(), table


# ---------------------------------------------------------------------------
# The cursor-based certificate reader, the oracle for ``certs.parse_cert``
#
# The certificate reader's earlier code, which took every token through a
# Python method call and looked each variable and literal up afresh: kept
# verbatim as the reference for certificates and error messages.


class _ReferenceReader:
    """Cursor over the tokens of one certificate text.

    Formulas are hash-consed as they are built: a node is keyed by its head
    and the objects of its children, an atom by its literal, so equal
    formulas are one object wherever the text states them, and both kernels
    compare them by identity first.  ``#n=`` binds label ``n`` to the
    formula after it once that formula closes, and ``#n#`` yields that same
    object.  With labels a short text could name a formula whose tree is
    exponentially larger, which would take as long to print, so no formula
    may have more nodes than the text has tokens, as none stated without
    labels does.  The tables belong to the reader, so nothing is kept from
    one ``parse_cert`` call to the next.
    """

    __slots__ = ("text", "tokens", "pos", "formulas", "labels")

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = sexpr.tokenize(text)
        self.pos = 0
        # A node's key to the node and the number of nodes in its tree.
        self.formulas: dict[tuple, tuple[Formula, int]] = {}
        # A label's digits to its formula, or to None while that formula is read.
        self.labels: dict[str, tuple[Formula, int] | None] = {}

    def next(self, expected: str | None = None) -> str:
        pos = self.pos
        if pos == len(self.tokens):
            raise ParseError(f"syntax error at offset {len(self.text)}: unexpected end of input")
        tok = self.tokens[pos]
        self.pos = pos + 1
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}, got {quote_token(tok)}", pos)
        return tok

    def error(self, message: str, k: int | None = None) -> ParseError:
        """``message`` at token ``k``, by default the token read last."""
        offset = sexpr.offset_of(self.text, self.tokens, self.pos - 1 if k is None else k)
        return ParseError(f"syntax error at offset {offset}: {message}")


def _ref_parse_var(r: _ReferenceReader) -> VarId:
    tok = r.next()
    digits = tok[1:]
    if not tok.startswith("v") or not (digits.isascii() and digits.isdigit()):
        raise r.error(f"expected a variable like v0, got {quote_token(tok)}")
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise r.error(f"variable id of {len(digits)} digits is too long") from None


def _ref_literal_fields(r: _ReferenceReader) -> tuple[bool, str, VarId, VarId]:
    r.next("(")
    sign = r.next()
    if sign not in ("+", "-"):
        raise r.error(f"expected polarity + or -, got {quote_token(sign)}")
    kind = r.next()
    if kind not in ("le", "lt", "eq"):
        raise r.error(f"expected atom kind le/lt/eq, got {quote_token(kind)}")
    x = _ref_parse_var(r)
    y = _ref_parse_var(r)
    r.next(")")
    return sign == "+", kind, x, y


def _ref_parse_literal(r: _ReferenceReader) -> Literal:
    sign, kind, x, y = _ref_literal_fields(r)
    return Literal(sign, OrderAtom(kind, x, y))


def _ref_parse_formula(r: _ReferenceReader) -> tuple[Formula, int]:
    """The next formula, hash-consed, and the number of nodes in its tree.

    The labels in front of it are read in this frame, so a labelled formula
    nests no deeper than a plain one.  A label binds only once its formula
    closes, so a formula cannot refer to itself and no cycle can form.
    """
    tok, defined = r.next(), ()
    while tok != "(":
        digits, mark, labels = tok[1:-1], tok[-1], r.labels
        if tok[0] != "#":
            raise r.error(f"expected '(', got {quote_token(tok)}")
        if mark not in "=#" or not (digits.isascii() and digits.isdigit()):
            raise r.error(f"expected a formula or a label, got {quote_token(tok)}")
        if mark == "#":
            node = labels.get(digits)
            if node is None:
                raise r.error(f"undefined label {quote_token(tok)}")
            for label in defined:
                labels[label] = node
            return node
        if digits in labels:
            raise r.error(f"label {quote_token(tok)} is defined twice")
        labels[digits] = None
        defined += (digits,)
        tok = r.next()
    head = r.next()
    if head == "atom":
        key: tuple = _ref_literal_fields(r)
        size = 1
    elif head in ("and", "or"):
        left = _ref_parse_formula(r)
        right = _ref_parse_formula(r)
        key = (head, id(left[0]), id(right[0]))
        size = 1 + left[1] + right[1]
    elif head == "neg":
        arg = _ref_parse_formula(r)
        key = (head, id(arg[0]))
        size = 1 + arg[1]
    else:
        raise r.error(f"expected a formula head, got {quote_token(head)}")
    r.next(")")
    node = r.formulas.get(key)
    if node is None:
        if size > len(r.tokens):
            raise r.error(f"formula of {size} nodes is larger than the text of {len(r.tokens)} tokens")
        if head == "atom":
            f: Formula = Atom(Literal(key[0], OrderAtom(key[1], key[2], key[3])))
        elif head == "neg":
            f = Neg(arg[0])
        else:
            f = (And if head == "and" else Or)(left[0], right[0])
        node = r.formulas[key] = f, size
    for label in defined:
        r.labels[label] = node
    return node


def _ref_parse_atom_proof(r: _ReferenceReader) -> CertProof:
    r.next("(")
    name = r.next()
    if name == "assm":
        node: CertProof = AssmP(_ref_parse_literal(r))
    elif name == "refl":
        node = ReflP(_ref_parse_var(r))
    elif name in ("trans", "antisym"):
        node = (TransP if name == "trans" else AntisymP)(_ref_parse_atom_proof(r), _ref_parse_atom_proof(r))
    elif name in ("eqe1", "eqe2"):
        node = (EQE1P if name == "eqe1" else EQE2P)(_ref_parse_literal(r))
    elif name == "contr":
        lit = _ref_parse_literal(r)
        node = ContrP(lit, _ref_parse_atom_proof(r))
    else:
        raise r.error(f"expected an atom proof head, got {quote_token(name)}")
    r.next(")")
    return node


def _ref_parse_conv_proof(r: _ReferenceReader) -> ConvProof:
    tok = r.next()
    if tok != "(":
        rule = NILADIC_CONVERSIONS.get(tok)
        if rule is None:
            raise r.error(f"unknown conversion {quote_token(tok)}")
        return rule
    name = r.next()
    if name == "atom":
        node: ConvProof = AtomConv(_ref_parse_conv_proof(r))
    elif name == "arg":
        node = ArgConv(_ref_parse_conv_proof(r))
    elif name == "binop":
        node = BinopConv(_ref_parse_conv_proof(r), _ref_parse_conv_proof(r))
    elif name == "then":
        node = ThenConv(_ref_parse_conv_proof(r), _ref_parse_conv_proof(r))
    else:
        raise r.error(f"expected a conversion head, got {quote_token(name)}")
    r.next(")")
    return node


def _ref_parse_cert(r: _ReferenceReader) -> PropProof:
    r.next("(")
    name = r.next()
    if name == "lift":
        node: PropProof = Lift(_ref_parse_atom_proof(r))
    elif name == "conje":
        node = ConjE(_ref_parse_formula(r)[0], _ref_parse_formula(r)[0], _ref_parse_cert(r))
    elif name == "disje":
        node = DisjE(_ref_parse_formula(r)[0], _ref_parse_formula(r)[0], _ref_parse_cert(r), _ref_parse_cert(r))
    elif name == "conv":
        node = ConvRule(_ref_parse_formula(r)[0], _ref_parse_conv_proof(r), _ref_parse_cert(r))
    else:
        raise r.error(f"expected a certificate head, got {quote_token(name)}")
    r.next(")")
    return node


def reference_parse_cert(text: str) -> PropProof:
    """Inverse of serialize_cert, in one pass over the tokens of ``text``.

    Equal formulas read to one object, and ``#n#`` to the object labelled
    ``#n=``.  A ParseError names the offset of the offending token.
    """
    r = _ReferenceReader(text)
    cert = _ref_parse_cert(r)
    if r.pos < len(r.tokens):
        raise r.error(f"trailing input {quote_token(r.tokens[r.pos])}", r.pos)
    return cert


# ---------------------------------------------------------------------------
# The recursive structured kernel, the oracle for ``certs.check_prop_proof``
#
# The structured kernel's earlier check, which copied its frozenset context
# at every ConjE, DisjE and ConvRule node: kept verbatim as the reference for
# conclusions and error messages.


def recursive_check_prop_proof(context: Iterable[Formula], proof: PropProof) -> Formula:
    """``certs.check_prop_proof`` as the recursive frozenset checker computed it."""
    return _check_prop(frozenset(context), proof)


def _check_prop(context: frozenset[Formula], proof: PropProof) -> Formula:
    if isinstance(proof, Lift):
        atoms = frozenset(f.lit for f in context if isinstance(f, Atom))
        return Atom(check_atom_proof(atoms, proof.proof))
    if isinstance(proof, ConjE):
        if And(proof.left, proof.right) not in context:
            raise ProofError(f"conjunction {And(proof.left, proof.right)} is not among the assumptions")
        return _check_prop(context | {proof.left, proof.right}, proof.proof)
    if isinstance(proof, DisjE):
        if Or(proof.left, proof.right) not in context:
            raise ProofError(f"disjunction {Or(proof.left, proof.right)} is not among the assumptions")
        c1 = _check_prop(context | {proof.left}, proof.left_proof)
        c2 = _check_prop(context | {proof.right}, proof.right_proof)
        if c1 != c2:
            raise ProofError(f"case split branches prove different formulas: {c1} and {c2}")
        return c1
    if isinstance(proof, ConvRule):
        if proof.source not in context:
            raise ProofError(f"conversion source {proof.source} is not among the assumptions")
        rewritten = apply_conv(proof.conversion, proof.source)
        return _check_prop(context | {rewritten}, proof.proof)
    raise ProofError(f"unknown propositional proof node {proof!r}")


# ---------------------------------------------------------------------------
# The curried proof terms, the oracle for the replay kernel's rule instances
#
# The export that compiled a certificate into proof terms, and the replay
# that applied an axiom instance to its premise proofs one ``AppP`` at a time
# and bound each hypothesis a premise assumes with its own ``AbsP``: kept
# verbatim as the reference for verdicts and messages.  Its axiom instances
# are placed by ``sequential_instance``.


class ExportError(OrderSatError):
    """A structured certificate could not be compiled into a proof term."""


class GPrf:
    __slots__ = ()


@dataclasses.dataclass(frozen=True)
class PThm(GPrf):
    name: str
    terms: tuple[VarId | Formula, ...]


@dataclasses.dataclass(frozen=True)
class Bound(GPrf):
    hyp: Formula


@dataclasses.dataclass(frozen=True)
class ConvP(GPrf):
    source: Formula
    conversion: ConvProof
    proof: GPrf


@dataclasses.dataclass(frozen=True)
class AppP(GPrf):
    fn: GPrf
    arg: GPrf


@dataclasses.dataclass(frozen=True)
class AbsP(GPrf):
    hyp: Formula
    body: GPrf


def curried_replay(context: AbstractSet[Formula], proof: GPrf) -> Prop:
    """``replay.replay`` as the curried kernel computed it."""
    if isinstance(proof, PThm):
        if proof.name not in SIGMA:
            raise ReplayError(f"unknown proof constant {proof.name!r}")
        return sequential_instance(proof.name, list(proof.terms))
    if isinstance(proof, Bound):
        if proof.hyp not in context:
            raise ReplayError(f"unbound hypothesis {proof.hyp}")
        return proof.hyp
    if isinstance(proof, AbsP):
        return Implies(proof.hyp, curried_replay(context | {proof.hyp}, proof.body))
    if isinstance(proof, AppP):
        fn = curried_replay(context, proof.fn)
        arg = curried_replay(context, proof.arg)
        if not isinstance(fn, Implies):
            raise ReplayError(f"proof application needs an implication, got {fn}")
        if fn.hyp != arg:
            raise ReplayError(
                f"proof application mismatch: expected {fn.hyp}, got {arg}"
            )
        return fn.concl
    if isinstance(proof, ConvP):
        if proof.source not in context:
            raise ReplayError(f"conversion source {proof.source} is not in the context")
        try:
            result = apply_conv(proof.conversion, proof.source)
        except ConversionError as exc:
            raise ReplayError(f"conversion failed: {exc}") from exc
        return curried_replay(context | {result}, proof.proof)
    raise ReplayError(f"unknown proof term {proof!r}")


def _curried_atom(proof: CertProof) -> tuple[GPrf, VarId, VarId]:
    if isinstance(proof, AssmP):
        a = proof.lit.atom
        return Bound(Atom(proof.lit)), a.x, a.y
    if isinstance(proof, ReflP):
        return PThm("refl", (proof.var,)), proof.var, proof.var
    if isinstance(proof, (TransP, AntisymP)):
        left, x, y = _curried_atom(proof.left)
        right, _, z = _curried_atom(proof.right)
        if isinstance(proof, TransP):
            return AppP(AppP(PThm("trans", (x, y, z)), left), right), x, z
        return AppP(AppP(PThm("antisym", (x, y)), left), right), x, y
    if isinstance(proof, (EQE1P, EQE2P)):
        a = proof.lit.atom
        name, x, y = ("eqe1", a.x, a.y) if isinstance(proof, EQE1P) else ("eqe2", a.y, a.x)
        return AppP(PThm(name, (a.x, a.y)), Bound(Atom(proof.lit))), x, y
    if isinstance(proof, ContrP):
        a = proof.lit.atom
        name = f"contr_{a.kind}"
        if name not in SIGMA:
            raise ExportError("no contradiction axiom for strict atoms")
        head = PThm(name, (a.x, a.y))
        # Falsity ``v0 != v0`` relates v0 to itself.
        return AppP(AppP(head, Bound(Atom(proof.lit))), _curried_atom(proof.proof)[0]), 0, 0
    raise ExportError(f"unknown atom proof node {proof!r}")


def curried_export(proof: PropProof) -> GPrf:
    """``replay.export`` as the curried compiler computed it."""
    if isinstance(proof, Lift):
        return _curried_atom(proof.proof)[0]
    if isinstance(proof, ConjE):
        head = PThm("conje", (proof.left, proof.right))
        conjunction = Bound(And(proof.left, proof.right))
        body = AbsP(proof.left, AbsP(proof.right, curried_export(proof.proof)))
        return AppP(AppP(head, conjunction), body)
    if isinstance(proof, DisjE):
        head = PThm("disje", (proof.left, proof.right))
        disjunction = Bound(Or(proof.left, proof.right))
        left_case = AbsP(proof.left, curried_export(proof.left_proof))
        right_case = AbsP(proof.right, curried_export(proof.right_proof))
        return AppP(AppP(AppP(head, disjunction), left_case), right_case)
    if isinstance(proof, ConvRule):
        return ConvP(proof.source, proof.conversion, curried_export(proof.proof))
    raise ExportError(f"unknown propositional proof node {proof!r}")
