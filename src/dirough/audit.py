"""Claim registry and auditor.

Every theorem-shaped statement the library leans on is registered here as a
claim: an identifier, a tier, the variables it quantifies over, and a
predicate. Most predicates come from a few law templates (monotony,
sub-additivity, idempotence, ...) applied to the named operators in
OPERATORS. Tier-1 claims are hard expectations; a failure means the build
is wrong. Tier-2 claims are audited: failures are reported with replayable
witnesses and treated as documented deviations, not crashes.

Claims quantify over subsets (uppercase variables) and elements (lowercase
variables). Assignment spaces that fit a budget are enumerated exhaustively
in a fixed order; larger ones are sampled deterministically from a seed, so
a report is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterator

from ._bits import bits, is_subset, mix
from .acp import LawAuditReport, audit_acp_laws
from .cud import approx_cud, cud_family, cudas_op, eth_closure
from .errors import LawError
from .grpd import (
    ChoiceStrategy,
    Groupoid,
    build_updir_groupoid,
    relation_of,
    verify_b_of_s,
)
from .piappr import approx_pi
from .relsys import (
    RelationalSystem,
    approx_basic,
    dc_neighborhood,
    from_id_pairs,
    is_up_directed,
)

DEFAULT_ASSIGNMENT_LIMIT = 20000

_AUDIT_STRATEGIES = (
    ("min", ChoiceStrategy.min_index()),
    ("max", ChoiceStrategy.max_index()),
    ("seeded-11", ChoiceStrategy.seeded(11)),
    ("min-pi", ChoiceStrategy.min_index(pi_constrained=True)),
    ("seeded-11-pi", ChoiceStrategy.seeded(11, pi_constrained=True)),
)


@dataclass(frozen=True)
class AuditInstance:
    name: str
    sys: RelationalSystem
    g: Groupoid | None = None

    @cached_property
    def acp_report(self) -> LawAuditReport:
        """The formal-carrier ACP audit of g, run once per instance."""
        return audit_acp_laws(self.g, "formal")

    @cached_property
    def bs_groupoids(self) -> tuple[tuple[str, Groupoid], ...]:
        """The B(S) groupoid of sys under each audit strategy, built once."""
        return tuple(
            (name, build_updir_groupoid(self.sys, strat))
            for name, strat in _AUDIT_STRATEGIES
        )


@dataclass(frozen=True)
class Claim:
    """One auditable statement.

    vars names the quantified variables: uppercase entries range over
    subsets of the universe (or over the CUD family when domain is "cud"),
    lowercase entries over elements. A predicate takes the instance, then
    one value per variable in the order of vars. Claims with a checker skip
    quantification entirely and produce their own witness.
    """

    id: str
    tier: int
    needs: str  # "sys" or "grpd"
    vars: tuple[str, ...] = ()
    predicate: Callable[..., bool] | None = None
    checker: Callable[[AuditInstance], tuple[bool, dict | None]] | None = None
    domain: str = "all"  # subset variables range over "all" subsets or "cud" members
    requires_updirected: bool = False


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    tier: int
    instance: str
    status: str  # pass | fail | skipped
    witness: dict | None = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DeviationReport:
    results: tuple[ClaimResult, ...]

    @property
    def tier1_failures(self) -> tuple[ClaimResult, ...]:
        return tuple(r for r in self.results if r.tier == 1 and r.status == "fail")

    @property
    def deviations(self) -> tuple[ClaimResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    def as_dict(self) -> dict:
        return {"results": [r.as_dict() for r in self.results]}


# ---------------------------------------------------------------------------
# Deterministic random instances


def random_system(seed: int, n: int, density_pct: int = 35) -> RelationalSystem:
    labels = tuple(f"v{i}" for i in range(n))
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if mix(seed, a, b) % 100 < density_pct
    ]
    return from_id_pairs(labels, pairs)


def random_updirected_system(
    seed: int, n: int, density_pct: int = 35
) -> RelationalSystem:
    """Random system repaired to up-directedness.

    Any pair with no common successor gets one appointed deterministically.
    Edge additions only grow successor sets, so one pass suffices.
    """
    base = random_system(seed, n, density_pct)
    succ = list(base.succ)
    for a in range(n):
        for b in range(a, n):
            if not succ[a] & succ[b]:
                t = mix(seed, a, b, 7) % n
                succ[a] |= 1 << t
                succ[b] |= 1 << t
    pairs = [(a, b) for a in range(n) for b in bits(succ[a])]
    return from_id_pairs(base.labels, pairs)


# ---------------------------------------------------------------------------
# Named operators


@dataclass(frozen=True)
class Operator:
    """A subset operator that claims are stated over.

    needs says whether it reads the system or the groupoid, which also
    fixes the universe a law over it ranges across. updir marks operators
    defined only on up-directed systems.
    """

    needs: str  # "sys" or "grpd"
    fn: Callable[[AuditInstance, int], int]
    updir: bool = False


OPERATORS: dict[str, Operator] = {
    "l": Operator("sys", lambda i, A: approx_basic(i.sys, A, "l")),
    "u": Operator("sys", lambda i, A: approx_basic(i.sys, A, "u")),
    "eth": Operator("sys", lambda i, A: eth_closure(i.sys, A), updir=True),
    "l_cd": Operator("sys", lambda i, A: approx_cud(i.sys, A, "l"), updir=True),
    "u_cd": Operator("sys", lambda i, A: approx_cud(i.sys, A, "u"), updir=True),
    "u_cd_coll": Operator(
        "sys", lambda i, A: approx_cud(i.sys, A, "u", "collection"), updir=True
    ),
    "l_pi": Operator("grpd", lambda i, A: approx_pi(i.g, A, "l_pi")),
    "u_pi": Operator("grpd", lambda i, A: approx_pi(i.g, A, "u_pi")),
    "u_a": Operator("grpd", lambda i, A: approx_pi(i.g, A, "u_a")),
}


def _holder(i: AuditInstance, needs: str) -> RelationalSystem | Groupoid:
    return i.g if needs == "grpd" else i.sys


# ---------------------------------------------------------------------------
# Law templates: each returns (operator names, vars, predicate). The CUDAS
# and neighborhood templates after them name no operator and return the
# predicate alone.

Predicate = Callable[..., bool]
LawSpec = tuple[tuple[str, ...], tuple[str, ...], Predicate]


def mono(f: str) -> LawSpec:
    """A ⊆ B implies f A ⊆ f B."""
    F = OPERATORS[f].fn
    return (f,), ("A", "B"), lambda i, A, B: not is_subset(A, B) or (
        is_subset(F(i, A), F(i, B))
    )


def sadd(f: str) -> LawSpec:
    """f A ∪ f B ⊆ f(A ∪ B)."""
    F = OPERATORS[f].fn
    return (f,), ("A", "B"), lambda i, A, B: is_subset(
        F(i, A) | F(i, B), F(i, A | B)
    )


def smul(f: str) -> LawSpec:
    """f(A ∩ B) ⊆ f A ∩ f B."""
    F = OPERATORS[f].fn
    return (f,), ("A", "B"), lambda i, A, B: is_subset(
        F(i, A & B), F(i, A) & F(i, B)
    )


def _on_image(f: str, h: str, rel: Callable[[int, int], bool]) -> LawSpec:
    """rel(h A, f(h A)), evaluating h A once."""
    F, H = OPERATORS[f].fn, OPERATORS[h].fn

    def pred(i, A):
        x = H(i, A)
        return rel(x, F(i, x))

    return (f, h), ("A",), pred


def fixes(f: str, h: str | None = None) -> LawSpec:
    """f(h A) = h A; idempotence when h is f (the default)."""
    return _on_image(f, h or f, operator.eq)


def within(f: str, h: str | None = None) -> LawSpec:
    """h A ⊆ f(h A); h defaults to f."""
    return _on_image(f, h or f, is_subset)


def lift(lo: str, up: str) -> LawSpec:
    """lo A ⊆ up(lo A) ⊆ up A."""
    L, U = OPERATORS[lo].fn, OPERATORS[up].fn

    def pred(i, A):
        x = L(i, A)
        ux = U(i, x)
        return is_subset(x, ux) and is_subset(ux, U(i, A))

    return (lo, up), ("A",), pred


def sandwich(lo: str, up: str) -> LawSpec:
    """lo A ⊆ A ⊆ up A."""
    L, U = OPERATORS[lo].fn, OPERATORS[up].fn
    return (lo, up), ("A",), lambda i, A: is_subset(L(i, A), A) and (
        is_subset(A, U(i, A))
    )


def bottom(*fs: str) -> LawSpec:
    """Every f sends the empty set to itself."""
    Fs = [OPERATORS[f].fn for f in fs]
    return fs, (), lambda i: all(F(i, 0) == 0 for F in Fs)


def top(*fs: str) -> LawSpec:
    """Every f fixes the whole universe of its operators."""
    Fs = [OPERATORS[f].fn for f in fs]
    needs = OPERATORS[fs[0]].needs

    def pred(i):
        full = _holder(i, needs).full_mask
        return all(F(i, full) == full for F in Fs)

    return fs, (), pred


def idem_comm(kind: str) -> Predicate:
    """The CUDAS operation kind is commutative and idempotent."""

    def pred(i, A, B):
        return (
            cudas_op(i.sys, A, B, kind) == cudas_op(i.sys, B, A, kind)
            and cudas_op(i.sys, A, A, kind) == A
        )

    return pred


def cautious_mono(kind: str, join: Callable[[int, int], int]) -> Predicate:
    """A ⊆ B, C ⊆ E and join(B, E) ⊆ A∘C imply A∘C ⊆ B∘E, ∘ being kind."""

    def pred(i, A, B, C, E):
        ac = cudas_op(i.sys, A, C, kind)
        if not (is_subset(A, B) and is_subset(C, E) and is_subset(join(B, E), ac)):
            return True
        return is_subset(ac, cudas_op(i.sys, B, E, kind))

    return pred


def nbd_mono(kind: str) -> Predicate:
    """A ⊆ B implies the kind-neighborhood of x relative to A lies in B's."""
    return lambda i, A, B, x: not is_subset(A, B) or is_subset(
        dc_neighborhood(i.sys, A, x, kind), dc_neighborhood(i.sys, B, x, kind)
    )


def nbd_inside(kind: str, side: str) -> Predicate:
    """The kind-neighborhood of x lies in x's successors or predecessors."""
    return lambda i, A, x: is_subset(
        dc_neighborhood(i.sys, A, x, kind), getattr(i.sys, side)[x]
    )


# ---------------------------------------------------------------------------
# Helpers for hand-written predicates, and checkers


def _cone(i: AuditInstance, A: int) -> int:
    out = 0
    for a in bits(A):
        for c in bits(A):
            out |= i.sys.succ[a] & i.sys.succ[c]
    return out


def _construction_sound(i: AuditInstance) -> tuple[bool, dict | None]:
    for name, g in i.bs_groupoids:
        if not verify_b_of_s(i.sys, g):
            return False, {"strategy": name}
    return True, None


def _relation_roundtrip(i: AuditInstance) -> tuple[bool, dict | None]:
    for name, g in i.bs_groupoids:
        if relation_of(g, "R").succ != i.sys.succ:
            return False, {"strategy": name}
    return True, None


def _acp_checker(law: str) -> Callable[[AuditInstance], tuple[bool, dict | None]]:
    def run(i: AuditInstance) -> tuple[bool, dict | None]:
        for v in i.acp_report.verdicts:
            if v.law == law:
                return v.holds, v.witness
        raise LawError(f"auditor does not know law {law!r}")

    return run


# ---------------------------------------------------------------------------
# The registry

def _claims() -> tuple[Claim, ...]:
    S = "sys"
    G = "grpd"
    op = {name: o.fn for name, o in OPERATORS.items()}
    out: list[Claim] = []

    def claim(id, tier, needs, vars=(), domain="all", updir=False):
        def wrap(fn):
            out.append(
                Claim(
                    id, tier, needs, tuple(vars), predicate=fn, domain=domain,
                    requires_updirected=updir,
                )
            )
            return fn

        return wrap

    def law(id, tier, spec: LawSpec):
        # needs, universe and the up-directedness guard come from the operators
        names, vars, pred = spec
        ops = [OPERATORS[k] for k in names]
        claim(id, tier, ops[0].needs, vars, updir=any(o.updir for o in ops))(pred)

    def checked(id, tier, needs, fn, updir=False):
        out.append(Claim(id, tier, needs, checker=fn, requires_updirected=updir))

    # --- basic neighborhood approximations
    @claim("lup.l-id0", 1, S, ["A"])
    def _(i, A):
        lo = op["l"](i, A)
        return op["l"](i, lo) == lo and is_subset(lo, A)

    law("lup.u-wid0", 1, within("u"))
    law("lup.lu-inc", 1, lift("l", "u"))
    law("lup.l-mo", 1, mono("l"))
    law("lup.u-mo", 1, mono("u"))

    @claim("lup.bnd0", 1, S)
    def _(i):
        full = i.sys.full_mask
        return (
            op["l"](i, full) == op["u"](i, full)
            and is_subset(op["u"](i, full), full)
            and op["l"](i, 0) == 0 == op["u"](i, 0)
        )

    @claim("lup.u-union", 1, S, ["A", "B"])
    def _(i, A, B):
        u = op["u"]
        return u(i, A | B) == u(i, A) | u(i, B)

    law("lup.l-union", 1, sadd("l"))
    law("lup.l-cap", 1, smul("l"))
    law("lup.u-cap", 1, smul("u"))

    @claim("lup.upper-cone", 1, S, ["A"], updir=True)
    def _(i, A):
        return is_subset(_cone(i, A), op["u"](i, A))

    # --- neighborhood structure
    @claim("nbd.nu1", 1, S, ["x", "y", "z"])
    def _(i, x, y, z):
        lhs = i.sys.has(x, z) and i.sys.has(y, z)
        rhs = bool((i.sys.succ[x] & i.sys.succ[y]) >> z & 1)
        return lhs == rhs

    @claim("nbd.idcn-ne", 1, S, ["x"], updir=True)
    def _(i, x):
        return dc_neighborhood(i.sys, i.sys.full_mask, x, "idc") != 0

    claim("nbd.idcn-mo", 1, S, ["A", "B", "x"])(nbd_mono("idc"))
    claim("nbd.idcn-sub", 1, S, ["A", "x"])(nbd_inside("idc", "succ"))
    claim("nbd.eta-mo", 1, S, ["A", "B", "x"])(nbd_mono("dc"))
    claim("nbd.eta-sub", 1, S, ["A", "x"])(nbd_inside("dc", "pred"))

    # --- the cautious closure
    @claim("eth.inclusion", 1, S, ["A"], updir=True)
    def _(i, A):
        return is_subset(A, eth_closure(i.sys, A))

    law("eth.idempotence", 1, fixes("eth"))
    law("eth.bottom", 1, bottom("eth"))
    law("eth.top", 1, top("eth"))

    @claim("eth.cmo", 2, S, ["A", "B"], updir=True)
    def _(i, A, B):
        if not (is_subset(A, B) and A != B and is_subset(B, eth_closure(i.sys, A))):
            return True
        return is_subset(eth_closure(i.sys, A), eth_closure(i.sys, B))

    # --- CUDAS
    def cudas(id, tier, vars):
        return claim(id, tier, S, vars, domain="cud", updir=True)

    cudas("cudas.ic-oplus", 1, ["A", "B"])(idem_comm("oplus"))
    cudas("cudas.ic-odot", 1, ["A", "B"])(idem_comm("odot"))

    @cudas("cudas.inclusion-plus", 1, ["A", "B"])
    def _(i, A, B):
        return is_subset(A, cudas_op(i.sys, A, B, "oplus"))

    cudas("cudas.cmo-plus", 2, ["A", "B", "C", "E"])(
        cautious_mono("oplus", operator.or_)
    )
    cudas("cudas.cmo-dot", 2, ["A", "B", "C", "E"])(
        cautious_mono("odot", operator.and_)
    )

    @cudas("cudas.inclusiondot", 2, ["A", "B"])
    def _(i, A, B):
        return is_subset(cudas_op(i.sys, A, B, "odot"), A)

    # --- cud approximations, pointwise reading
    law("cdbas.cdInclusion", 1, sandwich("l_cd", "u_cd"))
    law("cdbas.lcdId", 1, fixes("l_cd"))
    law("cdbas.ucdpId", 1, within("u_cd"))
    law("cdbas.lucdpId", 1, within("u_cd", "l_cd"))
    law("cdbas.ulcdId", 1, fixes("l_cd", "u_cd"))
    law("cdbas.lcdmo", 1, mono("l_cd"))
    law("cdbas.ucdmo", 1, mono("u_cd"))
    law("cdbas.lcdsadd", 1, sadd("l_cd"))
    law("cdbas.ucdsadd", 1, sadd("u_cd"))
    law("cdbas.lcdsmul", 1, smul("l_cd"))
    law("cdbas.ucdsmul", 1, smul("u_cd"))
    law("cdbas.cdbottom", 1, bottom("l_cd", "u_cd"))
    law("cdbas.cdtop", 1, top("l_cd", "u_cd"))

    # --- cud approximations, collection reading (audited; known to fail)
    law("cdbas.cdInclusion-collection", 2, sandwich("l_cd", "u_cd_coll"))
    law("cdbas.ucdmo-collection", 2, mono("u_cd_coll"))

    def _cdtop_collection(i: AuditInstance) -> tuple[bool, dict | None]:
        full = i.sys.full_mask
        up = op["u_cd_coll"](i, full)
        if up == full:
            return True, None
        # the witness carries the collection-mode value so the gap is visible
        return False, {"upper": list(i.sys.set_labels(up))}

    checked("cdbas.cdtop-collection", 2, S, _cdtop_collection, updir=True)

    # --- subgroupoid approximations
    law("pi9.piInclusion", 1, sandwich("l_pi", "u_pi"))
    law("pi9.lpiId", 1, fixes("l_pi"))
    law("pi9.upipId", 1, fixes("u_pi"))
    law("pi9.ulpiId", 1, fixes("l_pi", "u_pi"))
    law("pi9.lupipId", 2, fixes("u_pi", "l_pi"))
    law("pi9.lpimo", 1, mono("l_pi"))
    law("pi9.upimo", 1, mono("u_pi"))
    law("pi9.lpisadd", 1, sadd("l_pi"))
    law("pi9.upisadd", 1, sadd("u_pi"))
    law("pi9.lpismul", 1, smul("l_pi"))
    law("pi9.upismul", 1, smul("u_pi"))
    law("pi9.pibottom", 1, bottom("l_pi", "u_pi"))
    law("pi9.pitop", 1, top("l_pi", "u_pi"))

    law("sappr.sandwich", 1, lift("l_pi", "u_pi"))

    # --- anti-lower upper approximation
    @claim("aup.plus-piInclusion", 1, G, ["A"])
    def _(i, A):
        return (
            is_subset(op["l_pi"](i, A), A)
            and is_subset(A, op["u_pi"](i, A))
            and is_subset(op["u_pi"](i, A), op["u_a"](i, A))
        )

    law("aup.uapIn", 1, within("u_a"))
    law("aup.luaIn", 1, within("u_a", "l_pi"))
    law("aup.ulaId", 1, fixes("l_pi", "u_a"))
    law("aup.uamo", 2, mono("u_a"))
    law("aup.uaadd", 2, sadd("u_a"))

    @claim("aup.abottom", 1, G)
    def _(i):
        return op["l_pi"](i, 0) == 0 and is_subset(0, op["u_a"](i, 0))

    law("aup.atop", 1, top("u_a"))

    # --- construction and the pair algebra
    checked("grpd.bs-sound", 1, S, _construction_sound, updir=True)
    checked("grpd.bs-roundtrip", 1, S, _relation_roundtrip, updir=True)
    checked("acp.A1", 1, G, _acp_checker("A1"))
    checked("acp.A2", 2, G, _acp_checker("A2"))
    checked("acp.A3", 1, G, _acp_checker("A3"))
    checked("acp.A4", 1, G, _acp_checker("A4"))
    checked("acp.A5", 1, G, _acp_checker("A5"))
    checked("acp.A6", 2, G, _acp_checker("A6"))
    checked("acp.well-defined", 1, G, _acp_checker("well-defined"))

    return tuple(out)


CLAIMS: tuple[Claim, ...] = _claims()
_BY_ID = {c.id: c for c in CLAIMS}


def claim_ids(tier: str = "all") -> tuple[str, ...]:
    return tuple(c.id for c in CLAIMS if tier == "all" or c.tier == int(tier))


# ---------------------------------------------------------------------------
# Running claims


def _hash_str(s: str) -> int:
    h = 0
    for ch in s:
        h = mix(h, ord(ch))
    return h


def _assignments(
    claim: Claim, inst: AuditInstance, limit: int, seed: int
) -> Iterator[tuple[int, ...]]:
    holder = _holder(inst, claim.needs)
    if claim.domain == "cud":
        subsets = cud_family(inst.sys).members
    else:
        # every subset, from the full set down, as subsets_of(full_mask) yields them
        subsets = range(holder.full_mask, -1, -1)
    domains = [subsets if v[0].isupper() else range(holder.n) for v in claim.vars]
    if math.prod(len(d) for d in domains) <= limit:
        return itertools.product(*domains)
    base = mix(seed, _hash_str(claim.id), _hash_str(inst.name))
    return (
        tuple(d[mix(base, t, k) % len(d)] for k, d in enumerate(domains))
        for t in range(limit)
    )


def _witness_labels(
    claim: Claim, inst: AuditInstance, values: tuple[int, ...]
) -> dict:
    holder = _holder(inst, claim.needs)
    return {
        v: list(holder.set_labels(x)) if v[0].isupper() else holder.labels[x]
        for v, x in zip(claim.vars, values)
    }


def check_claim(
    claim: Claim,
    inst: AuditInstance,
    limit: int = DEFAULT_ASSIGNMENT_LIMIT,
    seed: int = 0,
) -> ClaimResult:
    if claim.needs == "grpd" and inst.g is None:
        return ClaimResult(claim.id, claim.tier, inst.name, "skipped",
                           {"reason": "no groupoid available"})
    if claim.requires_updirected and not is_up_directed(inst.sys):
        return ClaimResult(claim.id, claim.tier, inst.name, "skipped",
                           {"reason": "system is not up-directed"})
    if claim.checker is not None:
        holds, witness = claim.checker(inst)
        return ClaimResult(
            claim.id, claim.tier, inst.name, "pass" if holds else "fail", witness
        )
    for values in _assignments(claim, inst, limit, seed):
        if not claim.predicate(inst, *values):
            return ClaimResult(
                claim.id, claim.tier, inst.name, "fail",
                _witness_labels(claim, inst, values),
            )
    return ClaimResult(claim.id, claim.tier, inst.name, "pass")


def replay_witness(
    claim_id: str, inst: AuditInstance, witness: dict
) -> bool:
    """Re-check a reported witness; True means it still violates the claim."""
    claim = _BY_ID.get(claim_id)
    if claim is None:
        raise LawError(f"unknown claim id {claim_id!r}")
    if claim.checker is not None:
        holds, again = claim.checker(inst)
        return not holds and again == witness
    holder = _holder(inst, claim.needs)
    values = [
        holder.mask(witness[v]) if v[0].isupper() else holder.id(witness[v])
        for v in claim.vars
    ]
    return not claim.predicate(inst, *values)


def audit_claims(
    sys: RelationalSystem | None = None,
    g: Groupoid | None = None,
    tier: str = "all",
    random_instances: int = 4,
    seed: int = 0,
    limit: int = DEFAULT_ASSIGNMENT_LIMIT,
) -> DeviationReport:
    """Run the registry over the given instance plus deterministic random ones.

    With no inputs the bundled five-element fixture and its companion
    groupoid are used.
    """
    if tier not in ("1", "2", "all"):
        raise LawError(f"unknown tier {tier!r}")
    if sys is None:
        from .fixtures import section6_groupoid, section6_system

        sys = section6_system()
        if g is None:
            g = section6_groupoid()
    if g is None and is_up_directed(sys):
        g = build_updir_groupoid(sys, ChoiceStrategy.min_index())

    instances = [AuditInstance("given", sys, g)]
    for k in range(random_instances):
        n = 3 + mix(seed, 101, k) % 4
        rs = random_updirected_system(mix(seed, 55, k), n)
        rg = build_updir_groupoid(rs, ChoiceStrategy.seeded(mix(seed, 77, k)))
        instances.append(AuditInstance(f"random-{k}", rs, rg))

    results = []
    for claim in CLAIMS:
        if tier != "all" and claim.tier != int(tier):
            continue
        for inst in instances:
            results.append(check_claim(claim, inst, limit, seed))
    return DeviationReport(tuple(results))
