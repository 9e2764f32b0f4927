"""Register automaton model: guards, transitions, validation, completeness.

Data values are opaque naturals; only equality between the input datum and
register contents is ever consulted.  Guards over k registers therefore
factor through "atom assignments": bitmasks sigma where bit j says whether
the input equals register j.  Every assignment is realizable by a concrete
(valuation, datum) pair, which makes the 2^k assignment sweep an exact
completeness/determinism check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional

Datum = int
Valuation = tuple  # tuple[Datum, ...] of length k
Configuration = tuple  # (location id, Valuation)

# Guards are enumerated over 2^k atom assignments; reject silly register
# counts instead of silently degrading.
REGISTER_ENUMERATION_CAP = 6
# Entries a compiled automaton's firing table may hold before it is emptied.
FIRING_TABLE_CAP = 4096


class StructuralError(ValueError):
    """An automaton or argument violates a structural invariant."""


class ResourceCapError(RuntimeError):
    """A computation would exceed a configured resource cap."""


# ---------------------------------------------------------------------------
# Guards


class Constraint:
    """Base class for register-constraint ASTs.

    A guard works out the facts compiling needs, its registers and its mask
    per k, once and keeps them on itself.  They are not fields, so equality
    and hashing ignore them, and they are freed with the guard.
    """

    __slots__ = ()

    @cached_property
    def registers(self) -> tuple:
        """The registers this guard reads, in increasing order."""
        return tuple(sorted(guard_registers(self)))

    @cached_property
    def _masks(self) -> dict:
        return {}

    def mask(self, k: int) -> int:
        """guard_mask(self, k), computed once per k."""
        masks = self._masks
        out = masks.get(k)
        if out is None:
            out = masks[k] = guard_mask(self, k)
        return out


@dataclass(frozen=True)
class TrueC(Constraint):
    pass


@dataclass(frozen=True)
class Eq(Constraint):
    register: int


@dataclass(frozen=True)
class And(Constraint):
    left: Constraint
    right: Constraint


@dataclass(frozen=True)
class Not(Constraint):
    operand: Constraint


TRUE = TrueC()


def neq(register: int) -> Constraint:
    return Not(Eq(register))


def or_(left: Constraint, right: Constraint) -> Constraint:
    return Not(And(Not(left), Not(right)))


def conj(parts) -> Constraint:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts) -> Constraint:
    parts = list(parts)
    if not parts:
        raise ValueError("disjunction of nothing (no False constraint exists)")
    out = parts[0]
    for p in parts[1:]:
        out = or_(out, p)
    return out


def guard_registers(guard: Constraint) -> set:
    """All register indices referenced by the guard."""
    out, stack = set(), [guard]
    while stack:  # validate() walks every guard: plain type tests, no recursion
        g = stack.pop()
        kind = type(g)
        if kind is Eq:
            out.add(g.register)
        elif kind is Not:
            stack.append(g.operand)
        elif kind is And:
            stack += (g.left, g.right)
        elif kind is not TrueC:
            raise TypeError(f"not a constraint: {g!r}")
    return out


def eval_constraint(guard: Constraint, valuation: Valuation, datum: Datum) -> bool:
    """Truth of `guard` when reading `datum` under `valuation`."""
    match guard:
        case TrueC():
            return True
        case Eq(r):
            if not 0 <= r < len(valuation):
                raise StructuralError(f"guard register r{r} out of range for k={len(valuation)}")
            return valuation[r] == datum
        case And(l, r):
            return eval_constraint(l, valuation, datum) and eval_constraint(r, valuation, datum)
        case Not(g):
            return not eval_constraint(g, valuation, datum)
    raise TypeError(f"not a constraint: {guard!r}")


def guard_mask(guard: Constraint, k: int) -> int:
    """Bitmask over all 2^k atom assignments satisfying `guard`, in one
    bottom-up pass.  Atom =r<j> holds where bit j of sigma is set: blocks of
    2^j clear then 2^j set bits, i.e. one such block times a repunit.  An
    atom on a register outside 0..k-1 holds nowhere; validate reports it."""
    full = (1 << (1 << k)) - 1

    def mask(g: Constraint) -> int:
        kind = type(g)
        if kind is Not:
            return full ^ mask(g.operand)
        if kind is Eq:
            if not 0 <= g.register < k:
                return 0
            block = 1 << g.register
            return full // ((1 << 2 * block) - 1) * (((1 << block) - 1) << block)
        if kind is And:
            return mask(g.left) & mask(g.right)
        if kind is TrueC:
            return full
        raise TypeError(f"not a constraint: {g!r}")

    return mask(guard)


# ---------------------------------------------------------------------------
# Automata


class Transition(NamedTuple):
    source: int
    letter: int
    guard: Constraint
    update: frozenset
    target: int


@dataclass(frozen=True)
class Acceptance:
    initial: int
    accepting: frozenset


@dataclass(frozen=True)
class RegisterAutomaton:
    name: str
    locations: tuple
    registers: int
    alphabet: tuple
    transitions: tuple
    acceptance: Optional[Acceptance] = None

    def location_index(self, name: str) -> int:
        return self.locations.index(name)

    def letter_index(self, name: str) -> int:
        return self.alphabet.index(name)

    @cached_property
    def compiled(self) -> "CompiledAutomaton":
        """The compiled form, built on first use and kept on this instance
        (a property, not a field: equality and hashing ignore it)."""
        return CompiledAutomaton(self)


def mk_transition(source, letter, guard, update, target) -> Transition:
    return Transition(source, letter, guard, frozenset(update), target)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


def validate(aut: RegisterAutomaton) -> list:
    """Structural diagnostics; empty list iff the automaton is well formed.
    Assumes a register count the compile accepts (CompiledAutomaton checks
    it before it calls this)."""
    diags = []
    n_loc = len(aut.locations)
    n_sym = len(aut.alphabet)
    if not n_loc:
        diags.append(Diagnostic("no-locations", "automaton has no locations"))
    for kind, names in (("location", aut.locations), ("letter", aut.alphabet)):
        seen = set()
        for name in names:
            if name in seen:
                diags.append(Diagnostic("duplicate-name", f"duplicate {kind} name {name!r}"))
            seen.add(name)
    for i, t in enumerate(aut.transitions):
        if not 0 <= t.source < n_loc:
            diags.append(Diagnostic("dangling-id", f"transition {i}: source {t.source} out of range"))
        if not 0 <= t.target < n_loc:
            diags.append(Diagnostic("dangling-id", f"transition {i}: target {t.target} out of range"))
        if not 0 <= t.letter < n_sym:
            diags.append(Diagnostic("dangling-id", f"transition {i}: letter {t.letter} out of range"))
        regs = t.guard.registers
        if regs and (regs[0] < 0 or regs[-1] >= aut.registers):
            bad = [r for r in regs if not 0 <= r < aut.registers]
            diags.append(Diagnostic(
                "guard-register-range",
                f"transition {i}: guard register out of range: {bad}"))
        update = t.update
        if update and (min(update) < 0 or max(update) >= aut.registers):
            bad = [r for r in update if not 0 <= r < aut.registers]
            diags.append(Diagnostic(
                "update-register-range",
                f"transition {i}: update register out of range: {sorted(bad)}"))
    acc = aut.acceptance
    if acc is not None:
        if not 0 <= acc.initial < n_loc:
            diags.append(Diagnostic("dangling-id", f"initial location {acc.initial} out of range"))
        for loc in acc.accepting:
            if not 0 <= loc < n_loc:
                diags.append(Diagnostic("dangling-id", f"accepting location {loc} out of range"))
        full = frozenset(range(aut.registers))
        for i, t in enumerate(aut.transitions):
            if 0 <= acc.initial < n_loc and t.source == acc.initial and t.update != full:
                diags.append(Diagnostic(
                    "initial-update-rule",
                    f"transition {i} leaves the initial location without updating all registers"))
    return diags


def check_validated(aut: RegisterAutomaton) -> None:
    """Raise StructuralError naming each diagnostic of `aut`'s compiled form."""
    diags = aut.compiled.diagnostics
    if diags:
        raise StructuralError("; ".join(d.message for d in diags))


class CompiledAutomaton:
    """An automaton's guards compiled once, with every structural check on them.

    `diagnostics` is validate()'s verdict and `masks[i]` transition i's guard
    mask, which each guard object computes once per k (parsed automata share
    one object per guard text).  `table[loc][letter]` lists the cell's
    satisfiable transitions in stored order as (mask, update frozenset,
    target), leaving out any with a dangling id, and `covered[loc][letter]`
    is the union of their masks.
    `gap` and `conflict` are the first cell assignment with no enabled
    transition and with two, in (location, letter, sigma) order, or None:
    `gap` is (location, letter, sigma), `conflict` adds the indices of the
    first two transitions enabled there.
    These fields are tuples, fixed at construction.  `firing` is the one
    table that grows: it maps (letter, sigma, location mask) to what the
    locations in the mask fire under assignment sigma, filled by `fire` on
    first use, with each distinct (update, target mask) pair stored once,
    and emptied wholesale once it holds FIRING_TABLE_CAP entries.
    It holds ints and update frozensets, no valuation and no Engine, so it
    is shared wherever the form is: parsed automata of one text share both
    (dsl's document table), while each automaton instance keeps its own
    Engine (semantics.engine_for).
    """

    __slots__ = ("diagnostics", "masks", "table", "covered", "gap", "conflict", "firing",
                 "_fired")

    def __init__(self, aut: "RegisterAutomaton"):
        k = aut.registers
        if k < 0:
            raise StructuralError(f"negative register count {k}")
        if k > REGISTER_ENUMERATION_CAP:
            raise ResourceCapError(
                f"k={k} exceeds the assignment-enumeration cap {REGISTER_ENUMERATION_CAP}")
        self.diagnostics = tuple(validate(aut))
        self.masks = masks = tuple(t.guard.mask(k) for t in aut.transitions)
        n_loc, n_sym = len(aut.locations), len(aut.alphabet)
        cells = [[[] for _ in range(n_sym)] for _ in range(n_loc)]
        for i, t in enumerate(aut.transitions):
            in_range = 0 <= t.source < n_loc and 0 <= t.target < n_loc and 0 <= t.letter < n_sym
            if masks[i] and in_range:
                cells[t.source][t.letter].append(i)
        full = (1 << (1 << k)) - 1
        self.gap = self.conflict = None
        covered_rows = []
        for loc, row in enumerate(cells):
            covered_row = []
            for letter, ids in enumerate(row):
                covered = twice = 0
                for i in ids:
                    twice |= covered & masks[i]
                    covered |= masks[i]
                covered_row.append(covered)
                if self.gap is None and covered != full:
                    self.gap = (loc, letter, _lowest_bit(full & ~covered))
                if self.conflict is None and twice:
                    sigma = _lowest_bit(twice)
                    first, second = [i for i in ids if masks[i] >> sigma & 1][:2]
                    self.conflict = (loc, letter, sigma, first, second)
            covered_rows.append(tuple(covered_row))
        self.covered = tuple(covered_rows)
        ts = aut.transitions
        self.table = tuple(tuple(tuple((masks[i], ts[i].update, ts[i].target) for i in ids)
                                 for ids in row) for row in cells)
        self.firing = {}
        self._fired = {}  # each distinct (update, target mask) pair in `firing`, stored once

    def fire(self, key: tuple) -> tuple:
        """The firing table's entry for key = (letter, sigma, location mask),
        filled now: one (update, target mask) pair per distinct update that
        some transition enabled under sigma in the cells of `letter` at the
        mask's locations performs, its target mask the union of their
        targets."""
        letter, sigma, locs = key
        targets = {}
        while locs:
            low = locs & -locs
            locs ^= low
            for mask, update, target in self.table[low.bit_length() - 1][letter]:
                if mask >> sigma & 1:
                    targets[update] = targets.get(update, 0) | 1 << target
        firing, fired = self.firing, self._fired
        if len(firing) >= FIRING_TABLE_CAP:
            firing.clear()
            fired.clear()
        out = firing[key] = tuple(fired.setdefault(pair, pair) for pair in targets.items())
        return out


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def is_complete(aut: RegisterAutomaton) -> bool:
    return aut.compiled.gap is None


def is_deterministic(aut: RegisterAutomaton) -> bool:
    return aut.compiled.conflict is None


def fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def complete_with_sink(aut: RegisterAutomaton, skip=()) -> RegisterAutomaton:
    """Total completion: route every uncovered (location, letter) cell to a sink.

    The added guard is the complement of the disjunction of the cell's
    existing guards, so exactly the uncovered assignments are redirected.
    That disjunction is a balanced tree, shallow enough for the parser.
    Locations in `skip` keep their gaps (used by the non-emptiness reduction,
    whose accepting location must stay exit-free until the construction adds
    its own loops).  Already-complete automata are returned unchanged.
    """
    full = (1 << (1 << aut.registers)) - 1
    gaps = []
    for loc, row in enumerate(aut.compiled.covered):
        if loc in skip:
            continue
        for letter, covered in enumerate(row):
            if covered != full:
                guards = [t.guard for t in aut.transitions
                          if t.source == loc and t.letter == letter]
                gap_guard = TRUE if not guards else Not(_balanced_disj(guards))
                gaps.append((loc, letter, gap_guard))
    if not gaps:
        return aut
    sink = len(aut.locations)
    new = [mk_transition(loc, letter, guard, (), sink) for loc, letter, guard in gaps]
    new += [mk_transition(sink, letter, TRUE, (), sink) for letter in range(len(aut.alphabet))]
    return replace(aut, locations=aut.locations + (fresh_name("sink", aut.locations),),
                   transitions=aut.transitions + tuple(new))


def _balanced_disj(parts: list) -> Constraint:
    """disj(parts), balanced: split at the largest power of two below len(parts)."""
    if len(parts) == 1:
        return parts[0]
    half = 1 << (len(parts) - 1).bit_length() - 1
    return or_(_balanced_disj(parts[:half]), _balanced_disj(parts[half:]))
