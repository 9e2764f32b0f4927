"""Hard-instance families and reduction constructions.

Figure-caption conventions ("all missing transitions are directed to reset",
"inequality-guarded transitions are self-loops") are expanded into explicit
transition lists per family, since the semantics engine has no notion of an
implicit transition.  Every generator emits a validated, complete automaton.
"""

from __future__ import annotations

from typing import Optional

from .ra import (
    REGISTER_ENUMERATION_CAP,
    TRUE,
    Acceptance,
    Eq,
    RegisterAutomaton,
    ResourceCapError,
    StructuralError,
    check_validated,
    complete_with_sink,
    conj,
    disj,
    fresh_name,
    is_complete,
    is_deterministic,
    mk_transition,
    neq,
)
from .dra import inequality_update_check

ACKERMANN_CAP = 10**9


class _Builder:
    def __init__(self, name: str, registers: int, alphabet):
        self.name = name
        self.registers = registers
        self.alphabet = list(alphabet)
        self.letter_ids = {a: i for i, a in enumerate(self.alphabet)}
        self.locations = []
        self.loc_ids = {}
        self.transitions = []

    def loc(self, name: str) -> int:
        if name not in self.loc_ids:
            self.loc_ids[name] = len(self.locations)
            self.locations.append(name)
        return self.loc_ids[name]

    def t(self, src, letter, guard, update, tgt) -> None:
        self.transitions.append(mk_transition(
            self.loc(src), self.letter_ids[letter], guard, update, self.loc(tgt)))

    def build(self, acceptance: Optional[Acceptance] = None) -> RegisterAutomaton:
        aut = RegisterAutomaton(
            name=self.name,
            locations=tuple(self.locations),
            registers=self.registers,
            alphabet=tuple(self.alphabet),
            transitions=tuple(self.transitions),
            acceptance=acceptance,
        )
        check_validated(aut)
        return aut


# ---------------------------------------------------------------------------
# Lower-bound families


def gen_chain_dra(n: int) -> RegisterAutomaton:
    """Single-letter DRA with n registers whose synchronizing words need n+1
    distinct data: two chains of inequality-guarded update steps from init,
    merging in a full-update synch location.  n is at most the register cap,
    since no query can compile more registers."""
    if not 1 <= n <= REGISTER_ENUMERATION_CAP:
        raise ValueError(f"chain family needs 1 <= n <= {REGISTER_ENUMERATION_CAP}")
    b = _Builder(f"chain{n}", n, ["a"])
    b.loc("init")
    chains = [[f"l{i}" for i in range(1, n + 1)], [f"l{i}'" for i in range(1, n + 1)]]
    full = range(n)
    b.t("init", "a", Eq(0), {0}, chains[0][0])
    b.t("init", "a", neq(0), {0}, chains[1][0])
    for chain in chains:
        for i, loc in enumerate(chain):
            stay = disj([Eq(j) for j in range(i + 1)])
            move = conj([neq(j) for j in range(i + 1)])
            b.t(loc, "a", stay, (), loc)
            if i + 1 < n:
                b.t(loc, "a", move, {i + 1}, chain[i + 1])
            else:
                b.t(loc, "a", move, full, "synch")
    b.t("synch", "a", TRUE, full, "synch")
    return b.build()


def gen_counter_nra(n: int) -> RegisterAutomaton:
    """1-NRA implementing an n-bit binary counter: every synchronizing word
    repeats some datum at least 2^n times (the counter must climb from 0 to
    2^n between the forced reset and the #-exit)."""
    if n < 1:
        raise ValueError("counter family needs n >= 1")
    bits = [f"bit{i}" for i in range(n + 1)]
    b = _Builder(f"counter{n}", 1, ["#", "*"] + bits)
    ones = [f"one{i}" for i in range(n + 1)]
    zeros = [f"zero{i}" for i in range(n + 1)]
    interior = ["zero"] + ones + zeros
    for loc in ["synch", "reset"] + interior:
        b.loc(loc)

    for a in b.alphabet:
        b.t("synch", a, TRUE, {0}, "synch")
        if a != "*":
            b.t("reset", a, TRUE, (), "reset")
    b.t("reset", "*", TRUE, {0}, "zero")
    for loc in interior:
        b.t(loc, "*", TRUE, {0}, "zero")
        for a in b.alphabet:
            if a != "*":
                b.t(loc, a, neq(0), (), loc)

    # initialization: the zero-token splits into the representation of 1
    b.t("zero", bits[0], Eq(0), (), ones[0])
    for j in range(1, n + 1):
        b.t("zero", bits[0], Eq(0), (), zeros[j])
    for i in range(1, n + 1):
        b.t("zero", bits[i], Eq(0), (), "reset")
    b.t("zero", "#", Eq(0), (), "reset")

    # incrementation: bit_i sets bit i, clears bits below, keeps bits above
    for m in range(n + 1):
        for i in range(n + 1):
            if i == m:
                b.t(ones[m], bits[i], Eq(0), (), "reset")
                b.t(zeros[m], bits[i], Eq(0), (), ones[m])
            elif i > m:
                b.t(ones[m], bits[i], Eq(0), (), zeros[m])
                b.t(zeros[m], bits[i], Eq(0), (), "reset")
            else:
                b.t(ones[m], bits[i], Eq(0), (), ones[m])
                b.t(zeros[m], bits[i], Eq(0), (), zeros[m])

    # the 2^n pattern (token in one_n, zeros below) exits to synch
    for m in range(n + 1):
        if m == n:
            b.t(ones[m], "#", Eq(0), {0}, "synch")
            b.t(zeros[m], "#", Eq(0), (), "reset")
        else:
            b.t(ones[m], "#", Eq(0), (), "reset")
            b.t(zeros[m], "#", Eq(0), {0}, "synch")
    return b.build()


def gen_tower_nra(n: int) -> RegisterAutomaton:
    """1-NRA whose synchronizing words need tower(n) distinct data: a token
    replication chain feeding doubling/exponentiation/towering stages."""
    if n < 1:
        raise ValueError("tower family needs n >= 1")
    b = _Builder(f"tower{n}", 1, ["#", "*", "rep", "doub", "exp", "tow"])
    chain = [f"data{i}" for i in range(1, n)] + ["waitTow"]
    for loc in chain + ["reset", "synch", "store", "rep", "waitDoub", "waitExp"]:
        b.loc(loc)

    def inefficient(loc, letters, eq_only=False):
        for a in letters:
            b.t(loc, a, Eq(0) if eq_only else TRUE, (), "reset")

    for a in b.alphabet:
        b.t("synch", a, TRUE, {0}, "synch")
        if a != "*":
            b.t("reset", a, TRUE, (), "reset")
    for loc in chain + ["reset", "store", "rep", "waitDoub", "waitExp"]:
        b.t(loc, "*", TRUE, {0}, chain[0])

    for i, loc in enumerate(chain[:-1]):
        b.t(loc, "rep", neq(0), (), chain[i + 1])
        b.t(loc, "rep", neq(0), {0}, chain[i + 1])
        b.t(loc, "rep", Eq(0), (), "reset")
        inefficient(loc, ["#", "doub", "exp", "tow"])

    b.t("waitTow", "tow", Eq(0), (), "waitExp")
    b.t("waitTow", "tow", neq(0), (), "waitTow")
    for a in ["doub", "exp", "rep"]:
        b.t("waitTow", a, TRUE, (), "waitTow")
    inefficient("waitTow", ["#"])

    b.t("waitExp", "exp", Eq(0), (), "waitDoub")
    b.t("waitExp", "exp", neq(0), (), "waitExp")
    b.t("waitExp", "doub", TRUE, (), "waitExp")
    b.t("waitExp", "rep", TRUE, (), "waitExp")
    inefficient("waitExp", ["#", "tow"])

    b.t("waitDoub", "doub", Eq(0), (), "rep")
    b.t("waitDoub", "doub", neq(0), (), "waitDoub")
    b.t("waitDoub", "rep", neq(0), (), "waitDoub")
    b.t("waitDoub", "rep", Eq(0), (), "reset")
    inefficient("waitDoub", ["#", "exp", "tow"])

    b.t("rep", "rep", neq(0), (), "store")
    b.t("rep", "rep", neq(0), {0}, "store")
    b.t("rep", "rep", Eq(0), (), "reset")
    inefficient("rep", ["#", "doub", "exp", "tow"])

    b.t("store", "tow", TRUE, (), "waitExp")
    b.t("store", "exp", TRUE, (), "waitDoub")
    b.t("store", "doub", neq(0), (), "store")
    b.t("store", "doub", Eq(0), (), "reset")
    b.t("store", "rep", neq(0), (), "store")
    b.t("store", "rep", Eq(0), (), "reset")
    b.t("store", "#", TRUE, {0}, "synch")
    return b.build()


# ---------------------------------------------------------------------------
# Reductions


def _split_guarded_initial(aut: RegisterAutomaton) -> RegisterAutomaton:
    """Normal form for language automata: an unreachable initial location
    whose outgoing transitions are true-guarded and update all registers.

    The initial valuation is existential and the first step overwrites it,
    so first-step guards only constrain that free choice: erasing them
    preserves the language *provided the initial location is never revisited
    mid-run* (otherwise the erased guards would fire against concrete
    register contents).  Already-normal inputs pass through unchanged, so
    the reduction keeps the construction's exact location count for them.
    """
    acc = aut.acceptance
    full_mask = (1 << (1 << aut.registers)) - 1
    masks = aut.compiled.masks
    reentrant = any(t.target == acc.initial for t in aut.transitions)
    guarded = any(t.source == acc.initial and mask != full_mask
                  for t, mask in zip(aut.transitions, masks))
    if not reentrant and not guarded:
        return aut
    entry = len(aut.locations)
    full = frozenset(range(aut.registers))
    ts = list(aut.transitions)
    moves = set()
    for t, mask in zip(aut.transitions, masks):
        if t.source == acc.initial and mask:
            moves.add((t.letter, t.target))
    ts.extend(mk_transition(entry, letter, TRUE, full, target)
              for letter, target in sorted(moves))
    accepting = set(acc.accepting)
    if acc.initial in accepting:
        accepting.add(entry)
    return RegisterAutomaton(
        name=aut.name,
        locations=aut.locations + (fresh_name("entry", aut.locations),),
        registers=aut.registers,
        alphabet=aut.alphabet,
        transitions=tuple(ts),
        acceptance=Acceptance(entry, frozenset(accepting)),
    )


def reduce_nonuniv_to_sync(aut: RegisterAutomaton) -> RegisterAutomaton:
    """Non-universality to synchronization: add reset/synch locations and
    #/* letters; # sorts accepting locations to reset and non-accepting ones
    to synch, so a rejected word w yields the synchronizer (*,d) w (#,d)."""
    if aut.acceptance is None:
        raise ValueError("reduce_nonuniv_to_sync needs acceptance structure")
    check_validated(aut)
    aut = complete_with_sink(aut)
    aut = _split_guarded_initial(aut)
    acc = aut.acceptance
    full = frozenset(range(aut.registers))
    hash_ = fresh_name("#", aut.alphabet)
    star = fresh_name("*", aut.alphabet)
    alphabet = aut.alphabet + (hash_, star)
    reset_name = fresh_name("reset", aut.locations)
    synch_name = fresh_name("synch", aut.locations)
    locations = aut.locations + (reset_name, synch_name)
    n = len(aut.locations)
    reset, synch = n, n + 1
    hash_id, star_id = len(aut.alphabet), len(aut.alphabet) + 1

    ts = list(aut.transitions)
    for a in range(len(alphabet)):
        ts.append(mk_transition(synch, a, TRUE, full, synch))
        if a != star_id:
            ts.append(mk_transition(reset, a, TRUE, full, reset))
    ts.append(mk_transition(reset, star_id, TRUE, full, acc.initial))
    for loc in range(n):
        ts.append(mk_transition(loc, star_id, TRUE, full, acc.initial))
        target = reset if loc in acc.accepting else synch
        ts.append(mk_transition(loc, hash_id, TRUE, full, target))
    out = RegisterAutomaton(
        name=f"{aut.name}_sync",
        locations=locations,
        registers=aut.registers,
        alphabet=alphabet,
        transitions=tuple(ts),
        acceptance=None,
    )
    check_validated(out)
    return out


def reduce_nonempty_to_sync_dra(aut: RegisterAutomaton) -> RegisterAutomaton:
    """Non-emptiness of a DRA (single exit-free accepting location) to DRA
    synchronization: adds a reset location and a * letter; an accepted word w
    yields the synchronizer (*,d)(*,d) w (*,d)."""
    if aut.acceptance is None:
        raise ValueError("reduce_nonempty_to_sync_dra needs acceptance structure")
    check_validated(aut)
    if not is_deterministic(aut):
        raise StructuralError("reduce_nonempty_to_sync_dra needs a deterministic input")
    if len(aut.acceptance.accepting) != 1:
        raise ValueError("reduce_nonempty_to_sync_dra needs exactly one accepting location")
    (final,) = aut.acceptance.accepting
    if any(t.source == final for t in aut.transitions):
        raise ValueError("the accepting location must have no outgoing transitions")
    initial = aut.acceptance.initial
    aut = complete_with_sink(aut, skip={final})
    full = frozenset(range(aut.registers))
    star = fresh_name("*", aut.alphabet)
    alphabet = aut.alphabet + (star,)
    star_id = len(aut.alphabet)
    reset_name = fresh_name("reset", aut.locations)
    locations = aut.locations + (reset_name,)
    reset = len(aut.locations)

    ts = list(aut.transitions)
    for a in range(len(alphabet)):
        ts.append(mk_transition(final, a, TRUE, full, final))
        ts.append(mk_transition(reset, a, TRUE, full, initial))
    ts.append(mk_transition(initial, star_id, TRUE, full, initial))
    for loc in range(len(aut.locations)):
        if loc not in (initial, final):
            ts.append(mk_transition(loc, star_id, TRUE, full, reset))
    out = RegisterAutomaton(
        name=f"{aut.name}_sync",
        locations=locations,
        registers=aut.registers,
        alphabet=alphabet,
        transitions=tuple(ts),
        acceptance=None,
    )
    check_validated(out)
    assert is_deterministic(out) and is_complete(out)
    return out


def _normalized_classes(aut: RegisterAutomaton) -> list:
    """1-register transitions as (source, letter, fires_on_eq, fires_on_neq,
    updates, target), unsatisfiable guards dropped, duplicates merged."""
    classes = []
    for t, gm in zip(aut.transitions, aut.compiled.masks):
        if gm == 0:
            continue
        entry = (t.source, t.letter, bool(gm >> 1 & 1), bool(gm & 1),
                 0 in t.update, t.target)
        if entry not in classes:
            classes.append(entry)
    return classes


def reduce_sync_to_nonuniv(aut: RegisterAutomaton) -> RegisterAutomaton:
    """Synchronization of a complete 1-NRA to non-universality.

    The output accepts the complement of the language of synchronization
    -process encodings over Sigma + one letter per location + a * delimiter:
    the union (via a fresh fully-updating initial location) of an
    initial-block checker, a block-shape DFA, two delimiter-datum checkers,
    and one successor checker per transition whose red edge mirrors the
    transition's guard and update.  When some location cannot reach a
    register update through inequality-guarded transitions the input is not
    synchronizable and the universal one-location automaton is returned.
    """
    if aut.registers != 1:
        raise ValueError(f"reduce_sync_to_nonuniv needs k = 1, got k = {aut.registers}")
    check_validated(aut)
    if not is_complete(aut):
        raise StructuralError("reduce_sync_to_nonuniv needs a complete input")

    taken = set(aut.alphabet)
    loc_letters = []
    for name in aut.locations:
        nm = fresh_name(name, taken)
        taken.add(nm)
        loc_letters.append(nm)
    star = fresh_name("*", taken)
    alphabet = list(aut.alphabet) + loc_letters + [star]
    sigma = list(aut.alphabet)
    n = len(aut.locations)

    if not all(inequality_update_check(aut)):
        b = _Builder(f"{aut.name}_comp", 1, alphabet)
        b.loc("u")
        for a in alphabet:
            b.t("u", a, TRUE, {0}, "u")
        return b.build(Acceptance(initial=b.loc("u"), accepting=frozenset({b.loc("u")})))

    b = _Builder(f"{aut.name}_comp", 1, alphabet)
    accepting = set()
    entry_points = []  # (member initial location name, its out-transition specs)

    # R1: words not starting with (*,y)(l1,x)...(ln,x), y != x
    b.loc("chk_i")
    b.t("chk_i", star, TRUE, {0}, "chk_s0")
    for a in alphabet:
        if a != star:
            b.t("chk_i", a, TRUE, (), "chk_f")
    b.t("chk_s0", loc_letters[0], neq(0), {0}, "chk_s1")
    b.t("chk_s0", loc_letters[0], Eq(0), (), "chk_f")
    for a in alphabet:
        if a != loc_letters[0]:
            b.t("chk_s0", a, TRUE, (), "chk_f")
    for j in range(1, n):
        src, dst = f"chk_s{j}", f"chk_s{j + 1}"
        b.t(src, loc_letters[j], Eq(0), (), dst)
        b.t(src, loc_letters[j], neq(0), (), "chk_f")
        for a in alphabet:
            if a != loc_letters[j]:
                b.t(src, a, TRUE, (), "chk_f")
    for a in alphabet:
        b.t(f"chk_s{n}", a, TRUE, (), f"chk_s{n}")
        b.t("chk_f", a, TRUE, (), "chk_f")
    accepting.add("chk_f")
    entry_points.append("chk_i")

    # R2: projections outside (* L+ Sigma)+ * L * (complement DFA, data-blind)
    shape = {
        "re_q0": {"star": "re_q1"},
        "re_q1": {"loc": "re_q2"},
        "re_q2": {"loc": "re_q2", "sig": "re_q3"},
        "re_q3": {"star": "re_q4"},
        "re_q4": {"loc": "re_q5"},
        "re_q5": {"loc": "re_q2", "sig": "re_q3", "star": "re_q6"},
        "re_q6": {},
        "re_dead": {},
    }
    classes = {"star": [star], "loc": loc_letters, "sig": sigma}
    for state, rules in shape.items():
        for cls, letters in classes.items():
            target = rules.get(cls, "re_dead")
            for a in letters:
                b.t(state, a, TRUE, {0}, target)
    accepting.update(s for s in shape if s != "re_q6")
    entry_points.append("re_q0")

    # R3: two * delimiters with different data
    b.loc("dl_1")
    b.t("dl_1", star, TRUE, {0}, "dl_2")
    b.t("dl_2", star, neq(0), (), "dl_3")
    b.t("dl_2", star, Eq(0), (), "dl_2")
    for a in alphabet:
        if a != star:
            b.t("dl_2", a, TRUE, (), "dl_2")
        b.t("dl_3", a, TRUE, (), "dl_3")
    accepting.add("dl_3")
    entry_points.append("dl_1")

    # R4: the delimiter datum used by a non-* letter
    b.loc("dx_1")
    b.t("dx_1", star, TRUE, {0}, "dx_2")
    b.t("dx_2", star, TRUE, (), "dx_2")
    for a in alphabet:
        if a != star:
            b.t("dx_2", a, Eq(0), (), "dx_3")
            b.t("dx_2", a, neq(0), (), "dx_2")
        b.t("dx_3", a, TRUE, (), "dx_3")
    accepting.add("dx_3")
    entry_points.append("dx_1")

    # R5/R6/R7: one member per transition; tracks some (l, x) in a block,
    # fires the mirrored transition on the block's input, and accepts when
    # the successor configuration is missing from the next block.
    for idx, (src, letter, on_eq, on_neq, updates, tgt) in enumerate(_normalized_classes(aut)):
        if on_eq and on_neq:
            red = TRUE
        elif on_eq:
            red = Eq(0)
        else:
            red = neq(0)
        p = f"t{idx}_"
        b.loc(p + "s1")
        for a in alphabet:
            b.t(p + "s1", a, TRUE, (), p + "s1")
        b.t(p + "s1", star, TRUE, (), p + "s2")
        for a in loc_letters:  # full-L waiting loop: guess which occurrence to track
            b.t(p + "s2", a, TRUE, (), p + "s2")
        b.t(p + "s2", loc_letters[src], TRUE, {0}, p + "s3")
        for a in loc_letters:
            b.t(p + "s3", a, TRUE, (), p + "s3")
        b.t(p + "s3", sigma[letter], red, {0} if updates else (), p + "s4")
        for a in loc_letters:
            b.t(p + "s4", a, TRUE, (), p + "s4")
        b.t(p + "s4", star, TRUE, (), p + "s5")
        for a in alphabet:
            if a == star:
                b.t(p + "s5", a, TRUE, (), p + "s6")
            elif a == loc_letters[tgt]:
                b.t(p + "s5", a, neq(0), (), p + "s5")
            else:
                b.t(p + "s5", a, TRUE, (), p + "s5")
        b.t(p + "s5", loc_letters[tgt], Eq(0), (), p + "s7")
        for a in alphabet:
            b.t(p + "s6", a, TRUE, (), p + "s6")
            b.t(p + "s7", a, TRUE, (), p + "s7")
        accepting.update({p + "s5", p + "s6"})
        entry_points.append(p + "s1")

    # union via a fresh initial location duplicating member-initial moves,
    # all updating to preserve the initial-update rule
    init = "u_init"
    b.loc(init)
    seen_moves = set()
    for member_initial in entry_points:
        src_id = b.loc_ids[member_initial]
        for t in list(b.transitions):
            if t.source == src_id:
                key = (t.letter, t.guard, t.target)
                if key not in seen_moves:
                    seen_moves.add(key)
                    b.transitions.append(mk_transition(
                        b.loc(init), t.letter, t.guard, frozenset({0}), t.target))
    acc_ids = frozenset(b.loc_ids[name] for name in accepting)
    if accepting & set(entry_points):  # some member accepts the empty word
        acc_ids |= {b.loc_ids[init]}
    return b.build(Acceptance(initial=b.loc_ids[init], accepting=acc_ids))


# ---------------------------------------------------------------------------
# Ackermann hierarchy


def ackermann(level: int, n: int) -> int:
    """A_1(n) = 2n, A_{level+1}(n) = A_level applied n times to 1."""
    if level < 1:
        raise ValueError("ackermann level must be >= 1")
    if n < 0:
        raise ValueError("ackermann argument must be >= 0")
    if level == 1:
        value = 2 * n
        if value > ACKERMANN_CAP:
            raise ResourceCapError(f"ackermann value exceeds cap {ACKERMANN_CAP}")
        return value
    value = 1
    for _ in range(n):
        value = ackermann(level - 1, value)
    return value


def tower(n: int) -> int:
    return ackermann(3, n)
