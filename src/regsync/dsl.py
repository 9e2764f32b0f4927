"""Line-oriented textual format for register automata, and a JSON mirror read through it.

    automaton <name>
    registers <k>
    alphabet <sym> ...
    location <name> [initial] [accepting]
    trans <src> -> <dst> on <sym> when <guard> [set <reg>... | set *]

Guards: true | =r<i> | !=r<i> | g & g | g | g | !g | (g), precedence ! > & > |.
`set *` updates all registers; omitting `set` means no update.  Serialization
is deterministic (stored order), so structurally equal automata print
byte-identically and parse(serialize(x)) == x.  The parser rejects more
registers than ra.REGISTER_ENUMERATION_CAP, which no query can compile.
The JSON mirror is a front end of the same parser: parse_automaton_json
checks only the payload's shape and types, writes each entry as the DSL
line it mirrors and parses that text, so each structural rule (unique
names, the register cap and ranges, one initial location, known names)
has one implementation.

Parsing keeps two process-wide tables.  The document table maps a whole
text (DSL or JSON) that parsed without a diagnostic to its automaton,
compiled at that first parse; every later call with that text returns a new
automaton, equal to the stored one, that shares its compiled form
(ra.CompiledAutomaton: fixed tables, plus the firing table that single
walks fill, capped at ra.FIRING_TABLE_CAP entries).  Only shared data is
stored: each returned automaton builds its own Engine on first use, so
successor memos, intern tables, search state and verdicts are never shared
between calls, and they are freed with the caller's automaton.  Below it,
every guard is looked up in the guard table, keyed by the guard's words
joined by single spaces, so each distinct guard text is parsed once per
process and every document that uses it shares one guard object (and the
masks it keeps); each document checks the guard's registers against its own
`k`.
Only documents and guards that parse without a diagnostic are stored, so a
DslError always names the provenance of the call that raised it.  The guard
table holds at most GUARD_TABLE_CAP (4 096) entries, the document table at
most DOCUMENT_TABLE_CAP (64), and each is emptied wholesale when full.
"""

from __future__ import annotations

import copy
import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .ra import (
    Acceptance,
    And,
    Constraint,
    Eq,
    Not,
    REGISTER_ENUMERATION_CAP,
    RegisterAutomaton,
    Transition,
    TrueC,
)


@dataclass(frozen=True)
class SourceDocument:
    text: str
    provenance: str = "<inline>"


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class DslError(ValueError):
    def __init__(self, diagnostics, provenance: str = "<inline>"):
        self.diagnostics = list(diagnostics)
        self.provenance = provenance
        super().__init__("; ".join(f"{provenance}:{d}" for d in self.diagnostics))


# ---------------------------------------------------------------------------
# Guards

_GUARD_TOKEN = re.compile(r"!=r\d+|=r\d+|true|[()!&|]")
_SPACED_GUARD_TOKEN = re.compile(rf"\s*(?:{_GUARD_TOKEN.pattern})")


def _bad_token(text: str, line: int, base_col: int):
    """Raise the diagnostic for the first untokenizable text in `text`."""
    pos = 0
    while (m := _SPACED_GUARD_TOKEN.match(text, pos)) is not None:
        pos = m.end()
    rest = text[pos:].strip()
    raise DslError([ParseDiagnostic(line, base_col + pos + 1,
                                    f"bad guard token near {rest[:12]!r}")])


# Deepest guard AST, and deepest `!`/parenthesis nesting, the parser accepts:
# every later walk over a guard recurses.  Real guards stay below 25 levels.
MAX_GUARD_DEPTH = 100


class _GuardParser:
    """Recursive descent; each parse_* method returns (ast, height).  Token
    columns are worked out only when a diagnostic needs one."""

    def __init__(self, tokens, text: str, line: int, base_col: int):
        self.tokens = tokens + [None]
        self.text = text
        self.line = line
        self.base_col = base_col
        self.pos = 0
        self.nesting = 0

    def _fail(self, message: str, pos: Optional[int] = None):
        pos = self.pos if pos is None else pos
        cols = [m.start() for m in _GUARD_TOKEN.finditer(self.text)]
        col = cols[pos] + 1 if pos < len(cols) else len(self.text)
        raise DslError([ParseDiagnostic(self.line, self.base_col + col, message)])

    def _too_deep(self, pos: int):
        self._fail(f"guard nested deeper than {MAX_GUARD_DEPTH} levels", pos)

    def parse(self) -> Constraint:
        out, _ = self.parse_or()
        tok = self.tokens[self.pos]
        if tok is not None:
            self._fail(f"unexpected guard token {tok!r}")
        return out

    def parse_or(self):
        out, height = self.parse_and()
        while self.tokens[self.pos] == "|":
            at = self.pos
            self.pos += 1
            rhs, rhs_height = self.parse_and()
            out = Not(And(Not(out), Not(rhs)))
            height = 3 + max(height, rhs_height)
            if height > MAX_GUARD_DEPTH:
                self._too_deep(at)
        return out, height

    def parse_and(self):
        out, height = self.parse_unary()
        while self.tokens[self.pos] == "&":
            at = self.pos
            self.pos += 1
            rhs, rhs_height = self.parse_unary()
            out = And(out, rhs)
            height = 1 + max(height, rhs_height)
            if height > MAX_GUARD_DEPTH:
                self._too_deep(at)
        return out, height

    def parse_unary(self):
        at = self.pos
        tok = self.tokens[at]
        if tok is None:
            self._fail("unexpected end of guard")
        self.pos = at + 1
        if tok == "!" or tok == "(":
            self.nesting += 1
            if self.nesting > MAX_GUARD_DEPTH:
                self._too_deep(at)
            if tok == "!":
                operand, height = self.parse_unary()
                if height >= MAX_GUARD_DEPTH:
                    self._too_deep(at)
                out = Not(operand), height + 1
            else:
                out = self.parse_or()
                if self.tokens[self.pos] != ")":
                    self._fail("expected ')'")
                self.pos += 1
            self.nesting -= 1
            return out
        if tok == "true":  # not the shared TRUE: the guard table owns parsed guards
            return TrueC(), 1
        if tok.startswith("!=r"):
            return Not(Eq(self._register(tok[3:], at))), 2
        if tok.startswith("=r"):
            return Eq(self._register(tok[2:], at)), 1
        self._fail(f"unexpected guard token {tok!r}")

    def _register(self, digits: str, at: int) -> int:
        index = _index(digits)
        if index is None:
            self._fail(f"guard register out of range: r{digits}", at)
        return index


def _index(digits: str) -> Optional[int]:
    """The number a run of decimal digits spells, or None if, leading zeros
    of any script aside, it has more digits than int() converts: a register
    index or count past every cap."""
    start = 0
    while start < len(digits) and int(digits[start]) == 0:  # a zero of any script
        start += 1
    try:
        return int(digits[start:] or "0")
    except ValueError:  # the digit limit, the one error a digit run can raise
        return None


def parse_guard(text: str, line: int = 1, base_col: int = 0) -> Constraint:
    tokens = _GUARD_TOKEN.findall(text)
    # The tokens cover every non-space character iff the text tokenizes.
    if sum(map(len, tokens)) != sum(map(len, text.split())):
        _bad_token(text, line, base_col)
    if not tokens:
        raise DslError([ParseDiagnostic(line, base_col + 1, "empty guard")])
    return _GuardParser(tokens, text, line, base_col).parse()


# Most entries each process-wide table holds; see the module docstring.
GUARD_TABLE_CAP = 4096  # the guard table
DOCUMENT_TABLE_CAP = 64  # the document table: a compiled document is far larger
_DOCUMENTS: dict = {}  # document text -> its automaton, compiled, never handed out
_GUARDS: dict = {}  # guard words joined by single spaces -> guard


def _remember(table: dict, key, value, cap: int) -> None:
    """Store in one of the tables, emptying it first when it holds `cap`."""
    if len(table) >= cap:
        table.clear()
    table[key] = value


def _shared_guard(key: str) -> Constraint:
    """The guard for the text `key`, from the table or parsed now.  A
    DslError propagates and nothing is stored."""
    guard = _GUARDS.get(key)
    if guard is None:
        guard = parse_guard(key)
        _remember(_GUARDS, key, guard, GUARD_TABLE_CAP)
    return guard


def _least_out_of_range(registers: tuple, k: int) -> Optional[int]:
    """The least of the increasing `registers` that is >= k, or None."""
    if not registers or registers[-1] < k:
        return None
    return registers[bisect_left(registers, k)]


def _is_or(guard: Constraint) -> bool:
    return (isinstance(guard, Not) and isinstance(guard.operand, And)
            and isinstance(guard.operand.left, Not) and isinstance(guard.operand.right, Not))


def format_guard(guard: Constraint) -> str:
    """Print with | / & / ! sugar; reparsing yields the identical AST.

    The parser is left-associative, so right operands that repeat their
    parent's operator are parenthesized to preserve tree shape exactly.
    """
    OR_LEFT, OR_RIGHT, AND_LEFT, AND_RIGHT, UNARY = range(5)

    def go(g: Constraint, ctx: int) -> str:
        if _is_or(g):
            body = f"{go(g.operand.left.operand, OR_LEFT)} | {go(g.operand.right.operand, OR_RIGHT)}"
            return f"({body})" if ctx > OR_LEFT else body
        match g:
            case TrueC():
                return "true"
            case Eq(r):
                return f"=r{r}"
            case Not(Eq(r)):
                return f"!=r{r}"
            case Not(op):
                return f"!{go(op, UNARY)}"
            case And(l, r):
                body = f"{go(l, AND_LEFT)} & {go(r, AND_RIGHT)}"
                return f"({body})" if ctx > AND_LEFT else body
        raise TypeError(f"not a constraint: {g!r}")

    return go(guard, OR_LEFT)


# ---------------------------------------------------------------------------
# Automaton parsing


_WORD = re.compile(r"\S+")


def _column(raw: str, i: int) -> int:
    """1-based column of word i of the line `raw`, or one past its end."""
    cols = [m.start() + 1 for m in _WORD.finditer(raw)]
    return cols[i] if i < len(cols) else len(raw) + 1


def parse_automaton(doc) -> RegisterAutomaton:
    """Parse the DSL (or, if the text starts with '{', the JSON mirror).

    Each call returns a new automaton.  A text parsed before comes from the
    document table: the copy shares the stored compiled form, but gets its
    own Engine on first use (semantics.engine_for)."""
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    text = doc.text
    stored = _DOCUMENTS.get(text)
    if stored is None:
        if text.lstrip().startswith("{"):
            stored = parse_automaton_json(text, doc.provenance)
        else:
            stored = _parse_dsl(text, doc.provenance)
        stored.compiled  # built once, here, and shared by every copy
        _remember(_DOCUMENTS, text, stored, DOCUMENT_TABLE_CAP)
    return copy.copy(stored)


def _parse_dsl(text: str, provenance: str) -> RegisterAutomaton:
    diags = []
    name = registers = alphabet = initial = None
    locations, accepting = [], []
    trans_lines = []  # (lineno, raw, words) per `trans` line

    def fail(i, message):  # at word i of the current line
        diags.append(ParseDiagnostic(lineno, _column(raw, i), message))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split()
        if not words:
            continue
        head = words[0]
        if head == "trans":
            trans_lines.append((lineno, raw, words))
        elif head == "automaton":
            if len(words) != 2:
                fail(0, "expected: automaton <name>")
            else:
                name = words[1]
        elif head == "registers":
            if len(words) != 2 or not words[1].isdecimal():
                fail(0, "expected: registers <k>")
            else:
                count = _index(words[1])  # None: more digits than int() converts
                registers = REGISTER_ENUMERATION_CAP + 1 if count is None else count
                if registers > REGISTER_ENUMERATION_CAP:
                    fail(1, f"register count {words[1] if count is None else count} "
                            f"exceeds the cap {REGISTER_ENUMERATION_CAP}")
        elif head == "alphabet":
            alphabet = words[1:]
        elif head == "location":
            if len(words) == 1:
                fail(0, "expected: location <name> ...")
                continue
            loc = words[1]
            if loc in locations:
                fail(1, f"duplicate location name {loc!r}")
                continue
            locations.append(loc)
            for i in range(2, len(words)):
                if words[i] == "initial":
                    if initial is not None:
                        fail(i, "second initial location")
                    initial = loc
                elif words[i] == "accepting":
                    accepting.append(loc)
                else:
                    fail(i, f"unknown location flag {words[i]!r}")
        else:
            fail(0, f"unknown directive {head!r}")
    if name is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'automaton <name>' header"))
    if registers is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'registers <k>' header"))
    if alphabet is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'alphabet ...' header"))
    seen_letters = set()
    for letter in alphabet or ():
        if letter in seen_letters:
            diags.append(ParseDiagnostic(1, 1, f"duplicate letter name {letter!r}"))
        seen_letters.add(letter)
    if diags:
        raise DslError(diags, provenance)

    loc_ids = {loc: i for i, loc in enumerate(locations)}
    letter_ids = {letter: i for i, letter in enumerate(alphabet)}
    transitions = [_parse_transition(lineno, raw, words, loc_ids, letter_ids, registers, diags)
                   for lineno, raw, words in trans_lines]
    if diags:
        raise DslError(diags, provenance)

    acceptance = None
    if initial is not None or accepting:
        if initial is None:
            raise DslError([ParseDiagnostic(1, 1,
                                            "accepting locations without an initial location")],
                           provenance)
        acceptance = Acceptance(
            initial=loc_ids[initial],
            accepting=frozenset(loc_ids[loc] for loc in accepting))
    return RegisterAutomaton(
        name=name,
        locations=tuple(locations),
        registers=registers,
        alphabet=tuple(alphabet),
        transitions=tuple(transitions),
        acceptance=acceptance,
    )


def _parse_transition(lineno, raw, words, loc_ids, letter_ids, k, diags):
    """One `trans` line's transition, or None once `diags` is not empty.  Its
    guard comes from the guard table: guard tokens never span spaces, so
    texts with the same words tokenize alike and columns are needed only for
    a diagnostic, worked out from the line's own text."""

    def fail(i, message):
        diags.append(ParseDiagnostic(lineno, _column(raw, i), message))

    shape_ok = (len(words) >= 7 and words[2] == "->" and words[4] == "on"
                and words[6] == "when")
    if not shape_ok:
        fail(0, "expected: trans <src> -> <dst> on <sym> when <guard> [set ...]")
        return None
    src, dst, sym = words[1], words[3], words[5]
    if src not in loc_ids:
        fail(1, f"unknown location {src!r}")
    if dst not in loc_ids:
        fail(3, f"unknown location {dst!r}")
    if sym not in letter_ids:
        fail(5, f"unknown letter {sym!r}")
    tail = words[7:]
    set_at = 7 + tail.index("set") if "set" in tail else len(words)
    if set_at == 7:
        fail(6, "missing guard after 'when'")
        return None
    try:
        guard = _shared_guard(" ".join(words[7:set_at]))
    except DslError:
        # Parse the line's own text for the diagnostic's columns.
        start = _column(raw, 7) - 1
        end = _column(raw, set_at) - 1 if set_at < len(words) else len(raw)
        try:
            parse_guard(raw[start:end], lineno, start)
        except DslError as err:
            diags.extend(err.diagnostics)
        return None
    update = []
    if set_at < len(words):
        regs = words[set_at + 1:]
        if not regs:
            fail(set_at, "empty 'set' clause")
        elif regs == ["*"]:
            update = range(k)
        else:
            for i, reg in enumerate(regs, start=set_at + 1):
                if not _is_register(reg):
                    fail(i, f"bad register {reg!r} (expected r<i> or *)")
                elif (idx := _index(reg[1:])) is None or idx >= k:
                    fail(i, f"update register {reg} out of range")
                else:
                    update.append(idx)
    bad = _least_out_of_range(guard.registers, k)
    if bad is not None:
        fail(7, f"guard register out of range: r{bad}")
    if diags:
        return None
    return Transition(loc_ids[src], letter_ids[sym], guard, frozenset(update), loc_ids[dst])


def _is_register(word) -> bool:
    """Whether `word` is r<digits>, as `set` clauses spell a register."""
    return isinstance(word, str) and word[:1] == "r" and word[1:].isdecimal()


# ---------------------------------------------------------------------------
# Serialization


def serialize_automaton(aut: RegisterAutomaton, format: str = "dsl") -> str:
    if format == "dsl":
        return _serialize_dsl(aut)
    if format == "json":
        return _serialize_json(aut)
    raise ValueError(f"unknown format {format!r} (expected 'dsl' or 'json')")


def _serialize_dsl(aut: RegisterAutomaton) -> str:
    lines = [f"automaton {aut.name}",
             f"registers {aut.registers}",
             "alphabet " + " ".join(aut.alphabet) if aut.alphabet else "alphabet"]
    acc = aut.acceptance
    for i, name in enumerate(aut.locations):
        flags = ""
        if acc is not None:
            if i == acc.initial:
                flags += " initial"
            if i in acc.accepting:
                flags += " accepting"
        lines.append(f"location {name}{flags}")
    k = aut.registers
    for t in aut.transitions:
        line = (f"trans {aut.locations[t.source]} -> {aut.locations[t.target]} "
                f"on {aut.alphabet[t.letter]} when {format_guard(t.guard)}")
        if t.update:
            if len(t.update) == k and k > 0:
                line += " set *"
            else:
                line += " set " + " ".join(f"r{r}" for r in sorted(t.update))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _serialize_json(aut: RegisterAutomaton) -> str:
    acc = aut.acceptance
    payload = {
        "automaton": aut.name,
        "registers": aut.registers,
        "alphabet": list(aut.alphabet),
        "locations": [
            {"name": name,
             "initial": acc is not None and i == acc.initial,
             "accepting": acc is not None and i in acc.accepting}
            for i, name in enumerate(aut.locations)],
        "transitions": [
            {"source": aut.locations[t.source],
             "target": aut.locations[t.target],
             "on": aut.alphabet[t.letter],
             "when": format_guard(t.guard),
             "set": [f"r{r}" for r in sorted(t.update)]}
            for t in aut.transitions],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_automaton_json(text: str, provenance: str = "<inline>") -> RegisterAutomaton:
    """Parse the JSON mirror: check the payload's shape and types, write each
    entry as the DSL line it mirrors and parse that text.  Every diagnostic
    is at 1:1 except a JSON syntax error's and a guard's."""
    def error(message: str, line: int = 1, column: int = 1) -> DslError:
        return DslError([ParseDiagnostic(line, column, message)], provenance)

    def word(what: str, name) -> str:
        """`name`, once it is one word: so it neither splits a line nor
        shifts a word, and the DSL reads it by its position alone."""
        if not isinstance(name, str):
            raise error(f"{what} name must be a string, not {name!r}")
        if name.split() != [name]:
            raise error(f"{what} name {name!r} must be one word, "
                        "non-empty and without whitespace")
        return name

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise error(f"bad JSON: {err.msg}", err.lineno, err.colno)
    except ValueError as err:  # an integer of more digits than int() converts
        raise error(f"malformed JSON automaton: {err}")
    except RecursionError:  # arrays or objects nested past the interpreter's stack
        raise error("bad JSON: nested too deeply")
    try:
        alphabet = payload["alphabet"]
        if not isinstance(alphabet, list):
            raise error(f"alphabet must be a list of letter names, not {alphabet!r}")
        k = payload["registers"]
        if type(k) is not int or k < 0:
            raise error(f"registers must be a non-negative integer, not {k!r}")
        lines = [f"automaton {word('automaton', payload['automaton'])}",
                 f"registers {k}",
                 " ".join(["alphabet"] + [word("letter", a) for a in alphabet])]
        for entry in payload["locations"]:
            line = ["location", word("location", entry["name"])]
            for flag in ("initial", "accepting"):
                value = entry.get(flag, False)
                if type(value) is not bool:
                    raise error(f"location flag {flag} must be true or false, not {value!r}")
                if value:
                    line.append(flag)
            lines.append(" ".join(line))
        for entry in payload["transitions"]:
            regs = entry.get("set", [])
            if regs != ["*"] and not (isinstance(regs, list) and all(map(_is_register, regs))):
                raise error(f'bad set {regs!r} (expected a list of r<i>, or ["*"])')
            when = entry["when"]
            if not isinstance(when, str):
                raise error(f"guard must be a string, not {when!r}")
            guard = " ".join(when.split())  # the guard table's key: no `set`, no line break
            try:
                _shared_guard(guard)
            except DslError:
                parse_guard(when)  # raises with columns in the text as given
                raise
            line = ["trans", word("location", entry["source"]), "->",
                    word("location", entry["target"]), "on", word("letter", entry["on"]),
                    "when", guard]
            if regs:
                line += ["set"] + regs
            lines.append(" ".join(line))
    except DslError as err:
        raise DslError(err.diagnostics, provenance)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise error(f"malformed JSON automaton: {err}")
    try:
        return _parse_dsl("\n".join(lines), provenance)
    except DslError as err:  # its lines and columns are in text the caller never saw
        raise DslError([ParseDiagnostic(1, 1, d.message) for d in err.diagnostics], provenance)
