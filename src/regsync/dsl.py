"""Line-oriented textual format for register automata, plus a JSON mirror.

    automaton <name>
    registers <k>
    alphabet <sym> ...
    location <name> [initial] [accepting]
    trans <src> -> <dst> on <sym> when <guard> [set <reg>... | set *]

Guards: true | =r<i> | !=r<i> | g & g | g | g | !g | (g), precedence ! > & > |.
`set *` updates all registers; omitting `set` means no update.  Serialization
is deterministic (stored order), so structurally equal automata print
byte-identically and parse(serialize(x)) == x.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .ra import (
    TRUE,
    Acceptance,
    And,
    Constraint,
    Eq,
    Not,
    RegisterAutomaton,
    TrueC,
    guard_registers,
    mk_transition,
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

_GUARD_TOKEN = re.compile(r"\s*(!=r\d+|=r\d+|true|[()!&|])")


def _tokenize_guard(text: str, line: int, base_col: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _GUARD_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise DslError([ParseDiagnostic(line, base_col + pos + 1,
                                            f"bad guard token near {rest[:12]!r}")])
        tokens.append((m.group(1), base_col + m.start(1) + 1))
        pos = m.end()
    return tokens


# Deepest guard AST, and deepest `!`/parenthesis nesting, the parser accepts:
# every later walk over a guard recurses.  Real guards stay below 25 levels.
MAX_GUARD_DEPTH = 100


class _GuardParser:
    """Recursive descent; each parse_* method returns (ast, height)."""

    def __init__(self, tokens, line: int, end_col: int):
        self.tokens = tokens
        self.line = line
        self.end_col = end_col
        self.pos = 0
        self.nesting = 0

    def _fail(self, message: str):
        col = self.tokens[self.pos][1] if self.pos < len(self.tokens) else self.end_col
        raise DslError([ParseDiagnostic(self.line, col, message)])

    def _checked(self, depth: int, pos: int) -> int:
        """`depth`, or a DslError at token `pos` if it exceeds the cap."""
        if depth > MAX_GUARD_DEPTH:
            self.pos = pos
            self._fail(f"guard nested deeper than {MAX_GUARD_DEPTH} levels")
        return depth

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of guard")
        self.pos += 1
        return tok

    def parse(self) -> Constraint:
        out, _ = self.parse_or()
        if self.peek() is not None:
            self._fail(f"unexpected guard token {self.peek()!r}")
        return out

    def parse_or(self):
        out, height = self.parse_and()
        while self.peek() == "|":
            at = self.pos
            self.take()
            rhs, rhs_height = self.parse_and()
            out = Not(And(Not(out), Not(rhs)))
            height = self._checked(3 + max(height, rhs_height), at)
        return out, height

    def parse_and(self):
        out, height = self.parse_unary()
        while self.peek() == "&":
            at = self.pos
            self.take()
            rhs, rhs_height = self.parse_unary()
            out = And(out, rhs)
            height = self._checked(1 + max(height, rhs_height), at)
        return out, height

    def parse_unary(self):
        tok = self.peek()
        if tok in ("!", "("):
            at = self.pos
            self.nesting = self._checked(self.nesting + 1, at)
            self.take()
            if tok == "!":
                operand, height = self.parse_unary()
                out = Not(operand), self._checked(height + 1, at)
            else:
                out = self.parse_or()
                if self.peek() != ")":
                    self._fail("expected ')'")
                self.take()
            self.nesting -= 1
            return out
        tok = self.take()
        if tok == "true":
            return TRUE, 1
        if tok.startswith("!=r"):
            return Not(Eq(int(tok[3:]))), 2
        if tok.startswith("=r"):
            return Eq(int(tok[2:])), 1
        self._fail(f"unexpected guard token {tok!r}")


def parse_guard(text: str, line: int = 1, base_col: int = 0) -> Constraint:
    tokens = _tokenize_guard(text, line, base_col)
    if not tokens:
        raise DslError([ParseDiagnostic(line, base_col + 1, "empty guard")])
    return _GuardParser(tokens, line, base_col + len(text)).parse()


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


@dataclass
class _Draft:
    name: Optional[str] = None
    registers: Optional[int] = None
    alphabet: Optional[list] = None
    locations: list = field(default_factory=list)
    initial: Optional[str] = None
    accepting: list = field(default_factory=list)
    transitions: list = field(default_factory=list)  # raw tuples


def _split_tokens(line: str):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_automaton(doc) -> RegisterAutomaton:
    """Parse the DSL (or, if the text starts with '{', the JSON mirror)."""
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    text = doc.text
    if text.lstrip().startswith("{"):
        return parse_automaton_json(text)
    diags = []
    draft = _Draft()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _split_tokens(raw)
        if not tokens:
            continue
        head, col = tokens[0]
        rest = tokens[1:]
        try:
            if head == "automaton":
                if len(rest) != 1:
                    diags.append(ParseDiagnostic(lineno, col, "expected: automaton <name>"))
                else:
                    draft.name = rest[0][0]
            elif head == "registers":
                if len(rest) != 1 or not rest[0][0].isdigit():
                    diags.append(ParseDiagnostic(lineno, col, "expected: registers <k>"))
                else:
                    draft.registers = int(rest[0][0])
            elif head == "alphabet":
                draft.alphabet = [tok for tok, _ in rest]
            elif head == "location":
                if not rest:
                    diags.append(ParseDiagnostic(lineno, col, "expected: location <name> ..."))
                    continue
                name, name_col = rest[0]
                flags = rest[1:]
                if any(name == existing for existing in draft.locations):
                    diags.append(ParseDiagnostic(lineno, name_col,
                                                 f"duplicate location name {name!r}"))
                    continue
                draft.locations.append(name)
                for flag, flag_col in flags:
                    if flag == "initial":
                        if draft.initial is not None:
                            diags.append(ParseDiagnostic(lineno, flag_col,
                                                         "second initial location"))
                        draft.initial = name
                    elif flag == "accepting":
                        draft.accepting.append(name)
                    else:
                        diags.append(ParseDiagnostic(lineno, flag_col,
                                                     f"unknown location flag {flag!r}"))
            elif head == "trans":
                draft.transitions.append((lineno, raw, tokens))
            else:
                diags.append(ParseDiagnostic(lineno, col, f"unknown directive {head!r}"))
        except DslError as err:
            diags.extend(err.diagnostics)
    if draft.name is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'automaton <name>' header"))
    if draft.registers is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'registers <k>' header"))
    if draft.alphabet is None:
        diags.append(ParseDiagnostic(1, 1, "missing 'alphabet ...' header"))
    seen_letters = set()
    for letter in draft.alphabet or ():
        if letter in seen_letters:
            diags.append(ParseDiagnostic(1, 1, f"duplicate letter name {letter!r}"))
        seen_letters.add(letter)
    if diags:
        raise DslError(diags, doc.provenance)

    loc_ids = {name: i for i, name in enumerate(draft.locations)}
    letter_ids = {name: i for i, name in enumerate(draft.alphabet)}
    transitions = []
    for lineno, raw, tokens in draft.transitions:
        transitions.append(_parse_transition(
            lineno, raw, tokens, loc_ids, letter_ids, draft.registers, diags))
    if diags:
        raise DslError(diags, doc.provenance)

    acceptance = None
    if draft.initial is not None or draft.accepting:
        if draft.initial is None:
            raise DslError([ParseDiagnostic(1, 1,
                                            "accepting locations without an initial location")],
                           doc.provenance)
        acceptance = Acceptance(
            initial=loc_ids[draft.initial],
            accepting=frozenset(loc_ids[name] for name in draft.accepting))
    return RegisterAutomaton(
        name=draft.name,
        locations=tuple(draft.locations),
        registers=draft.registers,
        alphabet=tuple(draft.alphabet),
        transitions=tuple(transitions),
        acceptance=acceptance,
    )


def _parse_transition(lineno, raw, tokens, loc_ids, letter_ids, k, diags):
    words = [tok for tok, _ in tokens]
    cols = {i: col for i, (_, col) in enumerate(tokens)}

    def fail(i, message):
        diags.append(ParseDiagnostic(lineno, cols.get(i, len(raw) + 1), message))

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
    set_at = None
    for i in range(7, len(words)):
        if words[i] == "set":
            set_at = i
            break
    if len(words) == 7 or set_at == 7:
        fail(6, "missing guard after 'when'")
        return None
    guard_text_start = cols[7] - 1
    guard_end = cols[set_at] - 1 if set_at is not None else len(raw)
    guard_src = raw[guard_text_start:guard_end]
    try:
        guard = parse_guard(guard_src, lineno, guard_text_start)
    except DslError as err:
        diags.extend(err.diagnostics)
        return None
    update = set()
    if set_at is not None:
        regs = words[set_at + 1:]
        if not regs:
            fail(set_at, "empty 'set' clause")
        elif regs == ["*"]:
            update = set(range(k))
        else:
            for off, reg in enumerate(regs):
                if re.fullmatch(r"r\d+", reg):
                    idx = int(reg[1:])
                    if idx >= k:
                        fail(set_at + 1 + off, f"update register {reg} out of range")
                    update.add(idx)
                else:
                    fail(set_at + 1 + off, f"bad register {reg!r} (expected r<i> or *)")
    bad = sorted(r for r in guard_registers(guard) if r >= k)
    if bad:
        fail(7, f"guard register out of range: r{bad[0]}")
    if diags:
        return None
    return mk_transition(loc_ids[src], letter_ids[sym], guard, update, loc_ids[dst])


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


def parse_automaton_json(text: str) -> RegisterAutomaton:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise DslError([ParseDiagnostic(err.lineno, err.colno, f"bad JSON: {err.msg}")])
    try:
        locations = [entry["name"] for entry in payload["locations"]]
        loc_ids = {name: i for i, name in enumerate(locations)}
        letter_ids = {name: i for i, name in enumerate(payload["alphabet"])}
        k = payload["registers"]
        transitions = []
        for entry in payload["transitions"]:
            update = set()
            for reg in entry.get("set", []):
                update.add(int(reg[1:]))
            transitions.append(mk_transition(
                loc_ids[entry["source"]], letter_ids[entry["on"]],
                parse_guard(entry["when"]), update, loc_ids[entry["target"]]))
        initial = [i for i, entry in enumerate(payload["locations"]) if entry.get("initial")]
        accepting = [i for i, entry in enumerate(payload["locations"]) if entry.get("accepting")]
        acceptance = None
        if initial or accepting:
            if len(initial) != 1:
                raise DslError([ParseDiagnostic(1, 1, "JSON needs exactly one initial location")])
            acceptance = Acceptance(initial=initial[0], accepting=frozenset(accepting))
        return RegisterAutomaton(
            name=payload["automaton"],
            locations=tuple(locations),
            registers=k,
            alphabet=tuple(payload["alphabet"]),
            transitions=tuple(transitions),
            acceptance=acceptance,
        )
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, DslError):
            raise
        raise DslError([ParseDiagnostic(1, 1, f"malformed JSON automaton: {err}")])
