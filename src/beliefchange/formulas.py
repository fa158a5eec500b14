"""Finite propositional language: vocabularies, formulas, worlds, extensions.

Worlds are plain integers. For a vocabulary with props (p0, ..., p_{n-1}),
world ``w`` makes ``p_i`` true iff bit ``n-1-i`` of ``w`` is set, so the
numeric order of worlds coincides with the lexicographic order of their
bit strings (``w=0b11`` over (p, q) is the world where both hold, printed
as "11").  An extension is a frozenset of world indices.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import and_, attrgetter, eq
from typing import Iterable, List, Mapping, Optional, Sequence

Extension = frozenset

MAX_PROPS = 16

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = ("true", "false")


class BeliefChangeError(Exception):
    """Base class for every error the package raises."""


class FormulaError(BeliefChangeError):
    """Base class for errors raised by this module."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(FormulaError):
    def __init__(self, atom: str):
        super().__init__(f"atom {atom!r} is not in the vocabulary")
        self.atom = atom


class TimestampError(FormulaError):
    pass


# ---------------------------------------------------------------------------
# Formula AST


class Formula:
    """Base class; subclasses are frozen dataclasses, so formulas hash and
    compare structurally.  Each node keeps its hash once computed, in a
    slot that takes no part in comparison."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __str__(self) -> str:
        return print_formula(self)

    def __reduce__(self):
        # rebuilt from its fields, so a copy computes its hash afresh
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, repr=False, slots=True)
class Const(Formula):
    value: bool
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return "TRUE" if self.value else "FALSE"


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True, repr=False, slots=True)
class Atom(Formula):
    name: str
    time: Optional[int] = None
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @property
    def key(self) -> str:
        """Vocabulary key; timestamped atoms map to 'name@time'."""
        return self.name if self.time is None else f"{self.name}@{self.time}"

    def __repr__(self):
        return f"Atom({self.key})"


@dataclass(frozen=True, repr=False, slots=True)
class Not(Formula):
    sub: Formula
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"Not({self.sub!r})"


class _Binary(Formula):
    __slots__ = ()


@dataclass(frozen=True, repr=False, slots=True)
class And(_Binary):
    left: Formula
    right: Formula
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"And({self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False, slots=True)
class Or(_Binary):
    left: Formula
    right: Formula
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"Or({self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False, slots=True)
class Implies(_Binary):
    left: Formula
    right: Formula
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"Implies({self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False, slots=True)
class Iff(_Binary):
    left: Formula
    right: Formula
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"Iff({self.left!r}, {self.right!r})"


def _keep_hash(cls) -> None:
    """Give a node class the generated dataclass hash of its fields,
    computed once per node: a lookup keyed by a formula would otherwise
    hash its whole tree again."""
    names = cls.__match_args__
    key = attrgetter(*names) if len(names) > 1 else lambda node: (getattr(node, names[0]),)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(key(self))
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = __hash__


for _node in (Const, Atom, Not, And, Or, Implies, Iff):
    _keep_hash(_node)


def conj(parts: Sequence[Formula]) -> Formula:
    """Left-associated conjunction; empty sequence is TRUE."""
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    """Left-associated disjunction; empty sequence is FALSE."""
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# ---------------------------------------------------------------------------
# Vocabulary and worlds


class Vocabulary:
    """An ordered tuple of proposition names over which worlds are built.

    Plain names must be identifiers; timestamped vocabularies (built by
    :func:`timestamped_vocabulary`) use keys of the form ``name@time``.
    The size cap keeps ``2**n`` world enumerations tractable.
    """

    __slots__ = ("props", "_index", "_ext_cache", "_minterms")

    def __init__(self, props: Sequence[str]):
        props = tuple(props)
        if not 1 <= len(props) <= MAX_PROPS:
            raise FormulaError(
                f"vocabulary must have between 1 and {MAX_PROPS} propositions, got {len(props)}"
            )
        if len(set(props)) != len(props):
            raise FormulaError("proposition names must be unique")
        for name in props:
            base, _, stamp = name.partition("@")
            if not _NAME_RE.match(base) or (stamp and not stamp.isdigit()):
                raise FormulaError(f"invalid proposition name {name!r}")
            if base in _RESERVED:
                raise FormulaError(f"proposition name {base!r} is reserved")
        self.props = props
        self._index = {name: i for i, name in enumerate(props)}
        self._ext_cache: dict = {}
        self._minterms: dict = {}  # world -> its minterm, see world_formula

    def __repr__(self):
        return f"Vocabulary({', '.join(self.props)})"

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.props == other.props

    def __hash__(self):
        return hash(self.props)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    @property
    def size(self) -> int:
        return len(self.props)

    @property
    def world_count(self) -> int:
        return 1 << len(self.props)

    def worlds(self) -> range:
        """All worlds in lexicographic bit order."""
        return range(self.world_count)

    def all_worlds(self) -> Extension:
        return frozenset(self.worlds())

    def truth(self, world: int, key: str) -> bool:
        try:
            i = self._index[key]
        except KeyError:
            raise UnknownAtomError(key) from None
        return bool((world >> (len(self.props) - 1 - i)) & 1)

    def world_of(self, assignment: Mapping[str, bool]) -> int:
        world = 0
        for key, value in assignment.items():
            i = self._index.get(key)
            if i is None:
                raise UnknownAtomError(key)
            if value:
                world |= 1 << (len(self.props) - 1 - i)
        return world

    def world_str(self, world: int) -> str:
        return format(world, f"0{len(self.props)}b")

    def extension_str(self, worlds: Iterable[int]) -> str:
        """A world set as ``{00,11}``, worlds in numeric order."""
        return "{" + ",".join(self.world_str(w) for w in sorted(worlds)) + "}"

    def world_from_str(self, bits: str) -> int:
        if len(bits) != len(self.props) or any(c not in "01" for c in bits):
            raise FormulaError(f"world string {bits!r} must be {len(self.props)} bits")
        return int(bits, 2)

    # -- semantics ---------------------------------------------------------

    def extension(self, formula: Formula) -> Extension:
        """The set of worlds satisfying ``formula`` (cached per formula)."""
        cached = self._ext_cache.get(formula)
        if cached is not None:
            return cached
        ext = self._compute_extension(formula)
        self._ext_cache[formula] = ext
        return ext

    def _compute_extension(self, f: Formula) -> Extension:
        if isinstance(f, Const):
            return self.all_worlds() if f.value else frozenset()
        if isinstance(f, Atom):
            i = self._index.get(f.key)
            if i is None:
                raise UnknownAtomError(f.key)
            bit = 1 << (len(self.props) - 1 - i)
            return frozenset(w for w in self.worlds() if w & bit)
        if isinstance(f, Not):
            return self.all_worlds() - self.extension(f.sub)
        if isinstance(f, And):
            return self.extension(f.left) & self.extension(f.right)
        if isinstance(f, Or):
            return self.extension(f.left) | self.extension(f.right)
        if isinstance(f, Implies):
            return (self.all_worlds() - self.extension(f.left)) | self.extension(f.right)
        if isinstance(f, Iff):
            left, right = self.extension(f.left), self.extension(f.right)
            return (left & right) | (self.all_worlds() - left - right)
        raise FormulaError(f"unknown formula node {f!r}")

    def satisfies(self, world: int, formula: Formula) -> bool:
        return world in self.extension(formula)


def extension(formula: Formula, vocab: Vocabulary) -> Extension:
    return vocab.extension(formula)


def entails(worlds: Iterable[int], formula: Formula, vocab: Vocabulary) -> bool:
    """True iff every world in the set satisfies ``formula``.

    With the full world set this is validity; the empty set entails
    everything (an inconsistent belief set).
    """
    return frozenset(worlds) <= vocab.extension(formula)


def world_formula(world: int, vocab: Vocabulary) -> Formula:
    """The complete conjunction of literals characterising one world.

    Built once per vocabulary object and kept on it, so the DNFs over one
    vocabulary share their minterm nodes and the hashes those keep.
    """
    minterm = vocab._minterms.get(world)
    if minterm is None:
        literals = []
        for name in vocab.props:
            base, _, stamp = name.partition("@")
            atom = Atom(base, int(stamp)) if stamp else Atom(base)
            literals.append(atom if vocab.truth(world, name) else Not(atom))
        minterm = vocab._minterms[world] = conj(literals)
    return minterm


def formula_of_extension(worlds: Iterable[int], vocab: Vocabulary) -> Formula:
    """Canonical full-DNF formula for an extension.

    The empty extension yields ``false``, the full one ``true``; otherwise
    the disjunction of world minterms in enumeration order, which makes the
    output deterministic and golden-file friendly.
    """
    ws = frozenset(worlds)
    if not ws:
        return FALSE
    if ws == vocab.all_worlds():
        return TRUE
    return disj([world_formula(w, vocab) for w in sorted(ws)])


# ---------------------------------------------------------------------------
# Operator tables over world masks


class OperatorTable:
    """A binary operator on extensions, tabulated on int world masks.

    Bit i of a mask stands for ``worlds[i]``; a world the operator returns
    outside that list gets the next free bit, so such an output stays
    distinct and fails every inclusion in a mask of the listed worlds.
    ``row(a)[b]`` is the mask of ``op(ext(a), ext(b))``, and ``len(row(a))``
    counts the results the row holds.

    An operator may answer whole rows on masks.  If ``op.mask_rows``
    exists, ``op.mask_rows(worlds)`` returns None or a function taking a
    first argument's mask to the list of the result masks for every second
    argument's mask over ``worlds``, in mask order; ``row(a)`` is then that
    list, and no extension is built.  Any other operator is called on
    frozensets, one pair at a time as a checker first reads it, and its
    output mapped back to a mask: its row is filled on lookup and
    remembered, each distinct pair costing one call, so the operator must
    be deterministic.  Each extension is built once per mask.
    """

    def __init__(self, op, worlds: Iterable[int]):
        self.op = op
        self.worlds = list(worlds)
        self._bits = {w: 1 << i for i, w in enumerate(self.worlds)}
        self._rows: dict = {}
        self._exts: dict = {}
        mask_rows = getattr(op, "mask_rows", None)
        self._mask_rows = mask_rows and mask_rows(tuple(self.worlds))

    def mask(self, worlds: Iterable[int]) -> int:
        bits, out = self._bits, 0
        for w in worlds:
            bit = bits.get(w)
            if bit is None:
                bit = bits[w] = 1 << len(self.worlds)
                self.worlds.append(w)
            out |= bit
        return out

    def ext(self, mask: int) -> Extension:
        # a mask's bits are fixed once it exists: new worlds only add bits
        out = self._exts.get(mask)
        if out is None:
            out = self._exts[mask] = frozenset(w for i, w in enumerate(self.worlds) if mask >> i & 1)
        return out

    def row(self, a: int):
        """The results for first argument ``a``: a list, or a lazy
        :class:`_OperatorRow` for an operator without whole rows."""
        row = self._rows.get(a)
        if row is None:
            row = self._rows[a] = (
                self._mask_rows(a) if self._mask_rows else _OperatorRow(self._round_trip(a))
            )
        return row

    def _round_trip(self, a: int):
        op, ext, mask, first = self.op, self.ext, self.mask, self.ext(a)
        return lambda b: mask(op(first, ext(b)))


class _OperatorRow(dict):
    """One first argument's results, keyed by the second argument's mask
    and evaluated on first lookup."""

    def __init__(self, answer):
        super().__init__()
        self.answer = answer

    def __missing__(self, b: int) -> int:
        out = self[b] = self.answer(b)
        return out


def revealed_order(row, n: int) -> Optional[List[int]]:
    """The order a row of an :class:`OperatorTable` over ``n`` worlds
    reveals on pairs, if the row picks that order's minima on every mask.

    World a is at most world b, ``a <= b``, when a is in ``row[{a, b}]``;
    the minima of a mask phi are ``Min(phi) = {a in phi : a <= b for every
    b in phi}``.  Returns ``down``, ``down[b]`` the mask of the worlds at
    most b, when the row holds every mask and ``row[phi] == Min(phi)`` for
    each; otherwise None.  It reads only results the row already holds, so
    it makes no operator call.
    """
    size = 1 << n
    if len(row) != size:
        return None
    singles = [1 << a for a in range(n)]
    down = [sum(map(and_, map(row.__getitem__, [a | b for a in singles]), singles)) for b in singles]
    # Min(phi) is phi & common[phi], the AND of down[b] over b in phi
    common = [-1] * size
    for phi in range(1, size):
        low = phi & -phi
        common[phi] = common[phi ^ low] & down[low.bit_length() - 1]
    masks = range(size)
    if all(map(eq, map(row.__getitem__, masks), map(and_, masks, common))):
        return down
    return None


# ---------------------------------------------------------------------------
# Timestamping


def timestamp(formula: Formula, time: int) -> Formula:
    """Replace every atom p by its timestamped copy p@time, recursively."""
    if time < 0:
        raise TimestampError("time index must be nonnegative")
    if isinstance(formula, Const):
        return formula
    if isinstance(formula, Atom):
        if formula.time is not None:
            raise TimestampError(f"atom {formula.key!r} is already timestamped")
        return Atom(formula.name, time)
    if isinstance(formula, Not):
        return Not(timestamp(formula.sub, time))
    if isinstance(formula, And):
        return And(timestamp(formula.left, time), timestamp(formula.right, time))
    if isinstance(formula, Or):
        return Or(timestamp(formula.left, time), timestamp(formula.right, time))
    if isinstance(formula, Implies):
        return Implies(timestamp(formula.left, time), timestamp(formula.right, time))
    if isinstance(formula, Iff):
        return Iff(timestamp(formula.left, time), timestamp(formula.right, time))
    raise FormulaError(f"unknown formula node {formula!r}")


def timestamped_vocabulary(vocab: Vocabulary, horizon: int) -> Vocabulary:
    """Vocabulary of p@m copies for 0 <= m <= horizon, time-major order."""
    props = []
    for m in range(horizon + 1):
        for name in vocab.props:
            if "@" in name:
                raise TimestampError(f"vocabulary already timestamped: {name!r}")
            props.append(f"{name}@{m}")
    return Vocabulary(props)


# ---------------------------------------------------------------------------
# Parsing and printing
#
# Grammar: atoms [a-zA-Z_][a-zA-Z0-9_]*, timestamped atom name@nat,
# constants true/false, operators ! & | -> <->, parentheses.
# Precedence ! > & > | > -> > <->, with -> (and <->) right-associative
# and & , | left-associative.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:@\d+)?)"
    r"|(?P<op><->|->|[!&|()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, vocab: Optional[Vocabulary]):
        self.tokens = tokens
        self.i = 0
        self.vocab = vocab

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want: str):
        tok, pos = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", pos)

    def parse(self) -> Formula:
        f = self.iff()
        tok, pos = self.next()
        if tok is not None:
            raise ParseError(f"unexpected token {tok!r}", pos)
        return f

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek() == "<->":
            self.next()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disjunct()
        if self.peek() == "->":
            self.next()
            return Implies(left, self.implies())
        return left

    def disjunct(self) -> Formula:
        out = self.conjunct()
        while self.peek() == "|":
            self.next()
            out = Or(out, self.conjunct())
        return out

    def conjunct(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok, pos = self.tokens[self.i]
        if tok == "!":
            self.next()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok, pos = self.next()
        if tok == "(":
            f = self.iff()
            self.expect(")")
            return f
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok in ("!", "&", "|", "->", "<->", ")"):
            raise ParseError(f"unexpected token {tok!r}", pos)
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        name, _, stamp = tok.partition("@")
        atom = Atom(name, int(stamp)) if stamp else Atom(name)
        if self.vocab is not None and atom.key not in self.vocab:
            raise UnknownAtomError(atom.key)
        return atom


def parse_formula(text: str, vocab: Optional[Vocabulary] = None) -> Formula:
    """Parse ``text``; with a vocabulary, atoms are checked against it."""
    return _Parser(_tokenize(text), vocab).parse()


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def _prec(f: Formula) -> int:
    return _PREC.get(type(f), 6)


def print_formula(f: Formula) -> str:
    """Canonical printer; parse(print(f)) is structurally f."""
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Atom):
        return f.key
    if isinstance(f, Not):
        sub = print_formula(f.sub)
        if _prec(f.sub) < _PREC[Not]:
            sub = f"({sub})"
        return f"!{sub}"
    if isinstance(f, (And, Or)):
        op = "&" if isinstance(f, And) else "|"
        me = _prec(f)
        left = print_formula(f.left)
        if _prec(f.left) < me:
            left = f"({left})"
        right = print_formula(f.right)
        if _prec(f.right) <= me:  # left-associative: same level on the right needs parens
            right = f"({right})"
        return f"{left} {op} {right}"
    if isinstance(f, (Implies, Iff)):
        op = "->" if isinstance(f, Implies) else "<->"
        me = _prec(f)
        left = print_formula(f.left)
        if _prec(f.left) <= me:  # right-associative: same level on the left needs parens
            left = f"({left})"
        right = print_formula(f.right)
        if _prec(f.right) < me:
            right = f"({right})"
        return f"{left} {op} {right}"
    raise FormulaError(f"unknown formula node {f!r}")


def seq_str(formulas: Iterable[Formula]) -> str:
    """An observation sequence or local state as ``<p, !q>``."""
    return "<" + ", ".join(str(f) for f in formulas) + ">"
