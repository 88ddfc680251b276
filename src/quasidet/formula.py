"""Free rational formulas: DAG nodes, evaluation, inversion height, parser.

A formula is an acyclic graph over Const / Var / Neg / Add / Mul / Inv
nodes; subterms may be shared.  Each node stores its inversion height
when it is built, so ``formula_height`` walks nothing.  Evaluation
follows the usual partial semantics: a value exists unless some subterm
``inv(b)`` hits a non-invertible value of ``b``, in which case a
``DomainError`` carrying that subterm is raised.

The nodes also form a ring, ``FormulaRing``, in which every element has
an inverse.  ``qdet_formula`` is ``qdet``'s own recursion run over it:
the recursion that evaluates quasideterminants builds their formulas.
``matrix_from_expressions`` reads matrix files written in the grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar
from .matrix import NcMatrix
from .qdet import qdet
from .rings import DomainError, Rationals, ScalarRing


class RatFormula:
    """Base node; arithmetic operators build shared-subterm graphs."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Add(self, Neg(_coerce(other)))

    def __rsub__(self, other):
        return Add(_coerce(other), Neg(self))

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True, eq=False, slots=True)
class Const(RatFormula):
    value: Fraction
    height: ClassVar[int] = 0

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, eq=False, slots=True)
class Var(RatFormula):
    name: str
    height: ClassVar[int] = 0

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable identifier must be nonempty")


@dataclass(frozen=True, eq=False, slots=True)
class Neg(RatFormula):
    child: RatFormula
    height: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "height", self.child.height)


@dataclass(frozen=True, eq=False, slots=True)
class Add(RatFormula):
    left: RatFormula
    right: RatFormula
    height: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "height", max(self.left.height, self.right.height))


@dataclass(frozen=True, eq=False, slots=True)
class Mul(RatFormula):
    left: RatFormula
    right: RatFormula
    height: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "height", max(self.left.height, self.right.height))


@dataclass(frozen=True, eq=False, slots=True)
class Inv(RatFormula):
    child: RatFormula
    height: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "height", self.child.height + 1)


def _coerce(x) -> RatFormula:
    if isinstance(x, RatFormula):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot treat {x!r} as a formula")


def _children(node):
    if isinstance(node, (Neg, Inv)):
        return (node.child,)
    if isinstance(node, (Add, Mul)):
        return (node.left, node.right)
    return ()


def _postorder(f: RatFormula):
    """Iterative postorder over the DAG, each shared node visited once."""
    seen = set()
    order = []
    stack = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in _children(node):
            if id(child) not in seen:
                stack.append((child, False))
    return order


def free_vars(f: RatFormula) -> set[str]:
    return {n.name for n in _postorder(f) if isinstance(n, Var)}


def evaluate(f: RatFormula, assignment: dict, ring: ScalarRing):
    """Value of ``f`` at ``assignment`` over ``ring``.

    ``assignment`` maps every free variable name to a ring element.
    Raises DomainError (payload = the offending Inv subterm) exactly when
    some subterm's inverse does not exist.
    """
    values: dict[int, object] = {}
    for node in _postorder(f):
        if isinstance(node, Const):
            num = ring.from_int(node.value.numerator)
            if node.value.denominator == 1:
                values[id(node)] = num
            else:
                den_inv = ring.try_invert(ring.from_int(node.value.denominator))
                if den_inv is None:
                    raise DomainError("constant denominator not invertible", node)
                values[id(node)] = num * den_inv
        elif isinstance(node, Var):
            if node.name not in assignment:
                raise KeyError(f"assignment missing variable {node.name!r}")
            values[id(node)] = assignment[node.name]
        elif isinstance(node, Neg):
            values[id(node)] = -values[id(node.child)]
        elif isinstance(node, Add):
            values[id(node)] = values[id(node.left)] + values[id(node.right)]
        elif isinstance(node, Mul):
            values[id(node)] = values[id(node.left)] * values[id(node.right)]
        elif isinstance(node, Inv):
            result = ring.try_invert(values[id(node.child)])
            if result is None:
                raise DomainError("subterm not invertible at this point", node)
            values[id(node)] = result
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
    return values[id(f)]


def formula_height(f: RatFormula) -> int:
    """Maximal number of nested inversions along any path.

    Read off the root: leaves have height 0, ``Inv`` adds one to its
    child's, and every other node takes the largest of its children's.
    """
    return f.height


def to_text(f: RatFormula) -> str:
    """Render in the expression grammar (parse(to_text(f)) evaluates equally)."""
    texts: dict[int, str] = {}
    for node in _postorder(f):
        if isinstance(node, Const):
            v = node.value
            if v.denominator == 1:
                texts[id(node)] = str(v) if v >= 0 else f"(0 - {-v})"
            else:
                sign = "" if v >= 0 else "0 - "
                texts[id(node)] = f"({sign}{abs(v.numerator)} * inv({v.denominator}))"
        elif isinstance(node, Var):
            texts[id(node)] = node.name
        elif isinstance(node, Neg):
            texts[id(node)] = f"(0 - {texts[id(node.child)]})"
        elif isinstance(node, Add):
            texts[id(node)] = f"({texts[id(node.left)]} + {texts[id(node.right)]})"
        elif isinstance(node, Mul):
            texts[id(node)] = f"({texts[id(node.left)]} * {texts[id(node.right)]})"
        elif isinstance(node, Inv):
            texts[id(node)] = f"inv({texts[id(node.child)]})"
    return texts[id(f)]


# ---------------------------------------------------------------------------
# expression grammar: integers, identifiers, + - *, parentheses, inv(e)


class ParseError(ValueError):
    pass


# levels of parentheses, inv and unary minus parsed; each takes <= 3 frames
MAX_NESTING = 200


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j]))
            i = j
            continue
        if ch in "+-*()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def expr(self, depth=0):
        node = self.term(depth)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term(depth)
            node = Add(node, rhs) if op == "+" else Add(node, Neg(rhs))
        return node

    def term(self, depth):
        node = self.factor(depth)
        while self.peek()[0] == "*":
            self.take()
            node = Mul(node, self.factor(depth))
        return node

    def factor(self, depth):
        if depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
        kind, text = self.peek()
        if kind == "-":
            self.take()
            return Neg(self.factor(depth + 1))
        if kind == "int":
            self.take()
            return Const(Fraction(int(text)))
        if kind == "ident":
            self.take()
            if text == "inv":
                self.take("(")
                node = self.expr(depth + 1)
                self.take(")")
                return Inv(node)
            return Var(text)
        if kind == "(":
            self.take()
            node = self.expr(depth + 1)
            self.take(")")
            return node
        raise ParseError(f"unexpected token {text!r}")


def parse(text: str) -> RatFormula:
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    parser.take("end")
    return node


def matrix_from_expressions(obj: dict) -> NcMatrix:
    """Build a rational matrix from the JSON file format
    {"rows": n, "cols": m, "entries": [[expr, ...], ...]} where each
    entry is an expression string over integers (the grammar with
    + - *, parentheses and inv) or a plain integer; any other JSON
    value (a float, a bool, null) raises ValueError, and so does a
    file that is not an object or whose rows are not lists."""
    if not isinstance(obj, dict):
        raise ValueError("a matrix file must hold a JSON object")
    ring = Rationals()
    n, m = obj["rows"], obj["cols"]
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("matrix entries must be a list of rows, each a list")
    if len(entries) != n or any(len(row) != m for row in entries):
        raise ValueError("entry grid does not match the declared shape")
    rows = []
    for row in entries:
        out = []
        for cell in row:
            if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                raise ValueError(
                    f"matrix entries must be integers or expression strings; got {cell!r}"
                )
            if isinstance(cell, int):
                out.append(Fraction(cell))
                continue
            tree = parse(cell)
            names = free_vars(tree)
            if names:
                raise ValueError(
                    f"matrix entries must be closed expressions; found variables {sorted(names)}"
                )
            out.append(evaluate(tree, {}, ring))
        rows.append(out)
    return NcMatrix(ring, rows)


# ---------------------------------------------------------------------------
# the quasideterminant as a formula: qdet's recursion over formula nodes


class FormulaRing(ScalarRing):
    """Formula nodes as scalars: the node operators are the arithmetic,
    and every element has the inverse ``Inv(a)``.  Only what ``qdet``'s
    recursion calls is defined."""

    name = "formulas"

    def try_invert(self, a):
        return Inv(a)


def entry_var(i: int, j: int) -> Var:
    return Var(f"a_{i}_{j}")


def qdet_formula(n: int, p: int = 1, q: int = 1) -> RatFormula:
    """Formula for the (p, q) quasideterminant of an n x n generic matrix.

    ``qdet``'s defining recursion run over ``FormulaRing``: each entry is
    one shared ``Var`` node, and each quasiminor is built and inverted
    once, so the inversion height grows by exactly one per matrix size.
    """
    labels = range(1, n + 1)
    A = NcMatrix(FormulaRing(), [[entry_var(i, j) for j in labels] for i in labels])
    return qdet(A, p, q, "recursive")
