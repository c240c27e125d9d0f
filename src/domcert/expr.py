"""Parser and evaluator for a small univariate expression language.

Grammar (whitespace is insignificant, there is no implicit multiplication)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?            # right associative
    atom    := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

"^" binds tightest and unary minus sits between "*" and "^", so "-x^2"
means -(x^2) while "x^-2" parses the way you expect.  NAME is one of the
constants ``pi`` / ``e``, a function ``abs exp ln sqrt sin cos``, or the
free variable.  The variable must be named ``x`` or ``t`` and a single
expression may use only one of them; "2x" and other juxtapositions are
parse errors.

Evaluation follows real-valued semantics: ``ln``/``sqrt`` of a negative
number, division by zero, ``0^negative`` and a negative base with a
non-integer exponent raise EvalError("domain"); overflow in ``^`` or
``exp``, ``sin``/``cos`` of an infinite value and a non-finite result
raise EvalError("overflow").

A tree's body is Python source, written by one emitter (_emit) in two
forms, with each constant spelled as a slot (``_k0``, ``_k1``, ...), so the
text depends only on the tree's shape: its ops, and the branch the emitter
takes for each constant operand.  A text compiles once per process
(_shape_code, a bounded cache) and each Expr binds its own constants to the
compiled code.  The specialized form, the one every path runs, guards an op
only where an operand can make it fault: ``^`` with a constant exponent,
``/`` by a nonzero constant, ``exp``, ``sin`` and ``cos`` run inline, and
``ln``/``sqrt`` call their fault helper only on the bad branch.  ``abs`` is
written inline too, as two comparisons that leave zero and nan to the
builtin, and a positive even exponent needs no zero guard.  When an
inline op raises, the guarded form runs again at that point and names the
fault; it is also the reference the specialized form must match bit for
bit.  A sweep over a pair whose g holds a subtree equal to f's tree reads
f's value there instead of computing it again (``copies``).  Questions
about a tree's shape, its power form and its kinks, are analysis's.

parse runs that cold path (_tokenize, _Parser, _emit, _shape_code) once per
template key.  A source's key is its pieces between number literals
(_NUM_RE as a split) with each literal's class: zero, another integer, a
finite non-integer, infinite, or an even integer in a place where it can be
an exponent (after "^" and only "-", "(" or spaces).  Those are the only
properties of a constant _emit branches on, since the pieces fix each
literal's sign.  The first time the cold path accepts a source of a key,
parse makes its template: a function of the literal values, one closure
per node, that builds the tree anew and binds the values to the compiled
specialized body.
The parser names each literal's Const and the sign unary-minus folding gave
it, so the template knows which value each constant holds; a source whose
signed literals are not its split's values takes the cold path.  A template
compiles nothing but the body the cold path compiles, so a first source
costs one cold parse; a later source of its key costs a split, a float()
per literal and that function.  The _TEMPLATE_BOUND templates made
last are kept.  A key with an infinite literal never gets a template, so
the cold path runs and raises its ParseError.  Nesting deeper than the
parser's or the emitter's recursion, or compile's limit on nested
parentheses, takes is a ParseError.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Callable, NamedTuple, Union

from .errors import DomcertError

_FUNCTIONS = ("abs", "exp", "ln", "sqrt", "sin", "cos")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("x", "t")


class ParseError(DomcertError):
    """Syntax error with the byte offset, the expected token and an excerpt."""

    def __init__(self, offset: int, expected: str, source: str):
        self.offset = offset
        self.expected = expected
        self.excerpt = _excerpt(source, offset)
        super().__init__(
            f"expected {expected} at offset {offset} in {self.excerpt!r}"
        )


class EvalError(DomcertError):
    """Runtime evaluation fault; kind is 'domain' or 'overflow'."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


def _excerpt(source: str, offset: int, width: int = 40) -> str:
    if len(source) <= 2 * width:
        return source
    lo = max(0, offset - width)
    return source[lo : offset + width]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Const(NamedTuple):
    value: float

    # 0.0 and -0.0 are == as floats but evaluate apart (x*0.0 against x*-0.0);
    # unequal to a plain tuple, whose hash differs
    def __eq__(self, other):
        if other.__class__ is not Const:
            return False
        return self.value == other.value and (
            math.copysign(1.0, self.value) == math.copysign(1.0, other.value)
        )

    def __ne__(self, other):  # tuple's own __ne__ would skip __eq__
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.value, math.copysign(1.0, self.value)))


class Var(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # 'neg' or a function name
    arg: "Node"


class Binary(NamedTuple):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Unary, Binary]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = {"+": "op", "-": "op", "*": "op", "/": "op", "^": "op", "(": "lparen", ")": "rparen"}


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, kind one of num, name, op,
    lparen, rparen, and an end token ("end", "", len(source))."""
    toks = []
    append = toks.append
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        kind = _PUNCT.get(ch)
        if kind is not None:
            append((kind, ch, i))
            i += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(source, i)
        if m:
            append(("name", m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, "a number, name, operator, or parenthesis", source)
    append(("end", "", n))
    return toks


# ---------------------------------------------------------------------------
# Parser: one method per grammar level, each reading the token list at
# self.i.  An op token is the only kind whose text is an operator, so an
# operator is matched by its text alone.
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], source: str):
        self.tokens = tokens
        self.source = source
        self.i = 0
        self.var: str | None = None
        self.literals: list[list] = []  # [Const, sign] of each number literal

    def expr(self) -> Node:
        node = self.term()
        tokens = self.tokens
        while True:
            op = tokens[self.i][1]
            if op != "+" and op != "-":
                return node
            self.i += 1
            node = Binary(op, node, self.term())

    def term(self) -> Node:
        node = self.factor()
        tokens = self.tokens
        while True:
            op = tokens[self.i][1]
            if op != "*" and op != "/":
                return node
            self.i += 1
            node = Binary(op, node, self.factor())

    def factor(self) -> Node:
        if self.tokens[self.i][1] == "-":
            self.i += 1
            operand = self.factor()
            # fold a negated literal so "-2" is a constant, not Unary(neg)
            if isinstance(operand, Const):
                node = Const(-operand.value)
                if self.literals and self.literals[-1][0] is operand:  # not pi or e
                    self.literals[-1] = [node, -self.literals[-1][1]]
                return node
            return Unary("neg", operand)
        base = self.atom()
        if self.tokens[self.i][1] == "^":
            self.i += 1
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Node:
        tokens = self.tokens
        kind, text, offset = tokens[self.i]
        self.i += 1
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(offset, "a finite constant", self.source)
            node = Const(value)
            self.literals.append([node, 1.0])
            return node
        if kind == "name":
            if tokens[self.i][0] != "lparen":
                if text in _CONSTANTS:
                    return Const(_CONSTANTS[text])
                if text not in _VARIABLES:
                    raise ParseError(
                        offset, "a known name: 'x', 't', 'pi', 'e', or a function", self.source
                    )
                if self.var is None:
                    self.var = text
                elif self.var != text:
                    raise ParseError(
                        offset,
                        f"the variable '{self.var}' (one variable per expression)",
                        self.source,
                    )
                return Var(text)
            if text not in _FUNCTIONS:
                raise ParseError(
                    offset, "a known function name (abs, exp, ln, sqrt, sin, cos)", self.source
                )
            self.i += 1
        elif kind != "lparen":
            raise ParseError(offset, "a number, name, '-', or '('", self.source)
        node = self.expr()
        kind, _, offset = tokens[self.i]
        if kind != "rparen":
            raise ParseError(offset, "')'", self.source)
        self.i += 1
        return node if text == "(" else Unary(text, node)


# ---------------------------------------------------------------------------
# Evaluation: a tree compiles to python source, written by _emit.  Its
# guarded form calls a helper for every op that can fault; it is the
# reference.  Its specialized form, the one every path runs, keeps a guard
# only where an operand can fault.  Const, Var, neg and + - * are written
# the same in both; the forms part only at these ops:
#
#   abs                 inline: u if u > 0.0, -u if u < 0.0, else the
#                       builtin, so zero and nan come out as abs gives them
#   L^c, c constant     inline ** (float ** and math.pow call the same C
#                       pow); the helper only where the base can fault: a
#                       zero base for c < 0, a base <= 0 for c not an
#                       integer, and 0.0 (_g_pow's +0.0) for a zero base
#                       when c is a positive odd integer.  A positive even
#                       c is a bare **: C pow gives +0.0 for a base of
#                       +-0.0 there
#   L/c, c != 0         plain /; a leaf over any divisor calls the helper
#                       only for a zero divisor
#   ln, sqrt            the helper only on the bad branch
#   exp, sin, cos       the math function itself
#
# An inline ** or exp raises OverflowError and sin or cos ValueError.  The
# caller then runs the guarded form at the same point: it takes the same
# values up to that op, faults there, and names it.
# ---------------------------------------------------------------------------


def _g_div(a, b):
    if b == 0.0:
        raise EvalError("domain", "division by zero")
    return a / b


def _g_pow(a, b):
    if a == 0.0:
        if b < 0.0:
            raise EvalError("domain", "zero raised to a negative power")
        return 1.0 if b == 0.0 else 0.0
    if a < 0.0 and not float(b).is_integer():
        raise EvalError("domain", "negative base with non-integer exponent")
    try:
        return math.pow(a, b)
    except OverflowError:
        raise EvalError("overflow", "overflow in '^'") from None
    except ValueError:
        raise EvalError("domain", "domain fault in '^'") from None


def _g_ln(a):
    if a <= 0.0:
        raise EvalError("domain", "ln of a non-positive value")
    return math.log(a)


def _g_sqrt(a):
    if a < 0.0:
        raise EvalError("domain", "sqrt of a negative value")
    return math.sqrt(a)


def _g_exp(a):
    try:
        return math.exp(a)
    except OverflowError:
        raise EvalError("overflow", "overflow in exp") from None


def _g_sin(a):
    try:
        return math.sin(a)
    except ValueError:  # an infinite argument; nan passes through
        raise EvalError("overflow", "sin of an infinite value") from None


def _g_cos(a):
    try:
        return math.cos(a)
    except ValueError:
        raise EvalError("overflow", "cos of an infinite value") from None


_EVAL_ENV = {
    "__builtins__": {},
    "_g_div": _g_div,
    "_g_pow": _g_pow,
    "_g_ln": _g_ln,
    "_g_sqrt": _g_sqrt,
    "_g_exp": _g_exp,
    "_g_sin": _g_sin,
    "_g_cos": _g_cos,
    "_abs": abs,
    "_exp": math.exp,
    "_ln": math.log,
    "_sqrt": math.sqrt,
    "_sin": math.sin,
    "_cos": math.cos,
}


def _literal(value: float) -> str:
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


class _Slots:
    """The constants of one generated text: each Const node (by id) is named
    _k0, _k1, ... in the order it is first emitted, and its value kept for
    binding.  A node emitted twice reads one slot."""

    __slots__ = ("names", "values")

    def __init__(self):
        self.names: dict[int, str] = {}
        self.values: list[float] = []

    def __call__(self, node: Const) -> str:
        name = self.names.get(id(node))
        if name is None:
            name = self.names[id(node)] = f"_k{len(self.values)}"
            self.values.append(node.value)
        return name

    def text(self, source: str) -> str:
        """The text of a lambda of the slots, in order, that returns what
        the lambda source evaluates to."""
        return f"lambda {', '.join(self.names.values())}: {source}"

    def bind(self, source: str):
        """The function the lambda source evaluates to, with the slots bound
        to their values as a closure."""
        return eval(_shape_code(self.text(source)), _EVAL_ENV)(*self.values)


# the users are expression bodies (_compile) and sweep loops (convexity); a
# cached code object holds about 2 KB for an expression and 9-13 KB for a
# sweep loop, and two cycles of a bench workload compile 19-63 shapes.
# parse keeps the _TEMPLATE_BOUND templates made last, about 4.5 KB each;
# the bench workloads make 31-33 in 12 cycles of bounds-mix, 18 in two of
# sweep-grid and 16 in two of rows-random
_TEMPLATE_BOUND = 128


@lru_cache(maxsize=128)
def _shape_code(source: str, mode: str = "eval"):
    """source compiled, once per process while it stays in the cache."""
    return compile(source, "<domcert>", mode)


def _emit(
    node: Node, var: str = "v", slots: _Slots | None = None, guarded: bool = False,
    reads: dict | None = None,
) -> str:
    """Source for node with the free variable spelled var: guarded, every op
    that can fault behind its helper; otherwise a guard only where an
    operand can fault, each branch taken on a constant's value showing in
    the text.  reads maps id() of a subtree whose value a variable already
    holds at this point to that variable.  Constants are slots, or literals
    without slots."""
    if isinstance(node, Const):
        return _literal(node.value) if slots is None else slots(node)
    if isinstance(node, Var):
        return var
    if reads and id(node) in reads:
        return reads[id(node)]
    if isinstance(node, Unary):
        op = node.op
        inner = _emit(node.arg, var, slots, guarded, reads)
        if op == "neg":
            return f"(-{inner})"
        if guarded:
            return f"_abs({inner})" if op == "abs" else f"_g_{op}({inner})"
        if op == "abs":  # zero and nan fall through to abs, which sets the sign
            use, bind = _operand(node.arg, inner, "_a")
            return f"({use} if {bind} > 0.0 else -{use} if {use} < 0.0 else _abs({use}))"
        if op in ("ln", "sqrt"):
            use, bind = _operand(node.arg, inner, "_a")
            test = "> 0.0" if op == "ln" else ">= 0.0"
            return f"(_{op}({use}) if {bind} {test} else _g_{op}({use}))"
        return f"_{op}({inner})"
    op, left, right = node.op, node.left, node.right
    left_text = _emit(left, var, slots, guarded, reads)
    right_text = _emit(right, var, slots, guarded, reads)
    if op in "+-*":
        return f"({left_text}{op}{right_text})"
    if not guarded:
        if op == "^" and isinstance(right, Const) and right.value != 0.0:
            c = right.value
            if c > 0.0 and c % 2.0 == 0.0:  # an even power of -0.0 is +0.0 too
                return f"({left_text}**{right_text})"
            use, bind = _operand(left, left_text, "_b")
            if not c.is_integer():
                return f"({use}**{right_text} if {bind} > 0.0 else _g_pow({use},{right_text}))"
            zero = "0.0" if c > 0.0 else f"_g_pow({use},{right_text})"
            return f"({use}**{right_text} if {bind} else {zero})"
        if op == "/" and isinstance(right, Const) and right.value != 0.0:
            return f"({left_text}/{right_text})"
        if op == "/" and isinstance(left, (Const, Var)):
            use, bind = _operand(right, right_text, "_d")
            return f"({left_text}/{use} if {bind} else _g_div({left_text},{use}))"
    return f"_g_{'div' if op == '/' else 'pow'}({left_text},{right_text})"


def copies(root: Node, sub: Node) -> set[int]:
    """ids of the subtrees of root equal to sub, a tree that is not a leaf:
    the same ops on the same variable and on constants with the same bits
    (Const equality keeps 0.0 and -0.0 apart)."""
    if isinstance(root, (Const, Var)) or isinstance(sub, (Const, Var)):
        return set()
    if root == sub:
        return {id(root)}
    return set().union(*(copies(child, sub) for child in root[1:]))  # the operands


def _operand(node: Node, text: str, temp: str) -> tuple[str, str]:
    """(text reading the operand, text evaluating it first): a constant or a
    variable is read twice, anything else is bound to temp."""
    if isinstance(node, Const) or text.isidentifier():
        return text, text
    return temp, f"({temp}:={text})"


def _nonfinite(value: float) -> EvalError:
    return EvalError("overflow", f"non-finite result for input {value!r}")


def _compile(root: Node, guarded: bool = False):
    """root's specialized (or guarded) body as a function of v: the text
    compiled once per shape, root's constants bound to it."""
    slots = _Slots()
    return slots.bind(f"lambda v: {_emit(root, slots=slots, guarded=guarded)}")


# ---------------------------------------------------------------------------
# Pretty printer; must round-trip (parse(to_source(e)) == e structurally).
# ---------------------------------------------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _BIN_PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return 3
    return 5  # atoms and function calls


def to_source(node: Node) -> str:
    """Render a tree back to parseable source with minimal parentheses."""
    if isinstance(node, Const):
        # parenthesized when negative, so it survives any surrounding context
        return _literal(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.arg)
            if _prec(node.arg) < 3:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_source(node.arg)})"

    op = node.op
    left, right = to_source(node.left), to_source(node.right)
    if op in "+-":
        if _prec(node.right) <= 1:
            right = f"({right})"
    elif op in "*/":
        if _prec(node.left) < 2:
            left = f"({left})"
        if _prec(node.right) <= 2:
            right = f"({right})"
    else:  # ^
        if _prec(node.left) < 5:
            left = f"({left})"
        if _prec(node.right) < 3:
            right = f"({right})"
    if right.startswith("-"):
        right = f"({right})"
    return f"{left}{op}{right}"


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------


class Expr:
    """An immutable parsed expression in at most one free variable."""

    __slots__ = ("root", "var_name", "source", "_fn")

    def __init__(self, root: Node, var_name: str | None = None, source: str | None = None):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "var_name", var_name)
        object.__setattr__(self, "source", source if source is not None else to_source(root))
        object.__setattr__(self, "_fn", _compile(root))

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    @property
    def raw(self):
        """The compiled specialized body, without evaluate's fault naming
        and finiteness check: an inline op raises OverflowError or
        ValueError, a helper EvalError, and a non-finite value comes back
        as it is.  Where it returns a finite value, evaluate returns the
        same bits."""
        return self._fn

    def evaluate(self, value: float) -> float:
        try:
            result = self._fn(value)
        except (OverflowError, ValueError) as exc:
            raise self._fault(exc, value) from None
        if not math.isfinite(result):
            raise _nonfinite(value)
        return result

    def _fault(self, exc: Exception, value: float) -> Exception:
        """The EvalError of the inline op that raised exc at value: the
        guarded form faults at the same op and names it."""
        try:
            _compile(self.root, guarded=True)(value)
        except EvalError as fault:
            return fault
        return exc

    __call__ = evaluate

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Expr)
            and self.root == other.root
            and self.var_name == other.var_name
        )

    def __hash__(self) -> int:
        return hash((self.root, self.var_name))

    def __repr__(self) -> str:
        return f"Expr({self.source!r})"


# ---------------------------------------------------------------------------
# Parsing: the cold path, and the templates parse serves a key from
# ---------------------------------------------------------------------------

_TOO_DEEP = "an expression nested less deeply"
# the source as its pieces between number literals, and the literals
_split = re.compile(f"({_NUM_RE.pattern})").split
# a piece a literal exponent can follow: only "-", "(" and spaces come
# between "^" and a literal that is the exponent's whole tree
_exponent = re.compile(r"\^[\s(-]*\Z").search


def _tree(source: str) -> tuple[Node, str | None, list[list]]:
    """The tree, the variable and the [Const, sign] of each number literal
    of source, or ParseError."""
    parser = _Parser(_tokenize(source), source)
    try:
        root = parser.expr()
    except RecursionError:
        raise ParseError(0, _TOO_DEEP, source) from None
    kind, _, offset = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(offset, "an operator or end of input", source)
    return root, parser.var, parser.literals


def _parse_cold(source: str) -> Expr:
    """parse without templates."""
    root, var, _ = _tree(source)
    try:
        return Expr(root, var, source)
    except (RecursionError, SyntaxError):  # _emit's depth or compile's nesting limit
        raise ParseError(0, _TOO_DEEP, source) from None


_new_node = tuple.__new__
_new_expr = object.__new__


def _template(source: str, values: list[float], root: Node, var_name: str | None,
              literals: list[list]):
    """(make, the Expr of source) for source, whose tree, variable and
    literals the parser made as root, var_name and literals, or None.
    make(s, literal values) is the Expr of every source s of source's
    pieces whose literals have the classes of values: root with the i-th
    literal's Const holding values[i] times its sign, pi and e the parser's,
    and root's specialized body, looked up in _shape_code on each call as
    the cold path does, each slot read from the literal it holds.  None
    when the signed literals are not values, or when root is nested too
    deeply to walk, emit or compile."""
    if [sign * node.value for node, sign in literals] != values:
        return None
    # id of a Const of root -> the function of the literal values giving its value
    value_of: dict[int, Callable[[list[float]], float]] = {
        id(node): (lambda v, i=i: -v[i]) if sign < 0.0 else (lambda v, i=i: v[i])
        for i, (node, sign) in enumerate(literals)
    }

    def walk(node: Node) -> Callable[[list[float]], Node]:
        """The function of the literal values that makes node anew."""
        cls = node.__class__
        if cls is Const:
            value = value_of.get(id(node))
            if value is None:  # pi or e
                k = node.value
                value = value_of[id(node)] = lambda v: k
            return lambda v: _new_node(Const, (value(v),))
        if cls is Var:
            name = node.name
            return lambda v: _new_node(Var, (name,))
        op = node.op
        if cls is Unary:
            arg = walk(node.arg)
            return lambda v: _new_node(Unary, (op, arg(v)))
        left, right = walk(node.left), walk(node.right)
        return lambda v: _new_node(Binary, (op, left(v), right(v)))

    # an Expr is made without __init__, which would emit and compile the body again
    set_root, set_var_name, set_source, set_fn = (
        getattr(Expr, name).__set__ for name in ("root", "var_name", "source", "_fn")
    )

    def make(source: str, values: list[float]) -> Expr:
        e = _new_expr(Expr)
        set_root(e, build(values))
        set_var_name(e, var_name)
        set_source(e, source)
        set_fn(e, eval(_shape_code(body), _EVAL_ENV)(*[f(values) for f in slot_values]))
        return e

    try:
        build = walk(root)
        slots = _Slots()
        body = slots.text(f"lambda v: {_emit(root, slots=slots)}")
        slot_values = [value_of[i] for i in slots.names]
        return make, make(source, values)
    except (RecursionError, SyntaxError):
        return None


_TEMPLATES: dict[tuple, Callable[[str, list[float]], Expr]] = {}  # key -> make, oldest first


def parse(source: str) -> Expr:
    """Parse source text; raises ParseError with offset/expected/excerpt.

    The key of source is its pieces between number literals with each
    literal's class: 0 for zero, 1 for another integer, 2 for a finite
    non-integer, 3 for infinity, which no template has, and 4 for an even
    integer that can be an exponent."""
    parts = _split(source)
    values = [float(text) for text in parts[1::2]]
    parts[1::2] = [
        0 if v == 0.0
        else (4 if v % 2.0 == 0.0 and _exponent(before) else 1) if v.is_integer()
        else 2 if v < math.inf else 3
        for v, before in zip(values, parts[0::2])
    ]
    key = tuple(parts)
    make = _TEMPLATES.get(key)
    if make is not None:
        try:
            return make(source, values)
        except RecursionError:  # the cold path names the nesting
            pass
    made = _template(source, values, *_tree(source))
    if made is None:
        return _parse_cold(source)
    if len(_TEMPLATES) >= _TEMPLATE_BOUND:
        del _TEMPLATES[next(iter(_TEMPLATES))]
    _TEMPLATES[key], expr = made
    return expr


def combine(op: str, left: Expr, right: Expr) -> Expr:
    """Join two expressions with a binary operator, merging variable names."""
    if op not in _BIN_PREC:
        raise ValueError(f"unknown operator {op!r}")
    if left.var_name and right.var_name and left.var_name != right.var_name:
        raise ValueError(
            f"cannot combine expressions in '{left.var_name}' and '{right.var_name}'"
        )
    return Expr(Binary(op, left.root, right.root), left.var_name or right.var_name)


def constant(value: float) -> Expr:
    if not math.isfinite(value):
        raise ValueError("constants must be finite")
    return Expr(Const(float(value)), None)
