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

A tree compiles once to a Python function.  An op is guarded only where
an operand can make it fault: ``^`` with a constant exponent, ``/`` by a
nonzero constant, ``exp``, ``sin`` and ``cos`` run inline, and
``ln``/``sqrt`` call their fault helper only on the bad branch.  When an
inline op raises, the fully guarded form runs again at that point and
names the fault; it is also the reference the specialized form must match
bit for bit.  A sweep over a pair whose g holds f's tree reads f's value
there instead of computing it again (``copies``).
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Union

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


class Token(NamedTuple):
    kind: str  # num | name | op | lparen | rparen | end
    text: str
    offset: int


_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(source: str) -> list[Token]:
    toks = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            toks.append(Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            toks.append(Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            toks.append(Token("rparen", ch, i))
            i += 1
            continue
        m = _NUM_RE.match(source, i)
        if m:
            toks.append(Token("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(source, i)
        if m:
            toks.append(Token("name", m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, "a number, name, operator, or parenthesis", source)
    toks.append(Token("end", "", n))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.i = 0
        self.var: str | None = None

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.offset, "an operator or end of input", self.source)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.i += 1
                node = Binary(tok.text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.i += 1
                node = Binary(tok.text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.i += 1
            operand = self.factor()
            # fold a negated literal so "-2" is a constant, not Unary(neg)
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Unary("neg", operand)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.i += 1
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(tok.offset, "a finite constant", self.source)
            return Const(value)
        if tok.kind == "lparen":
            node = self.expr()
            self.expect_rparen()
            return node
        if tok.kind == "name":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ParseError(
                        tok.offset,
                        "a known function name (abs, exp, ln, sqrt, sin, cos)",
                        self.source,
                    )
                self.i += 1
                arg = self.expr()
                self.expect_rparen()
                return Unary(tok.text, arg)
            if tok.text in _CONSTANTS:
                return Const(_CONSTANTS[tok.text])
            if tok.text in _VARIABLES:
                if self.var is None:
                    self.var = tok.text
                elif self.var != tok.text:
                    raise ParseError(
                        tok.offset,
                        f"the variable '{self.var}' (one variable per expression)",
                        self.source,
                    )
                return Var(tok.text)
            raise ParseError(
                tok.offset, "a known name: 'x', 't', 'pi', 'e', or a function", self.source
            )
        raise ParseError(tok.offset, "a number, name, '-', or '('", self.source)

    def expect_rparen(self) -> None:
        tok = self.peek()
        if tok.kind != "rparen":
            raise ParseError(tok.offset, "')'", self.source)
        self.i += 1


# ---------------------------------------------------------------------------
# Evaluation: a tree compiles to python source.  The guarded form calls a
# helper for every op that can fault; it is the reference.  The specialized
# form, the one every path runs, keeps a guard only where an operand can
# fault:
#
#   L^c, c constant     inline ** (float ** and math.pow call the same C
#                       pow); the helper only where the base can fault: a
#                       zero base for c < 0, a base <= 0 for c not an
#                       integer, and 0.0 (_g_pow's +0.0) for a zero base
#                       when c is a positive integer
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


def _guarded(node: Node, var: str = "v", keys: dict | None = None) -> str:
    """Source for node with the free variable spelled var and every op that
    can fault behind its helper; keys, when given, gets the source of each
    non-leaf subtree by id."""
    if isinstance(node, Const):
        return _literal(node.value)
    if isinstance(node, Var):
        return var
    if isinstance(node, Unary):
        inner = _guarded(node.arg, var, keys)
        if node.op == "neg":
            text = f"(-{inner})"
        elif node.op == "abs":
            text = f"_abs({inner})"
        else:
            text = f"_g_{node.op}({inner})"
    else:
        left, right = _guarded(node.left, var, keys), _guarded(node.right, var, keys)
        if node.op in "+-*":
            text = f"({left}{node.op}{right})"
        else:
            text = f"_g_{'div' if node.op == '/' else 'pow'}({left},{right})"
    if keys is not None:
        keys[id(node)] = text
    return text


def copies(root: Node, sub: Node) -> set[int]:
    """ids of the subtrees of root that are sub's ops on sub's constants;
    none for a leaf sub.  Compared by guarded source: equal source, equal
    bits."""
    if isinstance(sub, (Const, Var)):
        return set()
    keys: dict[int, str] = {}
    _guarded(root, keys=keys)
    key = _guarded(sub)
    return {i for i, text in keys.items() if text == key}


def _specialized(node: Node, var: str = "v", reads: dict | None = None) -> str:
    """Source for node with the free variable spelled var and a guard only
    where an operand can fault; reads maps id() of a subtree whose value a
    variable already holds at this point to that variable."""
    if isinstance(node, Const):
        return _literal(node.value)
    if isinstance(node, Var):
        return var
    if reads and id(node) in reads:
        return reads[id(node)]
    if isinstance(node, Unary):
        op = node.op
        inner = _specialized(node.arg, var, reads)
        if op in ("ln", "sqrt"):
            use, bind = _operand(node.arg, inner, "_a")
            test = "> 0.0" if op == "ln" else ">= 0.0"
            return f"(_{op}({use}) if {bind} {test} else _g_{op}({use}))"
        if op == "neg":
            return f"(-{inner})"
        return f"_{op}({inner})"
    op, left, right = node.op, node.left, node.right
    left_text = _specialized(left, var, reads)
    right_text = _specialized(right, var, reads)
    if op == "^" and isinstance(right, Const) and right.value != 0.0:
        c = right.value
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
    if op in "+-*":
        return f"({left_text}{op}{right_text})"
    return f"_g_{'div' if op == '/' else 'pow'}({left_text},{right_text})"


def _operand(node: Node, text: str, temp: str) -> tuple[str, str]:
    """(text reading the operand, text evaluating it first): a constant or a
    variable is read twice, anything else is bound to temp."""
    if isinstance(node, Const) or text.isidentifier():
        return text, text
    return temp, f"({temp}:={text})"


def _nonfinite(value: float) -> EvalError:
    return EvalError("overflow", f"non-finite result for input {value!r}")


def _compile(body: str):
    return eval(compile(f"lambda v: {body}", "<expr>", "eval"), _EVAL_ENV)


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


def _fmt(node: Node) -> str:
    if isinstance(node, Const):
        # parenthesized when negative, so it survives any surrounding context
        return _literal(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _fmt(node.arg)
            if _prec(node.arg) < 3:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({_fmt(node.arg)})"

    op = node.op
    left, right = _fmt(node.left), _fmt(node.right)
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


def to_source(node: Node) -> str:
    """Render a tree back to parseable source with minimal parentheses."""
    return _fmt(node)


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
        object.__setattr__(self, "_fn", _compile(_specialized(root)))

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
            _compile(_guarded(self.root))(value)
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


def parse(source: str) -> Expr:
    """Parse source text; raises ParseError with offset/expected/excerpt."""
    tokens = _tokenize(source)
    parser = _Parser(tokens, source)
    root = parser.parse()
    return Expr(root, parser.var, source)


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
