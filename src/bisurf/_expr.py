"""Term dicts {exponent quadruple: nonzero coefficient}: the one module that
knows the format. It parses, prints, adds, multiplies and evaluates them for
BiHomPoly (s,u,t,v, which also holds the Segre ring as its bidegree (n,n)
forms) and TPoly (T1..T4), which only validate their own invariants.
Coefficients are Fractions over QQ and plain ints over GF(p); the arithmetic
here leaves GF(p) sums and products unreduced, and each container's
constructor reduces them once with modp.

Input files and printed output share one syntax, so all output parses back:

    poly   := ['-'] term (('+'|'-') term)*
    term   := atom ('*' atom)*
    atom   := base ['^' uint]
    base   := uint ['/' uint] | var | '(' poly ')'
"""

from __future__ import annotations

from fractions import Fraction

_ZERO_EXP = (0, 0, 0, 0)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}"
            if col is not None:
                where += f", column {col}"
        super().__init__(message + where)


def _tokenize(src: str, line_no: int, col_base: int):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        col = col_base + i + 1
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("num", src[i:j], col))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            tokens.append(("name", src[i:j], col))
            i = j
        elif ch in "+-*^()/":
            tokens.append((ch, ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line_no, col)
    tokens.append(("end", "end of expression", col_base + n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, line_no):
        self.toks = tokens
        self.pos = 0
        self.vars = {name: k for k, name in enumerate(variables)}
        self.line = line_no

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            self.fail(f"expected {kind!r}, found {tok[1]!r}", tok)
        self.pos += 1
        return tok

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, self.line, tok[2])

    def parse(self):
        d = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"unexpected {self.peek()[1]!r}")
        return d

    def expr(self):
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.take()[0] == "-"
        acc = self.term()
        if negate:
            acc = neg(acc)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            acc = (add if op == "+" else sub)(acc, self.term())
        return acc

    def term(self):
        acc = self.atom()
        while self.peek()[0] == "*":
            self.take()
            acc = mul(acc, self.atom())
        return acc

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            num = int(tok[1])
            den = 1
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.take("num")
                den = int(den_tok[1])
                if den == 0:
                    self.fail("zero denominator", den_tok)
            base = {_ZERO_EXP: Fraction(num, den)} if num else {}
        elif tok[0] == "name":
            self.take()
            k = self.vars.get(tok[1])
            if k is None:
                self.fail(f"unknown variable {tok[1]!r}", tok)
            e = [0, 0, 0, 0]
            e[k] = 1
            base = {tuple(e): Fraction(1)}
        elif tok[0] == "(":
            self.take()
            base = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'")
            self.take()
        else:
            self.fail(f"unexpected {tok[1]!r}", tok)
        if self.peek()[0] == "^":
            self.take()
            etok = self.take("num")
            power = {_ZERO_EXP: Fraction(1)}
            for _ in range(int(etok[1])):
                power = mul(power, base)
            base = power
        return base


def lead_key(exp):
    # graded lexicographic with the first variable largest
    return (sum(exp),) + exp


def collect(pairs):
    """Term dict of the sum of (exponent, coefficient) pairs; zeros dropped."""
    out = {}
    for e, c in pairs:
        s = out.get(e)
        out[e] = c if s is None else s + c
    return {e: c for e, c in out.items() if c}


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def sub(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = -c if s is None else s - c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def neg(a):
    return {e: -c for e, c in a.items()}


def scale(a, c):
    if not c:
        return {}
    return {e: x * c for e, x in a.items()}


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        a0, a1, a2, a3 = ea
        for eb, cb in b.items():
            e = (a0 + eb[0], a1 + eb[1], a2 + eb[2], a3 + eb[3])
            s = out.get(e)
            out[e] = ca * cb if s is None else s + ca * cb
    return {e: c for e, c in out.items() if c}


def modp(terms, p):
    """terms with int coefficients reduced to residues in [0, p), zeros
    dropped; p == 0 (the integers) leaves them as they are."""
    if not p:
        return terms
    return {e: r for e, c in terms.items() if (r := c % p)}


def evaluate(terms, point, field):
    """Value at a 4-tuple, from one table of powers per variable; over GF(p)
    the table and the value are reduced to residues."""
    p = field.characteristic
    pows = []
    for x, top in zip(map(field.coerce, point), map(max, zip(*terms))):
        table = [field.one, x]
        for _ in range(top - 1):
            power = table[-1] * x
            table.append(power % p if p else power)
        pows.append(table)
    acc = field.zero
    for e, c in terms.items():
        for table, k in zip(pows, e):
            if k:
                c = c * table[k]
        acc = acc + c
    return acc % p if p else acc


def parse_expression(src: str, variables, line_no: int = 1, col_base: int = 0):
    """Parse one polynomial in four variables into {exponent quadruple: Fraction}."""
    return _Parser(_tokenize(src, line_no, col_base), variables, line_no).parse()


def monomial_text(exps, names) -> str:
    """Canonical text of a monomial; empty string for the constant monomial."""
    parts = []
    for e, name in zip(exps, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_terms(terms, names) -> str:
    """Canonical text, terms in descending graded lex order; on forms of one
    bidegree or degree that is lex order on (s,t) or on (T1,T2,T3)."""
    if not terms:
        return "0"
    chunks = []
    ordered = sorted(terms.items(), key=lambda kv: lead_key(kv[0]), reverse=True)
    for i, (e, c) in enumerate(ordered):
        mono = monomial_text(e, names)
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator  # the same text, without Fraction negation and printing
        minus = c < 0  # never for GF(p) residues
        mag = -c if minus else c
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            chunks.append(f"-{body}" if minus else body)
        else:
            chunks.append(f" - {body}" if minus else f" + {body}")
    return "".join(chunks)
