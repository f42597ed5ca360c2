"""Seeded random program generator for parser and path properties.

Generates grammatical source text with a hard cap on the number of AST
leaves, randomized layout (newlines, extra spaces, comments) to exercise
span tracking, and recurring identifier names so def-use structure exists.
"""

from __future__ import annotations

import random

NAMES = ["a", "b", "c", "count", "data", "flag", "idx", "item", "limit", "sum", "tmp", "val"]
TYPE_NAMES = ["int", "boolean", "int", "int"]
BIN_OPS = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]


class ProgramGenerator:
    def __init__(self, seed: int, max_leaves: int = 30):
        self.rng = random.Random(seed)
        self.remaining = max_leaves

    def _take(self, cost: int) -> bool:
        if self.remaining >= cost:
            self.remaining -= cost
            return True
        return False

    def _sep(self) -> str:
        r = self.rng.random()
        if r < 0.10:
            return "\n" + " " * self.rng.randint(0, 8)
        if r < 0.14:
            return " /* note */ "
        if r < 0.18:
            return "  "
        return " "

    def _join(self, parts: list[str]) -> str:
        out = parts[0]
        for part in parts[1:]:
            out += self._sep() + part
        return out

    def _name(self) -> str:
        return self.rng.choice(NAMES)

    def _type(self) -> str:
        return self.rng.choice(TYPE_NAMES)

    # expressions ------------------------------------------------------

    def _literal(self) -> str:
        r = self.rng.random()
        if r < 0.5:
            return str(self.rng.randint(0, 99))
        if r < 0.75:
            return self.rng.choice(["true", "false"])
        return '"s%d"' % self.rng.randint(0, 9)

    def expr(self, depth: int) -> str:
        # callers guarantee remaining >= 1
        assert self._take(1)
        if depth <= 0 or self.remaining < 1:
            return self._name() if self.rng.random() < 0.6 else self._literal()
        r = self.rng.random()
        if r < 0.30:
            return self._name()
        if r < 0.45:
            return self._literal()
        if r < 0.70 and self.remaining >= 1:
            left = self._name() if self.rng.random() < 0.7 else self._literal()
            op = self.rng.choice(BIN_OPS)
            return self._join([left, op, self.expr(depth - 1)])
        if r < 0.78 and self.remaining >= 1:
            return self._join(["!" if self.rng.random() < 0.5 else "-", "(", self.expr(depth - 1), ")"])
        if r < 0.86:
            args = []
            while self.remaining >= 1 and len(args) < 2 and self.rng.random() < 0.6:
                args.append(self.expr(depth - 1))
            inner = []
            for i, arg in enumerate(args):
                if i:
                    inner.append(",")
                inner.append(arg)
            return self._join([self._name(), "("] + inner + [")"])
        if r < 0.93 and self._take(1):
            return self._join([self._name(), ".", self._name()])
        if self.remaining >= 1:
            return self._join([self._name(), "[", self.expr(depth - 1), "]"])
        return self._name()

    def _assignable(self) -> str:
        # costs 1 leaf (2 for field access)
        if self.remaining >= 2 and self.rng.random() < 0.2:
            assert self._take(2)
            return self._join([self._name(), ".", self._name()])
        assert self._take(1)
        return self._name()

    # statements -------------------------------------------------------

    def stmt(self, depth: int) -> str:
        if self.remaining < 2 or depth <= 0:
            return self._simple_stmt()
        r = self.rng.random()
        if r < 0.35:
            return self._simple_stmt()
        if r < 0.50 and self.remaining >= 3:
            assert self._take(1)
            return self._join(
                ["if", "(", self.expr(1), ")", self.block(depth - 1)]
                + (["else", self.block(depth - 1)] if self.rng.random() < 0.4 and self.remaining >= 2 else [])
            )
        if r < 0.62 and self.remaining >= 3:
            assert self._take(1)
            return self._join(["while", "(", self.expr(1), ")", self.block(depth - 1)])
        if r < 0.74 and self.remaining >= 6:
            # hold back one leaf each for the condition and the update target
            self.remaining -= 2
            init = self._var_decl() if self.rng.random() < 0.6 else self._join([self._assign_expr(), ";"])
            self.remaining += 1
            cond = self.expr(1)
            self.remaining += 1
            update = self._assign_expr()
            return self._join(["for", "(", init, cond, ";", update, ")", self.block(depth - 1)])
        if r < 0.86:
            return self.block(depth - 1)
        return self._simple_stmt()

    def _simple_stmt(self) -> str:
        r = self.rng.random()
        if r < 0.40 and self.remaining >= 2:
            return self._var_decl()
        if r < 0.75 and self.remaining >= 2:
            return self._join([self._assign_expr(), ";"])
        if self.remaining >= 1:
            if self.rng.random() < 0.5:
                return self._join(["return", self.expr(1), ";"])
            return self._join([self.expr(1), ";"])
        return self._join(["return", ";"])

    def _assign_expr(self) -> str:
        lhs = self._assignable()
        if self.remaining >= 1:
            return self._join([lhs, "=", self.expr(1)])
        # degenerate but grammatical: bare name expression
        return lhs

    def _var_decl(self) -> str:
        assert self._take(2)
        parts = [self._type(), self._name()]
        if self.remaining >= 1 and self.rng.random() < 0.7:
            parts += ["=", self.expr(1)]
        parts.append(";")
        return self._join(parts)

    def block(self, depth: int) -> str:
        stmts = []
        while self.remaining >= 2 and len(stmts) < 4 and self.rng.random() < 0.65:
            stmts.append(self.stmt(depth))
        return self._join(["{"] + stmts + ["}"])

    # declarations -------------------------------------------------------

    def _member(self) -> str:
        if self.rng.random() < 0.45 or self.remaining < 3:
            assert self._take(2)
            parts = [self._type(), self._name()]
            if self.remaining >= 1 and self.rng.random() < 0.5:
                parts += ["=", self.expr(1)]
            parts.append(";")
            return self._join(parts)
        assert self._take(2)
        params = []
        while self.remaining >= 2 and len(params) < 2 and self.rng.random() < 0.5:
            assert self._take(2)
            if params:
                params.append(",")
            params += [self._type(), self._name()]
        return self._join([self._type(), self._name(), "("] + params + [")", self.block(2)])

    def program(self) -> str:
        classes = []
        first = True
        while first or (self.remaining >= 3 and self.rng.random() < 0.3):
            first = False
            if not self._take(1):
                break
            members = []
            while self.remaining >= 2 and len(members) < 4 and (not members or self.rng.random() < 0.6):
                members.append(self._member())
            classes.append(self._join(["class", "C%d" % len(classes), "{"] + members + ["}"]))
        return self._join(classes) + "\n"


def generate_program(seed: int, max_leaves: int = 30) -> str:
    return ProgramGenerator(seed, max_leaves).program()
