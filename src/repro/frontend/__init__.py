"""Structured-program frontend (the paper's C/LLVM -> UDIR path).

Programs are written as a structured AST (:mod:`repro.frontend.ast`)
and lowered into the context IR by :mod:`repro.frontend.lower`, which
splits the program into concurrent blocks at loop and function
boundaries and converts memory ordering into explicit data dependencies
(order tokens), exactly as the paper's compiler does (Sec. IV-C).
"""

from repro.frontend.ast import (
    ArraySpec,
    Assign,
    BinOp,
    Call,
    Cond,
    Const,
    Expr,
    For,
    Function,
    If,
    LoadExpr,
    Module,
    Name,
    Return,
    Store,
    UnOp,
    While,
)
from repro.frontend.dsl import c, load, v
from repro.frontend.lower import lower_module

__all__ = [
    "ArraySpec",
    "Assign",
    "BinOp",
    "Call",
    "Cond",
    "Const",
    "Expr",
    "For",
    "Function",
    "If",
    "LoadExpr",
    "Module",
    "Name",
    "Return",
    "Store",
    "UnOp",
    "While",
    "c",
    "load",
    "v",
    "lower_module",
]
