"""Node semantics shared by every IR: equality by exact kind and compared
fields, ``span`` and ``ctor`` left out of ``==``, ``hash`` and ``repr``,
frozen kinds immutable and mutable ones unhashable, and ``repr`` text as
the dataclasses the node base replaced wrote it."""

import ast
import gc
import importlib
import inspect
import pathlib
import sys
import weakref

import pytest

import heap_action
from pikac import interp as I
from pikac import modelcheck as M
from pikac import ssl
from pikac import syntax as S
from pikac import types as T
from pikac.errors import Span
from pikac import translate as X
from pikac.node import Frozen, Node

P, V = ssl.PInt, ssl.PVar
SPAN = Span(3, 7)
SLL = S.NamedLayout("Sll")
PAT = S.Pattern("Cons", ["h", "t"], SPAN)
BODY = ssl.SslAssertion((ssl.PEq(V("x"), P(0)),), (ssl.PointsTo("x", 0, V("h")),))
LAYOUT = S.LayoutDef("Sll", "List", ["x"],
                     [(PAT, [S.HPointsTo("x", 0, "h", SPAN), S.HApply("Sll", "t")]),
                      (S.Pattern("Nil", []), [S.HEmp(SPAN)])], SPAN)

# One instance of each kind, with the repr the dataclasses printed for it.
SAMPLES = {
    S.IntLit: (S.IntLit(1, SPAN), "IntLit(value=1)"),
    S.BoolLit: (S.BoolLit(True), "BoolLit(value=True)"),
    S.Var: (S.Var("x", SPAN), "Var(name='x')"),
    S.Addr: (S.Addr("x"), "Addr(var='x')"),
    S.ConstructorApp: (
        S.ConstructorApp("Cons", [S.Var("h"), S.Var("t")], SPAN),
        "ConstructorApp(name='Cons', args=[Var(name='h'), Var(name='t')])"),
    S.App: (S.App("f", [S.Var("a"), S.IntLit(2)]),
            "App(fn='f', args=[Var(name='a'), IntLit(value=2)])"),
    S.BinOp: (S.BinOp("+", S.Var("a"), S.Not(S.Var("b")), SPAN),
              "BinOp(op='+', lhs=Var(name='a'), rhs=Not(arg=Var(name='b')))"),
    S.Not: (S.Not(S.BoolLit(False)), "Not(arg=BoolLit(value=False))"),
    S.IfThenElse: (
        S.IfThenElse(S.Var("b"), S.IntLit(1), S.Var("c")),
        "IfThenElse(cond=Var(name='b'), then=IntLit(value=1), "
        "els=Var(name='c'))"),
    S.Let: (S.Let("y", S.Var("x"), S.Var("y"), SPAN),
            "Let(name='y', bound=Var(name='x'), body=Var(name='y'))"),
    S.Instantiate: (
        S.Instantiate((SLL, S.IntLayout()), S.NamedLayout("Sll", "mutable"),
                      "f", [S.Var("xs"), S.IntLit(3)]),
        "Instantiate(arg_layouts=(NamedLayout(name='Sll', mode='readonly'), "
        "IntLayout()), result_layout=NamedLayout(name='Sll', mode='mutable'), "
        "fn='f', args=[Var(name='xs'), IntLit(value=3)])"),
    S.Lower: (
        S.Lower(S.FnLayout(S.IntLayout(), SLL), S.ConstructorApp("Nil", [])),
        "Lower(layout=FnLayout(arg=IntLayout(), res=NamedLayout(name='Sll', "
        "mode='readonly')), arg=ConstructorApp(name='Nil', args=[]))"),
    ssl.PInt: (P(3), "PInt(value=3)"),
    ssl.PBool: (ssl.PBool(False), "PBool(value=False)"),
    ssl.PVar: (V("x"), "PVar(name='x')"),
    ssl.PEq: (ssl.PEq(V("x"), P(0)), "PEq(lhs=PVar(name='x'), rhs=PInt(value=0))"),
    ssl.PAnd: (ssl.PAnd(ssl.TRUE, V("b")),
               "PAnd(lhs=PBool(value=True), rhs=PVar(name='b'))"),
    ssl.PNot: (ssl.PNot(V("b")), "PNot(arg=PVar(name='b'))"),
    ssl.PLt: (ssl.PLt(V("a"), P(9)), "PLt(lhs=PVar(name='a'), rhs=PInt(value=9))"),
    ssl.PAdd: (ssl.PAdd(V("x"), P(1)), "PAdd(lhs=PVar(name='x'), rhs=PInt(value=1))"),
    ssl.PSub: (ssl.PSub(V("x"), P(1)), "PSub(lhs=PVar(name='x'), rhs=PInt(value=1))"),
    ssl.PMod: (ssl.PMod(V("x"), P(2)), "PMod(lhs=PVar(name='x'), rhs=PInt(value=2))"),
    ssl.PTernary: (
        ssl.PTernary(V("b"), P(1), V("y")),
        "PTernary(cond=PVar(name='b'), then=PInt(value=1), els=PVar(name='y'))"),
    ssl.HeapEmp: (ssl.HeapEmp(), "HeapEmp()"),
    ssl.PointsTo: (ssl.PointsTo("x", 1, V("t")),
                   "PointsTo(base='x', offset=1, value=PVar(name='t'))"),
    ssl.Block: (ssl.Block("x", 2), "Block(base='x', size=2)"),
    ssl.PredApply: (ssl.PredApply("sll", (V("x"), P(0))),
                    "PredApply(name='sll', args=(PVar(name='x'), PInt(value=0)))"),
    ssl.FuncApply: (ssl.FuncApply("f", (V("x"), V("r"))),
                    "FuncApply(name='f', args=(PVar(name='x'), PVar(name='r')))"),
    ssl.TempLoc: (ssl.TempLoc("t"), "TempLoc(var='t')"),
    ssl.RoApply: (ssl.RoApply("ro_Sll", (V("x"),)),
                  "RoApply(name='ro_Sll', args=(PVar(name='x'),))"),
    # records and values of the other modules
    S.TFn: (S.TFn(S.TName("List"), S.TInt()), "TFn(arg=TName(name='List'), res=TInt())"),
    S.Pattern: (PAT, "Pattern(ctor='Cons', vars=['h', 't'])"),
    S.LayoutDef: (
        LAYOUT,
        "LayoutDef(name='Sll', adt='List', ssl_params=['x'], branches=["
        "(Pattern(ctor='Cons', vars=['h', 't']), [HPointsTo(base='x', "
        "offset=0, payload='h'), HApply(layout='Sll', arg='t')]), "
        "(Pattern(ctor='Nil', vars=[]), [HEmp()])])"),
    S.GenerateDirective: (
        S.GenerateDirective("f", (SLL,), S.IntLayout(), SPAN),
        "GenerateDirective(fn='f', arg_layouts=(NamedLayout(name='Sll', "
        "mode='readonly'),), result_layout=IntLayout())"),
    ssl.Branch: (
        ssl.Branch(ssl.TRUE, BODY),
        "Branch(cond=PBool(value=True), body=SslAssertion(pure=(PEq("
        "lhs=PVar(name='x'), rhs=PInt(value=0)),), spatial=(PointsTo("
        "base='x', offset=0, value=PVar(name='h')),)))"),
    ssl.GoalSpec: (
        ssl.GoalSpec("f", (("loc", "x"),), BODY, ssl.EMPTY_ASSERTION),
        "GoalSpec(name='f', params=(('loc', 'x'),), pre=SslAssertion(pure=("
        "PEq(lhs=PVar(name='x'), rhs=PInt(value=0)),), spatial=(PointsTo("
        "base='x', offset=0, value=PVar(name='h')),)), "
        "post=SslAssertion(pure=(), spatial=()))"),
    I.ConstructorVal: (
        I.ConstructorVal("Cons", (I.IntVal(1), I.LocVal(0))),
        "ConstructorVal(name='Cons', fields=(IntVal(value=1), LocVal(loc=0)))"),
    I.Model: (I.Model({"x": I.LocVal(1)}, {1: I.IntVal(2)}),
              "Model(store={'x': LocVal(loc=1)}, heap={1: IntVal(value=2)})"),
    T.ResolvedLayout: (T.ResolvedLayout("int"),
                       "ResolvedLayout(kind='int', layout=None, mode='readonly')"),
    M.Sat: (M.Sat(), "Sat()"),
    M.Unsat: (M.Unsat("why"), "Unsat(reason='why')"),
    M.PredicateEnv: (M.PredicateEnv({}), "PredicateEnv(preds={})"),
    S.SourceUnit: (
        S.SourceUnit([], [LAYOUT], {}, {}, []),
        "SourceUnit(data_defs=[], layout_defs=[LayoutDef(name='Sll', "
        "adt='List', ssl_params=['x'], branches=[(Pattern(ctor='Cons', "
        "vars=['h', 't']), [HPointsTo(base='x', offset=0, payload='h'), "
        "HApply(layout='Sll', arg='t')]), (Pattern(ctor='Nil', vars=[]), "
        "[HEmp()])])], fn_sigs={}, fn_defs={}, directives=[])"),
}
KINDS = list(SAMPLES)


def _fields(x) -> dict:
    return {f: getattr(x, f) for f in type(x)._fields}


def test_samples_cover_every_expr_pure_term_and_heaplet_kind():
    for kinds in (S.Expr, ssl.PureTerm, ssl.Heaplet):
        assert kinds and set(kinds) <= set(SAMPLES)


@pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_text(cls):
    x, text = SAMPLES[cls]
    assert type(x) is cls
    assert repr(x) == text


@pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.__name__)
def test_equality_compares_every_field(cls):
    x, _ = SAMPLES[cls]
    init = {f: getattr(x, f) for f in ("span", "ctor")
            if hasattr(x, f) and f not in cls._fields}
    same = cls(**_fields(x), **init)
    assert same == x and not (same != x)
    if isinstance(x, Frozen):
        assert hash(same) == hash(x)
    for f in _fields(x):
        other = cls(**{**_fields(x), f: object()}, **init)
        assert other != x, f


def test_equality_is_by_exact_kind():
    a, b = V("a"), V("b")
    assert ssl.PAdd(a, b) != ssl.PSub(a, b)
    assert ssl.FuncApply("f", (a,)) != ssl.RoApply("f", (a,))
    assert S.TInt() != S.TBool() and S.IntLayout() != S.BoolLayout()
    assert M.Unsat("x") != M.Unknown("x")
    assert ssl.PInt(1) != 1 and ssl.PVar("x") != ("x",)


def test_span_is_not_compared_hashed_or_shown():
    one, two = S.IntLit(1, Span(1, 1)), S.IntLit(1, Span(2, 9))
    assert one == two and repr(one) == repr(two)
    # a pattern's constructor is one of its fields
    assert S.Pattern("Cons", []) != S.Pattern("Nil", [])


def test_cached_properties_are_not_compared():
    fresh = S.LayoutDef(LAYOUT.name, LAYOUT.adt, LAYOUT.ssl_params,
                        LAYOUT.branches)
    assert LAYOUT.shapes["Cons"].size == 1
    assert fresh == LAYOUT and repr(fresh) == repr(LAYOUT)
    pred = ssl.PredicateDef("p", (("x", "loc"),), (ssl.Branch(ssl.TRUE, BODY),))
    twin = ssl.PredicateDef("p", (("x", "loc"),), (ssl.Branch(ssl.TRUE, BODY),))
    assert pred.existentials == (("h",),)
    assert pred == twin and hash(pred) == hash(twin) and repr(pred) == repr(twin)


@pytest.mark.parametrize("cls", [c for c in KINDS if issubclass(c, Frozen)],
                         ids=lambda c: c.__name__)
def test_frozen_kinds_reject_assignment_and_hash_their_fields(cls):
    x, _ = SAMPLES[cls]
    for f in list(_fields(x)) + ["span", "new_attribute"]:
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    # the dataclasses' hash: the tuple of the compared fields, so sets of
    # nodes iterate in the same order
    assert hash(x) == hash(tuple(_fields(x).values()))


@pytest.mark.parametrize("cls", [c for c in KINDS if not issubclass(c, Frozen)],
                         ids=lambda c: c.__name__)
def test_mutable_kinds_are_unhashable(cls):
    x, _ = SAMPLES[cls]
    with pytest.raises(TypeError, match="unhashable"):
        hash(x)


def test_keyword_construction_and_defaults():
    assert S.NamedLayout("Sll") == S.NamedLayout(name="Sll", mode="readonly")
    assert T.ResolvedLayout("int") == T.ResolvedLayout(kind="int", layout=None,
                                                       mode="readonly")
    assert not hasattr(ssl.PredApply("p", ()), "ctor")
    assert not hasattr(ssl.Branch(cond=ssl.TRUE, body=BODY), "ctor")
    assert S.Var(name="x").span is None
    assert S.BinOp(op="+", lhs=S.IntLit(1), rhs=S.IntLit(2), span=SPAN).span == SPAN
    assert M.PredicateEnv({}) == M.PredicateEnv(preds={})
    env = T.GlobalEnv({}, {}, {}, {})
    assert env.resolved == {} and env.resolved is not T.GlobalEnv(
        {}, {}, {}, {}).resolved


# Every kind's constructor: parameter names in positional order, and the
# defaults of the trailing ones.
SIGNATURES = {
    S.TInt: "", S.TBool: "", S.TPtrInt: "", S.TName: "name",
    S.TFn: "arg, res",
    S.NamedLayout: "name, mode='readonly'",
    S.IntLayout: "", S.BoolLayout: "", S.PtrIntLayout: "",
    S.FnLayout: "arg, res",
    S.IntLit: "value, span=None",
    S.BoolLit: "value, span=None",
    S.Var: "name, span=None",
    S.ConstructorApp: "name, args, span=None",
    S.App: "fn, args, span=None",
    S.BinOp: "op, lhs, rhs, span=None",
    S.Not: "arg, span=None",
    S.Addr: "var, span=None",
    S.IfThenElse: "cond, then, els, span=None",
    S.Let: "name, bound, body, span=None",
    S.Instantiate: "arg_layouts, result_layout, fn, args, span=None",
    S.Lower: "layout, arg, span=None",
    S.Pattern: "ctor, vars, span=None",
    S.DataDef: "name, alts, span=None",
    S.HEmp: "span=None",
    S.HPointsTo: "base, offset, payload, span=None",
    S.HApply: "layout, arg, span=None",
    S.LayoutDef: "name, adt, ssl_params, branches, span=None",
    S.FnCase: "name, patterns, guarded_bodies, span=None",
    S.GenerateDirective: "fn, arg_layouts, result_layout, span=None",
    S.SourceUnit: "data_defs, layout_defs, fn_sigs, fn_defs, directives",
    ssl.PInt: "value", ssl.PBool: "value", ssl.PVar: "name",
    ssl._Binary: "lhs, rhs", ssl.PEq: "lhs, rhs", ssl.PAnd: "lhs, rhs",
    ssl.PNot: "arg", ssl.PLt: "lhs, rhs", ssl.PAdd: "lhs, rhs",
    ssl.PSub: "lhs, rhs", ssl.PMod: "lhs, rhs",
    ssl.PTernary: "cond, then, els",
    ssl.HeapEmp: "",
    ssl.PointsTo: "base, offset, value",
    ssl.Block: "base, size",
    ssl._Call: "name, args",
    ssl.PredApply: "name, args",
    ssl.FuncApply: "name, args",
    ssl.TempLoc: "var",
    ssl.RoApply: "name, args",
    ssl.SslAssertion: "pure, spatial",
    ssl.Branch: "cond, body",
    ssl.PredicateDef: "name, params, branches",
    ssl.GoalSpec: "name, params, pre, post",
    T.LayoutType: "name",
    T.GlobalEnv: "ctors, layouts, fn_sigs, fn_defs",
    T.ResolvedLayout: "kind, layout=None, mode='readonly'",
    T.ElabArg: "ssl_name, layout, pattern, offsets, applies, source_name=None",
    T.ElabCase: "args, guard, body",
    T.ElabFn: "name, arg_layouts, result_layout, cases",
    T.TypedProgram: "env, fns",
    I.IntVal: "value", I.BoolVal: "value", I.LocVal: "loc",
    I.ConstructorVal: "name, fields",
    I.Model: "store, heap",
    heap_action.GroundEmp: "",
    heap_action.GroundPointsTo: "loc, value",
    heap_action.GroundApply: "layout, arg",
    M.Sat: "", M.Unsat: "reason", M.Unknown: "reason",
    M.PredicateEnv: "preds",
    M.SoundnessReport: "result, model, assertion, trace",
    M.CoreSignature: "genv, pool, layouts, fns_by_layout, draws",
    X._CopyCall: "src, layout, span=None",
    X._Term: "term",
    X._Arm: "args, guard, lets, body",
    X.CompileResult: "predicate, layout_preds, ro_preds, copy_preds, "
                     "extra_preds, goal",
    X.CoreTranslationResult: "pure, spatial, result_var",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_signature_table_covers_every_kind():
    kinds = {c for c in _subclasses(Node) if c.__module__.startswith("pikac.")
             and c.__module__ != "pikac.node"}
    assert kinds <= set(SIGNATURES)


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert ", ".join(p.name if p.default is p.empty else
                     f"{p.name}={p.default!r}" for p in params) \
        == SIGNATURES[cls]


def _is_store_of_param(stmt) -> bool:
    """``self.f = f``, or ``_set(self, "f", f)`` as frozen kinds write it."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
        return (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Name) and value.id == target.attr)
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        args = stmt.value.args
        return (len(args) == 3 and isinstance(args[0], ast.Name)
                and args[0].id == "self" and isinstance(args[1], ast.Constant)
                and isinstance(args[2], ast.Name)
                and args[2].id == args[1].value)
    return False


def test_no_kind_writes_an_init_that_only_stores_its_parameters():
    # the node base generates those from ``__slots__``
    src = pathlib.Path(X.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(f"pikac.{path.stem}")
        for cls_def in ast.parse(path.read_text()).body:
            cls = isinstance(cls_def, ast.ClassDef) and getattr(
                module, cls_def.name)
            if not (isinstance(cls, type) and issubclass(cls, Node)):
                continue
            for fn in cls_def.body:
                if (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                        and all(map(_is_store_of_param, fn.body))):
                    found.append(cls.__name__)
    assert found == [], found


def test_a_kind_with_seven_fields_writes_its_own_init():
    with pytest.raises(TypeError, match="write one"):
        class Wide(Node):
            __slots__ = tuple("abcdefg")


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "pikac" or name.startswith("pikac.")}


def _import_afresh() -> dict:
    for name in _package_modules():
        del sys.modules[name]
    return {name: importlib.import_module(f"pikac.{name}")
            for name in ("syntax", "ssl", "types", "interp", "modelcheck",
                         "translate")}


def test_a_fresh_import_frees_the_previous_one():
    # nothing process-wide (such as typing's cache of Union aliases) may
    # keep the kinds, and with them the modules, of an earlier import alive
    saved = _package_modules()
    try:
        first = {name: weakref.ref(module)
                 for name, module in _import_afresh().items()}
        _import_afresh()
        _import_afresh()
        gc.collect()
        assert [name for name, ref in first.items() if ref() is not None] == []
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
