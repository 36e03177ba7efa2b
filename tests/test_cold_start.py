"""The rules that keep a cold ``import evidentia.cli`` cheap, and what the
package's value classes keep under them.

No value class has a method or a docstring generated for it: each writes
its own ``__init__`` and takes ``__eq__``, ``__hash__``, ``__setattr__`` and
``__delattr__`` from :class:`~evidentia._value.Value`.  The import loads
neither ``dataclasses`` nor ``inspect``: each class only notes its fields,
and its dataclass view is built on first use.  Then each is a real
dataclass, immutable, copyable and picklable, and the benchmark's tracer
can still replace fields and hook :class:`~evidentia.spaces.Proposition`'s
construction.  The tests of a first use run in a fresh interpreter, where
no view is built yet.  The import also leaves out what only
``--format json`` and ``check`` use."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import evidentia
from evidentia import fixtures, spaces
from evidentia._value import Value
from evidentia.dsl import ModelError, compile_model, parse_model
from evidentia.evidence import check_sum_rule, log_odds, odds
from evidentia.spaces import Proposition, make_partition
from evidentia.suites import SuiteResult


def _dataclasses():
    found = []
    for info in pkgutil.walk_packages(evidentia.__path__, "evidentia."):
        if info.name == "evidentia.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
            ):
                found.append(value)
    return found


def test_every_dataclass_is_found():
    names = {cls.__qualname__ for cls in _dataclasses()}
    assert len(names) >= 26
    assert {"Proposition", "SourceSpan", "Model", "AndPred", "SuiteResult"} <= names


def test_every_dataclass_has_a_docstring_of_its_own():
    # Without one, dataclasses makes one up from inspect.signature.
    for cls in _dataclasses():
        made_up = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
        assert vars(cls).get("__doc__") not in (None, "", made_up), cls


def test_every_dataclass_shares_one_eq_and_hash_and_has_no_generated_repr():
    for cls in _dataclasses():
        assert issubclass(cls, Value), cls
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
        assert cls.__eq__ is Value.__eq__ and cls.__hash__ is Value.__hash__, cls
        # A __repr__ written in the module may stand (a proposition lists
        # its cells); dataclasses compiles its own from a string.
        if "__repr__" in vars(cls):
            written_in = vars(cls)["__repr__"].__code__.co_filename
            assert written_in == sys.modules[cls.__module__].__file__, cls


def _run_fresh(body: str) -> str:
    """What ``body`` prints in a fresh ``-I`` interpreter that imports
    evidentia from this checkout; it must exit 0 and write no error."""
    package_root = str(Path(evidentia.__file__).resolve().parent.parent)
    code = f"import sys\nsys.path.insert(0, {package_root!r})\n" + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


def test_importing_the_cli_leaves_out_json_and_the_suites():
    left_out = {"json", "evidentia.suites", "evidentia.oracle", "dataclasses", "inspect"}
    printed = _run_fresh(
        f"""
        import evidentia.cli
        print(sorted({left_out!r} & set(sys.modules)))
        """
    )
    assert printed == "[]\n"


# -- the dataclass view, built on first use ------------------------------------------


def test_a_first_read_through_an_instance_builds_its_class_view():
    printed = _run_fresh(
        """
        from evidentia.dsl import parse_model
        model = parse_model('model "m" { dimension d = {a} } query P(d == a)')
        node = model.queries[0].predicate
        assert "__dataclass_fields__" not in vars(type(node))
        import dataclasses
        print([(f.name, f.compare, f.repr) for f in dataclasses.fields(node)])
        print("__dataclass_fields__" in vars(type(node)), type(node).span)
        """
    )
    # The class attribute stays the span's default, as dataclasses leaves it.
    assert printed == (
        "[('dimension', True, True), ('label', True, True), ('span', False, False)]\n"
        "True 1:1\n"
    )


def test_a_first_read_through_a_subclass_builds_the_base_that_holds_the_fields():
    printed = _run_fresh(
        """
        import dataclasses
        from evidentia.dsl import ast
        names = [f.name for f in dataclasses.fields(ast.AndPred)]
        print(dataclasses.is_dataclass(ast.AndPred), names)
        classes = {name: cls for name, cls in vars(ast).items() if isinstance(cls, type)}
        built = {name for name, cls in classes.items() if "__dataclass_params__" in vars(cls)}
        print(sorted(built - {"Value"}))  # Value holds the unbuilt view
        print(dataclasses.fields(ast.OrPred) == dataclasses.fields(ast.AndPred))
        """
    )
    assert printed == "True ['operands', 'span']\n['_Chain']\nTrue\n"


def test_a_first_replace_of_a_model_builds_its_view():
    printed = _run_fresh(
        """
        import dataclasses
        from evidentia.dsl import compile_model, parse_model
        model = parse_model('model "m" { dimension d = {a, b} } query P(d == a)')
        bare = dataclasses.replace(model, queries=())
        print(bare.queries, bare.declarations == model.declarations, bare.span == model.span)
        same = dataclasses.astuple(bare)[:3] == dataclasses.astuple(model)[:3]
        print(compile_model(bare).queries, same)
        """
    )
    assert printed == "() True True\n() True\n"


def test_value_and_predicate_stay_non_dataclasses():
    printed = _run_fresh(
        """
        import dataclasses
        from evidentia._value import Value
        from evidentia.dsl import ast
        dataclasses.fields(ast.NotPred)  # building a subclass's view leaves its bases
        for cls in (Value, ast.Predicate):
            try:
                dataclasses.fields(cls)
            except TypeError:
                built = hasattr(cls, "__dataclass_params__")
                print(cls.__name__, dataclasses.is_dataclass(cls), built)
        """
    )
    assert printed == "Value False False\nPredicate False False\n"


def test_match_and_copy_replace_work_before_the_view_is_built():
    printed = _run_fresh(
        """
        from evidentia.dsl import ast
        match ast.LabelIs("d", "a"):
            case ast.LabelIs(dimension, label, span):
                print(dimension, label, span, "dataclasses" in sys.modules)
        # What copy.replace calls on Python 3.13 and later.
        node = ast.LabelIs("d", "a").__replace__(label="b")
        print(node == ast.LabelIs("d", "b"), "__dataclass_fields__" in vars(ast.LabelIs))
        """
    )
    assert printed == "d a 1:1 False\nTrue True\n"


def test_a_first_read_of_the_params_builds_the_view():
    printed = _run_fresh(
        """
        from evidentia.dsl.diagnostics import SourceSpan
        params = SourceSpan.__dataclass_params__
        print(params.init, params.repr, params.eq, params.frozen)
        print(list(SourceSpan.__dataclass_fields__))
        """
    )
    assert printed == "False False False False\n['start', 'end', 'line', 'column']\n"


def test_threads_first_asking_for_a_view_at_once_see_one_set_of_fields():
    printed = _run_fresh(
        """
        import dataclasses, threading
        from evidentia.dsl import ast
        sys.setswitchinterval(1e-6)  # a fresh interpreter: nothing to restore
        found = [getattr(ast, name) for name in dir(ast)]
        classes = [cls for cls in found if isinstance(cls, type) and "__record__" in vars(cls)]
        seen = {}

        def ask(cls, barrier, k):
            barrier.wait(timeout=30)
            seen[cls, k] = dataclasses.fields(cls)

        for cls in classes:
            barrier = threading.Barrier(4)
            threads = [threading.Thread(target=ask, args=(cls, barrier, k)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), cls
            # One build: every thread holds the same Field objects.
            assert len({tuple(map(id, seen[cls, k])) for k in range(4)}) == 1, cls
            assert [f.compare for f in seen[cls, 0] if f.name == "span"] in ([], [False]), cls
        print(len(classes))
        """
    )
    assert int(printed) >= 13


# -- construction -----------------------------------------------------------------


def test_every_dataclass_refuses_assignment_through_value():
    for cls in _dataclasses():
        assert cls.__setattr__ is Value.__setattr__, cls
        assert cls.__delattr__ is Value.__delattr__, cls


def test_every_dataclass_writes_its_own_init():
    # dataclasses compiles an __init__ from a string, whose file is "<string>".
    for cls in _dataclasses():
        assert cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__, cls


def test_every_init_takes_the_init_fields_in_order_with_their_defaults():
    for cls in _dataclasses():
        init_fields = [f for f in dataclasses.fields(cls) if f.init]
        parameters = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in parameters] == [f.name for f in init_fields], cls
        for param, field in zip(parameters, init_fields):
            missing = (dataclasses.MISSING, dataclasses.MISSING)
            has_default = (field.default, field.default_factory) != missing
            assert (param.default is not param.empty) == has_default, (cls, field.name)
            if field.default is not dataclasses.MISSING:
                assert param.default == field.default, (cls, field.name)


def test_an_omitted_default_factory_field_gets_a_fresh_object_each_time():
    seen = 0
    for cls in _dataclasses():
        for field in dataclasses.fields(cls):
            if field.default_factory is dataclasses.MISSING:
                continue
            required = [
                p for p in inspect.signature(cls).parameters.values() if p.default is p.empty
            ]
            first, second = (cls(*[object()] * len(required)) for _ in range(2))
            value = getattr(first, field.name)
            assert value == field.default_factory() and value is not getattr(second, field.name)
            seen += 1
    assert seen >= 1  # SuiteResult.failures


# -- immutability and copying -------------------------------------------------------

_EVERY_NODE = """model "every node" {
  dimension d = {a, b}
  continuum x from 0 to 4 tranches 4
  partition p { lo: x < 2; hi: x >= 2; }
}
query P(d == a and not (x < 2 or d in {b}))
query P(true | d == a)
query O(false or d == b)
query L(d == a)
query table(p)
"""


def _values_under(value, out):
    """Every dataclass instance reachable from ``value`` through fields,
    tuples and lists, added to ``out`` by class."""
    if isinstance(value, (tuple, list)):
        for item in value:
            _values_under(item, out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.setdefault(type(value), value)
        for field in dataclasses.fields(value):
            _values_under(getattr(value, field.name), out)


def _one_of_each():
    """One instance of every package dataclass, built the way the package
    builds it."""
    found = {}
    model = parse_model(_EVERY_NODE)
    compiled = compile_model(model)
    space = compiled.space
    with pytest.raises(ModelError) as err:
        parse_model('model "m" { dimension d = {a} } query P(e == a)')
    lo = space.axis_proposition("x", [0])
    extra = (
        model,
        compiled,
        space.dimensions,
        err.value.diagnostics,
        make_partition(space, [("lo", lo), ("rest", ~lo)]),
        odds(lo),
        log_odds(lo),
        check_sum_rule(lo),
        SuiteResult("laws", 2, ["case 0"], "note"),
    )
    _values_under(extra, found)
    return found


def test_every_dataclass_is_immutable():
    found = _one_of_each()
    for cls in _dataclasses():  # _Chain through AndPred and OrPred
        assert any(issubclass(kind, cls) for kind in found), cls
    for cls, value in found.items():
        name = dataclasses.fields(cls)[0].name
        kept = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, kept)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, name) is kept, cls
        assert not hasattr(value, "not_a_field"), cls


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_a_model_and_a_span_copy_to_equal_values(how):
    duplicate = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    }[how]
    model = parse_model(fixtures.source("deck"))
    for value in (model, model.span, model.queries[0].span):
        twin = duplicate(value)
        assert twin == value and type(twin) is type(value)
        # astuple also reads the spans, which equality ignores.
        assert dataclasses.astuple(twin) == dataclasses.astuple(value)
    assert compile_model(duplicate(model)).queries == compile_model(model).queries


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_a_proposition_copies_to_an_equal_value_and_is_validated_again(how, monkeypatch):
    checked = []
    post_init = Proposition.__post_init__

    def counted(prop):
        post_init(prop)
        checked.append(prop)

    space = compile_model(parse_model(fixtures.source("deck"))).space
    prop = space.axis_proposition(space.dimensions[0].name, [0, 2])
    monkeypatch.setattr(Proposition, "__post_init__", counted)
    if how == "copy":
        twin_space, twin = space, copy.copy(prop)
    elif how == "deepcopy":
        twin_space, twin = copy.deepcopy((space, prop))
    else:
        twin_space, twin = pickle.loads(pickle.dumps((space, prop)))
    assert twin == Proposition(twin_space, prop.mask) and twin.space is twin_space
    assert twin is not prop and twin.count == prop.count
    assert any(built is twin for built in checked)  # __init__ ran its check


# -- what the benchmark's tracer relies on ------------------------------------------


@pytest.mark.parametrize("name", fixtures.names())
def test_a_model_replaced_without_partitions_and_queries_compiles(name):
    model = parse_model(fixtures.source(name), name)
    bare = dataclasses.replace(model, partitions=(), queries=())
    assert (bare.name, bare.declarations, bare.span) == (model.name, model.declarations, model.span)
    compiled = compile_model(bare, scaled=True)
    assert compiled.queries == ()
    assert [d.name for d in compiled.space.dimensions] == [d.name for d in model.declarations]


def test_a_replaced_post_init_sees_every_proposition_built(monkeypatch):
    built = []
    post_init = Proposition.__post_init__

    def recorded(prop):
        post_init(prop)
        built.append(prop)

    space = compile_model(parse_model(fixtures.source("deck"))).space
    monkeypatch.setattr(spaces.Proposition, "__post_init__", recorded)
    first = Proposition(space, 0b101)
    second = Proposition(space, 0b110)
    made = [first, second, first & second, first | second, ~first]
    made.append(dataclasses.replace(first, mask=0b11))
    assert [id(p) for p in built] == [id(p) for p in made]
    with pytest.raises(ValueError, match="outside the space"):
        dataclasses.replace(first, mask=-1)
