"""The reachability census (``benchmarks/census.py``) and its checked-in
list, ``benchmarks/unreached.txt``.

The census itself runs every entry point (minutes; CI's ``census`` job).
These tests check what can go stale without it: every listed function
still exists and carries a known tag, and the two ways the census names a
function — the profile hook's code objects and the ``ast`` enumeration —
agree.
"""

import asyncio
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LISTING = ROOT / "benchmarks" / "unreached.txt"

_spec = importlib.util.spec_from_file_location("census", ROOT / "benchmarks" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


@pytest.fixture(scope="module")
def sites():
    return census.functions()


def test_every_listed_function_exists_and_is_tagged(sites):
    defined = set(sites.values())
    listing = census.read_listing(str(LISTING))
    assert listing
    for key, (tag, reason) in listing.items():
        assert key in defined, f"{key}: listed but not defined"
        assert tag in census.TAGS, f"{key}: tag {tag!r}"
        assert reason, f"{key}: no reason"


def test_check_fails_on_each_kind_of_stale_list():
    listing = {
        "m:kept": ("debug", "repr"),
        "m:called": ("oracle", "tests read it"),
        "m:gone": ("interface", "abstract"),
        "m:doomed": ("delete", "no caller"),
    }
    problems = census.check_listing(
        listing,
        unreached={"m:kept", "m:doomed", "m:new"},
        defined={"m:kept", "m:called", "m:doomed", "m:new"},
    )
    assert [line.split(":")[1] for line in problems] == ["new", "called", "doomed", "gone"]


SAMPLE = '''
import functools


def plain():
    def inner():
        return 1
    return inner()


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


class Outer:
    @property
    def value(self):
        return 1

    @value.setter
    def value(self, v):
        pass

    @staticmethod
    @deco
    def stacked():
        return 2

    class Inner:
        def method(self):
            return [x for x in range(2)]

    async def coro(self):
        return 3


@deco
def decorated():
    return plain()
'''


def _run_sample(module):
    obj = module.Outer()
    obj.value = obj.value
    module.Outer.stacked()
    module.Outer.Inner().method()
    asyncio.run(obj.coro())
    module.decorated()


def test_hook_and_ast_agree_on_every_function_of_a_module(tmp_path, monkeypatch):
    package = tmp_path / "census_sample"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(SAMPLE)
    monkeypatch.syspath_prepend(str(tmp_path))

    expected = census.functions(package)
    with census.Hook() as hook:
        import census_sample.mod as module  # the decorators run at import

        _run_sample(module)
    codes = [c for c in hook.codes if census.site(c) in expected]
    keys = {expected[census.site(c)] for c in codes}
    assert keys == set(expected.values())
    assert "census_sample.mod:Outer.Inner.method" in keys
    assert "census_sample.mod:deco.<locals>.wrapper" in keys
    if sys.version_info >= (3, 11):
        for code in codes:
            assert expected[census.site(code)] == f"census_sample.mod:{code.co_qualname}"


def _code_objects(code):
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield const
            yield from _code_objects(const)


@pytest.mark.parametrize("path", sorted(census.PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(census.SRC)))
def test_every_src_function_code_has_its_ast_key(path, sites):
    """What the hook would see of each ``def`` (its compiled code object)
    maps to exactly one ``ast`` key, so an entered function is never
    mistaken for an unreached one."""
    module = census.module_name(path)
    mine = {key for key in sites.values() if key.startswith(module + ":")}
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    seen = set()
    for code in _code_objects(top):
        if code.co_name.startswith("<") or not code.co_flags & inspect.CO_NEWLOCALS:
            continue  # a lambda, a comprehension or a class body
        key = sites[census.site(code)]
        seen.add(key)
        if sys.version_info >= (3, 11):
            assert key == f"{module}:{code.co_qualname}"
    assert seen == mine
