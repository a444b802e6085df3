"""Every exported name resolves, and the package's star import works."""

import importlib

import pytest

import omegatruth


@pytest.mark.parametrize("name", ["syntax", "coding", "kernel", "tactics", "theorems", "proofscript"])
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"omegatruth.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_star_import():
    ns: dict = {}
    exec("from omegatruth import *", ns)
    assert ns["check"] is omegatruth.check and ns["parse_formula"] is omegatruth.parse_formula
